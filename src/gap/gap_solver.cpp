#include "gap/gap_solver.hpp"

#include <cassert>

namespace kairos::gap {

GapSolver::GapSolver(int task_count, const KnapsackSolver& knapsack) {
  reset(task_count, knapsack);
}

void GapSolver::reset(int task_count, const KnapsackSolver& knapsack) {
  assert(task_count >= 0);
  knapsack_ = &knapsack;
  c1_.assign(static_cast<std::size_t>(task_count), kUnassignedCost);
  assigned_.assign(static_cast<std::size_t>(task_count), -1);
}

void GapSolver::process_element(const GapElement& element) {
  // Build the knapsack instance: profit is the cost *reduction* over the
  // best known assignment; only positive reductions participate (§III-C).
  std::vector<KnapsackItem>& items = items_;
  items.clear();
  // Map from item id back to the option (ids are positions in `options`).
  for (std::size_t k = 0; k < element.options.size(); ++k) {
    const GapTaskOption& option = element.options[k];
    assert(option.task >= 0 && option.task < task_count());
    const double reduction = c1_[index(option.task)] - option.cost;
    if (reduction <= 0.0) continue;
    items.push_back(KnapsackItem{static_cast<int>(k), reduction,
                                 option.weight});
  }
  if (items.empty()) return;

  knapsack_->solve_into(element.capacity, items, selection_);
  for (const int item_id : selection_.chosen) {
    const GapTaskOption& option =
        element.options[static_cast<std::size_t>(item_id)];
    assigned_[index(option.task)] = element.element;
    c1_[index(option.task)] = option.cost;
  }
}

bool GapSolver::all_assigned() const {
  for (const int a : assigned_) {
    if (a < 0) return false;
  }
  return true;
}

int GapSolver::unassigned_count() const {
  int count = 0;
  for (const int a : assigned_) {
    if (a < 0) ++count;
  }
  return count;
}

double GapSolver::total_assigned_cost() const {
  double total = 0.0;
  for (std::size_t t = 0; t < c1_.size(); ++t) {
    if (assigned_[t] >= 0) total += c1_[t];
  }
  return total;
}

}  // namespace kairos::gap

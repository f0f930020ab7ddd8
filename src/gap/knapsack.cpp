#include "gap/knapsack.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace kairos::gap {

namespace {

using platform::ResourceVector;

/// Profit density: profit per unit of (max-dimension) utilisation. Items
/// that weigh nothing are infinitely dense.
double density(const KnapsackItem& item, const ResourceVector& capacity) {
  const double size = item.weight.utilisation_of(capacity);
  if (std::isinf(size)) return -1.0;  // cannot ever fit
  if (size <= 0.0) return std::numeric_limits<double>::infinity();
  return item.profit / size;
}

/// The candidates — items with positive profit that fit on their own — in
/// order of decreasing density, ties kept in item order, written to `order`.
/// Each density is computed once into `key`; the stable insertion sort gives
/// std::stable_sort's order without its temporary buffer, and its O(T²)
/// worst case is the greedy solver's own bound.
void density_order(const ResourceVector& capacity,
                   const std::vector<KnapsackItem>& items,
                   std::vector<double>& key, std::vector<std::size_t>& order) {
  order.clear();
  key.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].profit > 0.0 && items[i].weight.fits_within(capacity)) {
      key[i] = density(items[i], capacity);
      order.push_back(i);
    }
  }
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::size_t i = order[k];
    std::size_t j = k;
    for (; j > 0 && key[i] > key[order[j - 1]]; --j) order[j] = order[j - 1];
    order[j] = i;
  }
}

/// The greedy solver's buffers, reused across solves on one thread, so a
/// warm solve allocates nothing.
struct GreedyScratch {
  std::vector<double> key;
  std::vector<std::size_t> order;
  std::vector<char> taken;
};

thread_local GreedyScratch greedy_scratch;

}  // namespace

void GreedyKnapsackSolver::solve_into(const ResourceVector& capacity,
                                      const std::vector<KnapsackItem>& items,
                                      KnapsackSelection& out) const {
  GreedyScratch& scratch = greedy_scratch;
  density_order(capacity, items, scratch.key, scratch.order);
  const std::vector<std::size_t>& order = scratch.order;
  std::vector<char>& taken = scratch.taken;
  taken.assign(items.size(), 0);
  ResourceVector used;
  for (const std::size_t i : order) {
    if ((used + items[i].weight).fits_within(capacity)) {
      used += items[i].weight;
      taken[i] = 1;
    }
  }

  // One O(T²) improvement pass: try to swap an untaken item for a taken item
  // of lower profit when the exchange still fits.
  for (const std::size_t i : order) {
    if (taken[i]) continue;
    for (const std::size_t j : order) {
      if (!taken[j]) continue;
      if (items[i].profit <= items[j].profit) continue;
      const ResourceVector candidate =
          used - items[j].weight + items[i].weight;
      if (!candidate.any_negative() && candidate.fits_within(capacity)) {
        used = candidate;
        taken[j] = 0;
        taken[i] = 1;
        break;
      }
    }
  }

  out.chosen.clear();
  out.profit = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (taken[i]) {
      out.chosen.push_back(items[i].id);
      out.profit += items[i].profit;
    }
  }
}

namespace {

/// Recursive DFS with a suffix-profit bound. `order` is sorted by density so
/// promising branches are explored first, tightening the bound early.
class BranchAndBound {
 public:
  BranchAndBound(const ResourceVector& capacity,
                 const std::vector<KnapsackItem>& items,
                 std::vector<std::size_t> order)
      : capacity_(capacity), items_(items), order_(std::move(order)) {
    suffix_.assign(order_.size() + 1, 0.0);
    for (std::size_t k = order_.size(); k-- > 0;) {
      suffix_[k] = suffix_[k + 1] + items_[order_[k]].profit;
    }
    current_.assign(order_.size(), false);
    best_set_.assign(order_.size(), false);
  }

  void run() { explore(0, ResourceVector{}, 0.0); }

  double best_profit() const { return best_; }
  const std::vector<bool>& best_set() const { return best_set_; }

 private:
  void explore(std::size_t depth, ResourceVector used, double profit) {
    if (depth == order_.size()) {
      if (profit > best_) {
        best_ = profit;
        best_set_ = current_;
      }
      return;
    }
    if (profit + suffix_[depth] <= best_) return;  // optimistic bound

    const KnapsackItem& item = items_[order_[depth]];
    const ResourceVector with_item = used + item.weight;
    if (with_item.fits_within(capacity_)) {
      current_[depth] = true;
      explore(depth + 1, with_item, profit + item.profit);
    }
    current_[depth] = false;
    explore(depth + 1, used, profit);
  }

  const ResourceVector& capacity_;
  const std::vector<KnapsackItem>& items_;
  std::vector<std::size_t> order_;
  std::vector<double> suffix_;
  std::vector<bool> current_;
  std::vector<bool> best_set_;
  double best_ = 0.0;
};

}  // namespace

void BranchAndBoundKnapsackSolver::solve_into(
    const ResourceVector& capacity, const std::vector<KnapsackItem>& items,
    KnapsackSelection& out) const {
  std::vector<double> key;
  std::vector<std::size_t> order;
  density_order(capacity, items, key, order);
  assert(order.size() <= max_items_ &&
         "instance too large for exact branch-and-bound");

  BranchAndBound solver(capacity, items, order);
  solver.run();

  out.chosen.clear();
  out.profit = 0.0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (solver.best_set()[k]) {
      out.chosen.push_back(items[order[k]].id);
      out.profit += items[order[k]].profit;
    }
  }
}

}  // namespace kairos::gap

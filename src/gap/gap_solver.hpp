// The Generalized Assignment Problem solver of §III-C, after Cohen, Katzir &
// Raz, "An efficient approximation for the generalized assignment problem"
// (Inf. Process. Lett. 100(4), 2006).
//
// Elements are bins, tasks are items. The solver iterates over the elements;
// each element runs one knapsack over the *cost reductions* c1(t) − c2(t,e),
// where c1 holds the best known mapping cost of each task (a very large value
// while unmapped) and c2 the cost of mapping t onto the element under
// consideration. A task is only (re)assigned when the reduction is positive,
// so an unmapped task is almost always preferred over stealing a mapped one.
// The algorithm achieves a (1+α)-approximation, α being the approximation
// ratio of the knapsack subroutine, in time O(E·k(T) + E·T).
//
// The solver is deliberately *incremental*: MapApplication grows the
// candidate element set ring by ring and re-invokes the solver, which must
// reuse assignments and costs from previous invocations (§III-C: "allowing us
// to reuse the mappings and their associated cost, as determined in the
// previous invocation"). process_element() therefore consumes one new element
// at a time while carrying all assignment state across calls.
#pragma once

#include <vector>

#include "gap/knapsack.hpp"
#include "platform/resource_vector.hpp"

namespace kairos::gap {

/// The cost of a task while unassigned. Any feasible real cost must stay
/// well below this so that assigning an unmapped task dominates remapping.
inline constexpr double kUnassignedCost = 1e12;

/// One feasible (task, element) pairing offered to the solver.
struct GapTaskOption {
  int task = -1;                      ///< dense task index [0, task_count)
  double cost = 0.0;                  ///< c2: cost of mapping task here
  platform::ResourceVector weight;    ///< resources claimed on this element
};

/// One bin: an element's identity, its free capacity, and the tasks that are
/// feasible on it.
struct GapElement {
  int element = -1;  ///< opaque element identifier (e.g. ElementId::value)
  platform::ResourceVector capacity;
  std::vector<GapTaskOption> options;
};

class GapSolver {
 public:
  /// `task_count` fixes the item universe; `knapsack` must outlive the
  /// solver.
  GapSolver(int task_count, const KnapsackSolver& knapsack);

  /// A solver with no tasks; reset() gives it a problem.
  GapSolver() = default;

  /// Starts over on a fresh problem, as a newly constructed solver would,
  /// keeping the buffers' capacity.
  void reset(int task_count, const KnapsackSolver& knapsack);

  /// Runs one Cohen–Katzir–Raz round for a newly discovered element. Tasks
  /// selected by the element's knapsack move to it; previously assigned
  /// elements keep their (now partially unused) reservations, exactly as in
  /// the original algorithm — bins are processed once.
  void process_element(const GapElement& element);

  /// Task → element id, or -1 while unassigned.
  int assignment(int task) const { return assigned_.at(index(task)); }
  const std::vector<int>& assignments() const { return assigned_; }

  /// c1(t): best known mapping cost (kUnassignedCost while unassigned).
  double cost(int task) const { return c1_.at(index(task)); }

  bool all_assigned() const;
  int unassigned_count() const;

  /// Total cost over the assigned tasks only.
  double total_assigned_cost() const;

  int task_count() const { return static_cast<int>(c1_.size()); }

 private:
  std::size_t index(int task) const { return static_cast<std::size_t>(task); }

  const KnapsackSolver* knapsack_ = nullptr;
  std::vector<double> c1_;
  std::vector<int> assigned_;
  /// process_element's reused buffers.
  std::vector<KnapsackItem> items_;
  KnapsackSelection selection_;
};

}  // namespace kairos::gap

// Multi-dimensional 0/1 knapsack solvers.
//
// The GAP decomposition of §III-C reduces each per-element decision to a
// knapsack: the element is a bin whose size is its free resource vector, and
// the candidate tasks are items with profits equal to their cost *reduction*.
// The paper's knapsack implementation runs in O(T²); the greedy-with-swaps
// solver below reproduces that complexity and is the production solver. An
// exact branch-and-bound solver is provided for tests and for quantifying the
// approximation gap (bench_ablation_knapsack).
#pragma once

#include <string>
#include <vector>

#include "platform/resource_vector.hpp"

namespace kairos::gap {

/// An item offered to the knapsack: an opaque id, a strictly positive profit
/// and a resource-vector weight.
struct KnapsackItem {
  int id = -1;
  double profit = 0.0;
  platform::ResourceVector weight;
};

/// The chosen subset (ids of the selected items) and its total profit.
struct KnapsackSelection {
  std::vector<int> chosen;
  double profit = 0.0;
};

/// Interface for knapsack solvers so the GAP solver (and its ablations) can
/// swap strategies.
class KnapsackSolver {
 public:
  virtual ~KnapsackSolver() = default;

  /// Selects a subset of `items` whose summed weight fits within `capacity`,
  /// (approximately) maximising summed profit, into `out` (overwritten; its
  /// capacity is reused). Items with non-positive profit are never
  /// selected.
  virtual void solve_into(const platform::ResourceVector& capacity,
                          const std::vector<KnapsackItem>& items,
                          KnapsackSelection& out) const = 0;

  /// solve_into a fresh selection.
  KnapsackSelection solve(const platform::ResourceVector& capacity,
                          const std::vector<KnapsackItem>& items) const {
    KnapsackSelection selection;
    solve_into(capacity, items, selection);
    return selection;
  }

  virtual std::string name() const = 0;
};

/// Greedy by profit-density with a single O(T²) pairwise-swap improvement
/// pass — mirrors the paper's "our knapsack implementation has a time
/// complexity O(T²)".
class GreedyKnapsackSolver : public KnapsackSolver {
 public:
  void solve_into(const platform::ResourceVector& capacity,
                  const std::vector<KnapsackItem>& items,
                  KnapsackSelection& out) const override;
  std::string name() const override { return "greedy-swap"; }
};

/// Exact depth-first branch-and-bound with a remaining-profit bound.
/// Exponential worst case; intended for small instances (tests, ablations,
/// quality baselines), guarded by `max_items`.
class BranchAndBoundKnapsackSolver : public KnapsackSolver {
 public:
  explicit BranchAndBoundKnapsackSolver(std::size_t max_items = 30)
      : max_items_(max_items) {}

  void solve_into(const platform::ResourceVector& capacity,
                  const std::vector<KnapsackItem>& items,
                  KnapsackSelection& out) const override;
  std::string name() const override { return "branch-and-bound"; }

 private:
  std::size_t max_items_;
};

}  // namespace kairos::gap

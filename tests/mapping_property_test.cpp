// Property tests for the mapper's inner-loop structures against simple
// reference implementations:
//  * the dense DistanceOracle against a std::map keyed by ordered (origin,
//    target) pairs — the sparse matrix of §III-D, stated directly — under
//    random set / overwrite / lookup / clear sequences;
//  * the greedy knapsack, which ranks candidates by cached densities,
//    against a copy of the formulation that recomputes both densities in
//    every comparison, on random multi-dimensional instances. The mapper's
//    decisions depend on the exact order, so the chosen ids must match in
//    order and the profit bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/layout.hpp"
#include "gap/knapsack.hpp"
#include "util/rng.hpp"

namespace kairos {
namespace {

using platform::ElementId;
using platform::ResourceVector;

// --- DistanceOracle ----------------------------------------------------------

TEST(DistanceOraclePropertyTest, MatchesOrderedPairMapUnderRandomOps) {
  constexpr int kElements = 64;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    core::DistanceOracle oracle(kElements);
    std::map<std::pair<int, int>, int> reference;
    // Ids are drawn beyond both ends of [0, kElements) for lookups, so
    // missing origins, targets past a row's end and invalid ids all occur.
    auto any_id = [&] {
      return ElementId{static_cast<std::int32_t>(
          rng.uniform_int(-3, kElements + 3))};
    };
    auto valid_id = [&] {
      return ElementId{
          static_cast<std::int32_t>(rng.uniform_int(0, kElements - 1))};
    };
    for (int step = 0; step < 2000; ++step) {
      const std::int64_t op = rng.uniform_int(0, 99);
      if (op < 45) {
        const ElementId o = valid_id();
        const ElementId t = valid_id();
        const int hops = static_cast<int>(rng.uniform_int(0, 20));
        oracle.set(o, t, hops);
        reference[{o.value, t.value}] = hops;
      } else if (op < 99) {
        const ElementId o = any_id();
        const ElementId t = any_id();
        const auto it = reference.find({o.value, t.value});
        const std::optional<int> expected =
            it == reference.end() ? std::nullopt
                                  : std::optional<int>(it->second);
        ASSERT_EQ(oracle.lookup(o, t), expected)
            << "seed " << seed << " step " << step << " (" << o.value
            << ", " << t.value << ")";
      } else {
        oracle.clear();
        reference.clear();
      }
      ASSERT_EQ(oracle.size(), reference.size())
          << "seed " << seed << " step " << step;
    }
  }
}

// --- greedy knapsack ---------------------------------------------------------

/// Reference greedy-with-swaps knapsack whose sort comparator recomputes
/// both items' densities on every comparison.
gap::KnapsackSelection recomputing_greedy(
    const ResourceVector& capacity,
    const std::vector<gap::KnapsackItem>& items) {
  auto density = [&](const gap::KnapsackItem& item) {
    const double size = item.weight.utilisation_of(capacity);
    if (std::isinf(size)) return -1.0;
    if (size <= 0.0) return std::numeric_limits<double>::infinity();
    return item.profit / size;
  };
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].profit > 0.0 && items[i].weight.fits_within(capacity)) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return density(items[a]) > density(items[b]);
                   });
  std::vector<bool> taken(items.size(), false);
  ResourceVector used;
  for (const std::size_t i : order) {
    if ((used + items[i].weight).fits_within(capacity)) {
      used += items[i].weight;
      taken[i] = true;
    }
  }
  for (const std::size_t i : order) {
    if (taken[i]) continue;
    for (const std::size_t j : order) {
      if (!taken[j]) continue;
      if (items[i].profit <= items[j].profit) continue;
      const ResourceVector candidate =
          used - items[j].weight + items[i].weight;
      if (!candidate.any_negative() && candidate.fits_within(capacity)) {
        used = candidate;
        taken[j] = false;
        taken[i] = true;
        break;
      }
    }
  }
  gap::KnapsackSelection selection;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (taken[i]) {
      selection.chosen.push_back(items[i].id);
      selection.profit += items[i].profit;
    }
  }
  return selection;
}

TEST(GreedyKnapsackPropertyTest, CachedDensitiesKeepTheRecomputedOrder) {
  const gap::GreedyKnapsackSolver solver;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    util::Xoshiro256 rng(seed);
    // Small integer ranges make equal densities (ties the stable sort must
    // keep in item order) and zero weights (infinitely dense items) common;
    // up to 60 items, most fitting on their own but not all together, so the
    // sort runs past its insertion-sort cutoff and its order decides.
    auto component = [&](std::int64_t lo, std::int64_t hi) {
      return rng.uniform_int(lo, hi);
    };
    const ResourceVector capacity(component(0, 40), component(0, 40),
                                  component(0, 3), component(0, 3));
    std::vector<gap::KnapsackItem> items;
    const auto n = static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < n; ++i) {
      gap::KnapsackItem item;
      item.id = 100 + i;
      item.profit = rng.uniform_int(0, 3) == 0
                        ? rng.uniform_real(-1.0, 50.0)
                        : static_cast<double>(rng.uniform_int(-2, 8));
      item.weight = ResourceVector(component(0, 6), component(0, 6),
                                   component(0, 1), component(0, 1));
      items.push_back(item);
    }
    const gap::KnapsackSelection expected = recomputing_greedy(capacity, items);
    const gap::KnapsackSelection actual = solver.solve(capacity, items);
    ASSERT_EQ(actual.chosen, expected.chosen) << "seed " << seed;
    ASSERT_EQ(actual.profit, expected.profit) << "seed " << seed;
  }
}

}  // namespace
}  // namespace kairos

// Property tests for the mapper's inner-loop structures against simple
// reference implementations:
//  * the dense DistanceOracle against a std::map keyed by ordered (origin,
//    target) pairs — the sparse matrix of §III-D, stated directly — under
//    random set / overwrite / lookup / clear sequences;
//  * the greedy knapsack, which ranks candidates by cached densities,
//    against a copy of the formulation that recomputes both densities in
//    every comparison, on random multi-dimensional instances. The mapper's
//    decisions depend on the exact order, so the chosen ids must match in
//    order and the profit bit for bit;
//  * the NeighborhoodPricer, which prices a neighborhood's tasks from
//    per-neighborhood and per-element tables, against MappingCostModel's
//    task_cost on random platforms, applications, partial mappings, platform
//    loads and distance tables: the GAP compares costs, so they must be
//    equal bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/layout.hpp"
#include "gap/knapsack.hpp"
#include "gen/generator.hpp"
#include "platform/builders.hpp"
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
    // up to 60 items, most fitting on their own but not all together, so
    // long orders with many ties decide the selection.
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

// --- NeighborhoodPricer ------------------------------------------------------

TEST(NeighborhoodPricerPropertyTest, EqualsTaskCostBitForBit) {
  int priced = 0;
  int with_peer_neighbor = 0;
  int with_missing_distance = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Xoshiro256 rng(seed);
    const int n = static_cast<int>(rng.uniform_int(2, 30));
    platform::Platform platform = platform::make_irregular(
        n, static_cast<int>(rng.uniform_int(0, n)), seed);

    gen::GeneratorConfig config;
    config.internal_tasks = static_cast<int>(rng.uniform_int(0, 12));
    const graph::Application app =
        gen::generate_application(config, rng, "app");

    // Other applications' load: used elements (the other-app bonus), partly
    // filled capacity (load balance) and hosting history (wear).
    for (std::size_t e = 0; e < platform.element_count(); ++e) {
      const ElementId id{static_cast<std::int32_t>(e)};
      if (rng.bernoulli(0.3)) {
        ASSERT_TRUE(platform.allocate(
            id, ResourceVector(rng.uniform_int(0, 500), rng.uniform_int(0, 200),
                               0, 0)));
        platform.add_task(id);
      }
    }

    // A partial mapping of this application; several tasks may share an
    // element, so a candidate can host a peer itself.
    core::PartialMapping mapping(app.task_count(), platform.element_count());
    std::vector<graph::TaskId> unmapped;
    for (const auto& task : app.tasks()) {
      if (rng.bernoulli(0.5)) {
        mapping.assign(task.id(), ElementId{static_cast<std::int32_t>(
                                      rng.uniform_int(0, n - 1))});
      } else {
        unmapped.push_back(task.id());
      }
    }
    if (unmapped.empty()) continue;

    // Distances in both directions for some pairs and none for others, so
    // the search-direction lookup, the reverse lookup and the penalty all
    // price some terms.
    core::DistanceOracle oracle(platform.element_count());
    for (int k = 0; k < 3 * n; ++k) {
      oracle.set(ElementId{static_cast<std::int32_t>(rng.uniform_int(0, n - 1))},
                 ElementId{static_cast<std::int32_t>(rng.uniform_int(0, n - 1))},
                 static_cast<int>(rng.uniform_int(0, 8)));
    }

    const core::CostWeights weights{
        rng.uniform_real(0.0, 10.0), rng.uniform_real(0.0, 200.0),
        rng.bernoulli(0.5) ? rng.uniform_real(0.0, 5.0) : 0.0,
        rng.bernoulli(0.5) ? rng.uniform_real(0.0, 5.0) : 0.0};
    const core::FragmentationBonuses bonuses{rng.uniform_real(0.5, 1.0),
                                             rng.uniform_real(0.2, 0.7),
                                             rng.uniform_real(0.0, 0.4)};
    const core::MappingCostModel model(weights, platform, app, bonuses);
    core::NeighborhoodPricer pricer(model, mapping, oracle);

    // Two neighborhoods per instance: the pricer's tables must reset.
    for (int round = 0; round < 2; ++round) {
      std::vector<graph::TaskId> tasks;
      for (const graph::TaskId t : unmapped) {
        if (rng.bernoulli(0.7)) tasks.push_back(t);
      }
      pricer.start(tasks);
      for (std::size_t e = 0; e < platform.element_count(); ++e) {
        const ElementId id{static_cast<std::int32_t>(e)};
        pricer.set_element(id);
        for (std::size_t k = 0; k < tasks.size(); ++k) {
          ASSERT_EQ(pricer.cost(k),
                    model.task_cost(tasks[k], id, mapping, oracle))
              << "seed " << seed << " task " << tasks[k].value << " element "
              << e;
          ++priced;
          for (const ElementId nb : platform.neighbors(id)) {
            for (const auto& task : app.tasks()) {
              if (mapping.element_of(task.id()) == nb) {
                ++with_peer_neighbor;
                break;
              }
            }
          }
          for (const graph::ChannelId c : app.in_channels(tasks[k])) {
            const graph::TaskId peer = app.channel(c).src;
            if (mapping.is_mapped(peer) &&
                mapping.element_of(peer) != id &&
                !oracle.lookup(mapping.element_of(peer), id) &&
                !oracle.lookup(id, mapping.element_of(peer))) {
              ++with_missing_distance;
            }
          }
        }
      }
    }
  }
  // The cases the pricer's tables shortcut all occurred.
  EXPECT_GT(priced, 10000);
  EXPECT_GT(with_peer_neighbor, 1000);
  EXPECT_GT(with_missing_distance, 1000);
}

}  // namespace
}  // namespace kairos

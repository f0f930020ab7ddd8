#include "core/mapping.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>

#include "core/ring_search.hpp"
#include "gap/gap_solver.hpp"
#include "gap/knapsack.hpp"

namespace kairos::core {

using graph::TaskId;
using platform::ElementId;
using platform::Platform;
using platform::ResourceVector;

namespace {

/// Everything map() works in, kept warm between calls so that a call
/// allocates nothing but its result. Leased from a thread-local pool (so a
/// nested map() on one thread gets its own); the pricer is bound to this
/// scratch's mapping, oracle and cost model once, at construction.
struct MapScratch {
  MapScratch() = default;
  MapScratch(const MapScratch&) = delete;
  MapScratch& operator=(const MapScratch&) = delete;

  PartialMapping mapping{0, 0};
  DistanceOracle oracle{0};
  MappingCostModel cost_model;
  NeighborhoodPricer pricer{cost_model, mapping, oracle};
  RingSearch search;
  gap::GapSolver gap;
  gap::GapElement bin;  ///< one options buffer for every ring element
  std::vector<const graph::Implementation*> chosen;
  std::vector<ElementId> candidates;
  std::vector<TaskId> seeds;
  std::vector<TaskId> level_queue;
  std::vector<int> level;
  std::vector<TaskId> ti;
  std::vector<RingOrigin> origins;
  std::vector<ElementId> ring;
};

thread_local std::vector<std::unique_ptr<MapScratch>> scratch_pool;

/// Hands the scratch back to the pool on scope exit.
struct ScratchLease {
  std::unique_ptr<MapScratch> scratch;

  ScratchLease() {
    if (scratch_pool.empty()) {
      scratch = std::make_unique<MapScratch>();
    } else {
      scratch = std::move(scratch_pool.back());
      scratch_pool.pop_back();
    }
  }
  ~ScratchLease() { scratch_pool.push_back(std::move(scratch)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
};

const gap::GreedyKnapsackSolver greedy_knapsack;
const gap::BranchAndBoundKnapsackSolver exact_knapsack;

}  // namespace

MappingResult IncrementalMapper::map(const graph::Application& app,
                                     const std::vector<int>& impl_of,
                                     const PinTable& pins,
                                     Platform& platform) const {
  MappingResult result;
  result.element_of.assign(app.task_count(), ElementId{});
  assert(impl_of.size() == app.task_count());
  assert(pins.size() == app.task_count());

  // The mapper mutates only element state (allocate/add_task); links are the
  // routing phase's business, so the rollback snapshot can skip them.
  platform::Transaction txn(platform, platform::SnapshotScope::kElementsOnly);

  const ScratchLease lease;
  MapScratch& scratch = *lease.scratch;
  PartialMapping& mapping = scratch.mapping;
  mapping.reset(app.task_count(), platform.element_count());
  DistanceOracle& oracle = scratch.oracle;
  oracle.reset(platform.element_count());
  MappingCostModel& cost_model = scratch.cost_model;
  cost_model.reset(config_.weights, platform, app, config_.bonuses);
  const gap::KnapsackSolver& knapsack =
      config_.exact_knapsack
          ? static_cast<const gap::KnapsackSolver&>(exact_knapsack)
          : greedy_knapsack;

  // Every task's chosen implementation, resolved once.
  std::vector<const graph::Implementation*>& chosen = scratch.chosen;
  chosen.clear();
  for (const auto& task : app.tasks()) {
    chosen.push_back(&task.implementations().at(static_cast<std::size_t>(
        impl_of[static_cast<std::size_t>(task.id().value)])));
  }
  auto impl = [&](TaskId t) -> const graph::Implementation& {
    return *chosen[static_cast<std::size_t>(t.value)];
  };
  auto requirement = [&](TaskId t) -> const ResourceVector& {
    return impl(t).requirement;
  };

  // av(e, t): the element can fulfil the resource requirements of the chosen
  // implementation — type match, pin match, and free-capacity fit. `free`
  // is the element's free capacity, read once by callers that test many
  // tasks against the same element.
  auto available_on = [&](const platform::Element& element,
                          const ResourceVector& free, TaskId t) {
    const auto& pin = pins[static_cast<std::size_t>(t.value)];
    if (pin.has_value() && *pin != element.id()) return false;
    return !element.is_failed() && element.type() == impl(t).target &&
           requirement(t).fits_within(free);
  };
  auto available = [&](ElementId e, TaskId t) {
    const auto& element = platform.element(e);
    return available_on(element, element.free(), t);
  };

  // Candidates for a task in element-id order (identical to a full scan
  // through available()), answered from the availability index. `limit`
  // bounds the enumeration: M0 only needs to distinguish 0 / 1 / many.
  auto available_elements = [&](TaskId t, std::size_t limit)
      -> const std::vector<ElementId>& {
    std::vector<ElementId>& out = scratch.candidates;
    out.clear();
    const auto& pin = pins[static_cast<std::size_t>(t.value)];
    if (pin.has_value()) {
      if (available(*pin, t)) out.push_back(*pin);
      return out;
    }
    platform.availability().collect_available(impl(t).target, requirement(t),
                                              ElementId{}, limit, out);
    return out;
  };

  auto fail = [&](std::string reason) {
    result.ok = false;
    result.reason = std::move(reason);
    return result;  // txn rolls back on scope exit
  };

  // Places the task: reserves resources and registers the hosting.
  auto assign_task = [&](TaskId t, ElementId e) {
    if (!platform.allocate(e, requirement(t))) return false;
    platform.add_task(e);
    mapping.assign(t, e);
    result.element_of[static_cast<std::size_t>(t.value)] = e;
    result.total_cost += cost_model.task_cost(t, e, mapping, oracle);
    return true;
  };

  // ---- M0: tasks with a single available element (Fig. 5, line 2) --------
  for (const auto& task : app.tasks()) {
    const auto& avs = available_elements(task.id(), 2);
    if (avs.empty()) {
      return fail("no available element for task '" + task.name() + "'");
    }
    if (avs.size() == 1) {
      if (!assign_task(task.id(), avs.front())) {
        return fail("anchor element '" +
                    platform.element(avs.front()).name() +
                    "' cannot host all tasks pinned to it");
      }
    }
  }

  // Buffers reused by every neighborhood below.
  RingSearch& search = scratch.search;
  NeighborhoodPricer& pricer = scratch.pricer;
  gap::GapSolver& gap = scratch.gap;
  gap::GapElement& bin = scratch.bin;
  std::vector<ElementId>& ring = scratch.ring;
  std::vector<TaskId>& ti = scratch.ti;
  std::vector<RingOrigin>& origins = scratch.origins;
  std::vector<int>& level = scratch.level;

  // ---- main loop: one pass per connected component ------------------------
  while (mapping.mapped_count() < app.task_count()) {
    // Neighborhood levels from the currently mapped tasks.
    std::vector<TaskId>& seeds = scratch.seeds;
    seeds.clear();
    for (const auto& task : app.tasks()) {
      if (mapping.is_mapped(task.id())) seeds.push_back(task.id());
    }
    app.bfs_levels(seeds, level, scratch.level_queue);

    const bool reachable = std::any_of(
        app.tasks().begin(), app.tasks().end(), [&](const auto& task) {
          return !mapping.is_mapped(task.id()) &&
                 level[static_cast<std::size_t>(task.id().value)] > 0;
        });

    if (!reachable) {
      // No anchor yet for this component (Fig. 5, lines 3-4): pick a task
      // of minimum degree and the available element of minimum cost.
      ++result.stats.components;
      TaskId anchor;
      int anchor_degree = std::numeric_limits<int>::max();
      for (const auto& task : app.tasks()) {
        if (mapping.is_mapped(task.id())) continue;
        const int d = app.degree(task.id());
        if (d < anchor_degree) {
          anchor_degree = d;
          anchor = task.id();
        }
      }
      assert(anchor.valid());
      const auto& avs = available_elements(
          anchor, std::numeric_limits<std::size_t>::max());
      if (avs.empty()) {
        return fail("no available element for anchor task '" +
                    app.task(anchor).name() + "'");
      }
      ElementId best;
      double best_cost = std::numeric_limits<double>::infinity();
      for (const ElementId e : avs) {
        // anchor_cost == task_cost here (no mapped peers by construction);
        // it skips the channel and peer scans that dominate a full scan of
        // the platform's available elements.
        const double c = cost_model.anchor_cost(anchor, e, mapping);
        if (c < best_cost) {
          best_cost = c;
          best = e;
        }
      }
      if (!assign_task(anchor, best)) {
        return fail("anchor allocation unexpectedly failed");
      }
      continue;  // recompute levels with the new anchor
    }

    // ---- neighborhoods T_i in order of increasing distance ----------------
    for (int i = 1;; ++i) {
      ti.clear();
      for (const auto& task : app.tasks()) {
        if (!mapping.is_mapped(task.id()) &&
            level[static_cast<std::size_t>(task.id().value)] == i) {
          ti.push_back(task.id());
        }
      }
      if (ti.empty()) break;  // component finished (or only unreachable left)
      ++result.stats.iterations;

      // T_i is exactly the unmapped tasks at level i, and nothing is mapped
      // while its origins are collected.
      auto in_ti = [&](TaskId t) {
        return !mapping.is_mapped(t) &&
               level[static_cast<std::size_t>(t.value)] == i;
      };

      // Origins E+ / E- (Fig. 5, lines 7-8): elements of mapped peers that
      // produce for (forward) or consume from (backward) tasks in T_i.
      origins.clear();
      auto add_origin = [&](ElementId e, bool forward) {
        const RingOrigin o{e, forward};
        if (std::find(origins.begin(), origins.end(), o) == origins.end()) {
          origins.push_back(o);
        }
      };
      for (const auto& channel : app.channels()) {
        if (mapping.is_mapped(channel.src) && in_ti(channel.dst)) {
          add_origin(mapping.element_of(channel.src), /*forward=*/true);
        }
        if (mapping.is_mapped(channel.dst) && in_ti(channel.src)) {
          add_origin(mapping.element_of(channel.dst), /*forward=*/false);
        }
      }
      assert(!origins.empty() &&
             "a level-i task must have a mapped level-(i-1) peer");

      search.start(platform, origins, oracle);
      pricer.start(ti);
      gap.reset(static_cast<int>(ti.size()), knapsack);

      int available_count = 0;
      int rings_after_enough = -1;
      while (true) {
        search.next_ring(ring);
        ++result.stats.rings;
        if (ring.empty()) {
          if (gap.all_assigned()) break;
          return fail("platform exhausted while mapping neighborhood " +
                      std::to_string(i) + " of application '" + app.name() +
                      "'");
        }
        for (const ElementId e : ring) {
          const platform::Element& element = platform.element(e);
          bin.element = e.value;
          bin.capacity = element.free();
          bin.options.clear();
          for (std::size_t k = 0; k < ti.size(); ++k) {
            if (!available_on(element, bin.capacity, ti[k])) continue;
            if (bin.options.empty()) pricer.set_element(e);
            bin.options.push_back(gap::GapTaskOption{
                static_cast<int>(k), pricer.cost(k), requirement(ti[k])});
          }
          if (!bin.options.empty()) {
            gap.process_element(bin);
            ++available_count;
            ++result.stats.gap_elements;
          }
        }
        // "Once we have discovered enough elements ... a single additional
        // search step is performed" (§III-B). If the GAP still cannot place
        // every task after the extra ring(s), keep growing (Fig. 4).
        if (rings_after_enough < 0) {
          if (available_count >= static_cast<int>(ti.size())) {
            rings_after_enough = 0;
          }
        } else {
          ++rings_after_enough;
        }
        if (rings_after_enough >= config_.extra_rings &&
            gap.all_assigned()) {
          break;
        }
      }

      // Commit the neighborhood's assignments.
      for (std::size_t k = 0; k < ti.size(); ++k) {
        const int ev = gap.assignment(static_cast<int>(k));
        assert(ev >= 0);
        if (!assign_task(ti[k], ElementId{ev})) {
          // Cannot happen: each element's knapsack respected its free
          // capacity and no allocation interleaved. Guard anyway.
          return fail("internal error: committed GAP assignment "
                      "exceeded element capacity");
        }
      }
    }
  }

  result.ok = true;
  txn.commit();
  return result;
}

}  // namespace kairos::core

#include "core/mapping.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "gap/gap_solver.hpp"
#include "gap/knapsack.hpp"

namespace kairos::core {

using graph::TaskId;
using platform::ElementId;
using platform::Platform;
using platform::ResourceVector;

namespace {

/// One BFS origin: the element of a mapped communication peer, searched
/// along out-links when the peer produces for T_i (E+) and along in-links
/// when it consumes from T_i (E-).
struct Origin {
  ElementId element;
  bool forward = true;

  friend bool operator==(const Origin&, const Origin&) = default;
};

/// Ring-by-ring multi-origin BFS over the platform. Each origin runs its own
/// BFS (so per-origin distances are exact and feed the DistanceOracle); the
/// rings reported to the caller contain globally newly discovered elements.
/// One search serves every neighborhood of a map() call: start() resets it,
/// and its buffers keep their capacity from one neighborhood to the next.
class RingSearch {
 public:
  RingSearch(const Platform& platform, DistanceOracle& oracle)
      : platform_(&platform),
        oracle_(&oracle),
        element_count_(platform.element_count()) {}

  /// Starts a new search from `origins`.
  void start(const std::vector<Origin>& origins) {
    origin_count_ = origins.size();
    if (per_origin_.size() < origin_count_) per_origin_.resize(origin_count_);
    discovered_.assign(element_count_, 0);
    for (std::size_t k = 0; k < origin_count_; ++k) {
      const Origin& o = origins[k];
      PerOrigin& po = per_origin_[k];
      po.origin = o;
      po.visited.assign(element_count_, false);
      po.visited[static_cast<std::size_t>(o.element.value)] = true;
      po.frontier.assign(1, o.element);
      oracle_->set(o.element, o.element, 0);
    }
    distance_ = 0;
  }

  /// Advances the search by one ring into `ring`. Ring 0 is the origin
  /// elements themselves (they remain candidates: an element may host
  /// several tasks). The ring is empty once every origin's BFS is exhausted.
  void next_ring(std::vector<ElementId>& ring) {
    ring.clear();
    if (distance_ == 0) {
      for (std::size_t k = 0; k < origin_count_; ++k) {
        claim(per_origin_[k].origin.element, ring);
      }
      ++distance_;
      return;
    }
    for (std::size_t k = 0; k < origin_count_; ++k) {
      PerOrigin& po = per_origin_[k];
      next_.clear();
      for (const ElementId e : po.frontier) {
        if (po.origin.forward) {
          for (const platform::LinkId l : platform_->out_links(e)) {
            step(po, platform_->link(l).dst(), ring);
          }
        } else {
          for (const platform::LinkId l : platform_->in_links(e)) {
            step(po, platform_->link(l).src(), ring);
          }
        }
      }
      po.frontier.swap(next_);
    }
    ++distance_;
  }

 private:
  struct PerOrigin {
    Origin origin;
    std::vector<bool> visited;
    std::vector<ElementId> frontier;
  };

  void claim(ElementId e, std::vector<ElementId>& ring) {
    auto idx = static_cast<std::size_t>(e.value);
    if (!discovered_[idx]) {
      discovered_[idx] = 1;
      ring.push_back(e);
    }
  }

  void step(PerOrigin& po, ElementId next, std::vector<ElementId>& ring) {
    const auto idx = static_cast<std::size_t>(next.value);
    if (po.visited[idx]) return;
    // A failed element has a dead router: the search neither offers it as a
    // candidate nor expands through it, exactly as the routing phase will
    // refuse to cross it later.
    if (platform_->element(next).is_failed()) return;
    po.visited[idx] = true;
    oracle_->set(po.origin.element, next, distance_);
    next_.push_back(next);
    claim(next, ring);
  }

  const Platform* platform_;
  DistanceOracle* oracle_;
  std::size_t element_count_;
  std::size_t origin_count_ = 0;
  std::vector<PerOrigin> per_origin_;  ///< the first origin_count_ are live
  std::vector<char> discovered_;
  std::vector<ElementId> next_;  ///< the frontier being built
  int distance_ = 0;
};

}  // namespace

MappingResult IncrementalMapper::map(const graph::Application& app,
                                     const std::vector<int>& impl_of,
                                     const PinTable& pins,
                                     Platform& platform) const {
  MappingResult result;
  result.element_of.assign(app.task_count(), ElementId{});
  assert(impl_of.size() == app.task_count());
  assert(pins.size() == app.task_count());

  // Build (or reuse) the platform's incremental availability index before
  // opening the transaction: every allocate below maintains it, and the
  // candidate scans (M0, anchors) answer from it in O(log V + matches)
  // instead of scanning all elements per task.
  platform.ensure_availability();

  // The mapper mutates only element state (allocate/add_task); links are the
  // routing phase's business, so the rollback snapshot can skip them.
  platform::Transaction txn(platform, platform::SnapshotScope::kElementsOnly);

  PartialMapping mapping(app.task_count(), platform.element_count());
  DistanceOracle oracle(platform.element_count());
  const MappingCostModel cost_model(config_.weights, platform, app,
                                    config_.bonuses);
  const gap::GreedyKnapsackSolver greedy;
  const gap::BranchAndBoundKnapsackSolver exact;
  const gap::KnapsackSolver& knapsack =
      config_.exact_knapsack ? static_cast<const gap::KnapsackSolver&>(exact)
                             : greedy;

  // Every task's chosen implementation, resolved once.
  std::vector<const graph::Implementation*> chosen;
  chosen.reserve(app.task_count());
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
  auto available_elements = [&](TaskId t, std::size_t limit) {
    std::vector<ElementId> out;
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
    const auto avs = available_elements(task.id(), 2);
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
  RingSearch search(platform, oracle);
  NeighborhoodPricer pricer(cost_model, mapping, oracle);
  std::vector<ElementId> ring;
  gap::GapElement bin;  // one options buffer for every ring element

  // ---- main loop: one pass per connected component ------------------------
  while (mapping.mapped_count() < app.task_count()) {
    // Neighborhood levels from the currently mapped tasks.
    std::vector<TaskId> seeds;
    for (const auto& task : app.tasks()) {
      if (mapping.is_mapped(task.id())) seeds.push_back(task.id());
    }
    std::vector<int> level = app.bfs_levels(seeds);

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
      const auto avs = available_elements(
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
      std::vector<TaskId> ti;
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
      std::vector<Origin> origins;
      auto add_origin = [&](ElementId e, bool forward) {
        const Origin o{e, forward};
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

      search.start(origins);
      pricer.start(ti);
      gap::GapSolver gap(static_cast<int>(ti.size()), knapsack);

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

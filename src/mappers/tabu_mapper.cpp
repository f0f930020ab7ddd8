#include "mappers/tabu_mapper.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "mappers/delta_cost.hpp"
#include "mappers/placement.hpp"
#include "util/rng.hpp"

namespace kairos::mappers {

using graph::TaskId;
using platform::ElementId;
using platform::Platform;
using platform::ResourceVector;

core::MappingResult TabuMapper::map(const graph::Application& app,
                                    const std::vector<int>& impl_of,
                                    const core::PinTable& pins,
                                    Platform& platform,
                                    const StopToken& stop) const {
  core::MappingResult result;
  result.element_of.assign(app.task_count(), ElementId{});
  assert(impl_of.size() == app.task_count());
  assert(pins.size() == app.task_count());

  const auto requirements = requirements_of(app, impl_of);
  const auto targets = targets_of(app, impl_of);
  util::Xoshiro256 rng(options_.seed);
  DistanceCache distances(platform);

  // Pooled availability index over the platform's free capacities — the
  // planner's private free-state, maintained as moves are accepted.
  platform::ScratchAvailability avail(platform);

  std::vector<ElementId> current;
  const auto seeded = first_fit_assignment(app, platform, targets,
                                           requirements, pins, *avail, current);
  if (!seeded.ok()) {
    result.reason = seeded.error();
    return result;
  }

  std::vector<std::size_t> movable;
  for (std::size_t t = 0; t < app.task_count(); ++t) {
    if (!pins[t].has_value()) movable.push_back(t);
  }

  DeltaCostEvaluator evaluator(app, platform, options_.weights,
                               options_.bonuses, distances, current);
  double current_cost = evaluator.total();
  std::vector<ElementId> best = current;
  double best_cost = current_cost;

  if (!movable.empty()) {
    const int rounds = std::max(0, options_.tabu_iterations);
    const int tenure = std::max(1, options_.tabu_tenure);
    const int samples = std::max(1, options_.tabu_samples);
    // tabu_until[t]: first round in which task t may move again.
    std::vector<int> tabu_until(app.task_count(), 0);
    // Candidate lists are reused *across* rounds, not just within one: an
    // accepted move changes the free capacity of exactly two elements (the
    // vacated and the occupied one), so instead of rescanning, each task's
    // list is lazily repaired against a log of changed elements. The lists
    // are id-sorted (feasible_destinations order), membership is recomputed
    // from the current free-state for logged elements only, and the moved
    // task's own exclusion anchor is covered because both its old and new
    // elements are in the log — so every repaired list is bit-identical to
    // a fresh scan and the RNG draw sequence is unchanged.
    constexpr std::size_t kNeverSynced = std::numeric_limits<std::size_t>::max();
    std::vector<std::vector<ElementId>> candidates_of(app.task_count());
    std::vector<std::size_t> synced_to(app.task_count(), kNeverSynced);
    std::vector<ElementId> changed_log;

    auto sync_candidates = [&](std::size_t t) -> const std::vector<ElementId>& {
      std::vector<ElementId>& list = candidates_of[t];
      const std::size_t log_end = changed_log.size();
      if (synced_to[t] == kNeverSynced ||
          log_end - synced_to[t] > 32) {  // stale beyond cheap repair
        feasible_destinations_into(platform, current[t], targets[t],
                                   requirements[t], *avail, pins[t], list);
        synced_to[t] = log_end;
        return list;
      }
      for (std::size_t i = synced_to[t]; i < log_end; ++i) {
        const ElementId e = changed_log[i];
        const bool should_contain =
            e != current[t] && can_host(platform, e, targets[t],
                                        requirements[t], avail->free(e),
                                        pins[t]);
        const auto pos = std::lower_bound(list.begin(), list.end(), e);
        const bool contains = pos != list.end() && *pos == e;
        if (should_contain && !contains) {
          list.insert(pos, e);
        } else if (!should_contain && contains) {
          list.erase(pos);
        }
      }
      synced_to[t] = log_end;
      return list;
    };

    for (int round = 0; round < rounds && !stop.stop_requested(); ++round) {
      // Best admissible candidate of this round's sample.
      std::size_t chosen_task = 0;
      ElementId chosen_to;
      double chosen_cost = std::numeric_limits<double>::infinity();

      for (int s = 0; s < samples; ++s) {
        const std::size_t t = movable[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(movable.size()) - 1))];

        const auto& candidates = sync_candidates(t);
        if (candidates.empty()) continue;
        const ElementId to = candidates[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(candidates.size()) -
                                1))];

        ++result.stats.iterations;
        const double cost =
            evaluator.apply_move(TaskId{static_cast<std::int32_t>(t)}, to);
        evaluator.undo();

        const bool tabu = tabu_until[t] > round;
        const bool aspiration = cost < best_cost;
        if (tabu && !aspiration) continue;
        if (cost < chosen_cost) {
          chosen_cost = cost;
          chosen_task = t;
          chosen_to = to;
        }
      }

      if (!chosen_to.valid()) continue;  // whole sample tabu or immovable

      const ElementId from = current[chosen_task];
      evaluator.apply_move(TaskId{static_cast<std::int32_t>(chosen_task)},
                           chosen_to);
      avail->set_free(from, avail->free(from) + requirements[chosen_task]);
      avail->set_free(chosen_to,
                      avail->free(chosen_to) - requirements[chosen_task]);
      changed_log.push_back(from);
      changed_log.push_back(chosen_to);
      current[chosen_task] = chosen_to;
      current_cost = chosen_cost;
      tabu_until[chosen_task] = round + 1 + tenure;

      if (current_cost < best_cost) {
        best_cost = current_cost;
        best = current;
      }
    }
  }

  core::MappingResult committed = commit_assignment(
      app, impl_of, best, platform, options_.weights, options_.bonuses);
  committed.stats = result.stats;
  return committed;
}

}  // namespace kairos::mappers

#include "mappers/sa_mapper.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "mappers/delta_cost.hpp"
#include "mappers/placement.hpp"
#include "util/rng.hpp"

namespace kairos::mappers {

using graph::TaskId;
using platform::ElementId;
using platform::Platform;
using platform::ResourceVector;

core::MappingResult SaMapper::map(const graph::Application& app,
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

  // Private planning state: a pooled availability index over the platform's
  // free capacities, plus the current assignment. The index answers the
  // per-move candidate scans in O(log V + candidates) with lists that are
  // bit-identical to the old linear scans (same id order), so the RNG draw
  // sequence — and every decision — is unchanged.
  platform::ScratchAvailability avail(platform);

  std::vector<ElementId> current;
  const auto seeded = first_fit_assignment(app, platform, targets,
                                           requirements, pins, *avail, current);
  if (!seeded.ok()) {
    result.reason = seeded.error();
    return result;
  }

  auto evaluate = [&](const std::vector<ElementId>& element_of) {
    return assignment_cost(app, platform, element_of, options_.weights,
                           options_.bonuses, distances);
  };

  // Incremental and full trial evaluation produce bit-identical costs (the
  // objective is one fixed expression over exact integer terms), so both
  // paths consume the same random numbers and take the same decisions — the
  // regression tests pin this. The evaluator is only built when it will be
  // used: the full path must not pay (or hide) its setup cost.
  const bool use_delta = options_.sa_incremental;
  std::optional<DeltaCostEvaluator> evaluator;
  if (use_delta) {
    evaluator.emplace(app, platform, options_.weights, options_.bonuses,
                      distances, current);
  }

  // Tasks the neighborhood may touch (pinned tasks stay put).
  std::vector<std::size_t> movable;
  for (std::size_t t = 0; t < app.task_count(); ++t) {
    if (!pins[t].has_value()) movable.push_back(t);
  }

  double current_cost = use_delta ? evaluator->total() : evaluate(current);
  std::vector<ElementId> best = current;
  double best_cost = current_cost;
  const double initial_cost = std::max(current_cost, 1.0);

  if (!movable.empty()) {
    std::vector<ElementId> candidates;  // reused across moves
    // Geometric cooling from T=1 down over the configured move budget.
    const int per_temperature = std::max(1, options_.sa_moves_per_temperature);
    const int steps =
        std::max(1, options_.sa_iterations / per_temperature);
    double temperature = 1.0;

    for (int step = 0; step < steps && !stop.stop_requested(); ++step) {
      for (int i = 0; i < per_temperature; ++i) {
        ++result.stats.iterations;
        const std::size_t t = movable[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(movable.size()) - 1))];
        const ElementId from = current[t];
        const TaskId tid{static_cast<std::int32_t>(t)};

        // Half the moves relocate t; the other half exchange t with a
        // same-type peer.
        const bool try_swap = movable.size() > 1 && rng.bernoulli(0.5);

        if (!try_swap) {
          // Candidate elements that could host t once it leaves `from`.
          feasible_destinations_into(platform, from, targets[t],
                                     requirements[t], *avail, pins[t],
                                     candidates);
          if (candidates.empty()) continue;
          const ElementId to = candidates[static_cast<std::size_t>(
              rng.uniform_int(0,
                              static_cast<std::int64_t>(candidates.size()) -
                                  1))];
          double trial_cost;
          if (use_delta) {
            trial_cost = evaluator->apply_move(tid, to);
          } else {
            std::vector<ElementId> trial = current;
            trial[t] = to;
            trial_cost = evaluate(trial);
          }
          const double delta = trial_cost - current_cost;
          if (delta < 0.0 ||
              rng.uniform01() <
                  std::exp(-2.0 * delta / (temperature * initial_cost))) {
            avail->set_free(from, avail->free(from) + requirements[t]);
            avail->set_free(to, avail->free(to) - requirements[t]);
            current[t] = to;
            current_cost = trial_cost;
          } else if (use_delta) {
            evaluator->undo();
          }
        } else {
          const std::size_t u = movable[static_cast<std::size_t>(
              rng.uniform_int(0,
                              static_cast<std::int64_t>(movable.size()) - 1))];
          if (u == t || targets[u] != targets[t] || current[u] == from) {
            continue;
          }
          const ElementId other = current[u];
          // Feasibility after the exchange: each destination must fit the
          // incoming requirement once the outgoing one is released.
          if (!requirements[u].fits_within(avail->free(from) +
                                           requirements[t]) ||
              !requirements[t].fits_within(avail->free(other) +
                                           requirements[u])) {
            continue;
          }
          const TaskId uid{static_cast<std::int32_t>(u)};
          double trial_cost;
          if (use_delta) {
            trial_cost = evaluator->apply_swap(tid, uid);
          } else {
            std::vector<ElementId> trial = current;
            trial[t] = other;
            trial[u] = from;
            trial_cost = evaluate(trial);
          }
          const double delta = trial_cost - current_cost;
          if (delta < 0.0 ||
              rng.uniform01() <
                  std::exp(-2.0 * delta / (temperature * initial_cost))) {
            avail->set_free(
                from, avail->free(from) + requirements[t] - requirements[u]);
            avail->set_free(
                other, avail->free(other) + requirements[u] - requirements[t]);
            current[t] = other;
            current[u] = from;
            current_cost = trial_cost;
          } else if (use_delta) {
            evaluator->undo();
          }
        }

        if (current_cost < best_cost) {
          best_cost = current_cost;
          best = current;
        }
      }
      temperature *= options_.sa_cooling;
    }
  }

  // One atomic allocation of the best assignment found.
  core::MappingResult committed = commit_assignment(
      app, impl_of, best, platform, options_.weights, options_.bonuses);
  committed.stats = result.stats;
  return committed;
}

}  // namespace kairos::mappers

#include "mappers/placement.hpp"

#include <cassert>
#include <limits>

#include "core/baselines.hpp"

namespace kairos::mappers {

using graph::TaskId;
using platform::ElementId;
using platform::Platform;
using platform::ResourceVector;

std::vector<ResourceVector> requirements_of(const graph::Application& app,
                                            const std::vector<int>& impl_of) {
  std::vector<ResourceVector> out;
  out.reserve(app.task_count());
  for (const auto& task : app.tasks()) {
    out.push_back(task.implementations()
                      .at(static_cast<std::size_t>(
                          impl_of[static_cast<std::size_t>(task.id().value)]))
                      .requirement);
  }
  return out;
}

std::vector<platform::ElementType> targets_of(const graph::Application& app,
                                              const std::vector<int>& impl_of) {
  std::vector<platform::ElementType> out;
  out.reserve(app.task_count());
  for (const auto& task : app.tasks()) {
    out.push_back(task.implementations()
                      .at(static_cast<std::size_t>(
                          impl_of[static_cast<std::size_t>(task.id().value)]))
                      .target);
  }
  return out;
}

bool can_host(const Platform& platform, ElementId e,
              platform::ElementType target, const ResourceVector& requirement,
              const ResourceVector& free,
              const std::optional<ElementId>& pin) {
  if (pin.has_value() && *pin != e) return false;
  const auto& element = platform.element(e);
  return !element.is_failed() && element.type() == target &&
         requirement.fits_within(free);
}

DistanceCache::DistanceCache(const Platform& platform)
    : platform_(&platform),
      cache_(platform.hop_cache()),
      penalty_(2 * (platform.diameter() + 1)) {}

int DistanceCache::hops(ElementId from, ElementId to) {
  const int d =
      cache_->row(*platform_, from)[static_cast<std::size_t>(to.value)];
  return d < 0 ? penalty_ : d;
}

core::LayoutCostTerms assignment_cost_terms(
    const graph::Application& app, const Platform& platform,
    const std::vector<ElementId>& element_of, DistanceCache& distances) {
  core::LayoutCostTerms terms;
  for (const auto& channel : app.channels()) {
    const ElementId src =
        element_of[static_cast<std::size_t>(channel.src.value)];
    const ElementId dst =
        element_of[static_cast<std::size_t>(channel.dst.value)];
    if (!src.valid() || !dst.valid()) continue;
    terms.comm_bw_hops +=
        channel.bandwidth * static_cast<std::int64_t>(distances.hops(src, dst));
  }

  std::vector<int> app_tasks_on(platform.element_count(), 0);
  for (const ElementId e : element_of) {
    if (e.valid()) ++app_tasks_on[static_cast<std::size_t>(e.value)];
  }
  for (const auto& task : app.tasks()) {
    const ElementId e = element_of[static_cast<std::size_t>(task.id().value)];
    if (!e.valid()) continue;
    const auto peers = app.neighbors(task.id());
    for (const ElementId n : platform.neighbors(e)) {
      ++terms.frag_pairs;
      bool hosts_peer = false;
      for (const TaskId peer : peers) {
        if (element_of[static_cast<std::size_t>(peer.value)] == n) {
          hosts_peer = true;
          break;
        }
      }
      if (hosts_peer) {
        ++terms.peer_pairs;
      } else if (app_tasks_on[static_cast<std::size_t>(n.value)] > 0) {
        ++terms.same_app_pairs;
      } else if (platform.element(n).is_used()) {
        ++terms.other_app_pairs;
      }
    }
  }
  return terms;
}

double assignment_cost(const graph::Application& app, const Platform& platform,
                       const std::vector<ElementId>& element_of,
                       const core::CostWeights& weights,
                       const core::FragmentationBonuses& bonuses,
                       DistanceCache& distances) {
  return assignment_cost_terms(app, platform, element_of, distances)
      .value(weights, bonuses);
}

std::vector<ElementId> feasible_destinations(
    const Platform& platform, ElementId from, platform::ElementType target,
    const ResourceVector& requirement, const std::vector<ResourceVector>& free,
    const std::optional<ElementId>& pin) {
  std::vector<ElementId> out;
  for (const auto& e : platform.elements()) {
    if (e.id() == from) continue;
    if (can_host(platform, e.id(), target, requirement,
                 free[static_cast<std::size_t>(e.id().value)], pin)) {
      out.push_back(e.id());
    }
  }
  return out;
}

void feasible_destinations_into(const Platform& platform, ElementId from,
                                platform::ElementType target,
                                const ResourceVector& requirement,
                                const platform::AvailabilityIndex& avail,
                                const std::optional<ElementId>& pin,
                                std::vector<ElementId>& out) {
  out.clear();
  if (pin.has_value()) {
    if (*pin != from &&
        can_host(platform, *pin, target, requirement, avail.free(*pin), pin)) {
      out.push_back(*pin);
    }
    return;
  }
  avail.collect_available(target, requirement, from,
                          std::numeric_limits<std::size_t>::max(), out);
}

util::VoidResult first_fit_assignment(
    const graph::Application& app, const Platform& platform,
    const std::vector<platform::ElementType>& targets,
    const std::vector<ResourceVector>& requirements, const core::PinTable& pins,
    platform::AvailabilityIndex& avail, std::vector<ElementId>& element_of) {
  element_of.assign(app.task_count(), ElementId{});
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    ElementId chosen;
    if (pins[idx].has_value()) {
      const ElementId pin = *pins[idx];
      if (can_host(platform, pin, targets[idx], requirements[idx],
                   avail.free(pin), pins[idx])) {
        chosen = pin;
      }
    } else {
      chosen = avail.first_available(targets[idx], requirements[idx]);
    }
    if (!chosen.valid()) {
      return util::Error("no available element for task '" + task.name() +
                         "'");
    }
    avail.set_free(chosen, avail.free(chosen) - requirements[idx]);
    element_of[idx] = chosen;
  }
  return util::VoidResult::success();
}

util::VoidResult first_fit_assignment(
    const graph::Application& app, const Platform& platform,
    const std::vector<platform::ElementType>& targets,
    const std::vector<ResourceVector>& requirements, const core::PinTable& pins,
    std::vector<ResourceVector>& free, std::vector<ElementId>& element_of) {
  element_of.assign(app.task_count(), ElementId{});
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    ElementId chosen;
    for (const auto& e : platform.elements()) {
      if (can_host(platform, e.id(), targets[idx], requirements[idx],
                   free[static_cast<std::size_t>(e.id().value)], pins[idx])) {
        chosen = e.id();
        break;
      }
    }
    if (!chosen.valid()) {
      return util::Error("no available element for task '" + task.name() +
                         "'");
    }
    free[static_cast<std::size_t>(chosen.value)] -= requirements[idx];
    element_of[idx] = chosen;
  }
  return util::VoidResult::success();
}

core::MappingResult commit_assignment(const graph::Application& app,
                                      const std::vector<int>& impl_of,
                                      const std::vector<ElementId>& element_of,
                                      Platform& platform,
                                      const core::CostWeights& weights,
                                      const core::FragmentationBonuses& bonuses) {
  core::MappingResult result;
  result.element_of.assign(app.task_count(), ElementId{});
  assert(element_of.size() == app.task_count());

  platform::Transaction txn(platform);
  const auto requirements = requirements_of(app, impl_of);
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    const ElementId e = element_of[idx];
    if (!e.valid() || !platform.allocate(e, requirements[idx])) {
      result.element_of.assign(app.task_count(), ElementId{});
      result.reason =
          "assignment for task '" + task.name() + "' cannot be allocated";
      return result;  // txn rolls back on scope exit
    }
    platform.add_task(e);
    result.element_of[idx] = e;
  }

  result.ok = true;
  result.total_cost =
      core::layout_cost(app, platform, element_of, weights, bonuses);
  txn.commit();
  return result;
}

}  // namespace kairos::mappers

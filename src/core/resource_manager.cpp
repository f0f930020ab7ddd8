#include "core/resource_manager.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <mutex>
#include <utility>

#include "mappers/incremental_mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/fragmentation.hpp"

namespace kairos::core {

namespace {

// Admission metrics, resolved once (handles stay valid across reset()).
struct AdmissionMetrics {
  obs::Counter attempts = obs::Registry::global().counter("admission.attempts");
  obs::Counter admitted = obs::Registry::global().counter("admission.admitted");
  obs::Histogram binding_ms =
      obs::Registry::global().histogram("admission.binding_ms");
  obs::Histogram mapping_ms =
      obs::Registry::global().histogram("admission.mapping_ms");
  obs::Histogram routing_ms =
      obs::Registry::global().histogram("admission.routing_ms");
  obs::Histogram validation_ms =
      obs::Registry::global().histogram("admission.validation_ms");
  obs::Histogram total_ms =
      obs::Registry::global().histogram("admission.total_ms");
  /// admission.rejected.<phase>, indexed by Phase (kNone's is inert).
  std::array<obs::Counter, kPhaseCount> rejected = [] {
    std::array<obs::Counter, kPhaseCount> counters;
    for (std::size_t p = 1; p < kPhaseCount; ++p) {
      counters[p] = obs::Registry::global().counter(
          "admission.rejected." + to_string(static_cast<Phase>(p)));
    }
    return counters;
  }();

  static const AdmissionMetrics& get() {
    static const AdmissionMetrics instance;
    return instance;
  }
};

}  // namespace

ResourceManager::ResourceManager(platform::Platform& platform,
                                 KairosConfig config)
    : platform_(&platform), config_(std::move(config)) {
  if (!config_.mapper) {
    // Default to the paper's mapper, configured from the legacy knobs so
    // existing configs behave exactly as before the strategy subsystem.
    config_.mapper = std::make_shared<mappers::IncrementalStrategy>(
        MapperConfig{config_.weights, config_.bonuses, config_.extra_rings,
                     config_.exact_knapsack});
  }
}

void ResourceManager::set_mapper(std::shared_ptr<mappers::Mapper> mapper) {
  assert(mapper != nullptr);
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  config_.mapper = std::move(mapper);
}

std::string to_string(Phase phase) {
  switch (phase) {
    case Phase::kNone:
      return "none";
    case Phase::kSpecification:
      return "specification";
    case Phase::kBinding:
      return "binding";
    case Phase::kMapping:
      return "mapping";
    case Phase::kRouting:
      return "routing";
    case Phase::kValidation:
      return "validation";
  }
  return "?";
}

AdmissionReport ResourceManager::admit(const graph::Application& app) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  return admit_locked(app);
}

AdmissionReport ResourceManager::admit_locked(const graph::Application& app) {
  // Phasing directly against the live platform (under the write lock) keeps
  // the exact mutation sequence the single-threaded regression pins expect.
  StagedAdmission staged = stage(app, *platform_);
  if (!staged.report.admitted) return staged.report;
  return register_live_locked(std::move(staged));
}

StagedAdmission ResourceManager::stage(const graph::Application& app,
                                       platform::Platform& target) const {
  StagedAdmission staged;
  AdmissionReport& report = staged.report;

  const AdmissionMetrics& metrics = AdmissionMetrics::get();
  metrics.attempts.add(1);
  obs::Span admission("admission");
  admission.arg("app", app.name());
  // On every exit path: tally the outcome and the total wall-clock.
  struct Outcome {
    const AdmissionReport& report;
    const AdmissionMetrics& metrics;
    obs::Span& span;
    ~Outcome() {
      if (report.admitted) {
        span.arg("outcome", "admitted");
      } else {
        metrics.rejected[static_cast<std::size_t>(report.failed_phase)].add(1);
        span.arg("outcome", "rejected:" + to_string(report.failed_phase));
      }
      metrics.total_ms.record(span.elapsed_ms());
    }
  } outcome{report, metrics, admission};

  // --- specification checks (outside the paper's four phases) -------------
  const auto well_formed = app.validate();
  if (!well_formed.ok()) {
    report.failed_phase = Phase::kSpecification;
    report.reason = well_formed.error();
    return staged;
  }
  const auto pins = resolve_pins(app, target);
  if (!pins.ok()) {
    report.failed_phase = Phase::kSpecification;
    report.reason = pins.error();
    return staged;
  }

  // The whole admission is atomic: on any phase failure the target platform
  // is rolled back to this snapshot. Elements-only scope: link state is not
  // copied because the only phase that touches it (routing) maintains its
  // own exact undo list, and the one failure that can land after routing
  // succeeded (validation) releases the established routes explicitly
  // below. At 10k elements this halves the snapshot bill of the hot path.
  platform::Transaction txn(target, platform::SnapshotScope::kElementsOnly);

  // --- binding -------------------------------------------------------------
  BindingResult bound;
  {
    obs::Span phase("phase.binding");
    const BindingPhase binding(target);
    bound = binding.bind(app, pins.value());
    report.times.binding_ms = phase.elapsed_ms();
  }
  metrics.binding_ms.record(report.times.binding_ms);
  if (!bound.ok) {
    report.failed_phase = Phase::kBinding;
    report.reason = bound.reason;
    return staged;
  }
  report.binding_cost = bound.total_cost;

  // --- mapping ---------------------------------------------------------------
  MappingResult mapped;
  {
    obs::Span phase("phase.mapping");
    mapped = config_.mapper->map(app, bound.impl_of, pins.value(), target);
    report.times.mapping_ms = phase.elapsed_ms();
  }
  metrics.mapping_ms.record(report.times.mapping_ms);
  report.mapping_stats = mapped.stats;
  if (!mapped.ok) {
    report.failed_phase = Phase::kMapping;
    report.reason = mapped.reason;
    return staged;
  }
  report.mapping_cost = mapped.total_cost;

  // --- routing ----------------------------------------------------------------
  RoutingResult routed;
  {
    obs::Span phase("phase.routing");
    const RoutingPhase routing(config_.routing);
    routed = routing.route(app, mapped.element_of, target);
    report.times.routing_ms = phase.elapsed_ms();
  }
  metrics.routing_ms.record(report.times.routing_ms);
  if (!routed.ok) {
    report.failed_phase = Phase::kRouting;
    report.reason = routed.reason;
    return staged;
  }
  report.average_hops = routed.average_hops;

  // --- validation ----------------------------------------------------------------
  if (config_.validation_enabled) {
    ValidationResult validated;
    {
      obs::Span phase("phase.validation");
      const ValidationPhase validation(config_.validation);
      validated = validation.validate(app, bound.impl_of, mapped.element_of,
                                      routed.routes);
      report.times.validation_ms = phase.elapsed_ms();
    }
    metrics.validation_ms.record(report.times.validation_ms);
    report.throughput = validated.throughput;
    if (!validated.ok && config_.validation_rejects) {
      report.failed_phase = Phase::kValidation;
      report.reason = validated.reason;
      // The txn only restores element state; undo the routing phase's link
      // reservations by hand (release_route is allocate_route's inverse).
      for (const auto& channel : routed.routes) {
        noc::Router::release_route(target, channel.route, channel.bandwidth);
      }
      return staged;
    }
  }

  // --- stage bookkeeping -----------------------------------------------------
  report.layout = ExecutionLayout(app.task_count(), app.channel_count());
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    const platform::ElementId e = mapped.element_of[idx];
    report.layout.place(task.id(), e, bound.impl_of[idx]);
    staged.task_allocations.emplace_back(
        e, task.implementations()
               .at(static_cast<std::size_t>(bound.impl_of[idx]))
               .requirement);
  }
  for (const auto& channel : app.channels()) {
    const auto idx = static_cast<std::size_t>(channel.id.value);
    // The layout keeps a copy; the commit bookkeeping takes the original.
    report.layout.set_route(channel.id, routed.routes[idx].route,
                            routed.routes[idx].bandwidth);
    staged.routes.emplace_back(std::move(routed.routes[idx].route),
                               routed.routes[idx].bandwidth);
  }

  staged.app = app;
  txn.commit();
  report.admitted = true;
  return staged;
}

AdmissionReport ResourceManager::register_live_locked(
    StagedAdmission&& staged) {
  AdmissionReport report = std::move(staged.report);
  LiveApp live;
  live.app = std::move(staged.app);
  live.task_allocations = std::move(staged.task_allocations);
  live.routes = std::move(staged.routes);
  report.handle = next_handle_++;
  live_[report.handle] = std::move(live);
  AdmissionMetrics::get().admitted.add(1);
  return report;
}

platform::Platform ResourceManager::snapshot_platform() const {
  // Shared: snapshots overlap each other, but never a commit in flight.
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return *platform_;
}

util::Result<AdmissionReport> ResourceManager::commit_staged(
    StagedAdmission staged) {
  if (!staged.report.admitted) {
    return util::Error("cannot commit a staging that was not admitted (" +
                       staged.report.reason + ")");
  }
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);

  // Phase 1 — validate, no mutation. Between the snapshot and now other
  // commits may have taken the capacity or a fault may have landed.
  // Demands are accumulated per resource so an admission placing several
  // tasks on one element (or routing several channels over one link) is
  // checked against its *total* footprint, not per reservation.
  std::vector<std::pair<platform::ElementId, platform::ResourceVector>>
      element_demand;
  for (const auto& [element, demand] : staged.task_allocations) {
    if (platform_->element(element).is_failed()) {
      return util::Error("commit conflict: element " +
                         platform_->element(element).name() +
                         " failed since staging");
    }
    auto it = std::find_if(element_demand.begin(), element_demand.end(),
                           [&](const auto& entry) {
                             return entry.first == element;
                           });
    if (it == element_demand.end()) {
      it = element_demand.emplace(element_demand.end(), element,
                                  platform::ResourceVector{});
    }
    it->second += demand;
    if (!it->second.fits_within(platform_->element(element).free())) {
      return util::Error("commit conflict: capacity on " +
                         platform_->element(element).name() +
                         " taken since staging");
    }
  }
  std::vector<std::pair<platform::LinkId, std::pair<int, std::int64_t>>>
      link_demand;  // link -> (virtual channels, bandwidth)
  for (const auto& [route, bandwidth] : staged.routes) {
    for (const platform::LinkId l : route.links) {
      if (!platform_->link_usable(l)) {
        return util::Error("commit conflict: link " + std::to_string(l.value) +
                           " cannot carry the staged route");
      }
      auto it = std::find_if(link_demand.begin(), link_demand.end(),
                             [&](const auto& entry) {
                               return entry.first == l;
                             });
      if (it == link_demand.end()) {
        it = link_demand.emplace(link_demand.end(), l,
                                 std::pair<int, std::int64_t>{0, 0});
      }
      it->second.first += 1;
      it->second.second += bandwidth;
      const platform::Link& link = platform_->link(l);
      if (it->second.first > link.vc_free() ||
          it->second.second > link.bw_free()) {
        return util::Error("commit conflict: link " + std::to_string(l.value) +
                           " cannot carry the staged route");
      }
    }
  }

  // Phase 2 — apply. Validation was exhaustive, so these cannot fail; the
  // undo list is the all-or-nothing backstop should that invariant ever
  // break (a failed apply must not leave the commit half-applied).
  std::vector<std::pair<platform::ElementId, platform::ResourceVector>> undo;
  undo.reserve(staged.task_allocations.size());
  bool applied = true;
  for (const auto& [element, demand] : staged.task_allocations) {
    if (!platform_->allocate(element, demand)) {
      applied = false;
      break;
    }
    platform_->add_task(element);
    undo.emplace_back(element, demand);
  }
  std::vector<std::pair<platform::LinkId, std::int64_t>> link_undo;
  if (applied) {
    for (const auto& [route, bandwidth] : staged.routes) {
      for (const platform::LinkId l : route.links) {
        if (!platform_->allocate_channel(l, bandwidth)) {
          applied = false;
          break;
        }
        link_undo.emplace_back(l, bandwidth);
      }
      if (!applied) break;
    }
  }
  if (!applied) {
    assert(false && "commit: validation admitted an unappliable set");
    for (std::size_t i = link_undo.size(); i-- > 0;) {
      platform_->release_channel(link_undo[i].first, link_undo[i].second);
    }
    for (std::size_t i = undo.size(); i-- > 0;) {
      platform_->release(undo[i].first, undo[i].second);
      platform_->remove_task(undo[i].first);
    }
    return util::Error("commit conflict: staged reservations failed to apply");
  }
  return register_live_locked(std::move(staged));
}

util::VoidResult ResourceManager::remove(AppHandle handle) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  return remove_locked(handle);
}

util::VoidResult ResourceManager::remove_locked(AppHandle handle) {
  const auto it = live_.find(handle);
  if (it == live_.end()) {
    return util::Error("unknown application handle " +
                       std::to_string(handle));
  }
  for (const auto& [element, demand] : it->second.task_allocations) {
    platform_->release(element, demand);
    platform_->remove_task(element);
  }
  for (const auto& [route, bandwidth] : it->second.routes) {
    noc::Router::release_route(*platform_, route, bandwidth);
  }
  live_.erase(it);
  assert(platform_->invariants_hold());
  return util::VoidResult::success();
}

std::vector<AppHandle> ResourceManager::apps_using(
    platform::ElementId e) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return apps_using_locked(e);
}

std::vector<AppHandle> ResourceManager::apps_using_locked(
    platform::ElementId e) const {
  std::vector<AppHandle> out;
  for (const auto& [handle, live] : live_) {
    for (const auto& [element, demand] : live.task_allocations) {
      if (element == e) {
        out.push_back(handle);
        break;
      }
    }
  }
  return out;
}

std::vector<AppHandle> ResourceManager::apps_using_link(
    platform::LinkId l) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return apps_using_link_locked(l);
}

std::vector<AppHandle> ResourceManager::apps_using_link_locked(
    platform::LinkId l) const {
  std::vector<AppHandle> out;
  for (const auto& [handle, live] : live_) {
    for (const auto& [route, bandwidth] : live.routes) {
      (void)bandwidth;
      if (std::find(route.links.begin(), route.links.end(), l) !=
          route.links.end()) {
        out.push_back(handle);
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<platform::ElementId, platform::ResourceVector>>
ResourceManager::allocations_of(AppHandle handle) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const auto it = live_.find(handle);
  if (it == live_.end()) return {};
  return it->second.task_allocations;
}

void ResourceManager::evict_and_readmit(
    const std::vector<AppHandle>& victims,
    const std::function<void()>& mark_failed, FaultReport& report) {
  // Evict the victims first so their reservations on the dead resource are
  // released, then fail it so the re-admissions route around it.
  std::vector<std::pair<AppHandle, graph::Application>> evicted;
  evicted.reserve(victims.size());
  for (const AppHandle handle : victims) {
    evicted.emplace_back(handle, live_.at(handle).app);
  }
  report.victims = static_cast<int>(evicted.size());
  for (const auto& [handle, app] : evicted) {
    (void)app;
    const auto removed = remove_locked(handle);
    assert(removed.ok());
    (void)removed;
  }
  mark_failed();

  for (const auto& [old_handle, app] : evicted) {
    const AdmissionReport admitted = admit_locked(app);
    if (!admitted.admitted) {
      ++report.lost;
      report.lost_handles.push_back(old_handle);
      continue;
    }
    ++report.recovered;
    // Keep the caller's handle stable (as defragment() does), so departure
    // schedules and other bookkeeping keyed on the handle survive the fault.
    auto node = live_.extract(admitted.handle);
    node.key() = old_handle;
    live_.insert(std::move(node));
  }
  assert(platform_->invariants_hold());
}

ResourceManager::FaultReport ResourceManager::circumvent_fault(
    platform::ElementId e) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  FaultReport report;
  report.element = e;
  evict_and_readmit(apps_using_locked(e),
                    [&] { platform_->set_element_failed(e, true); }, report);
  return report;
}

ResourceManager::FaultReport ResourceManager::circumvent_fault_set(
    const std::vector<platform::ElementId>& set) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  FaultReport report;
  if (set.size() == 1) report.element = set.front();
  // Victims in handle order (matching apps_using), each exactly once even
  // when it spans several members of the set.
  std::vector<AppHandle> victims;
  for (const auto& [handle, live] : live_) {
    for (const auto& [element, demand] : live.task_allocations) {
      (void)demand;
      if (std::find(set.begin(), set.end(), element) != set.end()) {
        victims.push_back(handle);
        break;
      }
    }
  }
  evict_and_readmit(
      victims,
      [&] {
        for (const platform::ElementId e : set) {
          platform_->set_element_failed(e, true);
        }
      },
      report);
  return report;
}

ResourceManager::FaultReport ResourceManager::circumvent_link_fault(
    platform::LinkId l) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  FaultReport report;
  report.link = l;
  evict_and_readmit(apps_using_link_locked(l),
                    [&] { platform_->set_link_failed(l, true); }, report);
  return report;
}

void ResourceManager::repair_element(platform::ElementId e) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  platform_->set_element_failed(e, false);
}

void ResourceManager::repair_link(platform::LinkId l) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  platform_->set_link_failed(l, false);
}

ResourceManager::DefragReport ResourceManager::defragment() {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  obs::Span span("defrag");
  static const obs::Counter defrag_runs =
      obs::Registry::global().counter("defrag.runs");
  static const obs::Counter defrag_rollbacks =
      obs::Registry::global().counter("defrag.rollbacks");
  static const obs::Histogram defrag_ms =
      obs::Registry::global().histogram("defrag.total_ms");
  defrag_runs.add(1);

  DefragReport report;
  report.fragmentation_before = platform::external_fragmentation(*platform_);
  report.applications = static_cast<int>(live_.size());
  // Tally the wall-clock on every exit path.
  struct Timing {
    obs::Span& span;
    const obs::Histogram& histogram;
    ~Timing() { histogram.record(span.elapsed_ms()); }
  } timing{span, defrag_ms};

  if (live_.empty()) {
    report.performed = true;
    report.fragmentation_after = report.fragmentation_before;
    return report;
  }

  // Full rollback state: the platform snapshot plus the live bookkeeping.
  const platform::Snapshot snap = platform_->snapshot();
  const std::map<AppHandle, LiveApp> backup = live_;

  // Release everything, then re-admit largest-first (better packing).
  std::vector<std::pair<AppHandle, graph::Application>> pending;
  pending.reserve(live_.size());
  for (const auto& [handle, live] : live_) {
    pending.emplace_back(handle, live.app);
  }
  for (const auto& [handle, app] : pending) {
    (void)app;
    const auto removed = remove_locked(handle);
    assert(removed.ok());
    (void)removed;
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.task_count() > b.second.task_count();
                   });

  for (const auto& [old_handle, app] : pending) {
    const AdmissionReport admitted = admit_locked(app);
    if (!admitted.admitted) {
      // Roll everything back; the caller keeps the old layout.
      platform_->restore(snap);
      live_ = backup;
      report.fragmentation_after = report.fragmentation_before;
      defrag_rollbacks.add(1);
      span.arg("outcome", "rolled_back");
      return report;
    }
    // Keep the caller's handle stable.
    auto node = live_.extract(admitted.handle);
    node.key() = old_handle;
    live_.insert(std::move(node));
  }

  report.performed = true;
  report.fragmentation_after = platform::external_fragmentation(*platform_);
  return report;
}

std::vector<AppHandle> ResourceManager::live_handles() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  std::vector<AppHandle> out;
  out.reserve(live_.size());
  for (const auto& [handle, _] : live_) out.push_back(handle);
  return out;
}

}  // namespace kairos::core

// "Kairos" — the run-time resource manager prototype of §III-E, driving the
// four-phase workflow of Fig. 1: binding, mapping, routing and validation.
//
// An admission attempt is atomic: either every phase succeeds and the
// resulting execution layout's reservations stay in the platform, or the
// attempt fails in some phase and the platform is restored to its entry
// state. Admitted applications can later be removed, releasing everything
// they held (the dynamic behaviour the introduction motivates: the
// application mix is unknown at design time).
//
// The paper's prototype runs inside a Linux 2.6.28 kernel on a 200 MHz
// ARM926; this reproduction runs as a host-native library and reports the
// same per-phase wall-clock times (Fig. 7, §IV-A) measured with
// std::chrono.
//
// Concurrency: every public method is safe to call from multiple threads.
// admit() phases against the live platform under the write lock, one
// application at a time; it is the only admission path the library uses
// (service::AdmissionService serialises its requests onto it). An admission
// that throws leaves the platform exactly as it found it: the element
// transaction and the route guard in stage() undo everything on every exit
// that does not admit.
//
// The optimistic split — stage() against a snapshot_platform() copy, then
// commit_staged() re-validating against the live platform — is kept only
// for the perfbench trace replay, which times it; the benchmark harness
// change that retires the replay (ROADMAP C) deletes it too.
//
// Locking: one state_mutex_ (shared_mutex) guards the allocation state and
// the live-application bookkeeping. It is EXCLUSIVE for every mutation —
// admit, commit_staged, remove and the whole-platform flows (defragment,
// circumvent_*, repair_*, set_mapper) — and SHARED for snapshot_platform
// and the read surfaces, so snapshots and reads overlap each other but never
// observe a commit half-applied.
//
// commit_staged itself is two-phase: it first validates the entire staged
// footprint (cumulative per-element demand, per-link vc+bandwidth — no
// mutation), then applies; an apply step that still fails unwinds the undo
// list so a conflict never leaves partial state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/binding.hpp"
#include "core/layout.hpp"
#include "core/mapping.hpp"
#include "core/routing_phase.hpp"
#include "core/validation_phase.hpp"
#include "graph/application.hpp"
#include "noc/router.hpp"
#include "platform/platform.hpp"
#include "util/result.hpp"

namespace kairos::mappers {
class Mapper;
}  // namespace kairos::mappers

namespace kairos::core {

/// The phase in which an admission attempt failed.
enum class Phase {
  kNone,           ///< no failure (admitted)
  kSpecification,  ///< the application itself is malformed / pins unknown
  kBinding,
  kMapping,
  kRouting,
  kValidation,
};

std::string to_string(Phase phase);

/// Number of Phase enumerators — the size any per-phase counter array must
/// have. Defined from the last enumerator so the two cannot drift apart;
/// keep the reference pointing at the final Phase when phases are added.
inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kValidation) + 1;

/// Wall-clock per phase, in milliseconds (Fig. 7's quantities).
struct PhaseTimes {
  double binding_ms = 0.0;
  double mapping_ms = 0.0;
  double routing_ms = 0.0;
  double validation_ms = 0.0;

  double total_ms() const {
    return binding_ms + mapping_ms + routing_ms + validation_ms;
  }
};

/// Opaque handle of an admitted application.
using AppHandle = std::int64_t;

struct AdmissionReport {
  bool admitted = false;
  Phase failed_phase = Phase::kNone;
  std::string reason;
  PhaseTimes times;
  AppHandle handle = -1;

  /// Request id minted by the admission service (0 when the report did not
  /// travel through it, e.g. direct admit() calls). Product data, not
  /// telemetry: the service's line-protocol reply echoes it, and spans /
  /// log events tag themselves with it so one request is traceable across
  /// every observability output.
  std::uint64_t request_id = 0;

  /// Valid iff admitted.
  ExecutionLayout layout;
  double average_hops = 0.0;
  double binding_cost = 0.0;
  double mapping_cost = 0.0;
  double throughput = 0.0;
  MappingStats mapping_stats;
};

/// A fully-phased admission candidate produced by ResourceManager::stage():
/// the would-be report plus the exact element reservations and link claims
/// the phases chose. commit_staged() applies a staging made against a
/// snapshot to the live platform (or reports a conflict).
struct StagedAdmission {
  /// report.admitted says whether the phases succeeded on the snapshot;
  /// report.handle stays -1 until commit.
  AdmissionReport report;
  /// The specification, retained so the committed application can later be
  /// re-admitted after faults or during defragmentation. Set only when the
  /// phases admitted it (empty otherwise); it shares the caller's body
  /// rather than copying it (graph::Application is copy-on-write).
  graph::Application app;
  std::vector<TaskAllocation> task_allocations;
  std::vector<LinkClaim> link_claims;
};

struct KairosConfig {
  CostWeights weights{};
  FragmentationBonuses bonuses{};
  int extra_rings = 1;
  bool exact_knapsack = false;
  /// The mapping strategy driving the mapping phase. When null, the
  /// ResourceManager constructs the paper's IncrementalMapper from the
  /// fields above (preserving all paper-regression behaviour); set it — or
  /// call ResourceManager::set_mapper — to plug in any strategy from
  /// mappers::make().
  std::shared_ptr<mappers::Mapper> mapper;
  noc::RoutingStrategy routing = noc::RoutingStrategy::kBreadthFirst;
  /// The paper's experiments "do not reject applications in the validation
  /// phase" (§IV) because generating sensible constraints automatically is
  /// hard; when false the phase still runs (its runtime is measured) but
  /// its verdict does not reject. When true, validation failures reject.
  bool validation_rejects = true;
  /// Skip the validation phase entirely (saves its runtime).
  bool validation_enabled = true;
  ValidationConfig validation{};
};

class ResourceManager {
 public:
  explicit ResourceManager(platform::Platform& platform,
                           KairosConfig config = {});

  /// One resource-allocation attempt for `app` (Fig. 1 run-time half).
  /// Holds the write lock for the whole attempt. A throw (a faulty mapper,
  /// an allocation failure) propagates with the platform and the
  /// bookkeeping exactly as they were before the call.
  AdmissionReport admit(const graph::Application& app);

  /// Releases every resource held by an admitted application.
  util::VoidResult remove(AppHandle handle);

  // --- optimistic admission (kept for the perfbench replay only) ----------
  //
  // stage() runs the four phases against a *private* platform copy with no
  // lock held, so many candidates can be phased concurrently;
  // commit_staged() then re-validates the staged reservations against the
  // live platform under the write lock and applies them atomically. A
  // commit can fail ("conflict") when the platform moved underneath the
  // snapshot — another commit took the capacity, or a fault landed — in
  // which case nothing is applied and the caller re-stages against a fresh
  // snapshot (or falls back to admit()).

  /// A private copy of the platform (topology + current allocation state)
  /// taken under the read lock — the snapshot stage() phases against.
  platform::Platform snapshot_platform() const;

  /// Runs specification checks and the four phases against `scratch`
  /// (mutating it; on a rejection or a throw it is restored). `scratch`
  /// must be private to the caller — typically a snapshot_platform() copy.
  /// Thread-safe as long as the configured mapper is (all built-in
  /// strategies are: map() is const and keeps no state across calls).
  /// Attempt metrics and phase spans are recorded exactly as admit()
  /// records them.
  StagedAdmission stage(const graph::Application& app,
                        platform::Platform& scratch) const;

  /// Applies a successfully staged admission to the live platform if every
  /// staged reservation still fits (capacity re-checked, fault state
  /// re-checked); books the application and returns the report with its
  /// handle assigned. Returns an error — with the platform untouched — on a
  /// conflict, or when `staged` was not admitted. Holds the write lock only
  /// for the re-validation and apply.
  util::Result<AdmissionReport> commit_staged(StagedAdmission staged);

  std::size_t live_count() const {
    const std::shared_lock<std::shared_mutex> lock(state_mutex_);
    return live_.size();
  }
  std::vector<AppHandle> live_handles() const;

  /// Handles of the admitted applications with at least one task placed on
  /// the element — the applications a fault on that element kills. Callers
  /// typically remove() these and re-admit after marking the element failed
  /// (run-time fault circumvention, §I).
  std::vector<AppHandle> apps_using(platform::ElementId e) const;

  /// Handles of the admitted applications with at least one established
  /// route traversing the link — the applications a fault on that link
  /// kills (their communication can no longer be carried).
  std::vector<AppHandle> apps_using_link(platform::LinkId l) const;

  /// The element reservations an admitted application currently holds, one
  /// entry per task (empty for unknown handles). Diagnostic surface: the
  /// system property tests audit that every platform reservation is owned by
  /// exactly one live application through this.
  std::vector<TaskAllocation> allocations_of(AppHandle handle) const;

  /// Outcome of a run-time fault-circumvention pass (§I).
  struct FaultReport {
    /// The failed resource: element faults set `element`, link faults `link`
    /// (the other id stays invalid).
    platform::ElementId element;
    platform::LinkId link;
    int victims = 0;    ///< applications killed by the fault
    int recovered = 0;  ///< re-admitted around the failed resource
    int lost = 0;       ///< could not be re-admitted (victims - recovered)
    /// Handles of the lost applications; recovered ones keep their handles.
    std::vector<AppHandle> lost_handles;
  };

  /// Run-time fault circumvention: marks `e` failed in the platform, removes
  /// every application reported by apps_using(e) and re-admits it with the
  /// current strategy (which now avoids the dead element). Recovered
  /// applications keep their handles — like defragment(), so callers'
  /// bookkeeping (e.g. scheduled departures) stays valid; applications that
  /// no longer fit are dropped and reported in `lost_handles`.
  FaultReport circumvent_fault(platform::ElementId e);

  /// Circumvents a *correlated* multi-element fault (a whole package or
  /// fabric row dying at once): the entire set is marked failed together
  /// and each application using any member is evicted exactly once and
  /// re-admitted around the whole set. Element-by-element circumvention
  /// would instead bounce victims onto still-healthy members of the dying
  /// set and evict them again, double-counting victims. Equivalent to
  /// circumvent_fault for a single-element set.
  FaultReport circumvent_fault_set(
      const std::vector<platform::ElementId>& set);

  /// The same circumvention flow for a link fault: marks `l` failed, evicts
  /// every application reported by apps_using_link(l) and re-admits it (the
  /// router now avoids the dead wire). Handle semantics match
  /// circumvent_fault.
  FaultReport circumvent_link_fault(platform::LinkId l);

  /// Marks a previously failed element usable again; subsequent admissions
  /// may allocate it. (Applications lost to the fault are not resurrected.)
  void repair_element(platform::ElementId e);

  /// Marks a previously failed link usable again.
  void repair_link(platform::LinkId l);

  /// Outcome of a defragmentation pass.
  struct DefragReport {
    bool performed = false;  ///< false: a re-admission failed, rolled back
    int applications = 0;
    double fragmentation_before = 0.0;
    double fragmentation_after = 0.0;
  };

  /// Releases every live application and re-admits them largest-first with
  /// the current cost weights — compacting the platform when fragmentation
  /// has accumulated (the external-fragmentation problem Fig. 9 tracks).
  /// Atomic: if any application fails to fit again, the previous state is
  /// restored exactly. Handles remain valid across the pass.
  DefragReport defragment();

  /// Direct reference to the live platform. Under concurrent admission
  /// traffic a writer may be mutating it — use snapshot_platform() for a
  /// consistent view; this accessor is for single-threaded callers and
  /// quiesced inspection.
  const platform::Platform& platform() const { return *platform_; }
  const KairosConfig& config() const { return config_; }

  /// Swaps the mapping strategy; subsequent admissions (including the
  /// re-admissions of defragment()) use it. Must not be null.
  void set_mapper(std::shared_ptr<mappers::Mapper> mapper);
  const mappers::Mapper& mapper() const { return *config_.mapper; }

 private:
  struct LiveApp {
    /// The specification is retained so the application can be re-admitted
    /// after faults or during defragmentation.
    graph::Application app;
    std::vector<TaskAllocation> task_allocations;
    std::vector<LinkClaim> link_claims;
  };

  // Unlocked implementations, called with state_mutex_ already held
  // (shared_mutex is not recursive, so locked public methods must not call
  // each other).
  AdmissionReport admit_locked(const graph::Application& app);
  util::VoidResult remove_locked(AppHandle handle);
  std::vector<AppHandle> apps_using_locked(platform::ElementId e) const;
  std::vector<AppHandle> apps_using_link_locked(platform::LinkId l) const;
  /// Books a staged admission as live into `slot`, the node made for it at
  /// key next_handle_ before its reservations were applied (so that booking
  /// cannot throw once they are): moves the bookkeeping in, assigns the
  /// handle, counts the admission. The write lock must be held.
  AdmissionReport register_live_locked(StagedAdmission&& staged,
                                       LiveApp& slot);

  /// Shared tail of the fault-circumvention flows: evicts `victims` (which
  /// must all be live), lets `mark_failed` flip the platform's fault state,
  /// then re-admits each victim preserving its handle, filling `report`.
  /// Called with the write lock held.
  void evict_and_readmit(
      const std::vector<AppHandle>& victims,
      const std::function<void()>& mark_failed, FaultReport& report);

  /// Exclusive for every mutation, shared for snapshots and reads (see the
  /// file comment). The immutable topology (elements, links, hop distances)
  /// needs no lock; stage() reads it through a private snapshot anyway.
  mutable std::shared_mutex state_mutex_;
  platform::Platform* platform_;
  KairosConfig config_;
  std::map<AppHandle, LiveApp> live_;
  AppHandle next_handle_ = 1;
};

}  // namespace kairos::core

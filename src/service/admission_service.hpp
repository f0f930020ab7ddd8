// Admission service: a long-running front end to the core::ResourceManager
// for many clients submitting applications at once, each wanting an answer
// (admitted where / rejected why) as a future it can wait on.
//
// Admission is one ordered stream, as in the paper's Kairos (§III-E, Fig.
// 1), which admits one application at a time against the live platform.
// There are no worker threads and no queue: each request is admitted on the
// thread that submits it.
//
//   submit(app) ──► stopping_? ──yes──► settle as "service stopped"
//                      │ no
//                      ▼
//                   ++in_flight_                       (under mutex_)
//                   report = manager_.admit(app)       (no service lock held)
//                   settle its promise
//                   --in_flight_, wake drain() at 0    (under mutex_)
//                   return the future (already settled)
//
// Concurrent submitters take turns on the manager's write lock, which
// admit() holds for the whole attempt; there is no thread handoff. With one
// submitter the service decides exactly as a direct admit() loop over the
// same stream does. Removal is a direct manager_.remove(): it takes the
// write lock between two admissions.
//
// A caller that must not block while its requests are admitted (an I/O
// thread) submits from a thread of its own — see CommandSession's batch
// thread. A mapper that throws settles its own request as a rejection;
// admit() leaves the platform exactly as it found it.
//
// The service keeps no per-request state once a request has settled: what
// is live is the manager's record (live_handles(), allocations_of()), and
// what an admission reserved travels to its submitter in the report's
// layout (task_allocations(app), link_claims()). The application itself is
// shared with the manager's record, not copied (graph::Application is
// copy-on-write).
//
// Observability (obs::Registry::global()):
//   counter  service.admissions        applications admitted through the service
//   counter  service.rejections        applications rejected (any phase)
//   gauge    service.queue_depth       requests submitted, not yet settled
//   histogram service.latency_ms       submit() -> settled, per request
//                                      (fixed buckets: O(1) per record, bounded
//                                      memory, percentiles within 1.6%)
//
// Request ids: submit() mints a process-unique id (monotone from 1) and
// stamps it into the settled AdmissionReport. It opens an obs::RequestScope
// around the admission, so every span and log event emitted while admitting
// it is tagged with the id; the serve-mode line protocol echoes it back in
// replies. Discrete outcomes (admitted,
// rejected, a throwing admission) also land in obs::EventLog::global().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>

#include "core/resource_manager.hpp"
#include "graph/application.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace kairos::service {

struct ServiceConfig {
  /// Ignored: the service starts no thread. This struct and the
  /// constructor's parameter go together with the benchmark harness's
  /// assignment to the field (ROADMAP C).
  int threads = 4;
};

class AdmissionService {
 public:
  explicit AdmissionService(core::ResourceManager& manager,
                            ServiceConfig config = {});
  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;
  ~AdmissionService();

  /// Admits `app` on the calling thread against the live platform and
  /// returns its future, already settled with the full report (admitted
  /// with handle, or rejected with phase + reason). After stop(), settles
  /// with a rejection without admitting.
  ///
  /// `request_id_out`, when non-null, receives the id minted for this
  /// request (callers echo it — the serve protocol acknowledges "queued
  /// req=<id>").
  std::future<core::AdmissionReport> submit(
      graph::Application app, std::uint64_t* request_id_out = nullptr);

  /// Synchronous removal, forwarded to the manager.
  util::VoidResult remove(core::AppHandle handle);

  /// Blocks until every submit() in progress on other threads has settled.
  /// The service keeps serving — this is the quiesce point benches and
  /// tests use between phases.
  void drain();

  /// Refuses further submissions, then drains. Idempotent; the destructor
  /// calls it.
  void stop();

  /// Requests submitted but not yet settled (admissions in progress).
  std::size_t pending() const;

 private:
  /// Admits one request against the live platform and returns its settled
  /// report (request id stamped, latency and outcome recorded). An
  /// admission that throws settles as a rejection naming the exception; a
  /// throw in the service's own bookkeeping (out of memory) terminates
  /// rather than leave in_flight_ counting a request that never settles.
  core::AdmissionReport admit_one(
      const graph::Application& app, std::uint64_t id,
      std::chrono::steady_clock::time_point submitted) noexcept;

  core::ResourceManager& manager_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;  ///< drain(): in_flight_ reached 0
  std::size_t in_flight_ = 0;        ///< submit() calls admitting now
  bool stopping_ = false;

  obs::Counter admissions_;
  obs::Counter rejections_;
  obs::Gauge queue_depth_;
  obs::Histogram latency_ms_;

  std::atomic<std::uint64_t> next_request_id_{0};
};

}  // namespace kairos::service

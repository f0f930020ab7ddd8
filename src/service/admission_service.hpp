// Concurrent admission service: a long-running front end to the
// core::ResourceManager for the "heavy traffic" regime — many clients
// submitting applications at once, each wanting an answer (admitted where /
// rejected why) without serialising every mapping search behind one lock.
//
// The pipeline is optimistic concurrency over the manager's stage/commit
// split (resource_manager.hpp):
//
//   submit(app) ──► request queue ──► worker pool
//                                       │  pop up to max_batch requests
//                                       │  scratch = snapshot_platform()
//                                       │  for each request:
//                                       │    staged = stage(app, scratch)
//                                       │    commit_staged(staged)  ── conflict?
//                                       │        │ ok                  │
//                                       ▼        ▼                     ▼
//                                   promise   promise        re-queue (fresh
//                                  (reject)  (admitted)      snapshot next
//                                                            time), after
//                                                            max_retries fall
//                                                            back to the
//                                                            exclusive admit()
//
// Batching is what lets mappers co-place: every request of a batch is staged
// against the *same* scratch platform, so the second application's mapping
// search sees the first one's placements (and the snapshot copy is amortised
// over the batch). A commit conflict — the live platform moved between
// snapshot and commit — costs only the staging work of that one request.
//
// The expensive phase work (the mapping search dominates, Fig. 7) runs with
// no lock held; only the cheap re-validation in commit_staged() takes the
// write lock. That does not make throughput scale with cores: on the paper's
// CRISP workloads the phases are short next to the snapshot, queue handoff
// and conflict re-staging, and bench_service has measured 4 workers at
// 0.74-1.10x of the serial path. What the pipeline buys is overlap of
// staging with commits, not a speedup (bench_service measures both).
//
// A conflicted request is parked on the retry queue, which workers drain
// (up to max_batch) before fresh submissions, so retries batch together and
// re-stage against one fresh snapshot instead of queueing behind new
// traffic.
//
// Observability (obs::Registry::global()):
//   counter  service.admissions        applications admitted through the service
//   counter  service.rejections        applications rejected (any phase)
//   counter  service.commit_conflicts  optimistic commits that lost the race
//   counter  service.fallbacks         requests settled by the exclusive path
//   counter  service.batches           batches popped by workers
//   gauge    service.queue_depth       requests waiting (not yet in a batch)
//   histogram service.latency_ms       submit() -> settled, per request
//
// Request ids: submit() mints a process-unique id (monotone from 1), carried
// on the Request and stamped into the settled AdmissionReport. Workers open
// an obs::RequestScope around each request so every span and log event
// emitted while staging/committing/requeueing it is tagged with the id; the
// serve-mode line protocol echoes it back in replies. Discrete outcomes
// (reject, conflict, fallback) also land in obs::EventLog::global().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/resource_manager.hpp"
#include "graph/application.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace kairos::service {

struct ServiceConfig {
  /// Worker threads staging admissions concurrently. 1 degenerates to a
  /// serial (but still asynchronous) service.
  int threads = 4;
  /// Requests staged together against one platform snapshot. Larger batches
  /// amortise the snapshot copy and let the mapper co-place queued
  /// applications, at the cost of staler snapshots (more conflicts under
  /// heavy churn).
  int max_batch = 4;
  /// Optimistic re-stages after a commit conflict before the request falls
  /// back to the manager's exclusive admit() (which cannot conflict).
  int max_retries = 2;
};

/// One successful commit, in registration order (handles are assigned
/// monotonically, so sorting by handle reproduces commit order). The
/// concurrency property test replays these onto a fresh platform and
/// demands the exact live allocation state back.
struct CommitRecord {
  core::AppHandle handle = -1;
  std::vector<std::pair<platform::ElementId, platform::ResourceVector>>
      task_allocations;
  std::vector<std::pair<noc::Route, std::int64_t>> routes;
};

class AdmissionService {
 public:
  explicit AdmissionService(core::ResourceManager& manager,
                            ServiceConfig config = {});
  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;
  ~AdmissionService();

  /// Enqueues an admission request; the future settles with the full report
  /// (admitted with handle, or rejected with phase + reason) once a worker
  /// has processed it. Never blocks on the admission itself. After stop(),
  /// settles immediately with a rejection.
  ///
  /// `request_id_out`, when non-null, receives the id minted for this
  /// request immediately (callers echo it before the future settles — the
  /// serve protocol acknowledges "queued req=<id>" at submit time).
  std::future<core::AdmissionReport> submit(
      graph::Application app, std::uint64_t* request_id_out = nullptr);

  /// Synchronous removal, forwarded to the manager (removal holds the write
  /// lock only briefly — there is nothing to overlap).
  util::VoidResult remove(core::AppHandle handle);

  /// Blocks until every submitted request has settled (queue empty, no
  /// request inside a worker). The service keeps running — this is the
  /// quiesce point benches and tests use between phases.
  void drain();

  /// Drains, then joins the workers. Idempotent; the destructor calls it.
  void stop();

  /// Copy of the commit log (every successful admission through the
  /// service, including fallbacks). Sort by handle for registration order.
  std::vector<CommitRecord> commit_log() const;

  /// Requests submitted but not yet settled.
  std::size_t pending() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Request {
    graph::Application app;
    std::promise<core::AdmissionReport> promise;
    std::uint64_t id = 0;  ///< minted by submit(), echoed in the report
    int attempt = 0;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  /// Settles one request: stamps the request id into the report, fulfils
  /// the promise, records latency + outcome metrics, decrements the pending
  /// count.
  void settle(Request&& request, core::AdmissionReport report);
  void requeue(Request&& request);
  /// Settles a request whose staging threw `what` as a rejection naming the
  /// exception, and logs it at error level.
  void stage_failed(Request&& request, const std::string& what);
  void log_commit(CommitRecord record);

  core::ResourceManager& manager_;
  ServiceConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: work available or stopping
  std::condition_variable idle_cv_;  ///< drain(): pending count hit zero
  std::deque<Request> queue_;    ///< fresh submissions
  std::deque<Request> retries_;  ///< conflicted requests, drained first
  std::size_t unsettled_ = 0;    ///< queued + inside a worker
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  mutable std::mutex log_mutex_;
  std::vector<CommitRecord> commit_log_;

  obs::Counter admissions_;
  obs::Counter rejections_;
  obs::Counter conflicts_;
  obs::Counter fallbacks_;
  obs::Counter batches_;
  obs::Gauge queue_depth_;
  obs::Histogram latency_ms_;

  std::atomic<std::uint64_t> next_request_id_{0};
};

}  // namespace kairos::service

#include "service/admission_service.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace kairos::service {

namespace {

core::AdmissionReport stopped_report() {
  core::AdmissionReport report;
  report.admitted = false;
  report.failed_phase = core::Phase::kNone;
  report.reason = "service stopped";
  return report;
}

}  // namespace

AdmissionService::AdmissionService(core::ResourceManager& manager,
                                   ServiceConfig config)
    : manager_(manager), config_(config) {
  config_.threads = std::max(1, config_.threads);
  config_.max_batch = std::max(1, config_.max_batch);
  config_.max_retries = std::max(0, config_.max_retries);

  obs::Registry& registry = obs::Registry::global();
  admissions_ = registry.counter("service.admissions");
  rejections_ = registry.counter("service.rejections");
  conflicts_ = registry.counter("service.commit_conflicts");
  fallbacks_ = registry.counter("service.fallbacks");
  batches_ = registry.counter("service.batches");
  queue_depth_ = registry.gauge("service.queue_depth");
  latency_ms_ = registry.histogram("service.latency_ms");

  workers_.reserve(static_cast<std::size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AdmissionService::~AdmissionService() { stop(); }

std::future<core::AdmissionReport> AdmissionService::submit(
    graph::Application app, std::uint64_t* request_id_out) {
  Request request;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (request_id_out != nullptr) *request_id_out = request.id;
  obs::EventLog::global().log(obs::LogLevel::kDebug, "service", "submitted",
                              {{"app", app.name()}}, request.id);
  request.app = std::move(app);
  request.enqueued = std::chrono::steady_clock::now();
  std::future<core::AdmissionReport> future = request.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      core::AdmissionReport report = stopped_report();
      report.request_id = request.id;
      request.promise.set_value(std::move(report));
      return future;
    }
    queue_.push_back(std::move(request));
    ++unsettled_;
    queue_depth_.set(static_cast<double>(queue_.size() + retries_.size()));
  }
  work_cv_.notify_one();
  return future;
}

util::VoidResult AdmissionService::remove(core::AppHandle handle) {
  return manager_.remove(handle);
}

void AdmissionService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return unsettled_ == 0; });
}

void AdmissionService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::vector<CommitRecord> AdmissionService::commit_log() const {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  return commit_log_;
}

std::size_t AdmissionService::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return unsettled_;
}

void AdmissionService::settle(Request&& request,
                              core::AdmissionReport report) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - request.enqueued)
          .count();
  latency_ms_.record(latency_ms);
  report.request_id = request.id;
  if (report.admitted) {
    admissions_.add(1);
    obs::EventLog::global().log(
        obs::LogLevel::kInfo, "service", "admitted",
        {{"app", request.app.name()},
         {"handle", std::to_string(report.handle)}},
        request.id);
  } else {
    rejections_.add(1);
    obs::EventLog::global().log(obs::LogLevel::kInfo, "service", "rejected",
                                {{"app", request.app.name()},
                                 {"reason", report.reason}},
                                request.id);
  }
  request.promise.set_value(std::move(report));
  bool idle = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --unsettled_;
    idle = unsettled_ == 0;
  }
  if (idle) idle_cv_.notify_all();
}

void AdmissionService::requeue(Request&& request) {
  obs::EventLog::global().log(obs::LogLevel::kDebug, "service", "requeued",
                              {{"app", request.app.name()},
                               {"attempt", std::to_string(request.attempt)}},
                              request.id);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    retries_.push_back(std::move(request));
    queue_depth_.set(static_cast<double>(queue_.size() + retries_.size()));
  }
  work_cv_.notify_one();
}

void AdmissionService::stage_failed(Request&& request,
                                    const std::string& what) {
  obs::EventLog::global().log(obs::LogLevel::kError, "service",
                              "staging threw",
                              {{"app", request.app.name()}, {"what", what}},
                              request.id);
  core::AdmissionReport report;
  report.reason = "staging threw: " + what;
  settle(std::move(request), std::move(report));
}

void AdmissionService::log_commit(CommitRecord record) {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  commit_log_.push_back(std::move(record));
}

void AdmissionService::worker_loop() {
  for (;;) {
    // --- pop a batch ------------------------------------------------------
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_ || !queue_.empty() || !retries_.empty();
      });
      if (queue_.empty() && retries_.empty()) {
        return;  // stopping, and nothing left to settle
      }
      // Retries first: a batch of conflicted requests re-stages against one
      // fresh snapshot and commits in one pass.
      std::deque<Request>& source = retries_.empty() ? queue_ : retries_;
      const auto want = static_cast<std::size_t>(config_.max_batch);
      while (!source.empty() && batch.size() < want) {
        batch.push_back(std::move(source.front()));
        source.pop_front();
      }
      queue_depth_.set(static_cast<double>(queue_.size() + retries_.size()));
    }
    batches_.add(1);

    // --- stage + commit against one shared scratch ------------------------
    // Every request of the batch phases against the same snapshot, so later
    // requests co-place around earlier ones and the copy is amortised. The
    // scratch keeps earlier stagings even when their commit conflicts —
    // harmless: commit_staged() is what decides against the live platform.
    platform::Platform scratch = manager_.snapshot_platform();
    for (Request& request : batch) {
      // Every span and log event emitted while this request stages,
      // commits, requeues or falls back carries its id.
      const obs::RequestScope request_scope(request.id);
      // A throwing mapper must not take the worker (and every pending
      // future) down with it: the request settles as a rejection instead.
      core::StagedAdmission staged;
      try {
        staged = manager_.stage(request.app, scratch);
      } catch (const std::exception& error) {
        stage_failed(std::move(request), error.what());
        continue;
      } catch (...) {
        stage_failed(std::move(request), "unknown exception");
        continue;
      }
      if (!staged.report.admitted) {
        settle(std::move(request), std::move(staged.report));
        continue;
      }

      CommitRecord record;
      record.task_allocations = staged.task_allocations;
      record.routes = staged.routes;
      auto committed = manager_.commit_staged(std::move(staged));
      if (committed.ok()) {
        record.handle = committed.value().handle;
        log_commit(std::move(record));
        settle(std::move(request), std::move(committed).value());
        continue;
      }

      // Conflict: the live platform moved underneath the snapshot.
      conflicts_.add(1);
      obs::EventLog::global().log(
          obs::LogLevel::kWarn, "service", "commit conflict",
          {{"app", request.app.name()},
           {"attempt", std::to_string(request.attempt)}},
          request.id);
      if (request.attempt < config_.max_retries) {
        ++request.attempt;
        requeue(std::move(request));
        continue;
      }
      // Retries exhausted — the exclusive path phases under the write lock
      // and therefore cannot conflict; its verdict is final.
      fallbacks_.add(1);
      obs::EventLog::global().log(obs::LogLevel::kInfo, "service",
                                  "fallback to exclusive admit",
                                  {{"app", request.app.name()}}, request.id);
      core::AdmissionReport report = manager_.admit(request.app);
      if (report.admitted) {
        CommitRecord fallback;
        fallback.handle = report.handle;
        fallback.task_allocations = manager_.allocations_of(report.handle);
        for (const core::ChannelRoute& channel : report.layout.routes()) {
          fallback.routes.emplace_back(channel.route, channel.bandwidth);
        }
        log_commit(std::move(fallback));
      }
      settle(std::move(request), std::move(report));
    }
  }
}

}  // namespace kairos::service

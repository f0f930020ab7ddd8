#include "service/admission_service.hpp"

#include <exception>
#include <string>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace kairos::service {

AdmissionService::AdmissionService(core::ResourceManager& manager,
                                   ServiceConfig /*config*/)
    : manager_(manager) {
  obs::Registry& registry = obs::Registry::global();
  admissions_ = registry.counter("service.admissions");
  rejections_ = registry.counter("service.rejections");
  queue_depth_ = registry.gauge("service.queue_depth");
  latency_ms_ = registry.histogram("service.latency_ms");
}

AdmissionService::~AdmissionService() { stop(); }

std::future<core::AdmissionReport> AdmissionService::submit(
    graph::Application app, std::uint64_t* request_id_out) {
  const auto submitted = std::chrono::steady_clock::now();
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (request_id_out != nullptr) *request_id_out = id;
  obs::EventLog::global().log(obs::LogLevel::kDebug, "service", "submitted",
                              {{"app", app.name()}}, id);
  std::promise<core::AdmissionReport> promise;
  std::future<core::AdmissionReport> future = promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      core::AdmissionReport report;
      report.reason = "service stopped";
      report.request_id = id;
      promise.set_value(std::move(report));
      return future;
    }
    ++in_flight_;
    queue_depth_.set(static_cast<double>(in_flight_));
  }
  promise.set_value(admit_one(app, id, submitted));
  const std::lock_guard<std::mutex> lock(mutex_);
  --in_flight_;
  queue_depth_.set(static_cast<double>(in_flight_));
  if (in_flight_ == 0) idle_cv_.notify_all();
  return future;
}

core::AdmissionReport AdmissionService::admit_one(
    const graph::Application& app, std::uint64_t id,
    std::chrono::steady_clock::time_point submitted) noexcept {
  // Every span and log event emitted while this request is admitted carries
  // its id.
  const obs::RequestScope request_scope(id);
  core::AdmissionReport report;
  // A throwing admission (a faulty mapper) settles as a rejection; admit()
  // has left the platform exactly as it found it.
  const auto threw = [&](const std::string& what) {
    obs::EventLog::global().log(obs::LogLevel::kError, "service",
                                "admission threw",
                                {{"app", app.name()}, {"what", what}}, id);
    report = {};
    report.reason = "admission threw: " + what;
  };
  try {
    report = manager_.admit(app);
  } catch (const std::exception& error) {
    threw(error.what());
  } catch (...) {
    threw("unknown exception");
  }
  report.request_id = id;
  latency_ms_.record(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - submitted)
                         .count());
  if (report.admitted) {
    CommitRecord record;
    record.handle = report.handle;
    record.task_allocations = report.layout.task_allocations(app);
    record.link_claims = report.layout.link_claims();
    {
      const std::lock_guard<std::mutex> lock(commit_mutex_);
      commit_log_.push_back(std::move(record));
    }
    admissions_.add(1);
    obs::EventLog::global().log(
        obs::LogLevel::kInfo, "service", "admitted",
        {{"app", app.name()}, {"handle", std::to_string(report.handle)}}, id);
  } else {
    rejections_.add(1);
    obs::EventLog::global().log(
        obs::LogLevel::kInfo, "service", "rejected",
        {{"app", app.name()}, {"reason", report.reason}}, id);
  }
  return report;
}

util::VoidResult AdmissionService::remove(core::AppHandle handle) {
  return manager_.remove(handle);
}

void AdmissionService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void AdmissionService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  drain();
}

std::vector<CommitRecord> AdmissionService::commit_log() const {
  const std::lock_guard<std::mutex> lock(commit_mutex_);
  return commit_log_;
}

std::size_t AdmissionService::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

}  // namespace kairos::service

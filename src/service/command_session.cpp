#include "service/command_session.hpp"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gen/datasets.hpp"
#include "graph/app_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "platform/fragmentation.hpp"

namespace kairos::service {

namespace {

std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

/// Reads + parses one application file; empty optional (and an error line)
/// on failure.
bool load_application(const std::string& path, graph::Application& out,
                      std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read application file '" + path + "'";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = graph::parse_application(text.str());
  if (!parsed.ok()) {
    error = path + ": " + parsed.error();
    return false;
  }
  out = std::move(parsed).value();
  return true;
}

}  // namespace

std::string service_stats_json(const core::ResourceManager& manager,
                               const AdmissionService& service) {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  const auto counter = [&snapshot](const char* name) -> std::int64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("live", static_cast<std::int64_t>(manager.live_count()));
  json.kv("fragmentation",
          platform::external_fragmentation(manager.platform()));
  json.kv("pending", static_cast<std::int64_t>(service.pending()));
  json.kv("admitted", counter("service.admissions"));
  json.kv("rejected", counter("service.rejections"));
  json.kv("conflicts", counter("service.commit_conflicts"));
  json.kv("fallbacks", counter("service.fallbacks"));
  json.end_object();
  return out.str();
}

CommandSession::CommandSession(core::ResourceManager& manager,
                               AdmissionService& service)
    : manager_(manager), service_(service) {}

std::string CommandSession::greeting() const {
  return format(
      "serving (threads=%d batch=%d); commands: admit <file>..., "
      "gen <n> [seed], remove <handle>, stats, metrics, quit",
      service_.config().threads, service_.config().max_batch);
}

std::string CommandSession::settle_line(PendingReply& reply) const {
  const core::AdmissionReport report = reply.future.get();
  if (report.admitted) {
    return format("admitted req=%llu handle=%lld app=%s ms=%.3f",
                  static_cast<unsigned long long>(report.request_id),
                  static_cast<long long>(report.handle), reply.name.c_str(),
                  report.times.total_ms());
  }
  return format("rejected req=%llu phase=%s app=%s reason=%s",
                static_cast<unsigned long long>(report.request_id),
                core::to_string(report.failed_phase).c_str(),
                reply.name.c_str(), report.reason.c_str());
}

void CommandSession::submit_all(std::vector<graph::Application> apps,
                                std::vector<std::string>& out) {
  for (graph::Application& app : apps) {
    PendingReply reply;
    reply.name = app.name();
    std::uint64_t request_id = 0;
    reply.future = service_.submit(std::move(app), &request_id);
    reply.request_id = request_id;
    out.push_back(format("queued req=%llu app=%s",
                         static_cast<unsigned long long>(request_id),
                         reply.name.c_str()));
    pending_.push_back(std::move(reply));
  }
}

bool CommandSession::poll(std::vector<std::string>& out) {
  while (next_pending_ < pending_.size()) {
    PendingReply& reply = pending_[next_pending_];
    if (reply.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return false;  // replies stay in submission order: stop at the first
    }
    out.push_back(settle_line(reply));
    ++next_pending_;
  }
  pending_.clear();
  next_pending_ = 0;
  out.push_back("done");
  return true;
}

void CommandSession::finish(std::vector<std::string>& out) {
  while (next_pending_ < pending_.size()) {
    pending_[next_pending_].future.wait();
    out.push_back(settle_line(pending_[next_pending_]));
    ++next_pending_;
  }
  pending_.clear();
  next_pending_ = 0;
  out.push_back("done");
}

CommandSession::Status CommandSession::handle_line(
    const std::string& line, std::vector<std::string>& out) {
  std::istringstream words(line);
  std::string command;
  words >> command;
  if (command.empty()) return Status::kReady;

  if (command == "quit" || command == "exit") {
    out.push_back("bye");
    return Status::kQuit;
  }

  if (command == "admit") {
    std::vector<graph::Application> apps;
    std::string path;
    while (words >> path) {
      graph::Application app;
      std::string error;
      if (load_application(path, app, error)) {
        apps.push_back(std::move(app));
      } else {
        out.push_back("error " + error);
      }
    }
    if (apps.empty()) {
      out.push_back("error admit requires at least one readable file");
      out.push_back("done");
      return Status::kReady;
    }
    submit_all(std::move(apps), out);
    return Status::kPending;
  }

  if (command == "gen") {
    long count = 0;
    long gen_seed = 71;
    words >> count;
    words >> gen_seed;
    if (count <= 0) {
      out.push_back("error gen requires a positive count");
      out.push_back("done");
      return Status::kReady;
    }
    submit_all(gen::make_dataset(gen::DatasetKind::kCommunicationSmall,
                                 static_cast<int>(count),
                                 static_cast<unsigned>(gen_seed)),
               out);
    return Status::kPending;
  }

  if (command == "remove") {
    long long handle = -1;
    if (!(words >> handle)) {
      out.push_back("error remove requires a handle");
      return Status::kReady;
    }
    const auto removed = service_.remove(static_cast<core::AppHandle>(handle));
    if (removed.ok()) {
      out.push_back(format("removed handle=%lld", handle));
    } else {
      out.push_back("error " + removed.error());
    }
    return Status::kReady;
  }

  if (command == "stats") {
    // No drain: a socket transport must not block the poll thread, and
    // after a batch's "done" everything is settled anyway — `pending` shows
    // the in-flight count when the caller races a batch.
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    const auto counter = [&snapshot](const char* name) -> long long {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    out.push_back(format(
        "stats live=%zu fragmentation=%.1f%% pending=%zu admitted=%lld "
        "rejected=%lld conflicts=%lld",
        manager_.live_count(),
        100.0 * platform::external_fragmentation(manager_.platform()),
        service_.pending(), counter("service.admissions"),
        counter("service.rejections"), counter("service.commit_conflicts")));
    return Status::kReady;
  }

  if (command == "metrics") {
    std::istringstream text(obs::Registry::global().to_text());
    std::string metric_line;
    while (std::getline(text, metric_line)) out.push_back(metric_line);
    out.push_back("done");
    return Status::kReady;
  }

  out.push_back("error unknown command '" + command + "'");
  return Status::kReady;
}

}  // namespace kairos::service

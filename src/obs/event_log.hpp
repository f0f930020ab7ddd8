// Structured event logging: the third leg of the observability plane next
// to metrics (aggregates) and spans (timings). One LogEvent is a discrete
// thing that *happened* — request submitted, request rejected, SLO
// breached — with a level, a component, free-form key/value fields and
// the admission-service request id of the surrounding RequestScope, so one
// request's journey is greppable across metrics, trace JSON and log.
//
// Two outputs:
//   * a bounded in-memory ring (default 1024 events) served by the
//     telemetry server's /logs endpoint — the "what just happened" view of
//     a live daemon;
//   * zero or more JSONL sinks (one JSON object per line, machine-first),
//     each with its own token-bucket rate limit so a rejection storm cannot
//     turn the log file into the bottleneck: beyond `max_per_sec` events in
//     a second the sink drops (counted, and reported as a
//     "obs.log.dropped" style field in recent()/stats — never silently).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace kairos::obs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* to_string(LogLevel level);

/// One structured event.
struct LogEvent {
  double ts_ms = 0.0;  ///< milliseconds since the log's construction
  LogLevel level = LogLevel::kInfo;
  std::string component;  ///< emitting subsystem, e.g. "service", "net"
  std::string message;
  std::uint64_t request_id = 0;  ///< 0 = not request-scoped
  std::vector<std::pair<std::string, std::string>> fields;
};

/// Serialises one event as a single JSONL line (no trailing newline).
void write_log_event_json(const LogEvent& event, std::ostream& out);

class EventLog {
 public:
  EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The process-wide log every built-in emitter writes to.
  static EventLog& global();

  /// Records one event, unless `level` is below min_level(): that check
  /// comes first, so a discarded event costs one atomic load beyond its
  /// arguments (see enabled()). `request_id` 0 picks up current_request_id() (the
  /// RequestScope of the calling thread) automatically; pass it explicitly
  /// from code running outside the scope (e.g. submit(), which mints ids).
  void log(LogLevel level, const std::string& component,
           const std::string& message,
           std::vector<std::pair<std::string, std::string>> fields = {},
           std::uint64_t request_id = 0);

  /// Events below this level are discarded at the door (default kDebug —
  /// everything kept; a daemon under load raises it to kInfo).
  void set_min_level(LogLevel level);
  LogLevel min_level() const;
  /// Whether log(level, ...) would keep the event. A hot call site whose
  /// fields cost allocations checks this before building them.
  bool enabled(LogLevel level) const {
    return level >= min_level_.load(std::memory_order_relaxed);
  }

  /// Ring capacity for recent(); oldest events are evicted (default 1024).
  void set_capacity(std::size_t capacity);

  /// Adds a JSONL sink. Events above the per-second budget are dropped and
  /// counted (sink_dropped()). The stream must outlive the log or be
  /// removed with clear_sinks().
  void add_sink(std::shared_ptr<std::ostream> out, double max_per_sec = 500.0);
  void clear_sinks();

  /// Snapshot of the in-memory ring, oldest first.
  std::vector<LogEvent> recent() const;
  /// Ring events discarded by capacity eviction.
  std::int64_t evicted() const;
  /// Events dropped by sink rate limiting, summed over sinks.
  std::int64_t sink_dropped() const;

  /// Clears the ring and counters (test/bench isolation). Sinks stay.
  void reset();

  /// {"events":[...],"evicted":n,"sink_dropped":n} — the /logs payload.
  void write_json(std::ostream& out) const;

 private:
  struct Sink {
    std::shared_ptr<std::ostream> out;
    double max_per_sec = 0.0;
    double tokens = 0.0;  ///< token bucket, capacity = max_per_sec
    std::chrono::steady_clock::time_point last_refill;
    std::int64_t dropped = 0;
  };

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<LogLevel> min_level_{LogLevel::kDebug};
  mutable std::mutex mutex_;
  std::size_t capacity_ = 1024;
  std::deque<LogEvent> ring_;
  std::int64_t evicted_ = 0;
  std::vector<Sink> sinks_;
};

}  // namespace kairos::obs

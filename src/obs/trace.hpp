// Structured span tracing: RAII obs::Span records how long a named section
// ran, on which thread, and how deeply nested it was; obs::Tracer collects
// the finished spans and serialises them as Chrome trace-event JSON
// ("complete" X events), loadable directly in Perfetto / chrome://tracing.
//
// The instrumented sections are the admission lifecycle (one span per
// admission with per-phase child spans), the scenario engine's event loop
// (one span per event kind) and the sweep driver's cells (each std::async
// worker is its own thread, hence its own track in the trace viewer).
//
// Span doubles as the library's stopwatch: elapsed_ms() is how the
// resource manager populates the per-phase PhaseTimes of Fig. 7 and the
// sweep driver its wall-clock columns. Those are *product data*, not
// observability, so Span keeps timing even under KAIROS_NO_OBS — the macro
// strips the recording side effects (tracer append, depth bookkeeping),
// leaving a plain two-clock-read stopwatch.
//
// Tracing is off by default: an un-started Tracer makes Span construction
// two relaxed atomic loads plus the clock read; nothing is allocated or
// stored. Tracer::start() arms collection process-wide.
//
// Thread-safety contract (exercised by the admission-service worker pool):
// start()/stop() may race freely with spans opening, closing and recording
// on other threads — the armed flag and the epoch are atomics, the event
// buffer is mutex-guarded. A span that armed itself before stop() (or
// before a concurrent start() cleared the buffer) still appends its event
// on destruction; collection boundaries are therefore *fuzzy* under
// concurrency — spans already open when start() is called may contribute a
// stale-timestamped event — but never a data race or a torn event. Callers
// that need crisp boundaries quiesce their workers (e.g.
// AdmissionService::drain()) around start()/stop().
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.hpp"

#ifndef KAIROS_NO_OBS
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#endif

namespace kairos::obs {

/// One finished span, in trace-viewer terms: a "complete" slice.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< start, microseconds since Tracer::start()
  double dur_us = 0.0;  ///< duration, microseconds
  int tid = 0;          ///< dense per-thread id (one viewer track each)
  int depth = 0;        ///< nesting depth on its thread at start (root = 0)
  /// "req" carries the admission-service request id when the span closed
  /// inside a RequestScope (see below) — how one request's timeline is
  /// grepped out of a daemon's trace.
  std::vector<std::pair<std::string, std::string>> args;
};

/// The admission-service request id attached to everything the calling
/// thread records while a RequestScope is alive: spans gain a "req" arg,
/// EventLog entries a "request_id" field. 0 = no request in scope.
///
/// This is how a single submit() is followed through its admission phases:
/// whichever thread admits the request opens a scope for it, so the
/// request's telemetry carries the same id as the reply that echoes it.
std::uint64_t current_request_id();

#ifndef KAIROS_NO_OBS

/// RAII setter for current_request_id() (saves and restores the previous
/// value, so scopes nest).
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t id);
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope();

 private:
  std::uint64_t prev_;
};

#else

class RequestScope {
 public:
  explicit RequestScope(std::uint64_t) {}
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
};

#endif  // KAIROS_NO_OBS

#ifndef KAIROS_NO_OBS

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer all Spans report to.
  static Tracer& global();

  /// Clears previously collected events and arms collection; timestamps are
  /// measured from this call.
  void start();
  /// Disarms collection; collected events stay available.
  void stop();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Microseconds since start() (0 when never started).
  double now_us() const;

  void record(TraceEvent event);

  /// Bounds the event buffer: once `capacity` events are held, recording a
  /// new one drops the oldest (the buffer is a ring). A long-running daemon
  /// keeps the *most recent* window of spans for /trace instead of growing
  /// without bound. Default 65536. dropped() counts the evictions since
  /// start().
  void set_capacity(std::size_t capacity);
  std::int64_t dropped() const;

  /// Snapshot of the collected events (finished spans, completion order).
  std::vector<TraceEvent> events() const;

  /// Moves the collected events out and clears the buffer, leaving
  /// collection armed — the /trace endpoint's semantics: each scrape gets
  /// the spans recorded since the previous one.
  std::vector<TraceEvent> drain();

  /// Serialises the collected events as one Chrome trace-event JSON
  /// document: {"traceEvents":[...],"otherData":{build stamp},
  /// "displayTimeUnit":"ms"}. Valid JSON even when empty.
  void write_json(std::ostream& out) const;

  /// Same document, but from an explicit event list (what drain() returned)
  /// — the /trace endpoint serialises outside the tracer's lock.
  static void write_json(const std::vector<TraceEvent>& events,
                         std::ostream& out);

 private:
  std::atomic<bool> active_{false};
  /// start()'s steady_clock reading in nanoseconds-since-clock-epoch (0 =
  /// never started). Atomic because now_us() runs on every span-opening
  /// thread while start() may be rewriting it.
  std::atomic<std::int64_t> epoch_ns_{0};
  mutable std::mutex mutex_;
  std::deque<TraceEvent> events_;
  std::size_t capacity_ = 65536;
  std::int64_t dropped_ = 0;
};

/// Dense id of the calling thread (assigned on first use, stable after).
int current_thread_id();

/// RAII span. Always times (elapsed_ms below); when the global tracer was
/// active at construction, the destructor appends one TraceEvent with the
/// thread's nesting depth. Move-free by design: a span marks a lexical
/// scope.
class Span {
 public:
  /// Takes the name by reference and copies it only when the tracer is
  /// active, so an unarmed span in a hot loop allocates nothing.
  explicit Span(const std::string& name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Attaches a key/value to the emitted trace event. Cheap no-op when the
  /// span is not being recorded.
  void arg(const std::string& key, const std::string& value);

  /// Elapsed wall-clock since construction — the stopwatch half of Span.
  double elapsed_ms() const { return watch_.elapsed_ms(); }

 private:
  util::Stopwatch watch_;
  std::string name_;
  double start_us_ = 0.0;
  int depth_ = 0;
  std::uint64_t request_id_ = 0;  ///< current_request_id() at open
  bool armed_ = false;  ///< tracer was active when the span opened
  std::vector<std::pair<std::string, std::string>> args_;
};

#else  // KAIROS_NO_OBS — the stopwatch survives, the recording does not.

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& global() {
    static Tracer instance;
    return instance;
  }

  void start() {}
  void stop() {}
  bool active() const { return false; }
  double now_us() const { return 0.0; }
  void record(TraceEvent) {}
  void set_capacity(std::size_t) {}
  std::int64_t dropped() const { return 0; }
  std::vector<TraceEvent> events() const { return {}; }
  std::vector<TraceEvent> drain() { return {}; }
  void write_json(std::ostream& out) const {
    out << "{\"traceEvents\":[],\"otherData\":{},\"displayTimeUnit\":\"ms\"}";
  }
  static void write_json(const std::vector<TraceEvent>&, std::ostream& out) {
    out << "{\"traceEvents\":[],\"otherData\":{},\"displayTimeUnit\":\"ms\"}";
  }
};

inline std::uint64_t current_request_id() { return 0; }

inline int current_thread_id() { return 0; }

class Span {
 public:
  explicit Span(const std::string&) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const std::string&, const std::string&) {}
  double elapsed_ms() const { return watch_.elapsed_ms(); }

 private:
  util::Stopwatch watch_;
};

#endif  // KAIROS_NO_OBS

}  // namespace kairos::obs

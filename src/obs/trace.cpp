#include "obs/trace.hpp"

#include "obs/build_info.hpp"
#include "obs/json.hpp"

namespace kairos::obs {

namespace {

/// Per-thread nesting depth of open spans (only maintained while armed).
thread_local int g_span_depth = 0;

/// The request id of the RequestScope the calling thread is inside (0 =
/// none). Read by Span (trace "req" arg) and EventLog ("request_id" field).
thread_local std::uint64_t g_request_id = 0;

std::atomic<int> g_next_thread_id{1};

}  // namespace

std::uint64_t current_request_id() { return g_request_id; }

RequestScope::RequestScope(std::uint64_t id) : prev_(g_request_id) {
  g_request_id = id;
}

RequestScope::~RequestScope() { g_request_id = prev_; }

int current_thread_id() {
  thread_local const int id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

void Tracer::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  epoch_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_release);
  active_.store(true, std::memory_order_release);
}

void Tracer::stop() { active_.store(false, std::memory_order_release); }

double Tracer::now_us() const {
  const std::int64_t epoch_ns = epoch_ns_.load(std::memory_order_acquire);
  if (epoch_ns == 0) return 0.0;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now_ns - epoch_ns) / 1000.0;
}

void Tracer::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  while (events_.size() >= capacity_ && !events_.empty()) {
    events_.pop_front();
    ++dropped_;
  }
  if (capacity_ > 0) events_.push_back(std::move(event));
}

void Tracer::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

std::int64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<TraceEvent>(events_.begin(), events_.end());
}

std::vector<TraceEvent> Tracer::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out(std::make_move_iterator(events_.begin()),
                              std::make_move_iterator(events_.end()));
  events_.clear();
  return out;
}

void Tracer::write_json(std::ostream& out) const {
  write_json(this->events(), out);
}

void Tracer::write_json(const std::vector<TraceEvent>& events,
                        std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (const TraceEvent& event : events) {
    json.begin_object();
    json.kv("name", event.name);
    json.kv("cat", "kairos");
    json.kv("ph", "X");
    json.kv("ts", event.ts_us);
    json.kv("dur", event.dur_us);
    json.kv("pid", static_cast<std::int64_t>(1));
    json.kv("tid", static_cast<std::int64_t>(event.tid));
    json.key("args");
    json.begin_object();
    json.kv("depth", static_cast<std::int64_t>(event.depth));
    for (const auto& [key, value] : event.args) json.kv(key, value);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.key("otherData");
  json.begin_object();
  const BuildInfo& build = build_info();
  json.kv("git_sha", build.git_sha);
  json.kv("compiler", build.compiler);
  json.kv("build_type", build.build_type);
  json.kv("flags", build.flags);
  json.end_object();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
}

Span::Span(const std::string& name) {
  Tracer& tracer = Tracer::global();
  if (tracer.active()) {
    armed_ = true;
    name_ = name;
    start_us_ = tracer.now_us();
    depth_ = g_span_depth++;
    request_id_ = g_request_id;
  }
}

Span::~Span() {
  if (!armed_) return;
  --g_span_depth;
  Tracer& tracer = Tracer::global();
  TraceEvent event;
  event.name = std::move(name_);
  event.ts_us = start_us_;
  // Duration from the span's own stopwatch, so the slice matches what the
  // caller's elapsed_ms() reported (one clock, no skew).
  event.dur_us = watch_.elapsed_us();
  event.tid = current_thread_id();
  event.depth = depth_;
  event.args = std::move(args_);
  if (request_id_ != 0) {
    event.args.emplace_back("req", std::to_string(request_id_));
  }
  tracer.record(std::move(event));
}

void Span::arg(const std::string& key, const std::string& value) {
  if (!armed_) return;
  args_.emplace_back(key, value);
}

}  // namespace kairos::obs

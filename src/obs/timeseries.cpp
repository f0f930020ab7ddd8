#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace kairos::obs {

namespace {

double rate_per_sec(std::int64_t delta, double dt_ms) {
  if (dt_ms <= 0.0 || delta <= 0) return 0.0;
  return static_cast<double>(delta) * 1000.0 / dt_ms;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Registry& registry,
                                     TimeSeriesConfig config)
    : registry_(registry),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  config_.interval_ms = std::max(1, config_.interval_ms);
}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = false;
    running_.store(true, std::memory_order_relaxed);
  }
  thread_ = std::thread([this] { loop(); });
}

void TimeSeriesSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void TimeSeriesSampler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Prime the counter baseline so the first emitted point covers one real
  // interval instead of the whole pre-start history.
  sample_locked();
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms));
    if (stop_requested_) break;
    sample_locked();
  }
}

void TimeSeriesSampler::sample_now() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sample_locked();
}

void TimeSeriesSampler::sample_locked() {
  const MetricsSnapshot snapshot = registry_.snapshot();
  const double t_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();

  CounterState state;
  auto counter_of = [&snapshot](const char* name) -> std::int64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  state.admissions = counter_of("service.admissions");
  state.rejections = counter_of("service.rejections");

  if (primed_) {
    TimeSeriesPoint point;
    point.t_ms = t_ms;
    point.dt_ms = t_ms - last_t_ms_;
    point.admissions_per_sec =
        rate_per_sec(state.admissions - last_.admissions, point.dt_ms);
    point.rejections_per_sec =
        rate_per_sec(state.rejections - last_.rejections, point.dt_ms);
    const auto gauge_it = snapshot.gauges.find("service.queue_depth");
    point.queue_depth =
        gauge_it == snapshot.gauges.end() ? 0.0 : gauge_it->second;
    const auto hist_it = snapshot.histograms.find("service.latency_ms");
    point.p99_latency_ms =
        hist_it == snapshot.histograms.end() ? 0.0 : hist_it->second.p99;

    while (ring_.size() >= config_.capacity && !ring_.empty()) {
      ring_.pop_front();
    }
    if (config_.capacity > 0) ring_.push_back(std::move(point));
  }

  last_ = std::move(state);
  last_t_ms_ = t_ms;
  primed_ = true;
}

std::vector<TimeSeriesPoint> TimeSeriesSampler::series() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<TimeSeriesPoint>(ring_.begin(), ring_.end());
}

TimeSeriesPoint TimeSeriesSampler::window(std::size_t last_n) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty() || last_n == 0) return {};
  const std::size_t n = std::min(last_n, ring_.size());

  // Rates re-derive from event totals (rate * dt) over the combined span so
  // uneven sampling intervals weight correctly.
  double span_ms = 0.0;
  double admissions = 0.0, rejections = 0.0;
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    const TimeSeriesPoint& p = ring_[i];
    span_ms += p.dt_ms;
    admissions += p.admissions_per_sec * p.dt_ms / 1000.0;
    rejections += p.rejections_per_sec * p.dt_ms / 1000.0;
  }

  TimeSeriesPoint out = ring_.back();  // queue depth / p99: newest
  out.dt_ms = span_ms;
  if (span_ms > 0.0) {
    out.admissions_per_sec = admissions * 1000.0 / span_ms;
    out.rejections_per_sec = rejections * 1000.0 / span_ms;
  }
  return out;
}

void TimeSeriesSampler::write_json(std::ostream& out) const {
  const std::vector<TimeSeriesPoint> points = series();
  JsonWriter json(out);
  json.begin_object();
  json.kv("interval_ms", static_cast<std::int64_t>(config_.interval_ms));
  json.key("points");
  json.begin_array();
  for (const TimeSeriesPoint& p : points) {
    json.begin_object();
    json.kv("t_ms", p.t_ms);
    json.kv("dt_ms", p.dt_ms);
    json.kv("admissions_per_sec", p.admissions_per_sec);
    json.kv("rejections_per_sec", p.rejections_per_sec);
    json.kv("queue_depth", p.queue_depth);
    json.kv("p99_latency_ms", p.p99_latency_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace kairos::obs

// Windowed SLO time-series: a background thread samples the metrics
// registry on a fixed cadence, differences consecutive counter snapshots
// into *rates* (admissions/sec, rejections/sec) and keeps a bounded
// ring of points. Cumulative counters answer "how much ever"; this ring
// answers "what is happening right now" — the quantity /healthz judges
// SLOs against and `kairos_cli --watch` renders.
//
// Sampled per tick (all from Registry names the admission service emits —
// a missing metric simply reads 0, so the sampler works against any
// registry):
//   service.admissions / service.rejections -> windowed rates per second
//   service.queue_depth                 -> instantaneous gauge
//   service.latency_ms                  -> windowed p99: the histogram's
//                                          bucket counts differenced
//                                          against the previous tick's
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace kairos::obs {

/// One sampled point: rates over the interval ending at t_ms.
struct TimeSeriesPoint {
  double t_ms = 0.0;   ///< since sampler construction
  double dt_ms = 0.0;  ///< width of the differencing interval
  double admissions_per_sec = 0.0;
  double rejections_per_sec = 0.0;
  double queue_depth = 0.0;     ///< gauge at sample time
  double p99_latency_ms = 0.0;  ///< over the interval; 0 when it had none
};

struct TimeSeriesConfig {
  int interval_ms = 250;      ///< sampling cadence
  std::size_t capacity = 600; ///< ring size (600 x 250ms = 2.5 min window)
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(Registry& registry = Registry::global(),
                             TimeSeriesConfig config = {});
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;
  ~TimeSeriesSampler();

  /// Spawns the sampling thread. No-op when running.
  void start();
  /// Stops and joins it. Idempotent; the destructor calls it.
  void stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Takes one sample immediately (deterministic ticks for tests; also
  /// usable instead of start() when the caller has its own scheduler).
  void sample_now();

  /// Snapshot of the ring, oldest first.
  std::vector<TimeSeriesPoint> series() const;

  /// Aggregate over the last `last_n` points (rate = total delta / total
  /// time; queue depth from the newest point; p99 the largest of the
  /// points', an upper bound of the span's own p99). Zeros when empty.
  TimeSeriesPoint window(std::size_t last_n) const;

  /// {"interval_ms":...,"points":[{...},...]} — the /series payload.
  void write_json(std::ostream& out) const;

  const TimeSeriesConfig& config() const { return config_; }

 private:
  struct CounterState {
    std::int64_t admissions = 0;
    std::int64_t rejections = 0;
  };

  void loop();
  void sample_locked();  ///< callers hold mutex_

  Registry& registry_;
  TimeSeriesConfig config_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::deque<TimeSeriesPoint> ring_;
  CounterState last_;
  detail::BucketCounts last_latency_;
  double last_t_ms_ = 0.0;
  bool primed_ = false;  ///< first sample only primes the deltas

  std::atomic<bool> running_{false};
  bool stop_requested_ = false;
  std::condition_variable stop_cv_;
  std::thread thread_;
};

}  // namespace kairos::obs

// The metrics registry of the observability subsystem: named counters,
// gauges and latency histograms shared by every layer (admission phases,
// the scenario engine's event loop, the mapper strategies, the sweep
// driver), with text and JSON exposition.
//
// Design constraints, in order:
//  * zero dependencies;
//  * hot-path cheap — a Counter/Gauge/Histogram handle is one raw pointer
//    into stable registry storage, and updating it is a few relaxed atomic
//    ops (no lock, no lookup, no allocation); name resolution (one
//    mutex-guarded map lookup) is paid when the handle is obtained, which
//    call sites do once;
//  * bounded — a histogram is a fixed array of bucket counts (under 16 KB),
//    however many samples it records, so a daemon that runs for months
//    holds the same metrics memory as one that just started;
//  * thread-safe by construction — counters and histogram buckets sum
//    exactly across concurrent writers (tested).
//
// Registry cells are never erased: a handle, once obtained, stays valid for
// the program's lifetime. Registry::reset() zeroes values in place (bench /
// test isolation) without invalidating handles.
//
// Label policy. The registry is label-free — a metric is one named cell —
// and the exposition renders every cell as its own unlabelled family. Never
// mint cells from unbounded or platform-sized keys (app names, request ids,
// element ids): those belong in log-event fields or span args, not metric
// names.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace kairos::obs {

/// Point-in-time digest of one histogram (the JSON/text exposition unit).
struct HistogramStats {
  std::int64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every metric in a registry.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

namespace detail {

/// The storage of one histogram: log-linear bucket counts. Every power of
/// two from 2^kMinExponent (~1e-6) to 2^kMaxExponent (~1e12) is split into
/// kSubBuckets equal-width buckets; values below the range (zero and
/// negatives included) count in an underflow bucket, values above it in an
/// overflow bucket. A bucket spans 1/kSubBuckets of its power of two, so
/// the middle of the bucket is within 1/(2·kSubBuckets) = 1.6% of any value
/// in it.
struct HistogramCell {
  static constexpr int kSubBuckets = 32;
  static constexpr int kSubBucketBits = 5;  ///< log2(kSubBuckets)
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 40;
  /// Underflow, the log-linear range, overflow.
  static constexpr std::size_t kBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};

  /// The bucket `value` counts in.
  static std::size_t bucket_of(double value);
  /// The middle of a log-linear bucket (not the underflow or overflow one).
  static double midpoint(std::size_t bucket);
};

/// A copy of one histogram's bucket counts (Histogram::read), or the
/// counts recorded between two copies (since()).
struct BucketCounts {
  std::array<std::uint64_t, HistogramCell::kBuckets> counts{};
  std::uint64_t total = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// The counts recorded since `earlier`, a copy of the same histogram
  /// taken before this one. min and max stay this copy's: they bound every
  /// sample of the difference. When a reset came between the two copies (a
  /// bucket shrank), all of this copy counts as recorded since.
  BucketCounts since(const BucketCounts& earlier) const;

  /// The p-th percentile, 0 when there are no counts: the bucket that holds
  /// the smallest sample whose rank reaches p% of the total (nearest rank),
  /// reported as its middle clamped into [min, max]. The underflow bucket
  /// reads min, the overflow bucket max.
  double percentile(double p) const;
};

}  // namespace detail

/// Monotone event count. Handle semantics: copies observe the same cell.
class Counter {
 public:
  Counter() = default;

  void add(std::int64_t n = 1) const {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Last-write-wins instantaneous value (e.g. live applications, queue depth).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(double delta) const {
    if (!cell_) return;
    double expected = cell_->load(std::memory_order_relaxed);
    while (!cell_->compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Latency / size distribution over fixed log-linear buckets
/// (detail::HistogramCell). record() is O(1): a few relaxed atomic adds, no
/// lock. count, mean, min and max are exact (up to the order of concurrent
/// additions to the sum). p50/p95/p99 pick the bucket that holds the
/// smallest sample whose rank reaches p% of the count — exactly as a sort
/// of every sample would — and report that bucket's middle, clamped into
/// [min, max]: within 1.6% relative error for samples in [~1e-6, ~1e12].
/// A percentile that lands below that range reports min, above it max.
/// NaN samples are ignored.
class Histogram {
 public:
  Histogram() = default;

  void record(double value) const;
  HistogramStats stats() const;

  /// Copies the bucket counts, total, min and max into `out` in one pass
  /// (all zero for a null handle).
  void read(detail::BucketCounts& out) const;

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Named metric storage. Registry::global() is the process-wide instance
/// every built-in instrumentation point records into; embedders can also
/// construct private registries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Finds or creates the named metric; the returned handle stays valid for
  /// the registry's lifetime (cells are never erased).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// The named histogram, or a null handle (which reads as empty) when no
  /// code has created it; never creates one.
  Histogram find_histogram(const std::string& name) const;

  /// Zeroes every counter/gauge and clears every histogram *in place* —
  /// handles stay valid. Bench/test isolation between measured sections.
  ///
  /// Safe against concurrent recording (submitters may be mid-admit):
  /// every counter, gauge and histogram bucket is an atomic, so no write is
  /// torn and no race occurs. The boundary is per atomic, not global: a
  /// counter update lands entirely before or after its zeroing, but a
  /// histogram sample racing the reset may survive in part (its bucket
  /// count without its sum, say), and concurrent writers may land between
  /// two cells' resets. Callers needing an exact cut (benches) quiesce
  /// their writers first.
  void reset();

  MetricsSnapshot snapshot() const;

  /// Plain-text exposition, one metric per line, names sorted:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   histogram <name> count=<n> mean=<m> p50=<v> p95=<v> p99=<v>
  std::string to_text() const;

  /// JSON exposition: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count":..,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}}}.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  // unique_ptr cells so map growth never moves them — handles hold raw
  // pointers into this storage.
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<double>>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace kairos::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "obs/json.hpp"

namespace kairos::obs {

namespace detail {

std::size_t HistogramCell::bucket_of(double value) {
  constexpr double kLow = 0x1p-20;
  constexpr double kHigh = 0x1p40;
  static_assert(kMinExponent == -20 && kMaxExponent == 40);
  if (!(value >= kLow)) return 0;
  if (value >= kHigh) return kBuckets - 1;
  // A normal double in range: the biased exponent selects the power of two,
  // the top mantissa bits the linear bucket inside it.
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
  const auto sub = static_cast<std::size_t>((bits >> (52 - kSubBucketBits)) &
                                            (kSubBuckets - 1));
  return 1 +
         static_cast<std::size_t>(exponent - kMinExponent) * kSubBuckets + sub;
}

double HistogramCell::midpoint(std::size_t bucket) {
  const std::size_t k = bucket - 1;
  const int exponent = static_cast<int>(k / kSubBuckets) + kMinExponent;
  const double sub = static_cast<double>(k % kSubBuckets);
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, exponent);
}

}  // namespace detail

namespace {

static_assert(sizeof(detail::HistogramCell) <= 16 * 1024);

void atomic_min(std::atomic<double>& cell, double value) {
  double current = cell.load(std::memory_order_relaxed);
  while (value < current &&
         !cell.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& cell, double value) {
  double current = cell.load(std::memory_order_relaxed);
  while (value > current &&
         !cell.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void clear(detail::HistogramCell& cell) {
  for (auto& bucket : cell.buckets) bucket.store(0, std::memory_order_relaxed);
  cell.sum.store(0.0, std::memory_order_relaxed);
  cell.min.store(std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
  cell.max.store(-std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
}

}  // namespace

void Histogram::record(double value) const {
  if (!cell_ || std::isnan(value)) return;
  cell_->buckets[detail::HistogramCell::bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  cell_->sum.fetch_add(value, std::memory_order_relaxed);
  atomic_min(cell_->min, value);
  atomic_max(cell_->max, value);
}

HistogramStats Histogram::stats() const {
  HistogramStats out;
  if (!cell_) return out;
  using Cell = detail::HistogramCell;
  // One pass copies the counts, so every percentile below reads the same
  // distribution even while other threads keep recording.
  std::array<std::uint64_t, Cell::kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Cell::kBuckets; ++b) {
    counts[b] = cell_->buckets[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return out;
  const double min = cell_->min.load(std::memory_order_relaxed);
  const double max = cell_->max.load(std::memory_order_relaxed);
  const auto percentile = [&](double p) {
    const double target = p / 100.0 * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < Cell::kBuckets; ++b) {
      cumulative += counts[b];
      if (counts[b] == 0 || static_cast<double>(cumulative) < target) continue;
      if (b == 0) return min;
      if (b == Cell::kBuckets - 1) return max;
      // Not std::clamp: a record racing this read may have counted its
      // bucket before its min/max became visible here.
      return std::min(std::max(Cell::midpoint(b), min), max);
    }
    return max;
  };
  out.count = static_cast<std::int64_t>(total);
  out.mean = cell_->sum.load(std::memory_order_relaxed) /
             static_cast<double>(total);
  out.min = min;
  out.max = max;
  out.p50 = percentile(50.0);
  out.p95 = percentile(95.0);
  out.p99 = percentile(99.0);
  return out;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<std::atomic<std::int64_t>>(0);
  return Counter(cell.get());
}

Gauge Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = gauges_[name];
  if (!cell) cell = std::make_unique<std::atomic<double>>(0.0);
  return Gauge(cell.get());
}

Histogram Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = histograms_[name];
  if (!cell) cell = std::make_unique<detail::HistogramCell>();
  return Histogram(cell.get());
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, cell] : counters_) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : gauges_) {
    cell->store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : histograms_) clear(*cell);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : histograms_) {
    snap.histograms[name] = Histogram(cell.get()).stats();
  }
  return snap;
}

std::string Registry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "histogram " << name << " count=" << h.count << " mean=" << h.mean
        << " p50=" << h.p50 << " p95=" << h.p95 << " p99=" << h.p99 << "\n";
  }
  return out.str();
}

void Registry::write_json(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  JsonWriter json(out);
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : snap.counters) json.kv(name, value);
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : snap.gauges) json.kv(name, value);
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : snap.histograms) {
    json.key(name);
    json.begin_object();
    json.kv("count", h.count);
    json.kv("mean", h.mean);
    json.kv("min", h.min);
    json.kv("max", h.max);
    json.kv("p50", h.p50);
    json.kv("p95", h.p95);
    json.kv("p99", h.p99);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

}  // namespace kairos::obs

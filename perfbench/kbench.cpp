// kbench — the kairos benchmark runner: one workload, one run.
//
//   kbench --workload <fig7_beamformer|serve_crisp_k6>
//          --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Every layer is timed from outside, around the public calls the benchmark
// makes: core::ResourceManager::{admit, remove, snapshot_platform, stage,
// commit_staged} and service::AdmissionService::{submit, remove}. Beyond
// those timings it reads only what the program already returns or counts:
// AdmissionReport times / mapping stats / cost / hops, and the service
// counters of obs::Registry::global(). Why each workload exists, and the
// sizing facts behind its constants, are in README.md next to this file.
//
// Steadiness by construction:
//   * lifetimes are counted in later arrivals, never in seconds, so the
//     platform occupancy a request meets does not depend on host speed;
//     with one request in flight the run decides identically every time (a
//     decision fingerprint checks it), and the decision metrics cover a
//     fixed window of arrivals that every run completes;
//   * every loop is closed, so no generator sleep or wake-up enters a
//     latency;
//   * set-up includes a warm-up that builds every lazy structure, is
//     repeated several times per run, and reports its median;
//   * a run measures at least a thousand requests, and the tail percentile
//     is the median of the p99s of its 1000-request blocks, so one burst of
//     interference on a shared host moves one block, not the run.
//
// The last line of stdout is the result object. With --trace 0 it carries
// the end-to-end metrics; with --trace 1 the per-layer metrics, from a run
// that alternates untraced and traced one-second blocks (spans are kept in
// memory and written to --trace-out at the end) and then replays the
// workload's request stream directly through snapshot -> stage -> commit
// and through admit(). Lines before it ("# ...") are human-readable detail:
// sample counts, the decision fingerprint, the service counters.
//
// Exit status: 0 when every output check passed, 1 when a check failed
// (the result line then says correct=false), 64 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "gen/datasets.hpp"
#include "obs/metrics.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace kairos;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (the "inclusive" definition), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Requests per block of the tail estimate: a block's p99 then has ten
/// samples beyond it.
constexpr std::size_t kTailBlock = 1000;

/// The tail: the median, over the run's whole blocks of kTailBlock
/// consecutive requests, of each block's p99. A burst of interference from
/// the host then moves one block's tail, not the reported one. Every run
/// times at least one whole block.
double tail_p99(const std::vector<double>& latency) {
  std::vector<double> tails;
  for (std::size_t k = 0; k + kTailBlock <= latency.size(); k += kTailBlock) {
    tails.push_back(quantile(
        std::vector<double>(latency.begin() + static_cast<std::ptrdiff_t>(k),
                            latency.begin() +
                                static_cast<std::ptrdiff_t>(k + kTailBlock)),
        0.99));
  }
  return quantile(tails, 0.5);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Traced and untraced stretches of a trace-mode run alternate by block.
constexpr double kBlockSeconds = 1.0;

// --- spans -------------------------------------------------------------------

/// In-memory span log of the traced run: name, start, end, parent span and
/// request id, recorded by the benchmark thread around each public call. It
/// keeps the last kCapacity spans, so a long run's trace stays a few MB while
/// every traced request still pays the cost of recording.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long parent;
    std::uint64_t request;
  };

  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records a span; returns its id (-1 while disabled). A span whose end
  /// is not known yet is recorded with end == start and closed later.
  long add(const char* name, long parent, std::uint64_t request,
           Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return -1;
    const Span span{name, ns(start), ns(end), parent, request};
    if (spans_.size() < kCapacity) {
      spans_.push_back(span);
    } else {
      spans_[recorded_ % kCapacity] = span;
    }
    return static_cast<long>(recorded_++);
  }
  /// Sets a span's end, unless it has already been overwritten.
  void close(long id, Clock::time_point end) {
    const auto i = static_cast<std::size_t>(id);
    if (id >= 0 && i + spans_.size() >= recorded_) {
      spans_[i % kCapacity].end_ns = ns(end);
    }
  }

  std::size_t recorded() const { return recorded_; }
  std::size_t kept() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t id = recorded_ - spans_.size(); id < recorded_; ++id) {
      const Span& s = spans_[id % kCapacity];
      out << "{\"id\":" << id << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
          << (id + 1 < recorded_ ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::size_t recorded_ = 0;
  std::vector<Span> spans_;
};

// --- workload definitions ----------------------------------------------------

/// One arrival of a workload's request stream: which pool application and
/// how many later arrivals it stays for.
struct Arrival {
  std::size_t app = 0;
  std::size_t lifetime = 0;
};

struct WorkloadSpec {
  const char* name;
  bool service;           ///< through AdmissionService (else direct admit())
  int workers;            ///< service worker threads
  std::size_t in_flight;  ///< requests the service loop keeps submitted
  std::size_t life_lo, life_hi;  ///< lifetime in later arrivals, inclusive
  int setups;             ///< set-up repetitions; setup_s is their median
  int warmup;             ///< warm-up requests inside each set-up
  /// The decision window, measured even if the clock runs out.
  std::size_t min_requests;
  /// Decisions checked against a direct replay; 0 when the decisions depend
  /// on thread timing (more than one request in flight).
  std::size_t fingerprint_len;
};

// Sizing notes for every constant are in README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"fig7_beamformer", false, 0, 1, 0, 0, 9, 200, 2000, 256},
    {"serve_crisp_k6", true, 3, 6, 2, 14, 9, 600, 30000, 0},
};

/// The paper's §IV-A mapping weights: communication 4, fragmentation 100.
constexpr core::CostWeights kWeights{4.0, 100.0};
/// The beamformer's cost on an empty CRISP under kWeights (Fig. 7 setup).
constexpr double kBeamformerCost = 74980.0;

core::KairosConfig make_config() {
  core::KairosConfig config;
  config.weights = kWeights;
  return config;
}

std::vector<graph::Application> make_pool(const WorkloadSpec& spec,
                                          std::uint64_t seed,
                                          const platform::Platform& platform) {
  if (std::strcmp(spec.name, "fig7_beamformer") == 0) {
    return {gen::make_beamforming_application()};
  }
  // Table I's small communication-oriented dataset, filtered to the
  // applications an empty CRISP admits (the paper's §IV filter).
  return gen::filter_admissible(
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 2000, seed),
      platform, make_config());
}

/// The request stream, generated lazily and deterministically from the seed.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, std::uint64_t seed, std::size_t pool_size)
      : spec_(spec), rng_(seed * 0x9E3779B97F4A7C15ULL + 1), pool_(pool_size) {}

  const Arrival& at(std::size_t i) {
    while (arrivals_.size() <= i) {
      Arrival a;
      a.app = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(pool_) - 1));
      a.lifetime = static_cast<std::size_t>(
          rng_.uniform_int(static_cast<std::int64_t>(spec_.life_lo),
                           static_cast<std::int64_t>(spec_.life_hi)));
      arrivals_.push_back(a);
    }
    return arrivals_[i];
  }

 private:
  const WorkloadSpec& spec_;
  util::Xoshiro256 rng_;
  std::size_t pool_;
  std::vector<Arrival> arrivals_;
};

/// FNV-1a over the decision sequence: admitted/rejected plus the mapping
/// cost, for the first `limit` decisions. The hash after the first `prefix`
/// decisions is kept too, to compare with a shorter replay.
class Fingerprint {
 public:
  Fingerprint(std::size_t limit, std::size_t prefix)
      : limit_(limit), prefix_(prefix) {}
  void add(const core::AdmissionReport& report) {
    if (count_ >= limit_) return;
    ++count_;
    mix(report.admitted ? 1 : 0);
    mix(static_cast<std::uint64_t>(std::llround(report.mapping_cost * 16.0)));
    if (count_ == prefix_) prefix_hash_ = hash_;
  }
  std::size_t count() const { return count_; }
  std::uint64_t value() const { return hash_; }
  std::uint64_t prefix_value() const { return prefix_hash_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::size_t limit_;
  std::size_t prefix_;
  std::size_t count_ = 0;
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
  std::uint64_t prefix_hash_ = 0;
};

// --- what one run collects ---------------------------------------------------

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Collected {
  long attempted = 0;
  long settled = 0;
  long failed = 0;
  long admitted = 0;
  std::vector<std::string> errors;
  std::vector<double> latency;         ///< untraced blocks
  std::vector<double> latency_traced;  ///< traced blocks (trace mode)
  double timed_s = 0.0;
  /// Decision metrics (admissions, costs, hops, mapping work, rejections)
  /// cover the first `window` arrivals only: a closed loop settles as many
  /// requests as the host allows, and fragmentation, and with it the cost,
  /// keeps evolving with the request count.
  std::size_t window = 0;
  long window_attempted = 0;
  long window_admitted = 0;
  std::vector<double> costs, hops;
  std::array<long, core::kPhaseCount> rejected{};
  double binding_ms = 0, mapping_ms = 0, routing_ms = 0, validation_ms = 0;
  long phase_reports = 0;  ///< reports whose PhaseTimes were summed
  double iterations = 0, rings = 0, gap_elements = 0;
  std::vector<double> submit_ms, remove_ms, overhead_ms;
  std::set<std::uint64_t> request_ids;
  std::int64_t conflicts = 0, fallbacks = 0, batches = 0;
  std::int64_t shard_commits = 0, cross_shard_commits = 0;
  bool stuck = false;  ///< a request never settled; the service is wedged
  /// Peak RSS read when the rss_at-th request settled (or at the end).
  long rss_at = 0;
  double rss_mb = 0.0;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }

  void record_report(const core::AdmissionReport& r, std::size_t arrival) {
    if (settled == rss_at) rss_mb = peak_rss_mb();
    binding_ms += r.times.binding_ms;
    mapping_ms += r.times.mapping_ms;
    routing_ms += r.times.routing_ms;
    validation_ms += r.times.validation_ms;
    ++phase_reports;
    if (r.admitted) ++admitted;
    if (arrival >= window) return;
    ++window_attempted;
    if (r.admitted) {
      ++window_admitted;
      costs.push_back(r.mapping_cost);
      hops.push_back(r.average_hops);
      iterations += r.mapping_stats.iterations;
      rings += r.mapping_stats.rings;
      gap_elements += r.mapping_stats.gap_elements;
    } else {
      ++rejected[static_cast<std::size_t>(r.failed_phase)];
    }
  }
};

struct SetupTimes {
  double platform_ms = 0, manager_ms = 0, pool_ms = 0, warmup_ms = 0;
  double total_s() const {
    return (platform_ms + manager_ms + pool_ms + warmup_ms) / 1000.0;
  }
};

/// Everything a workload runs against; built (and warmed) by set-up.
struct Context {
  std::unique_ptr<platform::Platform> platform;
  std::unique_ptr<core::ResourceManager> manager;
  std::unique_ptr<service::AdmissionService> service;
  std::vector<graph::Application> pool;
};

/// Admits, then removes, `count` pool applications one at a time, so every
/// lazy structure (availability index, hop-cache rows, worker-thread pools)
/// exists before timing starts. Leaves the platform empty.
bool warm_up(Context& ctx, int count, std::string& error) {
  for (int i = 0; i < count; ++i) {
    const graph::Application& app =
        ctx.pool[static_cast<std::size_t>(i) % ctx.pool.size()];
    const core::AdmissionReport report =
        ctx.service ? ctx.service->submit(app).get() : ctx.manager->admit(app);
    if (!report.admitted) continue;
    const util::VoidResult removed = ctx.service
                                         ? ctx.service->remove(report.handle)
                                         : ctx.manager->remove(report.handle);
    if (!removed.ok()) {
      error = "warm-up remove failed: " + removed.error();
      return false;
    }
  }
  if (ctx.service) ctx.service->drain();
  return true;
}

std::unique_ptr<Context> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                SetupTimes& times, std::string& error) {
  auto ctx = std::make_unique<Context>();
  Clock::time_point t0 = Clock::now();
  ctx->platform =
      std::make_unique<platform::Platform>(platform::make_crisp_platform());
  Clock::time_point t1 = Clock::now();
  ctx->manager =
      std::make_unique<core::ResourceManager>(*ctx->platform, make_config());
  if (spec.service) {
    service::ServiceConfig config;
    config.threads = spec.workers;
    ctx->service =
        std::make_unique<service::AdmissionService>(*ctx->manager, config);
  }
  Clock::time_point t2 = Clock::now();
  ctx->pool = make_pool(spec, seed, *ctx->platform);
  Clock::time_point t3 = Clock::now();
  if (ctx->pool.empty()) {
    error = "empty application pool";
    return nullptr;
  }
  if (!warm_up(*ctx, spec.warmup, error)) return nullptr;
  Clock::time_point t4 = Clock::now();
  times = {ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3),
           ms_between(t3, t4)};
  return ctx;
}

/// The end-of-run gate: no live application and no element, VC or
/// bandwidth reservation left, read through snapshot_platform().
void check_empty(const core::ResourceManager& manager, Collected& out,
                 const char* what) {
  if (manager.live_count() != 0) {
    out.fail(std::string(what) + ": " + std::to_string(manager.live_count()) +
             " applications still live");
  }
  const platform::Platform snapshot = manager.snapshot_platform();
  long elements = 0, links = 0;
  for (const platform::Element& e : snapshot.elements()) {
    if (!e.used().is_zero() || e.task_count() != 0) ++elements;
  }
  for (const platform::Link& l : snapshot.links()) {
    if (l.vc_used() != 0 || l.bw_used() != 0) ++links;
  }
  if (elements != 0 || links != 0) {
    out.fail(std::string(what) + ": reservations left on " +
             std::to_string(elements) + " elements, " + std::to_string(links) +
             " links");
  }
}

// --- the measured loops ------------------------------------------------------

/// Shared bookkeeping of a churn loop: handles by arrival, departures due.
class Churn {
 public:
  explicit Churn(Stream& stream) : stream_(stream) {}

  /// Registers arrival i's settled outcome.
  void settled(std::size_t i, core::AppHandle handle) {
    if (handle_.size() <= i) handle_.resize(i + 1, -1);
    handle_[i] = handle;
  }
  /// Arrival i was submitted; its departure is due at i + 1 + lifetime.
  void submitted(std::size_t i) {
    const std::size_t due = i + 1 + stream_.at(i).lifetime;
    if (departures_.size() <= due) departures_.resize(due + 1);
    departures_[due].push_back(i);
    if (handle_.size() <= i) handle_.resize(i + 1, -1);
    handle_[i] = kPending;
  }
  /// Arrivals whose departure falls due when arrival i arrives.
  std::vector<std::size_t> due(std::size_t i) {
    if (i >= departures_.size()) return {};
    return std::move(departures_[i]);
  }
  core::AppHandle handle(std::size_t i) const {
    return i < handle_.size() ? handle_[i] : -1;
  }
  void forget(std::size_t i) { handle_[i] = -1; }
  /// Every arrival still holding a handle (admitted and not yet removed).
  std::vector<std::size_t> live() const {
    std::vector<std::size_t> v;
    for (std::size_t i = 0; i < handle_.size(); ++i) {
      if (handle_[i] >= 0) v.push_back(i);
    }
    return v;
  }

  static constexpr core::AppHandle kPending = -2;

 private:
  Stream& stream_;
  std::vector<core::AppHandle> handle_;
  std::vector<std::vector<std::size_t>> departures_;
};

struct RunParams {
  double seconds = 10.0;
  bool trace = false;
};

int block_of(Clock::time_point start, Clock::time_point t) {
  return static_cast<int>(std::chrono::duration<double>(t - start).count() /
                          kBlockSeconds);
}

/// fig7_beamformer: one client, admit() then remove(), repeated.
void run_direct(const WorkloadSpec& spec, Context& ctx, Stream& stream,
                const RunParams& params, SpanLog& spans, Fingerprint& fp,
                Collected& out) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(params.seconds));
  std::size_t i = 0;
  Clock::time_point now = start;
  while (now < deadline || i < spec.min_requests) {
    const bool traced = params.trace && block_of(start, now) % 2 == 1;
    spans.set_enabled(traced);
    const graph::Application& app = ctx.pool[stream.at(i).app];
    const Clock::time_point t0 = Clock::now();
    const core::AdmissionReport report = ctx.manager->admit(app);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t req = i + 1;
    const long root = spans.add("request", -1, req, t0, t1);
    spans.add("core.admit", root, req, t0, t1);
    ++out.attempted;
    ++out.settled;
    out.record_report(report, i);
    fp.add(report);
    (traced ? out.latency_traced : out.latency).push_back(ms_between(t0, t1));
    if (!report.admitted) {
      out.fail("beamformer rejected in " +
               core::to_string(report.failed_phase) + ": " + report.reason);
    } else {
      if (std::abs(report.mapping_cost - kBeamformerCost) > 1e-6) {
        out.fail("beamformer cost " + std::to_string(report.mapping_cost) +
                 " != pinned " + std::to_string(kBeamformerCost));
      }
      const Clock::time_point r0 = Clock::now();
      const util::VoidResult removed = ctx.manager->remove(report.handle);
      const Clock::time_point r1 = Clock::now();
      spans.add("core.remove", -1, req, r0, r1);
      out.remove_ms.push_back(ms_between(r0, r1));
      if (!removed.ok()) out.fail("remove failed: " + removed.error());
    }
    ++i;
    now = Clock::now();
  }
  out.timed_s = std::chrono::duration<double>(now - start).count();
  spans.set_enabled(false);
}

/// A request submitted to the service and not yet seen settled.
struct InFlight {
  std::size_t arrival = 0;
  std::uint64_t request = 0;
  Clock::time_point sent;
  std::future<core::AdmissionReport> future;
  long span = -1;
  bool traced = false;
};

/// The service workload: a closed loop that keeps `spec.in_flight`
/// requests submitted and takes their reports in submission order, as the
/// serve protocol hands them out. Each time the oldest request settles, the
/// departures that fell due are removed and the next arrival is submitted.
void run_service(const WorkloadSpec& spec, Context& ctx, Stream& stream,
                 const RunParams& params, SpanLog& spans, Fingerprint& fp,
                 Collected& out) {
  service::AdmissionService& svc = *ctx.service;
  Churn churn(stream);
  // Arrivals whose departure fell due while they were still in flight.
  std::vector<char> remove_on_settle;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(params.seconds));

  auto remove_arrival = [&](std::size_t j) {
    const core::AppHandle handle = churn.handle(j);
    if (handle < 0) return;
    const Clock::time_point r0 = Clock::now();
    const util::VoidResult removed = svc.remove(handle);
    const Clock::time_point r1 = Clock::now();
    spans.add("service.remove", -1, 0, r0, r1);
    out.remove_ms.push_back(ms_between(r0, r1));
    if (!removed.ok()) out.fail("remove failed: " + removed.error());
    churn.forget(j);
  };

  auto settle = [&](InFlight& f, Clock::time_point seen) {
    core::AdmissionReport report;
    try {
      report = f.future.get();
    } catch (const std::exception& e) {
      out.fail(std::string("request threw: ") + e.what());
      churn.settled(f.arrival, -1);
      return;
    }
    ++out.settled;
    spans.close(f.span, seen);
    if (report.request_id != f.request ||
        !out.request_ids.insert(report.request_id).second) {
      out.fail("request id " + std::to_string(report.request_id) +
               " settled twice or under the wrong request");
    }
    out.record_report(report, f.arrival);
    fp.add(report);
    const double latency = ms_between(f.sent, seen);
    (f.traced ? out.latency_traced : out.latency).push_back(latency);
    out.overhead_ms.push_back(latency - report.times.total_ms());
    churn.settled(f.arrival, report.admitted ? report.handle : -1);
    if (f.arrival < remove_on_settle.size() && remove_on_settle[f.arrival]) {
      remove_arrival(f.arrival);
    }
  };

  std::deque<InFlight> inflight;  // in submission order
  std::size_t i = 0;
  for (;;) {
    const bool submitting = Clock::now() < deadline || i < spec.min_requests;
    if (submitting && inflight.size() < spec.in_flight) {
      for (std::size_t j : churn.due(i)) {
        if (churn.handle(j) == Churn::kPending) {
          if (remove_on_settle.size() <= j) remove_on_settle.resize(j + 1, 0);
          remove_on_settle[j] = 1;
        } else {
          remove_arrival(j);
        }
      }
      InFlight f;
      f.arrival = i;
      f.sent = Clock::now();
      f.traced = params.trace && block_of(start, f.sent) % 2 == 1;
      spans.set_enabled(f.traced);
      f.future = svc.submit(ctx.pool[stream.at(i).app], &f.request);
      const Clock::time_point s1 = Clock::now();
      f.span = spans.add("request", -1, f.request, f.sent, s1);
      spans.add("service.submit", f.span, f.request, f.sent, s1);
      out.submit_ms.push_back(ms_between(f.sent, s1));
      ++out.attempted;
      churn.submitted(i);
      ++i;
      inflight.push_back(std::move(f));
      continue;
    }
    if (inflight.empty()) break;
    // The oldest request settles, or within 30 s fails; the service is then
    // wedged and is left as it is (out.stuck).
    if (inflight.front().future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      out.fail("request " + std::to_string(inflight.front().request) +
               " never settled");
      out.stuck = true;
      break;
    }
    do {
      settle(inflight.front(), Clock::now());
      inflight.pop_front();
    } while (!inflight.empty() &&
             inflight.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready);
  }
  out.timed_s = std::chrono::duration<double>(Clock::now() - start).count();
  spans.set_enabled(false);
  if (out.stuck) return;
  for (std::size_t j : churn.live()) remove_arrival(j);
  svc.drain();
  if (svc.pending() != 0) out.fail("service still has pending requests");
  if (static_cast<long>(out.request_ids.size()) != out.attempted) {
    out.fail(std::to_string(out.attempted) + " submitted, " +
             std::to_string(out.request_ids.size()) + " unique settled ids");
  }
}

// --- trace-mode replay -------------------------------------------------------

/// Per-call timings of a direct replay of the request stream.
struct Replay {
  std::vector<double> snapshot_ms, stage_ms, commit_ms, admit_ms, remove_ms;
  std::uint64_t fingerprint = 0;
  std::size_t decisions = 0;
};

/// Replays the first `count` arrivals of `stream` on a copy of `base` (the
/// measured run's platform, empty again, whose hop-cache rows the copy
/// shares), with the same departures, either through snapshot_platform() ->
/// stage() -> commit_staged() (`staged`) or through admit(). Stops early
/// once `budget_s` has passed; the fingerprint covers the first `fp_len`.
Replay replay(const platform::Platform& base, Stream& stream,
              const std::vector<graph::Application>& pool, std::size_t count,
              bool staged, double budget_s, std::size_t fp_len, SpanLog& spans,
              Collected& out) {
  Replay result;
  platform::Platform platform = base;
  core::ResourceManager manager(platform, make_config());
  Churn churn(stream);
  Fingerprint fp(fp_len, fp_len);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= fp_len && elapsed_s > budget_s) {
      break;
    }
    const std::uint64_t req = i + 1;
    for (std::size_t j : churn.due(i)) {
      const core::AppHandle handle = churn.handle(j);
      if (handle < 0) continue;
      const Clock::time_point r0 = Clock::now();
      const util::VoidResult removed = manager.remove(handle);
      const Clock::time_point r1 = Clock::now();
      spans.add("core.remove", -1, j + 1, r0, r1);
      result.remove_ms.push_back(ms_between(r0, r1));
      if (!removed.ok()) out.fail("replay remove failed: " + removed.error());
      churn.forget(j);
    }
    const graph::Application& app = pool[stream.at(i).app];
    churn.submitted(i);
    core::AdmissionReport report;
    const Clock::time_point t0 = Clock::now();
    const long root = spans.add(staged ? "replay.staged" : "replay.admit", -1,
                                req, t0, t0);
    if (staged) {
      platform::Platform scratch = manager.snapshot_platform();
      const Clock::time_point t1 = Clock::now();
      core::StagedAdmission staged_admission = manager.stage(app, scratch);
      const Clock::time_point t2 = Clock::now();
      spans.add("core.snapshot", root, req, t0, t1);
      spans.add("core.stage", root, req, t1, t2);
      result.snapshot_ms.push_back(ms_between(t0, t1));
      result.stage_ms.push_back(ms_between(t1, t2));
      report = staged_admission.report;
      if (report.admitted) {
        util::Result<core::AdmissionReport> committed =
            manager.commit_staged(std::move(staged_admission));
        const Clock::time_point t3 = Clock::now();
        spans.add("core.commit", root, req, t2, t3);
        result.commit_ms.push_back(ms_between(t2, t3));
        if (!committed.ok()) {
          out.fail("replay commit conflicted with no concurrent writer: " +
                   committed.error());
          report.admitted = false;
        } else {
          report = committed.value();
        }
      }
    } else {
      report = manager.admit(app);
      const Clock::time_point t1 = Clock::now();
      spans.add("core.admit", root, req, t0, t1);
      result.admit_ms.push_back(ms_between(t0, t1));
    }
    spans.close(root, Clock::now());
    fp.add(report);
    churn.settled(i, report.admitted ? report.handle : -1);
  }
  for (std::size_t j : churn.live()) {
    const util::VoidResult removed = manager.remove(churn.handle(j));
    if (!removed.ok()) out.fail("replay remove failed: " + removed.error());
  }
  check_empty(manager, out, staged ? "staged replay" : "admit replay");
  result.fingerprint = fp.value();
  result.decisions = fp.count();
  return result;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: kbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n  workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  RunParams params;
  std::string trace_out;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const std::string value = argv[a + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) spec = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      params.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(params.seconds > 0.0) ||
          params.seconds > 120.0) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      params.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (spec == nullptr || !have_seed || argc % 2 == 0) return usage();

  Collected out;
  out.rss_at = static_cast<long>(spec->min_requests);
  out.window = spec->min_requests;
  // --- set-up, repeated; the last context is the one measured ---
  std::vector<SetupTimes> setups;
  std::unique_ptr<Context> ctx;
  for (int r = 0; r < spec->setups; ++r) {
    ctx.reset();
    SetupTimes times;
    std::string error;
    ctx = set_up(*spec, seed, times, error);
    if (!ctx) {
      std::fprintf(stderr, "kbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(times);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return quantile(v, 0.5);
  };
  std::vector<double> setup_totals;
  for (const SetupTimes& s : setups) setup_totals.push_back(s.total_s());
  obs::Registry::global().reset();

  // --- the measured run ---
  SpanLog spans(Clock::now());
  Stream stream(*spec, seed, ctx->pool.size());
  // With one request in flight the fingerprint covers the decision window,
  // and its first fingerprint_len decisions are checked against a direct
  // replay.
  Fingerprint fp(spec->fingerprint_len > 0 ? spec->min_requests : 0,
                 spec->fingerprint_len);
  if (spec->service) {
    run_service(*spec, *ctx, stream, params, spans, fp, out);
  } else {
    run_direct(*spec, *ctx, stream, params, spans, fp, out);
  }
  if (!out.stuck) check_empty(*ctx->manager, out, "measured run");
  {
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    auto counter = [&](const char* name) {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? std::int64_t{0} : it->second;
    };
    out.conflicts = counter("service.commit_conflicts");
    out.fallbacks = counter("service.fallbacks");
    out.batches = counter("service.batches");
    out.shard_commits = counter("service.shard_commits");
    out.cross_shard_commits = counter("service.cross_shard_commits");
  }

  // --- trace-mode replays; with one request in flight they must decide
  // exactly as the measured run did ---
  Replay staged, admitted;
  const std::size_t replay_count = static_cast<std::size_t>(out.attempted);
  if (out.stuck) {
    // No replay: the measured platform is not empty again.
  } else if (params.trace) {
    const double budget = std::max(1.0, params.seconds / 4.0);
    spans.set_enabled(true);
    staged = replay(*ctx->platform, stream, ctx->pool, replay_count, true,
                    budget, spec->fingerprint_len, spans, out);
    if (spec->service) {
      admitted = replay(*ctx->platform, stream, ctx->pool, replay_count,
                        false, budget, spec->fingerprint_len, spans, out);
    }
    spans.set_enabled(false);
  }
  if (spec->fingerprint_len > 0) {
    if (fp.count() < spec->min_requests) {
      out.fail("only " + std::to_string(fp.count()) +
               " decisions, fewer than the fingerprint covers");
    }
    for (const Replay* r : {&staged, &admitted}) {
      if (r->decisions == 0) continue;
      if (r->decisions != spec->fingerprint_len ||
          r->fingerprint != fp.prefix_value()) {
        out.fail("decision fingerprint of a direct replay differs from the "
                 "measured run's");
      }
    }
  }

  if (!out.stuck) ctx->service.reset();  // joins the workers
  const double rss_mb = out.rss_mb > 0 ? out.rss_mb : peak_rss_mb();

  // --- metrics ---
  const std::vector<double>& lat = out.latency;
  std::vector<Metric> metrics;
  const std::size_t n_lat = lat.size();
  const std::size_t n_adm = out.costs.size();
  if (!params.trace) {
    metrics = {
        {"latency_ms_p50", quantile(lat, 0.5), "ms", n_lat},
        {"latency_ms_p99", tail_p99(lat), "ms", n_lat},
        {"throughput_per_s",
         static_cast<double>(out.settled) / std::max(out.timed_s, 1e-9), "1/s",
         static_cast<std::size_t>(out.settled)},
        {"admit_ratio",
         static_cast<double>(out.window_admitted) /
             static_cast<double>(std::max(out.window_attempted, 1L)),
         "ratio", static_cast<std::size_t>(out.window_attempted)},
        {"mapping_cost_mean", mean(out.costs), "cost", n_adm},
        {"hops_mean", mean(out.hops), "hops", n_adm},
        {"peak_rss_mb", rss_mb, "MB", 1},
        {"setup_s", quantile(setup_totals, 0.5), "s", setup_totals.size()},
    };
  } else {
    const double attempts = static_cast<double>(std::max(out.attempted, 1L));
    const double phases = static_cast<double>(std::max(out.phase_reports, 1L));
    const double adm = static_cast<double>(std::max(out.window_admitted, 1L));
    const double window =
        static_cast<double>(std::max(out.window_attempted, 1L));
    const std::vector<double>& traced = out.latency_traced;
    const double p50_untraced = quantile(lat, 0.5);
    const double p50_traced = quantile(traced, 0.5);
    const double part_binding = out.binding_ms / phases;
    const double part_mapping = out.mapping_ms / phases;
    const double part_routing = out.routing_ms / phases;
    const double part_validation = out.validation_ms / phases;
    double named = part_binding + part_mapping + part_routing + part_validation;
    if (spec->service) {
      named += mean(staged.snapshot_ms) + mean(staged.commit_ms);
    }
    std::vector<double> all = lat;
    all.insert(all.end(), traced.begin(), traced.end());
    const std::int64_t optimistic = out.shard_commits + out.cross_shard_commits;
    const std::size_t n_att = static_cast<std::size_t>(out.attempted);
    const std::size_t n_ph = static_cast<std::size_t>(out.phase_reports);
    const std::vector<double>& admit_ms =
        spec->service ? admitted.admit_ms : lat;
    const std::vector<double>& remove_ms =
        spec->service ? admitted.remove_ms : out.remove_ms;
    metrics = {
        {"setup.platform_ms", median_of(&SetupTimes::platform_ms), "ms",
         setups.size()},
        {"setup.manager_ms", median_of(&SetupTimes::manager_ms), "ms",
         setups.size()},
        {"setup.pool_ms", median_of(&SetupTimes::pool_ms), "ms", setups.size()},
        {"setup.warmup_ms", median_of(&SetupTimes::warmup_ms), "ms",
         setups.size()},
        {"service.submit_ms_p50", quantile(out.submit_ms, 0.5), "ms",
         out.submit_ms.size()},
        {"service.submit_ms_p99", quantile(out.submit_ms, 0.99), "ms",
         out.submit_ms.size()},
        {"service.remove_ms_p99",
         spec->service ? quantile(out.remove_ms, 0.99) : 0.0, "ms",
         spec->service ? out.remove_ms.size() : 0},
        {"service.overhead_ms_p50", quantile(out.overhead_ms, 0.5), "ms",
         out.overhead_ms.size()},
        {"service.conflict_rate", static_cast<double>(out.conflicts) / attempts,
         "ratio", n_att},
        {"service.fallback_rate", static_cast<double>(out.fallbacks) / attempts,
         "ratio", n_att},
        {"service.cross_shard_ratio",
         optimistic > 0 ? static_cast<double>(out.cross_shard_commits) /
                              static_cast<double>(optimistic)
                        : 0.0,
         "ratio", static_cast<std::size_t>(optimistic)},
        {"service.batch_size_mean",
         out.batches > 0 ? attempts / static_cast<double>(out.batches) : 0.0,
         "count", static_cast<std::size_t>(out.batches)},
        {"core.snapshot_ms", mean(staged.snapshot_ms), "ms",
         staged.snapshot_ms.size()},
        {"core.stage_ms", mean(staged.stage_ms), "ms", staged.stage_ms.size()},
        {"core.commit_ms", mean(staged.commit_ms), "ms",
         staged.commit_ms.size()},
        {"core.admit_ms", mean(admit_ms), "ms", admit_ms.size()},
        {"core.remove_ms", mean(remove_ms), "ms", remove_ms.size()},
        {"core.binding_ms", part_binding, "ms", n_ph},
        {"core.mapping_ms", part_mapping, "ms", n_ph},
        {"core.routing_ms", part_routing, "ms", n_ph},
        {"core.validation_ms", part_validation, "ms", n_ph},
        {"core.unattributed_ms", mean(all) - named, "ms", all.size()},
        {"mapping.iterations", out.iterations / adm, "count", n_adm},
        {"mapping.rings", out.rings / adm, "count", n_adm},
        {"mapping.gap_elements", out.gap_elements / adm, "count", n_adm},
        {"obs.trace_overhead_pct",
         p50_untraced > 0 ? 100.0 * (p50_traced - p50_untraced) / p50_untraced
                          : 0.0,
         "%", traced.size()},
    };
    for (std::size_t p = 1; p < core::kPhaseCount; ++p) {
      metrics.push_back({"core.rejected." +
                             core::to_string(static_cast<core::Phase>(p)),
                         static_cast<double>(out.rejected[p]) / window,
                         "ratio",
                         static_cast<std::size_t>(out.window_attempted)});
    }
    if (!trace_out.empty() && !spans.write(trace_out)) {
      out.fail("cannot write spans to " + trace_out);
    }
  }

  // --- detail lines, then the result line ---
  std::printf("# workload %s seed %llu: %ld attempted, %ld settled, %ld "
              "admitted, %ld failed in %.3f s timed\n",
              spec->name, static_cast<unsigned long long>(seed), out.attempted,
              out.settled, out.admitted, out.failed, out.timed_s);
  if (spec->fingerprint_len > 0) {
    std::printf("# fingerprint %016llx over %zu decisions\n",
                static_cast<unsigned long long>(fp.value()), fp.count());
  }
  if (spec->service) {
    std::printf("# service counters: %lld conflicts, %lld fallbacks, %lld "
                "batches, %lld single-shard + %lld cross-shard commits\n",
                static_cast<long long>(out.conflicts),
                static_cast<long long>(out.fallbacks),
                static_cast<long long>(out.batches),
                static_cast<long long>(out.shard_commits),
                static_cast<long long>(out.cross_shard_commits));
  }
  if (params.trace) {
    std::printf("# spans recorded: %zu, the last %zu kept\n",
                spans.recorded(), spans.kept());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-28s %14s %-6s n=%zu\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  for (const std::string& e : out.errors) {
    std::printf("# FAILED: %s\n", e.c_str());
  }
  const bool correct = out.failed == 0;
  std::string line = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    line += (k ? ", \"" : "\"") + metrics[k].name + "\": {\"value\": " +
            fmt(metrics[k].value) + ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  if (out.stuck) {
    // A worker still holds a request: joining it would hang.
    std::fflush(stdout);
    std::_Exit(1);
  }
  return correct ? 0 : 1;
}

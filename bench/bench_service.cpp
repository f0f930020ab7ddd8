// bench_service — admissions per second through the concurrent service.
//
// Drives the same churn workload (submit a pool of generated applications,
// remove each one as its admission settles, repeat to a fixed submission
// count) through service::AdmissionService in three scenarios and writes
// BENCH_service.json (schema kairos-bench-service-v4) in the bench_perf
// style: build stamp, per-scenario throughput and settle-latency
// percentiles (service.latency_ms, measured by the service itself at
// promise fulfilment), the parallel-vs-serial speedup, and the
// observability counter totals (commit conflicts, fallbacks, batches — the
// health of the optimistic pipeline, not just its speed).
//
//   serial    1 worker thread            — the baseline
//   parallel  N worker threads           — optimistic concurrency behind
//                                          one commit lock
//   telemetry parallel + the live plane  — tracer armed, a 50 ms
//                                          TimeSeriesSampler, the telemetry
//                                          socket server listening, and a
//                                          scraper thread hammering
//                                          /metrics + /healthz throughout.
//                                          obs_overhead_pct = throughput
//                                          lost vs the bare parallel run —
//                                          the budget is 5%.
//
// The service now admits each request on the thread that submits it and
// starts no worker (admission_service.hpp), so ServiceConfig::threads is
// ignored: the serial and parallel scenarios drive one and the same path,
// the speedup reads ~1x, and the conflict, fallback and batch fields read
// 0 because the counters behind them are gone. The bench stays only until
// the perfbench harness takes over its CI checks (ROADMAP C), which
// retires it. CI runs `bench_service --smoke` for schema honesty and
// archives the artifact.
//
//   usage: bench_service [--smoke] [--threads <n>] [--out <file>]
//          (default BENCH_service.json; --threads replaces the 8-thread
//           configuration)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "net/net.hpp"
#include "net/server.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"
#include "service/command_session.hpp"
#include "util/timer.hpp"

namespace {

using namespace kairos;

/// Everything one worker-count configuration produced.
struct ServiceRun {
  int threads = 0;
  long submissions = 0;
  long admitted = 0;
  long rejected = 0;
  double wall_ms = 0.0;
  double admissions_per_sec = 0.0;
  obs::HistogramStats latency;  ///< service.latency_ms, submit -> settled
  std::int64_t conflicts = 0;
  std::int64_t fallbacks = 0;
  std::int64_t batches = 0;
  double conflict_rate = 0.0;  ///< conflicts per submission
  long scrapes = 0;  ///< telemetry scenario: /metrics + /healthz hits
};

/// The churn workload: `submissions` admissions drawn round-robin from a
/// deterministic pool, every admitted application removed as soon as its
/// future settles (so the platform never saturates and the number measures
/// admission throughput, not capacity).
bool run_configuration(int threads, long submissions,
                       ServiceRun& out, bool with_telemetry = false) {
  out.threads = threads;
  out.submissions = submissions;

  platform::Platform crisp = platform::make_crisp_platform();
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  core::ResourceManager manager(crisp, config);

  service::ServiceConfig service_config;
  service_config.threads = threads;
  service::AdmissionService service(manager, service_config);

  const std::vector<graph::Application> pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 24, 0x5EED);

  // Per-run counter/histogram isolation; the service is idle here, so the
  // reset boundary is crisp (see Registry::reset()'s contract).
  obs::Registry::global().reset();
  obs::EventLog::global().reset();

  // The telemetry scenario measures the full plane under fire: spans
  // recorded, a fast sampler differencing the registry, the socket server
  // up, and a scraper pulling /metrics + /healthz for the whole run — the
  // worst realistic monitoring load, priced against the bare parallel run.
  obs::TimeSeriesSampler sampler(obs::Registry::global(), {50, 600});
  obs::TelemetryServer telemetry(obs::Registry::global(),
                                 obs::Tracer::global(),
                                 obs::EventLog::global(), sampler);
  telemetry.set_stats_source(
      [&] { return service::service_stats_json(manager, service); });
  net::Server server(telemetry);
  std::thread scraper;
  std::atomic<bool> scraping{false};
  long scrapes = 0;
  if (with_telemetry) {
    obs::Tracer::global().start();
    net::Address address;  // 127.0.0.1, ephemeral port
    address.port = 0;
    if (!server.listen(address).ok()) {
      std::fprintf(stderr, "bench_service: telemetry listen failed\n");
      return false;
    }
    server.start();
    sampler.start();
    scraping.store(true);
    scraper = std::thread([&server, &scraping, &scrapes] {
      net::Address target;
      target.port = server.bound_port();
      while (scraping.load(std::memory_order_relaxed)) {
        if (net::http_get(target, "/metrics").ok()) ++scrapes;
        if (net::http_get(target, "/healthz").ok()) ++scrapes;
        // ~100 scrape rounds/s — orders of magnitude past any real
        // monitoring cadence, but paced: an unthrottled loop would measure
        // "one core stolen by the scraper", not the plane's overhead.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  util::Stopwatch wall;
  std::vector<std::future<core::AdmissionReport>> futures;
  futures.reserve(static_cast<std::size_t>(submissions));
  for (long i = 0; i < submissions; ++i) {
    futures.push_back(
        service.submit(pool[static_cast<std::size_t>(i) % pool.size()]));
  }
  for (std::future<core::AdmissionReport>& future : futures) {
    const core::AdmissionReport report = future.get();
    if (!report.admitted) {
      ++out.rejected;
      continue;
    }
    ++out.admitted;
    const auto removed = service.remove(report.handle);
    if (!removed.ok()) {
      std::fprintf(stderr, "bench_service: remove failed: %s\n",
                   removed.error().c_str());
      return false;
    }
  }
  service.drain();
  out.wall_ms = wall.elapsed_ms();
  if (with_telemetry) {
    scraping.store(false);
    if (scraper.joinable()) scraper.join();
    sampler.stop();
    server.stop();
    obs::Tracer::global().stop();
    obs::Tracer::global().drain();  // leave the ring empty for later runs
    out.scrapes = scrapes;
  }
  if (out.admitted == 0) {
    std::fprintf(stderr, "bench_service: nothing admitted at %d threads\n",
                 threads);
    return false;
  }
  out.admissions_per_sec =
      static_cast<double>(out.admitted) / (out.wall_ms / 1000.0);

  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? std::int64_t{0} : it->second;
  };
  const auto histogram = snapshot.histograms.find("service.latency_ms");
  if (histogram != snapshot.histograms.end()) out.latency = histogram->second;
  out.conflicts = counter("service.commit_conflicts");
  out.fallbacks = counter("service.fallbacks");
  out.batches = counter("service.batches");
  if (submissions > 0) {
    out.conflict_rate = static_cast<double>(out.conflicts) /
                        static_cast<double>(submissions);
  }
  service.stop();
  return true;
}

void write_run_json(obs::JsonWriter& json, const ServiceRun& run) {
  json.begin_object();
  json.kv("threads", static_cast<std::int64_t>(run.threads));
  json.kv("submissions", static_cast<std::int64_t>(run.submissions));
  json.kv("admitted", static_cast<std::int64_t>(run.admitted));
  json.kv("rejected", static_cast<std::int64_t>(run.rejected));
  json.kv("wall_ms", run.wall_ms);
  json.kv("admissions_per_sec", run.admissions_per_sec);
  json.key("latency_ms");
  json.begin_object();
  json.kv("count", run.latency.count);
  json.kv("mean", run.latency.mean);
  json.kv("min", run.latency.min);
  json.kv("max", run.latency.max);
  json.kv("p50", run.latency.p50);
  json.kv("p95", run.latency.p95);
  json.kv("p99", run.latency.p99);
  json.end_object();
  json.kv("commit_conflicts", run.conflicts);
  json.kv("fallbacks", run.fallbacks);
  json.kv("batches", run.batches);
  json.kv("conflict_rate", run.conflict_rate);
  json.kv("telemetry_scrapes", static_cast<std::int64_t>(run.scrapes));
  json.end_object();
}

bool write_report(const std::string& path, const ServiceRun& serial,
                  const ServiceRun& parallel,
                  const ServiceRun& telemetry, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_service: cannot write '%s'\n", path.c_str());
    return false;
  }
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "kairos-bench-service-v4");
  json.key("build");
  {
    const obs::BuildInfo& build = obs::build_info();
    json.begin_object();
    json.kv("git_sha", build.git_sha);
    json.kv("compiler", build.compiler);
    json.kv("build_type", build.build_type);
    json.kv("flags", build.flags);
    json.end_object();
  }
  json.kv("smoke", smoke);
  json.kv("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.key("scenarios");
  json.begin_object();
  json.key("serial");
  write_run_json(json, serial);
  json.key("parallel");
  write_run_json(json, parallel);
  json.key("telemetry");
  write_run_json(json, telemetry);
  json.end_object();
  json.kv("speedup", parallel.admissions_per_sec / serial.admissions_per_sec);
  // Throughput the live telemetry plane costs, against the identical bare
  // configuration. Negative values are run-to-run noise.
  json.kv("obs_overhead_pct",
          100.0 *
              (parallel.admissions_per_sec - telemetry.admissions_per_sec) /
              parallel.admissions_per_sec);
  json.end_object();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int parallel_threads = 8;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      parallel_threads = std::atoi(argv[++i]);
      if (parallel_threads < 1) {
        std::fprintf(stderr, "bench_service: --threads must be >= 1\n");
        return 64;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--smoke] [--threads <n>] "
                   "[--out <file>]\n");
      return 64;
    }
  }

  const long submissions = smoke ? 80 : 1000;
  std::printf("bench_service (%s): %s\n", smoke ? "smoke" : "full",
              obs::build_info_line().c_str());
  std::printf("  hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  ServiceRun serial;
  if (!run_configuration(1, submissions, serial)) return 1;
  std::printf("  threads=1             : %7.0f admissions/s (p50 %.3f ms, "
              "p95 %.3f ms, p99 %.3f ms)\n",
              serial.admissions_per_sec, serial.latency.p50,
              serial.latency.p95, serial.latency.p99);

  ServiceRun parallel;
  if (!run_configuration(parallel_threads, submissions, parallel)) return 1;
  std::printf("  threads=%-2d            : %7.0f admissions/s (p50 %.3f ms, "
              "p95 %.3f ms, p99 %.3f ms); %lld conflicts, %lld fallbacks\n",
              parallel.threads, parallel.admissions_per_sec,
              parallel.latency.p50, parallel.latency.p95,
              parallel.latency.p99,
              static_cast<long long>(parallel.conflicts),
              static_cast<long long>(parallel.fallbacks));

  ServiceRun telemetry;
  if (!run_configuration(parallel_threads, submissions, telemetry,
                         /*with_telemetry=*/true)) {
    return 1;
  }
  const double obs_overhead_pct =
      100.0 * (parallel.admissions_per_sec - telemetry.admissions_per_sec) /
      parallel.admissions_per_sec;
  std::printf("  + telemetry plane     : %7.0f admissions/s under %ld "
              "scrapes (overhead %.1f%%, budget 5%%)\n",
              telemetry.admissions_per_sec, telemetry.scrapes,
              obs_overhead_pct);

  const double speedup =
      parallel.admissions_per_sec / serial.admissions_per_sec;
  std::printf("  speedup: %.2fx at %d threads "
              "(scales with cores; this machine offers %u)\n",
              speedup, parallel.threads,
              std::thread::hardware_concurrency());

  if (!write_report(out_path, serial, parallel, telemetry, smoke)) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// bench_scale — admission throughput as the platform grows to 10k elements.
//
// The paper's CRISP instance is 25 elements; the ROADMAP north-star is a
// service that admits heavy traffic on platforms three orders of magnitude
// larger. This bench pins one scenario — a fixed generated workload under
// the Poisson engine with the incremental strategy — and replays it on DSP
// meshes of 1 024, 4 096 and 10 000 elements, writing BENCH_scale.json
// (schema kairos-bench-scale-v1, same family as kairos-bench-perf-v1):
// per-size wall clock, admission throughput, per-admission latency
// percentiles, and the scenario's decision counts (arrivals/admitted),
// which double as a coarse decision fingerprint across builds.
//
// The workload is deliberately *not* scaled with the platform: the same
// arrival stream on a 10x larger mesh isolates how admission cost grows
// with platform size at low utilisation — exactly the regime where linear
// scans and per-query BFS, invisible at paper scale, become the bill.
//
// The "baseline" section carries the pre-optimisation 10k-element
// throughput measured before the indexed-availability/hop-cache work
// landed (same scenario, same machine class as the recorded numbers), so
// the file answers "how much faster is admission at 10k than before the
// indexes?" on its own: speedup_vs_pre_pr = measured / baseline for the
// matching mode. CI validates schema and that the speedup is positive —
// the ratio itself depends on runner hardware, like bench_service's.
//
//   usage: bench_scale [--smoke] [--out <file>]    (default BENCH_scale.json)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/generator.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "platform/builders.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace kairos;

// Pre-PR 10k-element admission throughput (admissions/sec), measured at
// commit 9e98c50 (before the hop cache / availability indexes) with this
// exact scenario. Recorded per mode because smoke runs a shorter horizon.
// These anchor the speedup_vs_pre_pr field; absolute values are only
// comparable on similar hardware.
constexpr double kPrePr10kAdmissionsPerSecFull = 69.2;
constexpr double kPrePr10kAdmissionsPerSecSmoke = 14.5;

struct SizeRun {
  std::string name;
  int width = 0;
  long elements = 0;
  double wall_ms = 0.0;
  double admissions_per_sec = 0.0;
  sim::ScenarioStats stats;
  obs::HistogramStats admit_total_ms;
  // Mean per-admission time per phase — where the wall clock goes as the
  // platform grows.
  double phase_mean_ms[core::kPhaseCount] = {};
};

/// The pinned application mix: binding-heavy 24-task DSP graphs with
/// moderate intensity, so several applications share the mesh and the
/// binding/mapping phases dominate admission cost.
std::vector<graph::Application> make_pool() {
  gen::GeneratorConfig config;
  config.target = platform::ElementType::kDsp;
  config.io_on_boundary = false;
  config.input_tasks = 2;
  config.internal_tasks = 20;
  config.output_tasks = 2;
  config.min_implementations = 1;
  config.max_implementations = 2;
  config.min_intensity = 0.10;
  config.max_intensity = 0.45;
  util::Xoshiro256 rng(0x5CA1E);
  std::vector<graph::Application> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(
        gen::generate_application(config, rng, "scale-" + std::to_string(i)));
  }
  return pool;
}

bool run_size(SizeRun& run, const std::vector<graph::Application>& pool,
              bool smoke) {
  platform::BuilderConfig mesh;
  mesh.element_type = platform::ElementType::kDsp;
  // Roomy NoC (the builder default of 4 VCs rejects ~2/3 of this mix in
  // routing): the bench measures how admission cost scales with element
  // count, not link contention.
  mesh.vc_capacity = 16;
  mesh.bw_capacity = 4000;
  platform::Platform platform = platform::make_mesh(run.width, run.width, mesh);
  run.elements = static_cast<long>(platform.element_count());

  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  core::ResourceManager manager(platform, config);

  sim::ScenarioConfig scenario;
  scenario.arrival_rate = 1.5;
  scenario.mean_lifetime = 30.0;
  scenario.horizon = smoke ? 10.0 : 60.0;
  scenario.seed = 77;
  scenario.mapper = "incremental";

  // Per-size histogram isolation (the engine is single-threaded, so the
  // reset boundary is crisp).
  obs::Registry::global().reset();
  util::Stopwatch wall;
  run.stats = sim::run_scenario(manager, pool, scenario);
  run.wall_ms = wall.elapsed_ms();

  if (!run.stats.mapper_error.empty()) {
    std::fprintf(stderr, "bench_scale: %s: mapper error: %s\n",
                 run.name.c_str(), run.stats.mapper_error.c_str());
    return false;
  }
  if (run.stats.arrivals <= 0 || run.stats.admitted <= 0) {
    std::fprintf(stderr, "bench_scale: %s admitted nothing (%ld arrivals)\n",
                 run.name.c_str(), run.stats.arrivals);
    return false;
  }
  run.admissions_per_sec =
      static_cast<double>(run.stats.admitted) / (run.wall_ms / 1000.0);

  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  const auto it = snapshot.histograms.find("admission.total_ms");
  if (it != snapshot.histograms.end()) run.admit_total_ms = it->second;
  for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
    const std::string key = std::string("admission.") +
                            core::to_string(static_cast<core::Phase>(p)) +
                            "_ms";
    const auto pit = snapshot.histograms.find(key);
    if (pit != snapshot.histograms.end()) run.phase_mean_ms[p] = pit->second.mean;
  }
  return true;
}

void write_histogram_json(obs::JsonWriter& json,
                          const obs::HistogramStats& h) {
  json.begin_object();
  json.kv("count", h.count);
  json.kv("mean", h.mean);
  json.kv("min", h.min);
  json.kv("max", h.max);
  json.kv("p50", h.p50);
  json.kv("p95", h.p95);
  json.end_object();
}

bool write_report(const std::string& path, const std::vector<SizeRun>& runs,
                  bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_scale: cannot write '%s'\n", path.c_str());
    return false;
  }
  const double baseline = smoke ? kPrePr10kAdmissionsPerSecSmoke
                                : kPrePr10kAdmissionsPerSecFull;
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "kairos-bench-scale-v1");
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
  json.key("baseline");
  {
    json.begin_object();
    json.kv("pre_pr_admissions_per_sec_10k", baseline);
    json.kv("note",
            "pre-index 10k throughput at commit 9e98c50, same scenario/mode");
    json.end_object();
  }
  json.key("sizes");
  json.begin_object();
  for (const SizeRun& run : runs) {
    json.key(run.name);
    json.begin_object();
    json.kv("elements", static_cast<std::int64_t>(run.elements));
    json.kv("arrivals", run.stats.arrivals);
    json.kv("admitted", run.stats.admitted);
    json.kv("rejected", run.stats.rejected());
    json.key("rejected_by_phase");
    {
      json.begin_object();
      for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
        const auto phase = static_cast<core::Phase>(p);
        json.kv(core::to_string(phase), run.stats.failures(phase));
      }
      json.end_object();
    }
    json.kv("wall_ms", run.wall_ms);
    json.kv("admissions_per_sec", run.admissions_per_sec);
    json.kv("mean_mapping_ms", run.stats.mapping_ms.mean());
    json.key("phase_mean_ms");
    {
      json.begin_object();
      for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
        const auto phase = static_cast<core::Phase>(p);
        json.kv(core::to_string(phase), run.phase_mean_ms[p]);
      }
      json.end_object();
    }
    json.key("admit_total_ms");
    write_histogram_json(json, run.admit_total_ms);
    json.end_object();
  }
  json.end_object();
  const SizeRun& largest = runs.back();
  json.kv("speedup_vs_pre_pr",
          baseline > 0.0 ? largest.admissions_per_sec / baseline : -1.0);
  json.end_object();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_scale [--smoke] [--out <file>]\n");
      return 64;
    }
  }

  std::vector<SizeRun> runs(3);
  runs[0] = {"mesh_1k", 32, 0, 0.0, 0.0, {}, {}};
  runs[1] = {"mesh_4k", 64, 0, 0.0, 0.0, {}, {}};
  runs[2] = {"mesh_10k", 100, 0, 0.0, 0.0, {}, {}};

  std::printf("bench_scale (%s): %s\n", smoke ? "smoke" : "full",
              obs::build_info_line().c_str());
  const std::vector<graph::Application> pool = make_pool();
  for (SizeRun& run : runs) {
    if (!run_size(run, pool, smoke)) return 1;
    std::printf(
        "  %-8s %6ld elements: %5ld/%ld admitted "
        "(rej b%ld m%ld r%ld v%ld), %8.1f ms wall, %8.1f admissions/s\n"
        "           phase means (ms): bind %.2f  map %.2f  route %.2f  "
        "validate %.2f\n",
        run.name.c_str(), run.elements, run.stats.admitted,
        run.stats.arrivals, run.stats.failures(core::Phase::kBinding),
        run.stats.failures(core::Phase::kMapping),
        run.stats.failures(core::Phase::kRouting),
        run.stats.failures(core::Phase::kValidation), run.wall_ms,
        run.admissions_per_sec,
        run.phase_mean_ms[static_cast<std::size_t>(core::Phase::kBinding)],
        run.phase_mean_ms[static_cast<std::size_t>(core::Phase::kMapping)],
        run.phase_mean_ms[static_cast<std::size_t>(core::Phase::kRouting)],
        run.phase_mean_ms[static_cast<std::size_t>(core::Phase::kValidation)]);
  }

  if (!write_report(out_path, runs, smoke)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

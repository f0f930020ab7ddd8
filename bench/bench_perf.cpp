// bench_perf — the machine-readable perf trajectory.
//
// Runs three pinned scenarios (fixed seeds, fixed sizes, no flags that
// change the workload) and writes BENCH_perf.json: a build stamp (git SHA,
// compiler, build type, flags) plus per-metric count/mean/min/max/p50/p95
// and the observability registry's counter totals. Committing one such file
// per merge — or diffing two of them — turns "did this PR slow admission
// down?" into a one-line jq query instead of an anecdote.
//
//   1. beamformer-admission: the §IV-A case study — the 53-task beamformer
//      admitted on a fresh CRISP platform, per-phase and total latency.
//   2. sweep-cell-1k: one sweep-driver cell on a 1024-element (32x32) DSP
//      mesh — the scenario engine under a Poisson workload at scale.
//   3. sa-delta-race: the SA mapper on a 208-task application over a
//      16x16 mesh with incremental delta-cost evaluation — the search
//      inner loop.
//
// Not part of the default ctest run (latency numbers on shared CI machines
// are noise); CI runs `bench_perf --smoke` to keep the binary and the JSON
// schema honest, and archives the artifact for trend inspection. The
// percentiles come from the bench's own sampling.
//
//   usage: bench_perf [--smoke] [--out <file>]     (default BENCH_perf.json)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "gen/generator.hpp"
#include "mappers/sa_mapper.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "sim/sweep.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace kairos;

/// One named latency series of a scenario.
struct Metric {
  std::string name;
  util::WeightedStats stats;

  void record(double value) { stats.add(value, 1.0); }
};

struct Scenario {
  std::string name;
  int reps = 0;
  std::vector<Metric> metrics;

  Metric& metric(const std::string& metric_name) {
    for (auto& m : metrics) {
      if (m.name == metric_name) return m;
    }
    metrics.push_back(Metric{metric_name, {}});
    return metrics.back();
  }
};

/// §IV-A: the 53-task beamformer admitted onto a fresh CRISP platform.
bool run_beamformer_admission(Scenario& scenario, bool smoke) {
  scenario.reps = smoke ? 3 : 20;
  platform::Platform crisp = platform::make_crisp_platform();
  const graph::Application app = gen::make_beamforming_application();
  core::KairosConfig config;
  config.weights = {4.0, 100.0};

  for (int rep = 0; rep < scenario.reps; ++rep) {
    crisp.clear_allocations();
    core::ResourceManager manager(crisp, config);
    const core::AdmissionReport report = manager.admit(app);
    if (!report.admitted) {
      std::fprintf(stderr,
                   "bench_perf: beamformer rejected in %s (%s)\n",
                   core::to_string(report.failed_phase).c_str(),
                   report.reason.c_str());
      return false;
    }
    scenario.metric("admit_total_ms").record(report.times.total_ms());
    scenario.metric("binding_ms").record(report.times.binding_ms);
    scenario.metric("mapping_ms").record(report.times.mapping_ms);
    scenario.metric("routing_ms").record(report.times.routing_ms);
    scenario.metric("validation_ms").record(report.times.validation_ms);
  }
  return true;
}

/// One sweep-driver cell on a 1024-element DSP mesh: the scenario engine
/// under a Poisson workload at the largest pinned platform size.
bool run_sweep_cell_1k(Scenario& scenario, bool smoke) {
  scenario.reps = smoke ? 2 : 5;

  sim::SweepSpec spec;
  spec.strategies = {"incremental"};
  spec.platforms = {{"mesh32x32-dsp", [] {
                       platform::BuilderConfig mesh;
                       mesh.element_type = platform::ElementType::kDsp;
                       return platform::make_mesh(32, 32, mesh);
                     }}};
  spec.arrival_rates = {0.5};
  spec.mean_lifetime = 30.0;
  spec.kairos.weights = {4.0, 100.0};
  spec.engine.horizon = smoke ? 60.0 : 250.0;
  spec.engine.seed = 42;
  spec.threads = 1;  // latency of the cell, not of the fan-out

  for (int rep = 0; rep < scenario.reps; ++rep) {
    const sim::SweepResult result = sim::run_sweep(spec);
    if (!result.error.empty() || result.cells.size() != 1) {
      std::fprintf(stderr, "bench_perf: sweep cell failed: %s\n",
                   result.error.c_str());
      return false;
    }
    const sim::SweepCell& cell = result.cells.front();
    if (cell.stats.arrivals <= 0) {
      std::fprintf(stderr, "bench_perf: sweep cell saw no arrivals\n");
      return false;
    }
    scenario.metric("cell_wall_ms").record(cell.wall_ms);
    scenario.metric("arrivals").record(
        static_cast<double>(cell.stats.arrivals));
    scenario.metric("mean_mapping_ms").record(cell.stats.mapping_ms.mean());
  }
  return true;
}

/// The SA search inner loop: delta-cost evaluation on a 208-task
/// application over a 16x16 mesh (the winning side of the delta race
/// bench_mapper_matrix pins for correctness).
bool run_sa_delta_race(Scenario& scenario, bool smoke) {
  scenario.reps = smoke ? 2 : 5;

  gen::GeneratorConfig config;
  config.target = platform::ElementType::kGeneric;
  config.io_on_boundary = false;
  config.min_implementations = 1;
  config.max_implementations = 1;
  config.input_tasks = 4;
  config.internal_tasks = 200;
  config.output_tasks = 4;
  config.min_intensity = 0.05;
  config.max_intensity = 0.30;
  util::Xoshiro256 rng(0xDE17A);
  const graph::Application app =
      gen::generate_application(config, rng, "speedup-208");
  const platform::Platform mesh = platform::make_mesh(16, 16);

  mappers::MapperOptions options;
  options.weights = {4.0, 100.0};
  options.sa_iterations = smoke ? 2000 : 20000;
  options.sa_incremental = true;
  const std::vector<int> impl_of(app.task_count(), 0);
  const core::PinTable pins(app.task_count());

  for (int rep = 0; rep < scenario.reps; ++rep) {
    platform::Platform copy = mesh;
    const mappers::SaMapper sa(options);
    obs::Span span("bench.sa_delta");
    const core::MappingResult result = sa.map(app, impl_of, pins, copy);
    const double wall_ms = span.elapsed_ms();
    if (!result.ok) {
      std::fprintf(stderr, "bench_perf: SA failed to map: %s\n",
                   result.reason.c_str());
      return false;
    }
    scenario.metric("map_ms").record(wall_ms);
  }
  return true;
}

void write_metric_json(obs::JsonWriter& json, const util::WeightedStats& s) {
  json.begin_object();
  json.kv("count", static_cast<std::int64_t>(s.count()));
  json.kv("mean", s.mean());
  json.kv("min", s.min());
  json.kv("max", s.max());
  json.kv("p50", s.percentile(50.0));
  json.kv("p95", s.percentile(95.0));
  json.end_object();
}

bool write_report(const std::string& path,
                  const std::vector<Scenario>& scenarios, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_perf: cannot write '%s'\n", path.c_str());
    return false;
  }
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "kairos-bench-perf-v1");
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
  json.key("scenarios");
  json.begin_object();
  for (const Scenario& scenario : scenarios) {
    json.key(scenario.name);
    json.begin_object();
    json.kv("reps", static_cast<std::int64_t>(scenario.reps));
    json.key("metrics");
    json.begin_object();
    for (const Metric& metric : scenario.metrics) {
      json.key(metric.name);
      write_metric_json(json, metric.stats);
    }
    json.end_object();
    json.end_object();
  }
  json.end_object();
  // Counter totals accumulated across all three scenarios (admissions,
  // engine events, per-strategy map calls).
  json.key("counters");
  json.begin_object();
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  for (const auto& [name, value] : snapshot.counters) json.kv(name, value);
  json.end_object();
  json.end_object();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_perf [--smoke] [--out <file>]\n");
      return 64;
    }
  }

  // Isolate this run's counter totals from anything the process did before.
  obs::Registry::global().reset();

  std::vector<Scenario> scenarios(3);
  scenarios[0].name = "beamformer_admission";
  scenarios[1].name = "sweep_cell_1k";
  scenarios[2].name = "sa_delta_race";

  std::printf("bench_perf (%s): %s\n", smoke ? "smoke" : "full",
              obs::build_info_line().c_str());
  if (!run_beamformer_admission(scenarios[0], smoke)) return 1;
  std::printf("  beamformer_admission: admit p50 %.3f ms over %d reps\n",
              scenarios[0].metrics.front().stats.percentile(50.0),
              scenarios[0].reps);
  if (!run_sweep_cell_1k(scenarios[1], smoke)) return 1;
  std::printf("  sweep_cell_1k:        cell  p50 %.1f ms over %d reps\n",
              scenarios[1].metrics.front().stats.percentile(50.0),
              scenarios[1].reps);
  if (!run_sa_delta_race(scenarios[2], smoke)) return 1;
  std::printf("  sa_delta_race:        map   p50 %.1f ms over %d reps\n",
              scenarios[2].metrics.front().stats.percentile(50.0),
              scenarios[2].reps);

  if (!write_report(out_path, scenarios, smoke)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

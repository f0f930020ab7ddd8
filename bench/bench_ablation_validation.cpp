// Ablation: state-space exploration vs maximum-cycle-ratio analysis in the
// validation phase.
//
// §V of the paper: "the validation method ... clearly becomes problematic
// when the complexity of the task graph increases" and proposes moving the
// expensive analysis out of the admission path. The MCR analyzer is that
// direction: this bench measures both analyzers on the same admissions and
// checks they agree on the computed throughput.
//
// Both analyzers are timed directly on ValidationPhase::build_sdf output
// (min of a few repetitions per application), not through validate(): the
// dataset filter has already validated every kept application on this
// thread, so validate() would answer from its verdict memo.
//
//   bench_ablation_validation [--smoke]
//
// --smoke generates fewer applications per dataset. Exit status 1 when the
// two analyzers' throughputs differ by more than 1e-9 on any periodic
// result (or MCR does not apply to a built model), 0 otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench_common.hpp"
#include "core/binding.hpp"
#include "core/mapping.hpp"
#include "core/routing_phase.hpp"
#include "core/validation_phase.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace kairos;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int apps_per_dataset = smoke ? 10 : 40;
  constexpr int kReps = 3;
  constexpr double kTolerance = 1e-9;

  std::printf("Ablation: validation analysis (state space vs MCR)\n\n");

  util::Table table({"Dataset", "Apps", "State-space ms", "MCR ms",
                     "MCR speedup", "Mean states", "Max |dT|"});
  double worst_delta = 0.0;
  long mcr_not_applicable = 0;
  for (const auto kind : gen::kAllDatasets) {
    platform::Platform crisp = platform::make_crisp_platform();
    core::KairosConfig config;
    config.weights = {4.0, 100.0};
    config.validation_rejects = false;
    auto apps = gen::make_dataset(kind, apps_per_dataset, 0xC0FFEE);
    auto kept = gen::filter_admissible(std::move(apps), crisp, config);

    const core::BindingPhase binding(crisp);
    const core::IncrementalMapper mapper(
        core::MapperConfig{config.weights, {}, 1, false});
    const core::RoutingPhase routing;
    const core::ValidationPhase validation;
    const sdf::ThroughputAnalyzer analyzer(core::ValidationConfig{}.throughput);

    util::RunningStats state_ms;
    util::RunningStats mcr_ms;
    util::RunningStats states;
    double max_delta = 0.0;

    for (const auto& app : kept) {
      crisp.clear_allocations();
      const auto pins = core::resolve_pins(app, crisp);
      const auto bound = binding.bind(app, pins.value());
      if (!bound.ok) continue;
      const auto mapped = mapper.map(app, bound.impl_of, pins.value(), crisp);
      if (!mapped.ok) continue;
      const auto routed = routing.route(app, mapped.element_of, crisp);
      if (!routed.ok) continue;

      const sdf::SdfGraph g = validation.build_sdf(
          app, bound.impl_of, mapped.element_of, routed.routes);
      const sdf::ActorId observed = core::ValidationPhase::observed_actor(app);

      sdf::ThroughputResult exact;
      sdf::McrResult mcr;
      double best_state = std::numeric_limits<double>::infinity();
      double best_mcr = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < kReps; ++rep) {
        util::Stopwatch watch;
        exact = analyzer.analyze(g, observed);
        best_state = std::min(best_state, watch.elapsed_ms());
        watch.reset();
        mcr = sdf::max_cycle_ratio(g);
        best_mcr = std::min(best_mcr, watch.elapsed_ms());
      }
      state_ms.add(best_state);
      mcr_ms.add(best_mcr);
      states.add(static_cast<double>(exact.states_explored));

      if (exact.status == sdf::ThroughputStatus::kPeriodic) {
        if (!mcr.applicable) {
          ++mcr_not_applicable;
          continue;
        }
        const double mcr_throughput = mcr.deadlock ? 0.0 : mcr.throughput;
        max_delta =
            std::max(max_delta, std::abs(exact.throughput - mcr_throughput));
      }
    }
    worst_delta = std::max(worst_delta, max_delta);

    table.add_row(
        {gen::dataset_spec(kind).name, std::to_string(state_ms.count()),
         util::fmt(state_ms.mean(), 4), util::fmt(mcr_ms.mean(), 4),
         mcr_ms.mean() > 0
             ? util::fmt(state_ms.mean() / mcr_ms.mean(), 1) + "x"
             : "-",
         util::fmt(states.mean(), 0), util::fmt(max_delta, 12)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: identical throughput values (max |dT| ~ 0); MCR's\n"
              "cost grows with the graph, state-space exploration's with\n"
              "the states explored — the §V future-work trade-off.\n");

  if (worst_delta > kTolerance || mcr_not_applicable > 0) {
    std::printf("FAILED: analyzers disagree (max |dT| %.3g > %.0e) or MCR "
                "did not apply to %ld periodic model(s)\n",
                worst_delta, kTolerance, mcr_not_applicable);
    return 1;
  }
  return 0;
}

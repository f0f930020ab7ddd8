// Ablation: state-space exploration vs exact maximum-cycle-ratio analysis
// of the validation phase's SDF models.
//
// §V of the paper: "the validation method ... clearly becomes problematic
// when the complexity of the task graph increases". The validation phase
// therefore computes the throughput as an exact maximum cycle ratio
// (sdf/mcr.hpp, Howard policy iteration) instead of exploring the state
// space; this bench times the paper's analyzer against it on the same
// admissions and checks that the two throughputs are equal.
//
// Both analyzers are timed directly on ValidationPhase::build_sdf output
// (min of a few repetitions per application), not through validate(): the
// dataset filter has already validated every kept application on this
// thread, so validate() would answer from its verdict memo.
//
//   bench_ablation_validation [--smoke]
//
// --smoke generates fewer applications per dataset. Exit status 1 when the
// two analyzers' throughputs differ at all on any periodic result (or MCR
// does not apply to a built model), 0 otherwise.
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
#include "sdf/mcr.hpp"
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

  std::printf("Ablation: validation analysis (state space vs MCR)\n\n");

  util::Table table({"Dataset", "Apps", "State-space us", "(max)", "MCR us",
                     "(max)", "MCR speedup", "Mean states", "Max |dT|"});
  long mismatches = 0;
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
    const sdf::ThroughputAnalyzer analyzer(sdf::ThroughputConfig{});

    util::RunningStats state_us;
    util::RunningStats mcr_us;
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
        best_state = std::min(best_state, 1e3 * watch.elapsed_ms());
        watch.reset();
        mcr = sdf::max_cycle_ratio(g);
        best_mcr = std::min(best_mcr, 1e3 * watch.elapsed_ms());
      }
      state_us.add(best_state);
      mcr_us.add(best_mcr);
      states.add(static_cast<double>(exact.states_explored));

      if (exact.status == sdf::ThroughputStatus::kPeriodic) {
        if (!mcr.applicable) {
          ++mcr_not_applicable;
          continue;
        }
        const double mcr_throughput = mcr.deadlock ? 0.0 : mcr.throughput;
        if (mcr_throughput != exact.throughput) ++mismatches;
        max_delta =
            std::max(max_delta, std::abs(exact.throughput - mcr_throughput));
      }
    }
    worst_delta = std::max(worst_delta, max_delta);

    table.add_row(
        {gen::dataset_spec(kind).name, std::to_string(state_us.count()),
         util::fmt(state_us.mean(), 1), util::fmt(state_us.max(), 1),
         util::fmt(mcr_us.mean(), 1), util::fmt(mcr_us.max(), 1),
         mcr_us.mean() > 0
             ? util::fmt(state_us.mean() / mcr_us.mean(), 1) + "x"
             : "-",
         util::fmt(states.mean(), 0), util::fmt(max_delta, 12)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: bit-identical throughput values (max |dT| 0);\n"
              "MCR's cost grows with the graph, state-space exploration's\n"
              "with the states explored — the §V trade-off.\n");

  if (mismatches > 0 || mcr_not_applicable > 0) {
    std::printf("FAILED: analyzers disagree on %ld model(s) (max |dT| %.3g) "
                "or MCR did not apply to %ld periodic model(s)\n",
                mismatches, worst_delta, mcr_not_applicable);
    return 1;
  }
  return 0;
}

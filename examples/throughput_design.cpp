// Design-time throughput engineering: the workflow around the validation
// phase. Shows (1) how a latency requirement becomes a throughput
// constraint (Moreira & Bekooij [12], used in §II of the paper), (2) how
// buffer sizing trades memory for throughput at design time (Stuijk et al.
// [5]) — with the paper's state-space analyzer and the exact
// maximum-cycle-ratio analyzer side by side — and (3) how the run-time
// validation phase, which uses the exact MCR (§V's cheaper analysis), then
// accepts or rejects a concrete layout.
//
//   $ ./examples/throughput_design
#include <cstdio>

#include "core/resource_manager.hpp"
#include "platform/crisp.hpp"
#include "sdf/buffer_sizing.hpp"
#include "sdf/constraints.hpp"
#include "sdf/mcr.hpp"
#include "sdf/throughput.hpp"

namespace {

using namespace kairos;

/// A 4-stage software-defined-radio chain as an SDF graph: the design-time
/// model, before any platform is involved.
sdf::SdfGraph make_sdr_chain(int buffer_factor) {
  sdf::SdfGraph g("sdr");
  const sdf::ActorId adc = g.add_actor("adc", 4);
  const sdf::ActorId filter = g.add_actor("filter", 9);
  const sdf::ActorId demod = g.add_actor("demod", 7);
  const sdf::ActorId sink = g.add_actor("sink", 3);
  for (const auto a : {adc, filter, demod, sink}) {
    g.disable_auto_concurrency(a);
  }
  g.add_buffered_channel(adc, filter, 1, buffer_factor);
  g.add_buffered_channel(filter, demod, 1, buffer_factor);
  g.add_buffered_channel(demod, sink, 1, buffer_factor);
  return g;
}

graph::Application make_sdr_application(double throughput_constraint) {
  graph::Application app("sdr");
  auto add = [&](const char* name, platform::ElementType type,
                 std::int64_t compute, std::int64_t exec_time) {
    const graph::TaskId t = app.add_task(name);
    graph::Implementation impl;
    impl.name = "v0";
    impl.target = type;
    // Config contexts exist on DSP/FPGA tiles only; ARM claims none.
    impl.requirement = platform::ResourceVector(
        compute, 128, 1, type == platform::ElementType::kArm ? 0 : 1);
    impl.exec_time = exec_time;
    app.task_mut(t).add_implementation(impl);
    return t;
  };
  const auto adc = add("adc", platform::ElementType::kFpga, 600, 4);
  const auto filter = add("filter", platform::ElementType::kDsp, 700, 9);
  const auto demod = add("demod", platform::ElementType::kDsp, 600, 7);
  const auto sink = add("sink", platform::ElementType::kArm, 300, 3);
  app.add_channel(adc, filter, 60);
  app.add_channel(filter, demod, 60);
  app.add_channel(demod, sink, 40);
  app.set_throughput_constraint(throughput_constraint);
  return app;
}

}  // namespace

int main() {
  // (1) Latency requirement -> throughput constraint.
  const double latency_bound = 40.0;  // time units end-to-end
  const int pipelined_iterations = 2;
  const double required =
      sdf::latency_to_throughput(latency_bound, pipelined_iterations);
  std::printf("latency bound %.0f with %d iterations in flight -> required "
              "throughput %.4f iterations/time\n",
              latency_bound, pipelined_iterations, required);

  // (2) Design-time buffer sizing against the pure dataflow model.
  const auto sizing = sdf::minimal_buffer_factor(
      make_sdr_chain, sdf::ActorId{3}, required);
  if (!sizing.satisfiable) {
    std::printf("the chain cannot reach the required throughput at any "
                "buffer size\n");
    return 1;
  }
  std::printf("minimal buffer factor: %d (throughput %.4f)\n",
              sizing.buffer_factor, sizing.throughput);
  const sdf::ThroughputAnalyzer analyzer(sdf::ThroughputConfig{});
  for (int f = 1; f <= 4; ++f) {
    const auto g = make_sdr_chain(f);
    const auto states = analyzer.analyze(g, sdf::ActorId{3});
    const auto mcr = sdf::max_cycle_ratio(g);
    std::printf("  factor %d: state-space %.4f (%lld states), exact MCR "
                "%.4f%s %s\n",
                f, states.throughput,
                static_cast<long long>(states.states_explored),
                mcr.throughput,
                mcr.throughput == states.throughput ? " (equal)" : " (DIFFER)",
                mcr.throughput >= required ? "(meets requirement)" : "");
  }

  // (3) Run-time admission with the constraint attached: validation rejects
  // layouts whose transport latency drags throughput below the bound.
  platform::Platform crisp = platform::make_crisp_platform();
  const graph::Application app = make_sdr_application(required);

  {
    core::KairosConfig config;
    config.weights = {4.0, 100.0};
    config.validation.buffer_factor = sizing.buffer_factor;
    core::ResourceManager kairos(crisp, config);
    const auto report = kairos.admit(app);
    std::printf("admission: %s (throughput %.4f, validate %.3f ms)\n",
                report.admitted ? "ADMITTED" : "rejected", report.throughput,
                report.times.validation_ms);
    if (!report.admitted) {
      std::printf("  reason: %s\n", report.reason.c_str());
    }
  }

  // An impossible requirement is rejected in the validation phase.
  crisp.clear_allocations();
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  core::ResourceManager kairos(crisp, config);
  const auto rejected = kairos.admit(make_sdr_application(1.0));
  std::printf("impossible constraint (1.0): %s in %s phase\n",
              rejected.admitted ? "ADMITTED (bug!)" : "rejected",
              core::to_string(rejected.failed_phase).c_str());
  return 0;
}

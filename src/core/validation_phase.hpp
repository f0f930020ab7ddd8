// The validation phase: "the performance constraints given in the
// application specification are validated against the performance provided
// by the execution layout derived from the previous phases" (§I-A).
//
// The mapped application is converted to an SDF graph — task execution times
// come from the bound implementations, NoC transport is modelled by one
// latency actor per routed channel (execution time proportional to the hop
// count), buffers are bounded via reverse channels, and auto-concurrency is
// disabled (a task occupies one element). Throughput is computed by
// state-space exploration (sdf::ThroughputAnalyzer) and compared against the
// application's constraint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "graph/application.hpp"
#include "sdf/constraints.hpp"
#include "sdf/mcr.hpp"
#include "sdf/sdf_graph.hpp"
#include "sdf/throughput.hpp"

namespace kairos::core {

struct ValidationConfig {
  /// Time units of transport latency per hop of a route.
  double hop_latency = 1.0;
  /// Buffer capacity per channel, as a multiple of the token rate.
  int buffer_factor = 2;
  /// State budget of the throughput analysis (the run-time safety valve the
  /// paper's future-work section wants to remove).
  sdf::ThroughputConfig throughput{100'000};
  /// Use maximum-cycle-ratio analysis instead of state-space exploration
  /// when the built SDF graph admits it (it always does for this builder).
  /// This is the §V future-work direction: a much cheaper validation whose
  /// cost no longer explodes with the state space. Falls back to the
  /// state-space analyzer if MCR is not applicable.
  bool use_mcr = false;
};

struct ValidationResult {
  bool ok = false;
  std::string reason;
  double throughput = 0.0;          ///< sink firings per time unit
  double required_throughput = 0.0;
  std::int64_t states_explored = 0;
  sdf::ThroughputStatus status = sdf::ThroughputStatus::kDeadlock;
};

class ValidationPhase {
 public:
  explicit ValidationPhase(ValidationConfig config = {}) : config_(config) {}

  /// Builds the SDF model of the mapped application and checks the
  /// throughput constraint. Read-only: touches neither app nor platform.
  ValidationResult validate(const graph::Application& app,
                            const std::vector<int>& impl_of,
                            const std::vector<platform::ElementId>& element_of,
                            const std::vector<ChannelRoute>& routes) const;

  /// Exposed for tests/benches: the actor whose throughput is checked — a
  /// sink task (no outgoing channels), the natural output of a streaming
  /// application, or the first task when every task has a successor.
  static sdf::ActorId observed_actor(const graph::Application& app);

  /// Exposed for tests/benches: the SDF graph the validator analyses.
  sdf::SdfGraph build_sdf(const graph::Application& app,
                          const std::vector<int>& impl_of,
                          const std::vector<platform::ElementId>& element_of,
                          const std::vector<ChannelRoute>& routes) const;

 private:
  ValidationConfig config_;
};

}  // namespace kairos::core

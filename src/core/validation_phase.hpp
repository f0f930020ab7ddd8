// The validation phase: "the performance constraints given in the
// application specification are validated against the performance provided
// by the execution layout derived from the previous phases" (§I-A).
//
// The mapped application is converted to an SDF graph — task execution times
// come from the bound implementations, NoC transport is modelled by one
// latency actor per routed channel (execution time proportional to the hop
// count), buffers are bounded via reverse channels, and auto-concurrency is
// disabled (a task occupies one element). The paper computes the model's
// throughput by state-space exploration (sdf::ThroughputAnalyzer, Ghamarian
// et al. [13]), whose cost "clearly becomes problematic when the complexity
// of the task graph increases" (§V).
//
// This phase computes the same number in closed form instead. Every channel
// of the model has equal production and consumption rates and a multiple of
// its rate as initial tokens (the precondition of sdf/mcr.hpp), so the model
// is a homogeneous SDF graph after dividing tokens by rates, and the
// observed actor's self-timed throughput is T/W of the critical cycle —
// the maximum-ratio cycle (W total execution time, T total tokens) of its
// component — or zero when a token-free cycle deadlocks that component.
// validate() writes that homogeneous graph straight from its inputs as a
// flat edge list (no named SdfGraph) and solves it exactly with
// sdf::HowardMcr. The state-space period gives the same rational
// (firings/period), so the double, the status and the verdict are
// bit-identical to the analyzer's on build_sdf's graph, which
// validation_exactness_property_test checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "graph/application.hpp"
#include "sdf/sdf_graph.hpp"
#include "sdf/throughput.hpp"

namespace kairos::core {

struct ValidationConfig {
  /// Time units of transport latency per hop of a route.
  double hop_latency = 1.0;
  /// Buffer capacity per channel, as a multiple of the token rate.
  int buffer_factor = 2;
};

struct ValidationResult {
  bool ok = false;
  std::string reason;
  double throughput = 0.0;          ///< sink firings per time unit
  double required_throughput = 0.0;
  sdf::ThroughputStatus status = sdf::ThroughputStatus::kDeadlock;
};

class ValidationPhase {
 public:
  explicit ValidationPhase(ValidationConfig config = {}) : config_(config) {}

  /// Computes the throughput of the mapped application's SDF model exactly
  /// (see above) and checks the throughput constraint. Read-only: touches
  /// neither app nor platform.
  ValidationResult validate(const graph::Application& app,
                            const std::vector<int>& impl_of,
                            const std::vector<platform::ElementId>& element_of,
                            const std::vector<ChannelRoute>& routes) const;

  /// Exposed for tests/benches: the actor whose throughput is checked — a
  /// sink task (no outgoing channels), the natural output of a streaming
  /// application, or the first task when every task has a successor.
  static sdf::ActorId observed_actor(const graph::Application& app);

  /// Exposed for tests/benches: the named SDF graph whose throughput
  /// validate() computes (the state-space analyzer's input; validate()
  /// solves its homogeneous form without building it).
  sdf::SdfGraph build_sdf(const graph::Application& app,
                          const std::vector<int>& impl_of,
                          const std::vector<platform::ElementId>& element_of,
                          const std::vector<ChannelRoute>& routes) const;

 private:
  ValidationConfig config_;
};

}  // namespace kairos::core

// Property test: the validation phase's exact maximum-cycle-ratio verdict is
// the paper's state-space verdict. For every input, validate() must equal
// sdf::ThroughputAnalyzer (budget 10^7, never reached here) run on
// build_sdf's model and judged by the state-space rules: bit-equal
// throughput, the same status, the same ok and the same reason.
//
// Inputs:
//  * all six Table I datasets and the beamformer, with random bindings,
//    hops 0-6 per channel, buffer_factor 1-3, hop_latency 0.5/1/2.5, and
//    constraints below, at and above the throughput as well as none;
//  * hand-built cyclic applications: directed rings (token-free, so they
//    deadlock), and fork-joins whose critical cycles run through buffers
//    and carry several tokens;
//  * disconnected applications where both components run at different
//    rates, where only one component deadlocks, and where all do.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/validation_phase.hpp"
#include "gen/beamforming.hpp"
#include "gen/datasets.hpp"
#include "sdf/constraints.hpp"
#include "sdf/throughput.hpp"
#include "util/rng.hpp"

namespace kairos::core {
namespace {

struct Inputs {
  graph::Application app;
  ValidationConfig config;
  std::vector<int> impl_of;
  std::vector<platform::ElementId> element_of;
  std::vector<ChannelRoute> routes;
};

/// The state-space verdict: the analyzer on build_sdf's graph, judged as
/// the paper's validation phase judges it.
ValidationResult state_space_verdict(const Inputs& in) {
  const ValidationPhase phase(in.config);
  const sdf::ThroughputAnalyzer analyzer(sdf::ThroughputConfig{10'000'000});
  const sdf::ThroughputResult analysis = analyzer.analyze(
      phase.build_sdf(in.app, in.impl_of, in.element_of, in.routes),
      ValidationPhase::observed_actor(in.app));
  EXPECT_NE(analysis.status, sdf::ThroughputStatus::kBudgetExceeded);

  const double required = in.app.throughput_constraint();
  ValidationResult result;
  result.required_throughput = required;
  result.throughput = analysis.throughput;
  result.status = analysis.status;
  if (analysis.status == sdf::ThroughputStatus::kDeadlock) {
    result.reason = "SDF model deadlocks";
    result.ok = required <= 0.0;
    return result;
  }
  result.ok = sdf::satisfies_throughput(analysis, required);
  if (!result.ok) {
    result.reason = "throughput " + std::to_string(analysis.throughput) +
                    " below required " + std::to_string(required);
  }
  return result;
}

/// Checks one input; returns the state-space verdict.
ValidationResult expect_exact(const Inputs& in, const std::string& what) {
  const ValidationResult expected = state_space_verdict(in);
  const ValidationResult actual =
      ValidationPhase(in.config)
          .validate(in.app, in.impl_of, in.element_of, in.routes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.throughput),
            std::bit_cast<std::uint64_t>(expected.throughput))
      << what << ": " << actual.throughput << " vs " << expected.throughput;
  EXPECT_EQ(actual.status, expected.status) << what;
  EXPECT_EQ(actual.ok, expected.ok) << what;
  EXPECT_EQ(actual.reason, expected.reason) << what;
  EXPECT_EQ(actual.required_throughput, expected.required_throughput)
      << what;
  return expected;
}

void set_hops(ChannelRoute& route, int hops) {
  route.route.links.assign(static_cast<std::size_t>(hops),
                           platform::LinkId{0});
}

/// Random binding, hops 0-6, buffer_factor 1-3, hop_latency 0.5/1/2.5.
Inputs random_inputs(const graph::Application& app, util::Xoshiro256& rng) {
  Inputs in{app, {}, {}, {}, {}};
  for (const auto& task : app.tasks()) {
    in.impl_of.push_back(static_cast<int>(rng.uniform_int(
        0, static_cast<std::int64_t>(task.implementations().size()) - 1)));
  }
  in.element_of.assign(app.task_count(), platform::ElementId{0});
  in.routes.resize(app.channel_count());
  for (auto& route : in.routes) {
    set_hops(route, static_cast<int>(rng.uniform_int(0, 6)));
  }
  in.config.buffer_factor = static_cast<int>(rng.uniform_int(1, 3));
  constexpr double kHopLatencies[] = {0.5, 1.0, 2.5};
  in.config.hop_latency = kHopLatencies[rng.uniform_int(0, 2)];
  return in;
}

/// Checks `in` with no constraint, then with constraints below, at and
/// above the state-space throughput.
void expect_exact_at_all_constraints(Inputs in, const std::string& what,
                                     int& periodic, int& deadlocked) {
  in.app.set_throughput_constraint(0.0);
  const ValidationResult unconstrained =
      expect_exact(in, what + " (no constraint)");
  if (unconstrained.status == sdf::ThroughputStatus::kPeriodic) {
    ++periodic;
  } else {
    ++deadlocked;
  }
  const double throughput = unconstrained.throughput;
  const double fallback = 0.05;  // a deadlocked model has no throughput
  for (const double factor : {0.5, 1.0, 2.0}) {
    in.app.set_throughput_constraint(
        (throughput > 0.0 ? throughput : fallback) * factor);
    expect_exact(in, what + " (constraint x" + std::to_string(factor) + ")");
  }
}

graph::Implementation impl(std::int64_t exec_time) {
  graph::Implementation i;
  i.name = "v" + std::to_string(exec_time);
  i.exec_time = exec_time;
  return i;
}

/// A task with two implementations of random execution time (1-12).
graph::TaskId add_task(graph::Application& app, util::Xoshiro256& rng) {
  const graph::TaskId t =
      app.add_task("t" + std::to_string(app.task_count()));
  app.task_mut(t).add_implementation(impl(rng.uniform_int(1, 12)));
  app.task_mut(t).add_implementation(impl(rng.uniform_int(1, 12)));
  return t;
}

/// A pipeline of `length` tasks; returns its first task.
graph::TaskId add_pipeline(graph::Application& app, int length,
                           util::Xoshiro256& rng) {
  const graph::TaskId first = add_task(app, rng);
  graph::TaskId prev = first;
  for (int i = 1; i < length; ++i) {
    const graph::TaskId next = add_task(app, rng);
    app.add_channel(prev, next, 1, static_cast<int>(rng.uniform_int(1, 3)));
    prev = next;
  }
  return first;
}

/// A directed ring of `length` tasks (a token-free cycle: it deadlocks)
/// feeding a sink.
void add_ring(graph::Application& app, int length, util::Xoshiro256& rng) {
  std::vector<graph::TaskId> ring;
  for (int i = 0; i < length; ++i) ring.push_back(add_task(app, rng));
  for (int i = 0; i < length; ++i) {
    app.add_channel(ring[static_cast<std::size_t>(i)],
                    ring[static_cast<std::size_t>((i + 1) % length)]);
  }
  app.add_channel(ring.back(), add_task(app, rng));
}

/// A fork-join: source -> `width` branches of random length -> join. The
/// buffers close cycles through every pair of branches.
void add_fork_join(graph::Application& app, int width,
                   util::Xoshiro256& rng) {
  const graph::TaskId source = add_task(app, rng);
  std::vector<graph::TaskId> tails;
  for (int b = 0; b < width; ++b) {
    const graph::TaskId head = add_task(app, rng);
    app.add_channel(source, head);
    graph::TaskId tail = head;
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      const graph::TaskId next = add_task(app, rng);
      app.add_channel(tail, next);
      tail = next;
    }
    tails.push_back(tail);
  }
  const graph::TaskId join = add_task(app, rng);
  for (const graph::TaskId tail : tails) app.add_channel(tail, join);
}

TEST(ValidationExactnessPropertyTest, TableOneDatasetsAndBeamformer) {
  int periodic = 0;
  int deadlocked = 0;
  for (const auto kind : gen::kAllDatasets) {
    util::Xoshiro256 rng(0xE4AC7000u + static_cast<std::uint64_t>(kind));
    for (const auto& app : gen::make_dataset(kind, 20, 0x5EED)) {
      expect_exact_at_all_constraints(random_inputs(app, rng), app.name(),
                                      periodic, deadlocked);
    }
  }
  util::Xoshiro256 rng(0xBEA4);
  const graph::Application beamformer = gen::make_beamforming_application();
  for (int rep = 0; rep < 10; ++rep) {
    expect_exact_at_all_constraints(random_inputs(beamformer, rng),
                                    "beamformer", periodic, deadlocked);
  }
  EXPECT_EQ(periodic + deadlocked, 6 * 20 + 10);
  EXPECT_GT(periodic, 6 * 20 / 2);  // the datasets are acyclic: they run
  EXPECT_GE(deadlocked, 10);       // the beamformer's scatter loops
}

TEST(ValidationExactnessPropertyTest, HandBuiltCyclicApplications) {
  util::Xoshiro256 rng(0xC1C1E);
  int periodic = 0;
  int deadlocked = 0;
  for (int rep = 0; rep < 40; ++rep) {
    graph::Application app("cyclic" + std::to_string(rep));
    if (rep % 2 == 0) {
      add_ring(app, static_cast<int>(rng.uniform_int(1, 4)), rng);
    } else {
      add_fork_join(app, static_cast<int>(rng.uniform_int(2, 4)), rng);
    }
    expect_exact_at_all_constraints(random_inputs(app, rng), app.name(),
                                    periodic, deadlocked);
  }
  EXPECT_EQ(periodic, 20);
  EXPECT_EQ(deadlocked, 20);
}

TEST(ValidationExactnessPropertyTest, DisconnectedApplications) {
  util::Xoshiro256 rng(0xD15C);
  int periodic = 0;
  int deadlocked = 0;
  for (int rep = 0; rep < 48; ++rep) {
    graph::Application app("disconnected" + std::to_string(rep));
    // The observed actor is the first sink in task order, so it lies in
    // the first component built.
    switch (rep % 4) {
      case 0:  // two live components at independent rates
        add_pipeline(app, static_cast<int>(rng.uniform_int(1, 3)), rng);
        add_pipeline(app, static_cast<int>(rng.uniform_int(1, 4)), rng);
        break;
      case 1:  // the observed component deadlocks, the other runs
        add_ring(app, static_cast<int>(rng.uniform_int(1, 3)), rng);
        add_fork_join(app, 2, rng);
        break;
      case 2:  // the observed component runs, the other deadlocks
        add_fork_join(app, 2, rng);
        add_ring(app, static_cast<int>(rng.uniform_int(1, 3)), rng);
        break;
      default:  // every component deadlocks
        add_ring(app, static_cast<int>(rng.uniform_int(1, 3)), rng);
        add_ring(app, static_cast<int>(rng.uniform_int(1, 3)), rng);
        break;
    }
    expect_exact_at_all_constraints(random_inputs(app, rng), app.name(),
                                    periodic, deadlocked);
  }
  // Only the all-deadlocked quarter stops; an observed component that
  // deadlocks next to a running one is a periodic zero.
  EXPECT_EQ(periodic, 36);
  EXPECT_EQ(deadlocked, 12);
}

}  // namespace
}  // namespace kairos::core

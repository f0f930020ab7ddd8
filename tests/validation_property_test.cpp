// Property test for the validation phase's verdict memo. The memo is keyed
// by build_sdf's inputs, not by the built model, so the test checks both of
// its promises on generated Table I applications with random bindings and
// random per-channel hop counts (0 included):
//  * a repeated validate() — a miss, then a hit — returns exactly what a
//    fresh analysis returns. The fresh analysis runs on a new std::thread,
//    whose thread-local memo starts empty;
//  * after a warm-up, changing any one input the verdict depends on (one
//    channel's hops, one task's bound exec_time, buffer_factor,
//    hop_latency, the throughput constraint) yields the fresh verdict for
//    the changed input, never the stale one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/validation_phase.hpp"
#include "gen/datasets.hpp"
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

ValidationResult validate_here(const Inputs& in) {
  return ValidationPhase(in.config)
      .validate(in.app, in.impl_of, in.element_of, in.routes);
}

ValidationResult validate_fresh(const Inputs& in) {
  ValidationResult result;
  std::thread([&] { result = validate_here(in); }).join();
  return result;
}

void expect_same(const ValidationResult& actual,
                 const ValidationResult& expected, const std::string& what) {
  EXPECT_EQ(actual.ok, expected.ok) << what;
  EXPECT_EQ(actual.reason, expected.reason) << what;
  EXPECT_EQ(actual.throughput, expected.throughput) << what;
  EXPECT_EQ(actual.required_throughput, expected.required_throughput)
      << what;
  EXPECT_EQ(actual.status, expected.status) << what;
}

bool same(const ValidationResult& a, const ValidationResult& b) {
  return a.ok == b.ok && a.reason == b.reason &&
         a.throughput == b.throughput &&
         a.required_throughput == b.required_throughput &&
         a.status == b.status;
}

void set_hops(ChannelRoute& route, int hops) {
  route.route.links.assign(static_cast<std::size_t>(hops),
                           platform::LinkId{0});
}

Inputs random_inputs(const graph::Application& app, util::Xoshiro256& rng) {
  Inputs in{app, {}, {}, {}, {}};
  for (const auto& task : app.tasks()) {
    in.impl_of.push_back(static_cast<int>(rng.uniform_int(
        0, static_cast<std::int64_t>(task.implementations().size()) - 1)));
  }
  in.element_of.assign(app.task_count(), platform::ElementId{0});
  in.routes.resize(app.channel_count());
  for (auto& route : in.routes) {
    set_hops(route, static_cast<int>(rng.uniform_int(0, 5)));
  }
  // Constraints on both sides of the typical throughput, and none at all.
  const std::int64_t roll = rng.uniform_int(0, 2);
  if (roll > 0) {
    in.app.set_throughput_constraint(roll == 1 ? 1e-4 : 0.5);
  }
  return in;
}

TEST(ValidationMemoPropertyTest, HitEqualsFreshAnalysis) {
  int cases = 0;
  for (const auto kind : gen::kAllDatasets) {
    util::Xoshiro256 rng(0x5EED0000u + static_cast<std::uint64_t>(kind));
    for (const auto& app : gen::make_dataset(kind, 6, 0xC0FFEE)) {
      const Inputs in = random_inputs(app, rng);
      const ValidationResult miss = validate_here(in);
      const ValidationResult hit = validate_here(in);
      const ValidationResult fresh = validate_fresh(in);
      expect_same(miss, fresh, app.name() + " (miss)");
      expect_same(hit, fresh, app.name() + " (hit)");
      ++cases;
    }
  }
  EXPECT_EQ(cases, 36);
}

TEST(ValidationMemoPropertyTest, ChangedInputNeverGetsStaleVerdict) {
  struct Mutation {
    const char* name;
    void (*apply)(Inputs&, util::Xoshiro256&);
  };
  const Mutation mutations[] = {
      {"one channel's hops",
       [](Inputs& in, util::Xoshiro256& rng) {
         auto& route = in.routes[static_cast<std::size_t>(rng.uniform_int(
             0, static_cast<std::int64_t>(in.routes.size()) - 1))];
         set_hops(route, route.route.hops() == 0
                             ? static_cast<int>(rng.uniform_int(1, 20))
                             : 0);
       }},
      {"one exec_time",
       [](Inputs& in, util::Xoshiro256& rng) {
         // A copy of the bound implementation differing only in exec_time,
         // bound in its place.
         const auto t = static_cast<std::size_t>(rng.uniform_int(
             0, static_cast<std::int64_t>(in.app.task_count()) - 1));
         graph::Task& task = in.app.task_mut(graph::TaskId{
             static_cast<std::int32_t>(t)});
         graph::Implementation slower =
             task.implementations()[static_cast<std::size_t>(in.impl_of[t])];
         slower.exec_time += rng.uniform_int(1, 40);
         task.add_implementation(slower);
         in.impl_of[t] = static_cast<int>(task.implementations().size()) - 1;
       }},
      {"buffer_factor",
       [](Inputs& in, util::Xoshiro256& rng) {
         in.config.buffer_factor = static_cast<int>(rng.uniform_int(3, 4));
       }},
      {"hop_latency",
       [](Inputs& in, util::Xoshiro256& rng) {
         in.config.hop_latency = 1.0 + static_cast<double>(
                                           rng.uniform_int(1, 8));
       }},
      {"constraint",
       [](Inputs& in, util::Xoshiro256& rng) {
         in.app.set_throughput_constraint(
             in.app.throughput_constraint() +
             0.01 * static_cast<double>(rng.uniform_int(1, 30)));
       }},
  };

  constexpr int kDraws = 4;
  for (const auto& mutation : mutations) {
    int changed_verdicts = 0;
    int cases = 0;
    for (const auto kind : gen::kAllDatasets) {
      util::Xoshiro256 rng(0xA11CE000u + static_cast<std::uint64_t>(kind));
      for (const auto& app : gen::make_dataset(kind, 6, 0xBEEF)) {
        // The verdict carries no state count, so one small change often
        // leaves it as it was (a channel off the critical cycle, a buffer
        // that does not limit the rate): draw inputs and a change of the
        // same kind, each pair checked, until one moves the verdict.
        bool moved = false;
        for (int draw = 0; draw < kDraws && !moved; ++draw) {
          const Inputs base = random_inputs(app, rng);
          const ValidationResult before = validate_here(base);  // warm it
          Inputs changed = base;
          mutation.apply(changed, rng);
          const ValidationResult fresh = validate_fresh(changed);
          expect_same(validate_here(changed), fresh,
                      app.name() + ": " + mutation.name);
          moved = !same(fresh, before);
        }
        if (moved) ++changed_verdicts;
        ++cases;
      }
    }
    // A stale verdict is only observable where the change moves the
    // verdict; most generated changes must, or the check proves little.
    EXPECT_GT(changed_verdicts, cases / 2) << mutation.name;
  }
}

}  // namespace
}  // namespace kairos::core

// Unit tests for the routing and validation phases.
#include <gtest/gtest.h>

#include "core/routing_phase.hpp"
#include "core/validation_phase.hpp"
#include "platform/builders.hpp"

namespace kairos::core {
namespace {

using graph::Application;
using graph::Implementation;
using graph::TaskId;
using platform::ElementId;
using platform::ElementType;
using platform::Platform;
using platform::ResourceVector;

Implementation impl(std::int64_t exec_time = 5) {
  Implementation i;
  i.name = "v";
  i.target = ElementType::kGeneric;
  i.requirement = ResourceVector(100, 10, 0, 0);
  i.cost = 1.0;
  i.exec_time = exec_time;
  return i;
}

Application two_task_app(std::int64_t bandwidth, std::int64_t exec_a = 5,
                         std::int64_t exec_b = 5) {
  Application app("two");
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  app.task_mut(a).add_implementation(impl(exec_a));
  app.task_mut(b).add_implementation(impl(exec_b));
  app.add_channel(a, b, bandwidth);
  return app;
}

// --- routing phase -------------------------------------------------------------

TEST(RoutingPhaseTest, RoutesAllChannels) {
  Platform p = platform::make_mesh(3, 3);
  const Application app = two_task_app(50);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{8}};
  const RoutingPhase routing;
  const auto result = routing.route(app, placement, p);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_EQ(result.routes.size(), 1u);
  EXPECT_EQ(result.routes[0].route.hops(), 4);
  EXPECT_DOUBLE_EQ(result.average_hops, 4.0);
  // Links are actually reserved.
  for (const auto l : result.routes[0].route.links) {
    EXPECT_EQ(p.link(l).vc_used(), 1);
    EXPECT_EQ(p.link(l).bw_used(), 50);
  }
}

TEST(RoutingPhaseTest, CoLocatedChannelNeedsNoLinks) {
  Platform p = platform::make_mesh(2, 2);
  const Application app = two_task_app(50);
  const std::vector<ElementId> placement{ElementId{1}, ElementId{1}};
  const RoutingPhase routing;
  const auto result = routing.route(app, placement, p);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.routes[0].route.hops(), 0);
  EXPECT_DOUBLE_EQ(result.average_hops, 0.0);
  for (const auto& link : p.links()) EXPECT_EQ(link.vc_used(), 0);
}

TEST(RoutingPhaseTest, FailureRollsBackAllRoutes) {
  // Two channels; the second cannot be routed because the only path is
  // saturated by pre-existing load.
  platform::BuilderConfig cfg;
  cfg.vc_capacity = 1;
  Platform p = platform::make_chain(3, cfg);

  Application app("three");
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  const TaskId c = app.add_task("c");
  for (const TaskId t : {a, b, c}) app.task_mut(t).add_implementation(impl());
  app.add_channel(a, b, 10);  // 0 -> 1 takes the only VC on that link
  app.add_channel(a, c, 10);  // 0 -> 2 needs the same first link: fails

  const std::vector<ElementId> placement{ElementId{0}, ElementId{1},
                                         ElementId{2}};
  const auto before = p.snapshot();
  const RoutingPhase routing;
  const auto result = routing.route(app, placement, p);
  EXPECT_FALSE(result.ok);
  const auto after = p.snapshot();
  for (std::size_t i = 0; i < before.links.size(); ++i) {
    EXPECT_EQ(before.links[i].vc_used, after.links[i].vc_used);
  }
}

TEST(RoutingPhaseTest, HighBandwidthChannelsRouteFirst) {
  // One saturating channel plus one tiny one sharing the only short path:
  // the heavy one must claim the short path (it routes first), the tiny one
  // detours.
  Platform p = platform::make_ring(4);
  Application app("pair");
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  app.task_mut(a).add_implementation(impl());
  app.task_mut(b).add_implementation(impl());
  app.add_channel(a, b, 60);    // added first, but light
  app.add_channel(a, b, 950);   // heavy: must go the 1-hop way
  const std::vector<ElementId> placement{ElementId{0}, ElementId{1}};
  const RoutingPhase routing;
  const auto result = routing.route(app, placement, p);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_EQ(result.routes[1].route.hops(), 1);
  EXPECT_EQ(result.routes[0].route.hops(), 3);
}

TEST(RoutingPhaseTest, DijkstraStrategyWorksToo) {
  Platform p = platform::make_mesh(3, 3);
  const Application app = two_task_app(50);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{8}};
  const RoutingPhase routing(noc::RoutingStrategy::kDijkstra);
  const auto result = routing.route(app, placement, p);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.routes[0].route.hops(), 4);
}

// --- validation phase -------------------------------------------------------------

TEST(ValidationPhaseTest, BuildsTransportActorsForRoutedChannels) {
  Platform p = platform::make_chain(3);
  const Application app = two_task_app(10);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{2}};
  const RoutingPhase routing;
  const auto routed = routing.route(app, placement, p);
  ASSERT_TRUE(routed.ok);

  const ValidationPhase validation;
  const auto g =
      validation.build_sdf(app, {0, 0}, placement, routed.routes);
  // 2 task actors + 1 transport actor.
  EXPECT_EQ(g.actor_count(), 3u);
  EXPECT_TRUE(g.is_consistent());
}

TEST(ValidationPhaseTest, CoLocatedChannelHasNoTransportActor) {
  Platform p = platform::make_chain(3);
  const Application app = two_task_app(10);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{0}};
  const RoutingPhase routing;
  const auto routed = routing.route(app, placement, p);
  ASSERT_TRUE(routed.ok);
  const ValidationPhase validation;
  const auto g = validation.build_sdf(app, {0, 0}, placement, routed.routes);
  EXPECT_EQ(g.actor_count(), 2u);
}

TEST(ValidationPhaseTest, UnconstrainedApplicationsAlwaysPass) {
  Platform p = platform::make_chain(3);
  Application app = two_task_app(10);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{2}};
  const RoutingPhase routing;
  const auto routed = routing.route(app, placement, p);
  const ValidationPhase validation;
  const auto result =
      validation.validate(app, {0, 0}, placement, routed.routes);
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.throughput, 0.0);
}

TEST(ValidationPhaseTest, SatisfiableConstraintPasses) {
  Platform p = platform::make_chain(3);
  Application app = two_task_app(10, 5, 5);
  // Pipeline of two 5-unit tasks plus transport: throughput ~1/5..1/10.
  app.set_throughput_constraint(0.05);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{1}};
  const RoutingPhase routing;
  const auto routed = routing.route(app, placement, p);
  const ValidationPhase validation;
  const auto result =
      validation.validate(app, {0, 0}, placement, routed.routes);
  EXPECT_TRUE(result.ok) << result.reason;
  EXPECT_GE(result.throughput, 0.05);
}

TEST(ValidationPhaseTest, UnsatisfiableConstraintFails) {
  Platform p = platform::make_chain(3);
  Application app = two_task_app(10, 50, 50);  // slow tasks
  app.set_throughput_constraint(0.5);          // impossible: 1/50 at best
  const std::vector<ElementId> placement{ElementId{0}, ElementId{1}};
  const RoutingPhase routing;
  const auto routed = routing.route(app, placement, p);
  const ValidationPhase validation;
  const auto result =
      validation.validate(app, {0, 0}, placement, routed.routes);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.reason.find("throughput"), std::string::npos);
}

TEST(ValidationPhaseTest, LongerRoutesReduceThroughput) {
  Platform p = platform::make_chain(6);
  Application app = two_task_app(10, 2, 2);
  const RoutingPhase routing;
  ValidationConfig config;
  config.hop_latency = 3.0;
  const ValidationPhase validation(config);

  const std::vector<ElementId> near{ElementId{0}, ElementId{1}};
  const auto routed_near = routing.route(app, near, p);
  const auto near_result =
      validation.validate(app, {0, 0}, near, routed_near.routes);

  p.clear_allocations();
  const std::vector<ElementId> far{ElementId{0}, ElementId{5}};
  const auto routed_far = routing.route(app, far, p);
  const auto far_result =
      validation.validate(app, {0, 0}, far, routed_far.routes);

  EXPECT_GT(near_result.throughput, far_result.throughput);
}

TEST(ValidationPhaseTest, ExactThroughputWithoutStateSpace) {
  // The model a 3-state budget used to cut short: validation now explores
  // no states and reports the analyzer's exact throughput.
  Platform p = platform::make_chain(3);
  Application app = two_task_app(10);
  const std::vector<ElementId> placement{ElementId{0}, ElementId{1}};
  const RoutingPhase routing;
  const auto routed = routing.route(app, placement, p);
  const ValidationPhase validation;
  const auto result =
      validation.validate(app, {0, 0}, placement, routed.routes);
  const auto exact = sdf::ThroughputAnalyzer().analyze(
      validation.build_sdf(app, {0, 0}, placement, routed.routes),
      ValidationPhase::observed_actor(app));
  ASSERT_EQ(exact.status, sdf::ThroughputStatus::kPeriodic);
  EXPECT_EQ(result.status, sdf::ThroughputStatus::kPeriodic);
  EXPECT_EQ(result.throughput, exact.throughput);
  EXPECT_TRUE(result.ok) << result.reason;
}

}  // namespace
}  // namespace kairos::core

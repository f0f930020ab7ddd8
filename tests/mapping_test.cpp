// Unit tests for the mapping cost model and the incremental mapping
// algorithm (MapApplication).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/cost_model.hpp"
#include "core/mapping.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "util/rng.hpp"

namespace kairos::core {
namespace {

using graph::Application;
using graph::Implementation;
using graph::TaskId;
using platform::ElementId;
using platform::ElementType;
using platform::Platform;
using platform::ResourceVector;

Implementation impl(ElementType target, std::int64_t compute, double cost) {
  Implementation i;
  i.name = "v";
  i.target = target;
  i.requirement = ResourceVector(compute, 10, 0, 0);
  i.cost = cost;
  i.exec_time = 5;
  return i;
}

/// A linear pipeline of `n` generic tasks with unit-bandwidth channels.
Application make_pipeline(int n, ElementType target = ElementType::kGeneric,
                          std::int64_t compute = 100,
                          std::int64_t bandwidth = 10) {
  Application app("pipeline");
  TaskId prev;
  for (int i = 0; i < n; ++i) {
    const TaskId t = app.add_task("t" + std::to_string(i));
    app.task_mut(t).add_implementation(impl(target, compute, 1.0));
    if (i > 0) app.add_channel(prev, t, bandwidth);
    prev = t;
  }
  return app;
}

std::vector<int> zero_impls(const Application& app) {
  return std::vector<int>(app.task_count(), 0);
}

PinTable no_pins(const Application& app) {
  return PinTable(app.task_count());
}

// --- DistanceOracle ----------------------------------------------------------

TEST(DistanceOracleTest, SetAndLookup) {
  DistanceOracle oracle(5);
  oracle.set(ElementId{1}, ElementId{2}, 5);
  ASSERT_TRUE(oracle.lookup(ElementId{1}, ElementId{2}).has_value());
  EXPECT_EQ(*oracle.lookup(ElementId{1}, ElementId{2}), 5);
  EXPECT_FALSE(oracle.lookup(ElementId{2}, ElementId{1}).has_value());
  EXPECT_EQ(oracle.size(), 1u);
}

TEST(DistanceOracleTest, InvalidIdsThrowOnSetAndMissOnLookup) {
  DistanceOracle oracle(4);
  oracle.set(ElementId{0}, ElementId{3}, 2);
  // An invalid element id, negative or past the platform, is never indexed
  // and never grows a row: set() throws, lookup() misses.
  EXPECT_THROW(oracle.set(ElementId{-1}, ElementId{0}, 1), std::out_of_range);
  EXPECT_THROW(oracle.set(ElementId{0}, ElementId{-1}, 1), std::out_of_range);
  EXPECT_THROW(oracle.set(ElementId{4}, ElementId{0}, 1), std::out_of_range);
  EXPECT_THROW(oracle.set(ElementId{0}, ElementId{4}, 1), std::out_of_range);
  EXPECT_THROW(oracle.set(ElementId{0}, ElementId{1}, -1),
               std::invalid_argument);
  EXPECT_FALSE(oracle.lookup(ElementId{-1}, ElementId{3}).has_value());
  EXPECT_FALSE(oracle.lookup(ElementId{0}, ElementId{-1}).has_value());
  EXPECT_FALSE(oracle.lookup(ElementId{0}, ElementId{1 << 30}).has_value());
  EXPECT_FALSE(oracle.lookup(ElementId{1 << 30}, ElementId{0}).has_value());
  EXPECT_EQ(oracle.lookup(ElementId{0}, ElementId{3}), 2);
  EXPECT_EQ(oracle.size(), 1u);
}

TEST(DistanceOracleTest, OverwriteKeepsOnePairAndClearEmpties) {
  DistanceOracle oracle(8);
  oracle.set(ElementId{5}, ElementId{6}, 3);
  oracle.set(ElementId{5}, ElementId{6}, 0);
  EXPECT_EQ(oracle.lookup(ElementId{5}, ElementId{6}), 0);
  EXPECT_FALSE(oracle.lookup(ElementId{5}, ElementId{7}).has_value());
  EXPECT_FALSE(oracle.lookup(ElementId{5}, ElementId{2}).has_value());
  EXPECT_EQ(oracle.size(), 1u);
  oracle.clear();
  EXPECT_EQ(oracle.size(), 0u);
  EXPECT_FALSE(oracle.lookup(ElementId{5}, ElementId{6}).has_value());
}

// --- PartialMapping ------------------------------------------------------------

TEST(PartialMappingTest, TracksAssignments) {
  PartialMapping m(3, 4);
  EXPECT_FALSE(m.is_mapped(TaskId{0}));
  m.assign(TaskId{0}, ElementId{2});
  m.assign(TaskId{1}, ElementId{2});
  EXPECT_TRUE(m.is_mapped(TaskId{0}));
  EXPECT_EQ(m.element_of(TaskId{0}), ElementId{2});
  EXPECT_EQ(m.app_tasks_on(ElementId{2}), 2);
  EXPECT_EQ(m.app_tasks_on(ElementId{0}), 0);
  EXPECT_EQ(m.mapped_count(), 2u);
}

// --- cost model ------------------------------------------------------------------

TEST(CostModelTest, CommunicationCostUsesDistanceTimesBandwidth) {
  Platform p = platform::make_chain(5);
  Application app = make_pipeline(2, ElementType::kGeneric, 100, 7);
  PartialMapping m(2, 5);
  DistanceOracle oracle(5);
  m.assign(TaskId{0}, ElementId{0});
  oracle.set(ElementId{0}, ElementId{3}, 3);

  MappingCostModel model({1.0, 0.0}, p, app);
  EXPECT_DOUBLE_EQ(model.communication_cost(TaskId{1}, ElementId{3}, m,
                                            oracle),
                   7.0 * 3.0);
}

TEST(CostModelTest, MissingDistanceChargesPenalty) {
  Platform p = platform::make_chain(5);
  Application app = make_pipeline(2, ElementType::kGeneric, 100, 2);
  PartialMapping m(2, 5);
  DistanceOracle oracle(5);  // empty: every lookup fails
  m.assign(TaskId{0}, ElementId{0});
  MappingCostModel model({1.0, 0.0}, p, app);
  EXPECT_DOUBLE_EQ(model.communication_cost(TaskId{1}, ElementId{4}, m,
                                            oracle),
                   2.0 * model.missing_distance_penalty());
  EXPECT_GT(model.missing_distance_penalty(), p.diameter());
}

TEST(CostModelTest, UnmappedPeersAreLeftOut) {
  Platform p = platform::make_chain(5);
  Application app = make_pipeline(3);
  PartialMapping m(3, 5);
  DistanceOracle oracle(5);
  MappingCostModel model({1.0, 0.0}, p, app);
  // Task 1's peers (0 and 2) are unmapped: no communication cost at all.
  EXPECT_DOUBLE_EQ(model.communication_cost(TaskId{1}, ElementId{2}, m,
                                            oracle),
                   0.0);
}

TEST(CostModelTest, CoLocationIsFree) {
  Platform p = platform::make_chain(5);
  Application app = make_pipeline(2);
  PartialMapping m(2, 5);
  DistanceOracle oracle(5);
  m.assign(TaskId{0}, ElementId{1});
  MappingCostModel model({1.0, 0.0}, p, app);
  EXPECT_DOUBLE_EQ(model.communication_cost(TaskId{1}, ElementId{1}, m,
                                            oracle),
                   0.0);
}

TEST(CostModelTest, FragmentationPrefersFriendlyNeighborhoods) {
  Platform p = platform::make_chain(5);  // 0-1-2-3-4
  Application app = make_pipeline(3);
  PartialMapping m(3, 5);
  DistanceOracle oracle(5);
  MappingCostModel model({0.0, 1.0}, p, app);

  // Element 2's neighbors are free: full fragmentation price (2 neighbors).
  const double empty_cost =
      model.fragmentation_cost(TaskId{1}, ElementId{2}, m);
  EXPECT_DOUBLE_EQ(empty_cost, 2.0);

  // A communication peer next door discounts more than a same-app stranger,
  // which discounts more than another application's task.
  m.assign(TaskId{0}, ElementId{1});  // peer of task 1
  const double near_peer = model.fragmentation_cost(TaskId{1}, ElementId{2}, m);
  const double near_same_app =
      model.fragmentation_cost(TaskId{2}, ElementId{3}, m);  // wait: t2 peers t1
  // Construct the other-app case via platform task counts only.
  p.add_task(ElementId{3});
  PartialMapping fresh(3, 5);
  const double near_other_app =
      model.fragmentation_cost(TaskId{1}, ElementId{2}, fresh);

  EXPECT_LT(near_peer, empty_cost);
  EXPECT_LT(near_other_app, empty_cost);
  EXPECT_LT(near_peer, near_other_app);
  (void)near_same_app;
}

TEST(CostModelTest, BorderElementsAreCheaper) {
  Platform p = platform::make_mesh(3, 3);
  Application app = make_pipeline(1);
  PartialMapping m(1, 9);
  MappingCostModel model({0.0, 1.0}, p, app);
  // Corner (degree 2) beats edge (degree 3) beats center (degree 4).
  const double corner = model.fragmentation_cost(TaskId{0}, ElementId{0}, m);
  const double edge = model.fragmentation_cost(TaskId{0}, ElementId{1}, m);
  const double center = model.fragmentation_cost(TaskId{0}, ElementId{4}, m);
  EXPECT_LT(corner, edge);
  EXPECT_LT(edge, center);
}

TEST(CostModelTest, WeightsScaleAndDisableObjectives) {
  Platform p = platform::make_chain(3);
  Application app = make_pipeline(2);
  PartialMapping m(2, 3);
  DistanceOracle oracle(3);
  m.assign(TaskId{0}, ElementId{0});
  oracle.set(ElementId{0}, ElementId{2}, 2);

  const MappingCostModel none(CostWeights::none(), p, app);
  EXPECT_DOUBLE_EQ(none.task_cost(TaskId{1}, ElementId{2}, m, oracle), 0.0);

  const MappingCostModel both({2.0, 3.0}, p, app);
  const MappingCostModel comm({2.0, 0.0}, p, app);
  const MappingCostModel frag({0.0, 3.0}, p, app);
  EXPECT_DOUBLE_EQ(both.task_cost(TaskId{1}, ElementId{2}, m, oracle),
                   comm.task_cost(TaskId{1}, ElementId{2}, m, oracle) +
                       frag.task_cost(TaskId{1}, ElementId{2}, m, oracle));
}

// --- IncrementalMapper -----------------------------------------------------------

TEST(MapperTest, MapsPipelineOntoMesh) {
  Platform p = platform::make_mesh(4, 4);
  Application app = make_pipeline(6);
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  ASSERT_TRUE(result.ok) << result.reason;
  // Every task mapped, resources allocated.
  for (const auto& task : app.tasks()) {
    const ElementId e = result.element_of[task.id().value];
    ASSERT_TRUE(e.valid());
    EXPECT_TRUE(p.element(e).is_used());
  }
  EXPECT_TRUE(p.invariants_hold());
  EXPECT_GE(result.stats.iterations, 1);
}

TEST(MapperTest, AdjacentTasksLandNearby) {
  Platform p = platform::make_mesh(6, 6);
  Application app = make_pipeline(5, ElementType::kGeneric, 600, 10);
  MapperConfig config;
  config.weights = {1.0, 0.2};
  const IncrementalMapper mapper(config);
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  ASSERT_TRUE(result.ok) << result.reason;
  // Each pipeline stage within a few hops of its predecessor (600-compute
  // tasks exclude co-location on 1000-compute elements).
  for (std::size_t i = 0; i + 1 < app.task_count(); ++i) {
    const auto d = p.hop_distances_from(result.element_of[i]);
    EXPECT_LE(d[static_cast<std::size_t>(result.element_of[i + 1].value)], 3)
        << "stage " << i;
  }
}

TEST(MapperTest, RollsBackOnFailure) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kGeneric;
  Platform p = platform::make_mesh(2, 2, cfg);  // 4 elements x 1000 compute
  Application app = make_pipeline(5, ElementType::kGeneric, 900);  // needs 5
  const auto before = p.snapshot();
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  EXPECT_FALSE(result.ok);
  const auto after = p.snapshot();
  for (std::size_t i = 0; i < before.elements.size(); ++i) {
    EXPECT_EQ(before.elements[i].used, after.elements[i].used);
    EXPECT_EQ(before.elements[i].task_count, after.elements[i].task_count);
  }
}

TEST(MapperTest, PinnedTaskAnchorsTheMapping) {
  platform::CrispLayout layout;
  Platform p = platform::make_crisp_platform(platform::CrispConfig{}, layout);
  Application app("a");
  const TaskId io = app.add_task("io");
  app.task_mut(io).add_implementation(impl(ElementType::kFpga, 100, 1.0));
  const TaskId worker = app.add_task("worker");
  app.task_mut(worker).add_implementation(impl(ElementType::kDsp, 600, 1.0));
  app.add_channel(io, worker, 10);

  PinTable pins(app.task_count());
  pins[0] = layout.fpga;
  MapperConfig config;
  config.weights = {1.0, 0.1};
  const IncrementalMapper mapper(config);
  const auto result = mapper.map(app, zero_impls(app), pins, p);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_EQ(result.element_of[0], layout.fpga);
  // The worker should sit near the FPGA, not across the board.
  const auto d = p.hop_distances_from(layout.fpga);
  EXPECT_LE(d[static_cast<std::size_t>(result.element_of[1].value)], 3);
}

TEST(MapperTest, UniqueElementTypeActsAsAnchor) {
  // One ARM in CRISP: an ARM-only task has |av| == 1 and seeds M0.
  Platform p = platform::make_crisp_platform();
  Application app("a");
  const TaskId host = app.add_task("host");
  app.task_mut(host).add_implementation(impl(ElementType::kArm, 100, 1.0));
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_EQ(p.element(result.element_of[0]).type(), ElementType::kArm);
}

TEST(MapperTest, FailsWhenNoElementCanHostATask) {
  Platform p = platform::make_mesh(2, 2);  // generic elements only
  Application app("a");
  const TaskId t = app.add_task("dsp-task");
  app.task_mut(t).add_implementation(impl(ElementType::kDsp, 100, 1.0));
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.reason.find("dsp-task"), std::string::npos);
}

TEST(MapperTest, HandlesDisconnectedApplications) {
  Platform p = platform::make_mesh(4, 4);
  Application app("two-islands");
  // Component 1: a -> b; component 2: c -> d.
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  const TaskId c = app.add_task("c");
  const TaskId d = app.add_task("d");
  for (const TaskId t : {a, b, c, d}) {
    app.task_mut(t).add_implementation(impl(ElementType::kGeneric, 300, 1.0));
  }
  app.add_channel(a, b, 10);
  app.add_channel(c, d, 10);
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_GE(result.stats.components, 2);
  for (const auto& task : app.tasks()) {
    EXPECT_TRUE(result.element_of[task.id().value].valid());
  }
}

TEST(MapperTest, SingleTaskApplication) {
  Platform p = platform::make_mesh(2, 2);
  Application app = make_pipeline(1);
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.element_of[0].valid());
}

TEST(MapperTest, TimeSharesElementsWhenTasksAreSmall) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kGeneric;
  Platform p = platform::make_chain(2, cfg);
  Application app = make_pipeline(6, ElementType::kGeneric, 300);
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  ASSERT_TRUE(result.ok) << result.reason;  // 6 x 300 fits 2 x 1000? no: 3+3
  std::set<std::int32_t> used;
  for (const auto& e : result.element_of) used.insert(e.value);
  EXPECT_EQ(used.size(), 2u);
  EXPECT_TRUE(p.invariants_hold());
}

TEST(MapperTest, ExactKnapsackVariantAlsoMaps) {
  Platform p = platform::make_mesh(4, 4);
  Application app = make_pipeline(6, ElementType::kGeneric, 400);
  MapperConfig config;
  config.exact_knapsack = true;
  const IncrementalMapper mapper(config);
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  EXPECT_TRUE(result.ok) << result.reason;
}

TEST(MapperTest, ExtraRingsGatherMoreCandidates) {
  Platform p1 = platform::make_mesh(5, 5);
  Platform p2 = platform::make_mesh(5, 5);
  Application app = make_pipeline(6, ElementType::kGeneric, 400);
  MapperConfig eager;
  eager.extra_rings = 0;
  MapperConfig roomy;
  roomy.extra_rings = 2;
  const auto r1 = IncrementalMapper(eager).map(app, zero_impls(app),
                                               no_pins(app), p1);
  const auto r2 = IncrementalMapper(roomy).map(app, zero_impls(app),
                                               no_pins(app), p2);
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_GE(r2.stats.gap_elements, r1.stats.gap_elements);
}

TEST(MapperTest, StarPlatformHubIsShared) {
  // On a star, everything maps to the hub neighborhood without failures.
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kGeneric;
  Platform p = platform::make_star(8, cfg);
  Application app = make_pipeline(6, ElementType::kGeneric, 500);
  const IncrementalMapper mapper;
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  EXPECT_TRUE(result.ok) << result.reason;
}

// Property: for random pipelines on random irregular platforms, a successful
// mapping always leaves the platform internally consistent, and a failed one
// leaves it untouched.
class MapperPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperPropertyTest, ConsistencyAndAtomicity) {
  util::Xoshiro256 rng(GetParam());
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kGeneric;
  Platform p = platform::make_irregular(
      static_cast<int>(rng.uniform_int(4, 20)),
      static_cast<int>(rng.uniform_int(0, 10)), GetParam(), cfg);
  Application app =
      make_pipeline(static_cast<int>(rng.uniform_int(1, 12)),
                    ElementType::kGeneric,
                    rng.uniform_int(100, 900), rng.uniform_int(1, 100));
  const auto before = p.snapshot();
  MapperConfig config;
  config.weights = {rng.uniform_real(0.0, 4.0), rng.uniform_real(0.0, 100.0)};
  const IncrementalMapper mapper(config);
  const auto result = mapper.map(app, zero_impls(app), no_pins(app), p);
  if (result.ok) {
    EXPECT_TRUE(p.invariants_hold());
    // Total allocated equals the sum of requirements.
    std::int64_t allocated = 0;
    for (const auto& e : p.elements()) allocated += e.used().compute();
    std::int64_t required = 0;
    for (const auto& t : app.tasks()) {
      required += t.implementations()[0].requirement.compute();
    }
    EXPECT_EQ(allocated, required);
  } else {
    const auto after = p.snapshot();
    for (std::size_t i = 0; i < before.elements.size(); ++i) {
      EXPECT_EQ(before.elements[i].used, after.elements[i].used);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, MapperPropertyTest,
                         ::testing::Range<std::uint64_t>(200, 240));

}  // namespace
}  // namespace kairos::core

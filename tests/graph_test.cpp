// Unit tests for the application model and its textual (de)serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/app_io.hpp"
#include "graph/application.hpp"

namespace kairos::graph {
namespace {

using platform::ElementType;
using platform::ResourceVector;

Implementation dsp_impl(std::int64_t compute = 100, double cost = 1.0) {
  Implementation impl;
  impl.name = "v0";
  impl.target = ElementType::kDsp;
  impl.requirement = ResourceVector(compute, 10, 0, 0);
  impl.cost = cost;
  impl.exec_time = 5;
  return impl;
}

/// a -> b -> d, a -> c -> d (diamond).
Application make_diamond() {
  Application app("diamond");
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  const TaskId c = app.add_task("c");
  const TaskId d = app.add_task("d");
  for (const TaskId t : {a, b, c, d}) {
    app.task_mut(t).add_implementation(dsp_impl());
  }
  app.add_channel(a, b, 10);
  app.add_channel(a, c, 20);
  app.add_channel(b, d, 30);
  app.add_channel(c, d, 40);
  return app;
}

TEST(ApplicationTest, DegreesAndNeighbors) {
  const Application app = make_diamond();
  EXPECT_EQ(app.task_count(), 4u);
  EXPECT_EQ(app.channel_count(), 4u);
  EXPECT_EQ(app.degree(TaskId{0}), 2);
  EXPECT_EQ(app.degree(TaskId{1}), 2);
  const auto n = app.neighbors(TaskId{0});
  EXPECT_EQ(n.size(), 2u);
  EXPECT_TRUE(std::find(n.begin(), n.end(), TaskId{1}) != n.end());
  EXPECT_TRUE(std::find(n.begin(), n.end(), TaskId{2}) != n.end());
}

TEST(ApplicationTest, NeighborsAreDeduplicated) {
  Application app;
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  app.task_mut(a).add_implementation(dsp_impl());
  app.task_mut(b).add_implementation(dsp_impl());
  app.add_channel(a, b, 1);
  app.add_channel(b, a, 1);  // both directions
  EXPECT_EQ(app.neighbors(a).size(), 1u);
  EXPECT_EQ(app.degree(a), 2);  // but degree counts both channels
}

TEST(ApplicationTest, MinDegreeTasks) {
  Application app = make_diamond();
  const TaskId e = app.add_task("leaf");
  app.task_mut(e).add_implementation(dsp_impl());
  app.add_channel(TaskId{3}, e, 1);
  const auto min_tasks = app.min_degree_tasks();
  ASSERT_EQ(min_tasks.size(), 1u);
  EXPECT_EQ(min_tasks.front(), e);
}

TEST(ApplicationTest, BfsLevels) {
  const Application app = make_diamond();
  const auto level = app.bfs_levels({TaskId{0}});
  EXPECT_EQ(level[0], 0);
  EXPECT_EQ(level[1], 1);
  EXPECT_EQ(level[2], 1);
  EXPECT_EQ(level[3], 2);
}

TEST(ApplicationTest, BfsLevelsMultipleSeeds) {
  const Application app = make_diamond();
  const auto level = app.bfs_levels({TaskId{0}, TaskId{3}});
  EXPECT_EQ(level[0], 0);
  EXPECT_EQ(level[3], 0);
  EXPECT_EQ(level[1], 1);
}

TEST(ApplicationTest, Connectivity) {
  Application app = make_diamond();
  EXPECT_TRUE(app.is_connected());
  app.add_task("orphan");
  app.task_mut(TaskId{4}).add_implementation(dsp_impl());
  EXPECT_FALSE(app.is_connected());
  Application empty;
  EXPECT_TRUE(empty.is_connected());
}

TEST(ApplicationValidateTest, AcceptsWellFormed) {
  EXPECT_TRUE(make_diamond().validate().ok());
}

TEST(ApplicationValidateTest, RejectsTaskWithoutImplementation) {
  Application app;
  app.add_task("t");
  const auto r = app.validate();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("no implementations"), std::string::npos);
}

TEST(ApplicationValidateTest, RejectsSelfLoop) {
  Application app;
  const TaskId a = app.add_task("a");
  app.task_mut(a).add_implementation(dsp_impl());
  app.add_channel(a, a, 1);
  EXPECT_FALSE(app.validate().ok());
}

TEST(ApplicationValidateTest, RejectsNonPositiveExecTime) {
  Application app;
  const TaskId a = app.add_task("a");
  Implementation impl = dsp_impl();
  impl.exec_time = 0;
  app.task_mut(a).add_implementation(impl);
  EXPECT_FALSE(app.validate().ok());
}

TEST(ApplicationValidateTest, RejectsNonPositiveTokens) {
  Application app;
  const TaskId a = app.add_task("a");
  const TaskId b = app.add_task("b");
  app.task_mut(a).add_implementation(dsp_impl());
  app.task_mut(b).add_implementation(dsp_impl());
  app.add_channel(a, b, 1, 0);
  EXPECT_FALSE(app.validate().ok());
}

TEST(ApplicationTest, PinnedState) {
  Application app;
  const TaskId a = app.add_task("a");
  EXPECT_FALSE(app.task(a).pinned().has_value());
  app.task_mut(a).set_pinned(platform::ElementId{3});
  EXPECT_EQ(app.task(a).pinned()->value, 3);
  app.task_mut(a).clear_pinned();
  EXPECT_FALSE(app.task(a).pinned().has_value());
}

// --- copy-on-write ------------------------------------------------------------

/// Everything a mutator can change: the serialized form, plus the pins by
/// element id and the adjacency lists, which the text does not carry.
std::string contents(const Application& app) {
  std::string out = write_application(app);
  for (const Task& t : app.tasks()) {
    out += " pin=" + std::to_string(t.pinned() ? t.pinned()->value : -1);
    out += " out=" + std::to_string(app.out_channels(t.id()).size());
    out += " in=" + std::to_string(app.in_channels(t.id()).size());
  }
  return out;
}

/// Each mutator of the application, applied to `app`.
std::vector<void (*)(Application&)> mutators() {
  return {
      [](Application& app) { app.set_name("renamed"); },
      [](Application& app) { app.set_throughput_constraint(0.5); },
      [](Application& app) {
        app.task_mut(app.add_task("e")).add_implementation(dsp_impl());
      },
      [](Application& app) { app.add_channel(TaskId{3}, TaskId{0}, 7); },
      [](Application& app) {
        app.task_mut(TaskId{1}).add_implementation(dsp_impl(50, 2.0));
      },
      [](Application& app) {
        app.task_mut(TaskId{2}).set_pinned(platform::ElementId{4});
      },
  };
}

TEST(ApplicationCopyOnWriteTest, CopiesShareTheBodyUntilAMutation) {
  const Application original = make_diamond();
  Application copy = original;
  EXPECT_EQ(&copy.tasks(), &original.tasks());
  EXPECT_EQ(&copy.name(), &original.name());
  copy.set_name("copy");
  EXPECT_NE(&copy.tasks(), &original.tasks());
  EXPECT_EQ(original.name(), "diamond");
  // The copy's own body is not copied again by later mutations.
  const std::vector<Task>* own = &copy.tasks();
  copy.add_channel(TaskId{0}, TaskId{3}, 1);
  EXPECT_EQ(&copy.tasks(), own);
}

TEST(ApplicationCopyOnWriteTest, MutatingTheOriginalLeavesACopyUnchanged) {
  const auto all = mutators();
  for (std::size_t m = 0; m < all.size(); ++m) {
    Application original = make_diamond();
    const std::string before = contents(original);
    const Application copy = original;
    all[m](original);
    EXPECT_NE(contents(original), before) << "mutator " << m;
    EXPECT_EQ(contents(copy), before) << "mutator " << m;
  }
}

TEST(ApplicationCopyOnWriteTest, MutatingACopyLeavesTheOriginalUnchanged) {
  const auto all = mutators();
  for (std::size_t m = 0; m < all.size(); ++m) {
    const Application original = make_diamond();
    const std::string before = contents(original);
    Application copy = original;
    Application assigned;
    assigned = original;
    all[m](copy);
    all[m](assigned);
    EXPECT_NE(contents(copy), before) << "mutator " << m;
    EXPECT_EQ(contents(assigned), contents(copy)) << "mutator " << m;
    EXPECT_EQ(contents(original), before) << "mutator " << m;
  }
}

TEST(ApplicationCopyOnWriteTest, EmptyAndMovedFromApplications) {
  const Application empty;
  EXPECT_EQ(empty.name(), "");
  EXPECT_EQ(empty.task_count(), 0u);
  EXPECT_EQ(empty.channel_count(), 0u);
  EXPECT_DOUBLE_EQ(empty.throughput_constraint(), 0.0);
  EXPECT_TRUE(empty.validate().ok());
  Application copy = empty;
  copy.add_task("a");
  EXPECT_EQ(copy.task_count(), 1u);
  EXPECT_EQ(empty.task_count(), 0u);

  Application source = make_diamond();
  const std::string before = contents(source);
  Application moved = std::move(source);
  EXPECT_EQ(contents(moved), before);
  // A moved-from application is empty and can be built up again.
  source = Application("again");  // NOLINT(bugprone-use-after-move)
  source.add_task("x");
  EXPECT_EQ(source.task_count(), 1u);
  EXPECT_EQ(contents(moved), before);
  const Application& alias = moved;
  moved = alias;  // self-assignment keeps the body
  EXPECT_EQ(contents(moved), before);
}

// --- (de)serialization ------------------------------------------------------

TEST(AppIoTest, RoundTripPreservesStructure) {
  Application app = make_diamond();
  app.set_throughput_constraint(0.25);
  app.task_mut(TaskId{0}).set_pinned_name("fpga");
  const std::string text = write_application(app);
  const auto parsed = parse_application(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const Application& copy = parsed.value();
  EXPECT_EQ(copy.name(), "diamond");
  EXPECT_EQ(copy.task_count(), app.task_count());
  EXPECT_EQ(copy.channel_count(), app.channel_count());
  EXPECT_DOUBLE_EQ(copy.throughput_constraint(), 0.25);
  EXPECT_EQ(copy.task(TaskId{0}).pinned_name(), "fpga");
  for (std::size_t c = 0; c < app.channel_count(); ++c) {
    EXPECT_EQ(copy.channels()[c].bandwidth, app.channels()[c].bandwidth);
    EXPECT_EQ(copy.channels()[c].src, app.channels()[c].src);
  }
  const auto& impl = copy.task(TaskId{1}).implementations().front();
  EXPECT_EQ(impl.target, ElementType::kDsp);
  EXPECT_EQ(impl.requirement, ResourceVector(100, 10, 0, 0));
}

TEST(AppIoTest, ParsesCommentsAndBlankLines) {
  const std::string text = R"(
# a comment
application demo

task a
  impl v0 DSP 10 10 0 0 1.5 5   # trailing comment
task b
  impl v0 ARM 10 10 0 0 1 5
channel a b 7 2
end
)";
  const auto parsed = parse_application(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().task_count(), 2u);
  EXPECT_EQ(parsed.value().channels().front().tokens, 2);
  EXPECT_DOUBLE_EQ(
      parsed.value().task(TaskId{0}).implementations().front().cost, 1.5);
}

TEST(AppIoTest, ErrorsCarryLineNumbers) {
  const auto r = parse_application(
      "application x\ntask a\n  impl v0 BOGUS 1 1 0 0 1 1\nend\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("line 3"), std::string::npos);
}

TEST(AppIoTest, RejectsUnknownDirective) {
  const auto r = parse_application("application x\nfrobnicate\nend\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("frobnicate"), std::string::npos);
}

TEST(AppIoTest, RejectsChannelToUnknownTask) {
  const auto r = parse_application(
      "application x\ntask a\n  impl v0 DSP 1 1 0 0 1 1\n"
      "channel a ghost 5\nend\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("ghost"), std::string::npos);
}

TEST(AppIoTest, RejectsDuplicateTaskNames) {
  const auto r = parse_application(
      "application x\ntask a\n  impl v0 DSP 1 1 0 0 1 1\ntask a\nend\n");
  EXPECT_FALSE(r.ok());
}

TEST(AppIoTest, RejectsMissingEnd) {
  const auto r =
      parse_application("application x\ntask a\n  impl v0 DSP 1 1 0 0 1 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("end"), std::string::npos);
}

TEST(AppIoTest, RejectsMissingApplication) {
  const auto r = parse_application("end\n");
  EXPECT_FALSE(r.ok());
}

TEST(AppIoTest, RejectsImplOutsideTask) {
  const auto r =
      parse_application("application x\n  impl v0 DSP 1 1 0 0 1 1\nend\n");
  EXPECT_FALSE(r.ok());
}

TEST(AppIoTest, ValidationRunsOnParsedResult) {
  // Parses fine syntactically, but task 'a' has no implementation.
  const auto r = parse_application("application x\ntask a\nend\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("no implementations"), std::string::npos);
}

TEST(AppIoTest, ElementTypeNames) {
  EXPECT_TRUE(parse_element_type("ARM").ok());
  EXPECT_TRUE(parse_element_type("FPGA").ok());
  EXPECT_TRUE(parse_element_type("DSP").ok());
  EXPECT_TRUE(parse_element_type("MEM").ok());
  EXPECT_TRUE(parse_element_type("TEST").ok());
  EXPECT_TRUE(parse_element_type("GEN").ok());
  EXPECT_FALSE(parse_element_type("dsp").ok());
}

}  // namespace
}  // namespace kairos::graph

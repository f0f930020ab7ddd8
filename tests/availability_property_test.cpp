// Property tests for the incremental availability index: under randomized
// allocate/release/fault/repair churn — including transaction rollbacks that
// force invalidation and rebuilds — every query the index answers must match
// a linear recount over the element array (the seed implementation the index
// replaced), and Platform::availability_consistent() must hold throughout.
// A second suite drives the same invariant through the resource manager's
// heavier flows: correlated fault circumvention and defragmentation.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/resource_manager.hpp"
#include "platform/builders.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace kairos {
namespace {

using platform::ElementId;
using platform::ElementType;
using platform::Platform;
using platform::ResourceVector;

// --- linear ground truth (the pre-index implementations) --------------------

int linear_count(const Platform& p, ElementType t, const ResourceVector& d) {
  int n = 0;
  for (const auto& e : p.elements()) {
    if (!e.is_failed() && e.type() == t && d.fits_within(e.free())) ++n;
  }
  return n;
}

ResourceVector linear_total_free(const Platform& p, ElementType t) {
  ResourceVector sum;
  for (const auto& e : p.elements()) {
    if (!e.is_failed() && e.type() == t) sum += e.free();
  }
  return sum;
}

ElementId linear_first(const Platform& p, ElementType t,
                       const ResourceVector& d) {
  for (const auto& e : p.elements()) {
    if (!e.is_failed() && e.type() == t && d.fits_within(e.free())) {
      return e.id();
    }
  }
  return ElementId{};
}

/// A platform mixing three element types with uneven capacities, so the
/// per-type trees have different shapes (including non-power-of-two sizes).
Platform mixed_platform() {
  Platform p("churn");
  constexpr ElementType kTypes[] = {ElementType::kDsp, ElementType::kArm,
                                    ElementType::kMemory};
  for (int i = 0; i < 57; ++i) {
    const ElementType t = kTypes[i % 3];
    p.add_element(t, "e" + std::to_string(i),
                  ResourceVector(1000 + 100 * (i % 5), 512, 64, 8));
  }
  return p;
}

void expect_queries_match(const Platform& p, util::Xoshiro256& rng) {
  constexpr ElementType kTypes[] = {ElementType::kDsp, ElementType::kArm,
                                    ElementType::kMemory};
  for (const ElementType t : kTypes) {
    const ResourceVector demand(rng.uniform_int(0, 1200),
                                rng.uniform_int(0, 600), 0, 0);
    ASSERT_EQ(p.count_available(t, demand), linear_count(p, t, demand));
    ASSERT_EQ(p.total_free(t), linear_total_free(p, t));
    if (p.availability_ready()) {
      ASSERT_EQ(p.availability().first_available(t, demand),
                linear_first(p, t, demand));
    }
  }
}

TEST(AvailabilityPropertyTest, RandomChurnMatchesLinearRecount) {
  Platform p = mixed_platform();
  p.ensure_availability();
  util::Xoshiro256 rng(0xC0FFEE);

  const auto n = static_cast<std::int64_t>(p.element_count());
  std::vector<std::pair<ElementId, ResourceVector>> live;

  for (int iter = 0; iter < 3000; ++iter) {
    const std::int64_t op = rng.uniform_int(0, 99);
    const ElementId e{static_cast<std::int32_t>(rng.uniform_int(0, n - 1))};

    if (op < 45) {
      const ResourceVector demand(rng.uniform_int(1, 500),
                                  rng.uniform_int(0, 200), 0, 0);
      if (p.allocate(e, demand)) live.emplace_back(e, demand);
    } else if (op < 70) {
      if (!live.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        p.release(live[i].first, live[i].second);
        live[i] = live.back();
        live.pop_back();
      }
    } else if (op < 80) {
      p.set_element_failed(e, true);
    } else if (op < 90) {
      p.set_element_failed(e, false);
    } else if (op < 96) {
      // A rolled-back transaction bulk-restores element state, which
      // invalidates the index; the next ensure must rebuild it correctly.
      {
        platform::Transaction txn(p);
        for (int k = 0; k < 4; ++k) {
          const ElementId t{
              static_cast<std::int32_t>(rng.uniform_int(0, n - 1))};
          (void)p.allocate(t, ResourceVector(100, 10, 0, 0));
        }
      }
      ASSERT_TRUE(p.availability_consistent());
      p.ensure_availability();
    } else {
      expect_queries_match(p, rng);
    }

    if (iter % 16 == 0) {
      ASSERT_TRUE(p.availability_consistent()) << "iteration " << iter;
    }
  }

  // Drain every live allocation; the index must land exactly on the fresh
  // platform's state.
  for (const auto& [element, demand] : live) p.release(element, demand);
  ASSERT_TRUE(p.availability_consistent());
  util::Xoshiro256 check_rng(0xFEED);
  expect_queries_match(p, check_rng);
}

// --- churn through the resource manager's heavy flows ------------------------

graph::Application small_dsp_app(const std::string& name) {
  graph::Application app(name);
  graph::Implementation impl;
  impl.name = "v";
  impl.target = ElementType::kDsp;
  impl.requirement = ResourceVector(300, 64, 0, 0);
  impl.exec_time = 4;
  const graph::TaskId a = app.add_task("a");
  const graph::TaskId b = app.add_task("b");
  const graph::TaskId c = app.add_task("c");
  app.task_mut(a).add_implementation(impl);
  app.task_mut(b).add_implementation(impl);
  app.task_mut(c).add_implementation(impl);
  app.add_channel(a, b, 10);
  app.add_channel(b, c, 10);
  return app;
}

TEST(AvailabilityPropertyTest, ConsistentThroughFaultSetAndDefragChurn) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  Platform p = platform::make_mesh(6, 6, cfg);
  core::ResourceManager kairos(p);
  util::Xoshiro256 rng(0xDEFA);

  std::vector<std::int64_t> handles;
  for (int i = 0; i < 8; ++i) {
    const auto report = kairos.admit(small_dsp_app("app" + std::to_string(i)));
    if (report.admitted) handles.push_back(report.handle);
  }
  ASSERT_FALSE(handles.empty());
  ASSERT_TRUE(p.availability_consistent());

  for (int round = 0; round < 12; ++round) {
    // A correlated two-element fault: eviction, re-admission around the dead
    // set, and the index must agree with a recount afterwards.
    const ElementId f0{static_cast<std::int32_t>(rng.uniform_int(0, 35))};
    const ElementId f1{static_cast<std::int32_t>(rng.uniform_int(0, 35))};
    const auto fault = kairos.circumvent_fault_set({f0, f1});
    for (const std::int64_t lost : fault.lost_handles) {
      handles.erase(std::find(handles.begin(), handles.end(), lost));
    }
    ASSERT_TRUE(p.availability_consistent()) << "after fault, round " << round;
    ASSERT_EQ(p.count_available(ElementType::kDsp, ResourceVector(1, 0, 0, 0)),
              linear_count(p, ElementType::kDsp, ResourceVector(1, 0, 0, 0)));

    kairos.repair_element(f0);
    kairos.repair_element(f1);
    ASSERT_TRUE(p.availability_consistent());

    // Churn membership, then defragment (bulk remove + re-admit).
    if (handles.size() > 2 && rng.uniform_int(0, 1) == 0) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(handles.size()) - 1));
      ASSERT_TRUE(kairos.remove(handles[i]).ok());
      handles[i] = handles.back();
      handles.pop_back();
    }
    const auto report =
        kairos.admit(small_dsp_app("fill" + std::to_string(round)));
    if (report.admitted) handles.push_back(report.handle);
    kairos.defragment();
    ASSERT_TRUE(p.availability_consistent()) << "after defrag, round "
                                             << round;
  }
}

}  // namespace
}  // namespace kairos

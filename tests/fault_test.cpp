// Tests for fault injection: failed elements and links are avoided by every
// phase, and the resource manager supports the remove-and-readmit recovery
// flow the paper's introduction motivates.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/resource_manager.hpp"
#include "noc/router.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"

namespace kairos {
namespace {

using platform::ElementId;
using platform::ElementType;
using platform::LinkId;
using platform::Platform;
using platform::ResourceVector;

/// The non-failed DSPs with `compute` free, from the platform's index.
std::vector<ElementId> available_dsps(const Platform& p, std::int64_t compute) {
  std::vector<ElementId> out;
  p.availability().collect_available(
      ElementType::kDsp, ResourceVector(compute, 0, 0, 0), ElementId{},
      std::numeric_limits<std::size_t>::max(), out);
  return out;
}

graph::Application dsp_pair_app(std::int64_t compute = 600) {
  graph::Application app("pair");
  const graph::TaskId a = app.add_task("a");
  const graph::TaskId b = app.add_task("b");
  graph::Implementation impl;
  impl.name = "v";
  impl.target = ElementType::kDsp;
  impl.requirement = ResourceVector(compute, 64, 0, 0);
  impl.exec_time = 5;
  app.task_mut(a).add_implementation(impl);
  app.task_mut(b).add_implementation(impl);
  app.add_channel(a, b, 20);
  return app;
}

TEST(FaultTest, FailedElementsAreExcludedFromAvailability) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  Platform p = platform::make_mesh(2, 2, cfg);
  EXPECT_EQ(available_dsps(p, 100).size(), 4u);
  p.set_element_failed(ElementId{0}, true);
  p.set_element_failed(ElementId{1}, true);
  EXPECT_EQ(available_dsps(p, 100),
            (std::vector<ElementId>{ElementId{2}, ElementId{3}}));
  EXPECT_EQ(p.failed_element_count(), 2);
  p.set_element_failed(ElementId{0}, false);
  EXPECT_EQ(p.failed_element_count(), 1);
}

TEST(FaultTest, RouterAvoidsFailedLinks) {
  Platform p = platform::make_ring(6);
  const auto direct = p.find_link(ElementId{0}, ElementId{1});
  ASSERT_TRUE(direct.has_value());
  p.set_link_failed(*direct, true);
  EXPECT_FALSE(p.link_usable(*direct));
  const noc::Router router;
  const auto route = router.find_route(p, ElementId{0}, ElementId{1}, 10);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->hops(), 5);  // the long way around
}

TEST(FaultTest, RouterAvoidsFailedIntermediateElements) {
  Platform p = platform::make_chain(4);  // 0-1-2-3
  p.set_element_failed(ElementId{1}, true);
  const noc::Router router;
  // The only path 0 -> 3 passes through the dead element.
  EXPECT_FALSE(router.find_route(p, ElementId{0}, ElementId{3}, 10)
                   .has_value());
}

TEST(FaultTest, MapperAvoidsFailedElements) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  Platform p = platform::make_mesh(3, 3, cfg);
  // Fail everything except elements 7 and 8.
  for (int i = 0; i < 7; ++i) {
    p.set_element_failed(ElementId{i}, true);
  }
  core::ResourceManager kairos(p);
  const auto report = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(report.admitted) << report.reason;
  for (const auto& placement : report.layout.placements()) {
    EXPECT_GE(placement.element.value, 7);
  }
}

TEST(FaultTest, AdmissionFailsWhenAllElementsOfATypeAreDead) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  Platform p = platform::make_mesh(2, 2, cfg);
  for (int i = 0; i < 4; ++i) p.set_element_failed(ElementId{i}, true);
  core::ResourceManager kairos(p);
  const auto report = kairos.admit(dsp_pair_app());
  EXPECT_FALSE(report.admitted);
  EXPECT_EQ(report.failed_phase, core::Phase::kBinding);
}

TEST(FaultTest, AppsUsingIdentifiesAffectedApplications) {
  Platform p = platform::make_crisp_platform();
  core::ResourceManager kairos(p);
  const auto r1 = kairos.admit(dsp_pair_app());
  const auto r2 = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(r1.admitted && r2.admitted);
  const ElementId victim = r1.layout.placement(graph::TaskId{0}).element;
  const auto affected = kairos.apps_using(victim);
  EXPECT_FALSE(affected.empty());
  for (const auto h : affected) {
    EXPECT_TRUE(h == r1.handle || h == r2.handle);
  }
  // r1 is certainly among them.
  EXPECT_NE(std::find(affected.begin(), affected.end(), r1.handle),
            affected.end());
}

TEST(FaultTest, RecoveryFlowRemapsAroundTheFault) {
  Platform p = platform::make_crisp_platform();
  core::ResourceManager kairos(p);
  const auto report = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(report.admitted);
  const ElementId victim = report.layout.placement(graph::TaskId{0}).element;

  // Fault hits: release the affected application, mark the element dead,
  // re-admit.
  for (const auto h : kairos.apps_using(victim)) {
    ASSERT_TRUE(kairos.remove(h).ok());
  }
  p.set_element_failed(victim, true);
  const auto retry = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(retry.admitted) << retry.reason;
  for (const auto& placement : retry.layout.placements()) {
    EXPECT_NE(placement.element, victim);
  }
  EXPECT_TRUE(p.invariants_hold());
}

TEST(FaultTest, SnapshotsDoNotResurrectFailedElements) {
  Platform p = platform::make_chain(3);
  const auto snap = p.snapshot();
  p.set_element_failed(ElementId{1}, true);
  p.restore(snap);
  // Failure is topology state, not allocation state.
  EXPECT_TRUE(p.element(ElementId{1}).is_failed());
}

// --- fault circumvention (ResourceManager::circumvent_fault) -------------------

TEST(FaultCircumventionTest, VictimsAreRemovedReadmittedAndKeepHandles) {
  Platform p = platform::make_crisp_platform();
  core::ResourceManager kairos(p);
  // k applications sharing one element, plus one bystander elsewhere.
  const auto r1 = kairos.admit(dsp_pair_app());
  const auto r2 = kairos.admit(dsp_pair_app());
  const auto r3 = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(r1.admitted && r2.admitted && r3.admitted);
  const ElementId victim = r1.layout.placement(graph::TaskId{0}).element;
  const auto affected = kairos.apps_using(victim);
  ASSERT_FALSE(affected.empty());
  const auto live_before = kairos.live_handles();

  const auto report = kairos.circumvent_fault(victim);
  EXPECT_EQ(report.victims, static_cast<int>(affected.size()));
  EXPECT_EQ(report.victims, report.recovered + report.lost);
  // CRISP has plenty of spare DSPs: everyone is re-admitted elsewhere.
  EXPECT_EQ(report.lost, 0);
  EXPECT_TRUE(report.lost_handles.empty());
  // Handles survive the circumvention (departure schedules stay valid).
  EXPECT_EQ(kairos.live_handles(), live_before);
  // Nothing lives on the dead element anymore.
  EXPECT_TRUE(kairos.apps_using(victim).empty());
  EXPECT_TRUE(p.element(victim).is_failed());
  for (const auto handle : affected) {
    for (const auto& [element, demand] : kairos.allocations_of(handle)) {
      EXPECT_NE(element, victim);
    }
  }
  EXPECT_TRUE(p.invariants_hold());
}

TEST(FaultCircumventionTest, OverloadedPlatformReportsLostApplications) {
  // 2x2 all-DSP mesh where each app consumes over a third of an element:
  // losing one element makes the original population infeasible.
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  Platform p = platform::make_mesh(2, 2, cfg);
  core::ResourceManager kairos(p);
  std::vector<core::AdmissionReport> admitted;
  for (;;) {
    auto report = kairos.admit(dsp_pair_app(400));
    if (!report.admitted) break;
    admitted.push_back(std::move(report));
  }
  ASSERT_GE(admitted.size(), 2u);

  const ElementId victim =
      admitted.front().layout.placement(graph::TaskId{0}).element;
  const auto live_before = static_cast<long>(kairos.live_count());
  const auto report = kairos.circumvent_fault(victim);
  EXPECT_GT(report.victims, 0);
  EXPECT_EQ(report.victims, report.recovered + report.lost);
  EXPECT_GT(report.lost, 0);  // capacity shrank below the population
  EXPECT_EQ(static_cast<int>(report.lost_handles.size()), report.lost);
  EXPECT_EQ(static_cast<long>(kairos.live_count()),
            live_before - report.lost);
  // Lost handles are really gone.
  for (const auto handle : report.lost_handles) {
    EXPECT_FALSE(kairos.remove(handle).ok());
  }
  EXPECT_TRUE(p.invariants_hold());
}

TEST(FaultCircumventionTest, CorrelatedSetEvictsSpanningVictimsExactlyOnce) {
  // An application whose two tasks sit on two different elements of the
  // failing set must be counted as ONE victim and re-admitted around the
  // whole set — not bounced from member to member (evicted by the first
  // element's fault, re-admitted onto the second, evicted again).
  Platform p = platform::make_crisp_platform();
  core::ResourceManager kairos(p);
  const auto admitted = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(admitted.admitted);
  const ElementId first = admitted.layout.placement(graph::TaskId{0}).element;
  const ElementId second =
      admitted.layout.placement(graph::TaskId{1}).element;
  ASSERT_NE(first, second);

  const auto report = kairos.circumvent_fault_set({first, second});
  EXPECT_EQ(report.victims, 1);
  EXPECT_EQ(report.recovered, 1);
  EXPECT_EQ(report.lost, 0);
  EXPECT_TRUE(p.element(first).is_failed());
  EXPECT_TRUE(p.element(second).is_failed());
  // The survivor avoids every member of the dead set.
  for (const auto& [element, demand] : kairos.allocations_of(admitted.handle)) {
    EXPECT_NE(element, first);
    EXPECT_NE(element, second);
  }
  EXPECT_TRUE(p.invariants_hold());

  // A single-element set is exactly circumvent_fault.
  const auto single = kairos.circumvent_fault_set({ElementId{0}});
  EXPECT_EQ(single.element, ElementId{0});
  EXPECT_TRUE(p.element(ElementId{0}).is_failed());
}

TEST(FaultCircumventionTest, RepairedElementBecomesAllocatableAgain) {
  platform::BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  Platform p = platform::make_mesh(2, 2, cfg);
  core::ResourceManager kairos(p);

  const auto faulted = kairos.circumvent_fault(ElementId{0});
  EXPECT_EQ(faulted.victims, 0);  // nothing was running there
  EXPECT_EQ(available_dsps(p, 100),
            (std::vector<ElementId>{ElementId{1}, ElementId{2}, ElementId{3}}));

  kairos.repair_element(ElementId{0});
  EXPECT_FALSE(p.element(ElementId{0}).is_failed());
  EXPECT_EQ(available_dsps(p, 100).size(), 4u);

  // The repaired element can actually host work again: fail the other
  // three, leaving it as the only DSP pair candidate... (a pair needs two
  // elements, so keep one neighbor alive too).
  p.set_element_failed(ElementId{2}, true);
  p.set_element_failed(ElementId{3}, true);
  const auto report = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(report.admitted) << report.reason;
  bool uses_repaired = false;
  for (const auto& placement : report.layout.placements()) {
    if (placement.element == ElementId{0}) uses_repaired = true;
  }
  EXPECT_TRUE(uses_repaired);
  EXPECT_TRUE(p.invariants_hold());
}

// --- link-fault circumvention (ResourceManager::circumvent_link_fault) ---------

TEST(LinkFaultCircumventionTest, AppsUsingLinkFindsRouteOwners) {
  Platform p = platform::make_crisp_platform();
  core::ResourceManager kairos(p);
  const auto report = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(report.admitted);
  // The pair communicates, so some link carries its channel.
  std::vector<LinkId> used;
  for (const auto& link : p.links()) {
    if (link.vc_used() > 0) used.push_back(link.id());
  }
  ASSERT_FALSE(used.empty());
  for (const auto l : used) {
    const auto owners = kairos.apps_using_link(l);
    ASSERT_EQ(owners.size(), 1u);
    EXPECT_EQ(owners[0], report.handle);
  }
  // A virgin link belongs to nobody.
  for (const auto& link : p.links()) {
    if (link.vc_used() == 0) {
      EXPECT_TRUE(kairos.apps_using_link(link.id()).empty());
      break;
    }
  }
}

TEST(LinkFaultCircumventionTest, VictimsAreReroutedAroundTheDeadLink) {
  Platform p = platform::make_crisp_platform();
  core::ResourceManager kairos(p);
  const auto admitted = kairos.admit(dsp_pair_app());
  ASSERT_TRUE(admitted.admitted);
  LinkId victim{};
  for (const auto& link : p.links()) {
    if (link.vc_used() > 0) {
      victim = link.id();
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  const auto live_before = kairos.live_handles();

  const auto report = kairos.circumvent_link_fault(victim);
  EXPECT_EQ(report.link, victim);
  EXPECT_FALSE(report.element.valid());  // a link fault, not an element one
  EXPECT_EQ(report.victims, 1);
  EXPECT_EQ(report.victims, report.recovered + report.lost);
  // CRISP has plenty of alternative paths: the app is re-admitted.
  EXPECT_EQ(report.lost, 0);
  EXPECT_EQ(kairos.live_handles(), live_before);  // handle preserved
  EXPECT_TRUE(p.link(victim).is_failed());
  EXPECT_FALSE(p.link_usable(victim));
  // Nothing routes over the dead wire anymore.
  EXPECT_TRUE(kairos.apps_using_link(victim).empty());
  EXPECT_EQ(p.link(victim).vc_used(), 0);
  EXPECT_TRUE(p.invariants_hold());
}

TEST(LinkFaultCircumventionTest, RepairedLinkCarriesRoutesAgain) {
  // A 2-element chain: the only route a->b uses the only forward link, so
  // failing it strands the pair until the link is repaired.
  Platform p = platform::make_chain(2);
  core::ResourceManager kairos(p);
  graph::Application app("pair");
  const graph::TaskId a = app.add_task("a");
  const graph::TaskId b = app.add_task("b");
  graph::Implementation impl;
  impl.name = "v";
  impl.target = ElementType::kGeneric;
  impl.requirement = ResourceVector(600, 64, 0, 0);
  impl.exec_time = 5;
  app.task_mut(a).add_implementation(impl);
  app.task_mut(b).add_implementation(impl);
  app.add_channel(a, b, 20);

  const auto first = kairos.admit(app);
  ASSERT_TRUE(first.admitted) << first.reason;
  // The channel crosses the chain in one of the two directions; fail the
  // idle direction up front so the circumvented app cannot simply flip its
  // placement and route the other way.
  const auto forward = p.find_link(ElementId{0}, ElementId{1});
  const auto backward = p.find_link(ElementId{1}, ElementId{0});
  ASSERT_TRUE(forward.has_value() && backward.has_value());
  const LinkId used =
      p.link(*forward).vc_used() > 0 ? *forward : *backward;
  const LinkId idle = used == *forward ? *backward : *forward;
  p.set_link_failed(idle, true);

  const auto report = kairos.circumvent_link_fault(used);
  EXPECT_EQ(report.victims, 1);
  // Capacity-wise the app still fits (the tasks are too big to share one
  // element), but its channel has no usable path in either direction: the
  // victim is lost, not recovered.
  EXPECT_EQ(report.lost, 1);
  EXPECT_EQ(kairos.live_count(), 0u);

  kairos.repair_link(used);
  kairos.repair_link(idle);
  EXPECT_FALSE(p.link(used).is_failed());
  const auto retry = kairos.admit(app);
  EXPECT_TRUE(retry.admitted) << retry.reason;
  EXPECT_TRUE(p.invariants_hold());
}

// --- wear tracking -------------------------------------------------------------

TEST(WearTest, WearAccumulatesAcrossClearAllocations) {
  Platform p = platform::make_chain(2);
  p.add_task(ElementId{0});
  p.add_task(ElementId{0});
  EXPECT_EQ(p.element(ElementId{0}).wear(), 2);
  p.clear_allocations();
  EXPECT_EQ(p.element(ElementId{0}).task_count(), 0);
  EXPECT_EQ(p.element(ElementId{0}).wear(), 2);  // history preserved
}

TEST(WearTest, RolledBackAttemptsDoNotAge) {
  Platform p = platform::make_chain(2);
  {
    platform::Transaction txn(p);
    p.add_task(ElementId{0});
  }
  EXPECT_EQ(p.element(ElementId{0}).wear(), 0);
}

}  // namespace
}  // namespace kairos

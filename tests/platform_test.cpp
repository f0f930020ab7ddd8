// Unit tests for the platform module: resource vectors, the platform graph,
// allocation state, snapshots/transactions, builders, CRISP, fragmentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "platform/fragmentation.hpp"
#include "platform/platform.hpp"
#include "platform/resource_vector.hpp"

namespace kairos::platform {
namespace {

// --- ResourceVector ---------------------------------------------------------

TEST(ResourceVectorTest, DefaultIsZero) {
  ResourceVector v;
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.total(), 0);
}

TEST(ResourceVectorTest, ComponentAccess) {
  ResourceVector v(100, 200, 3, 4);
  EXPECT_EQ(v.compute(), 100);
  EXPECT_EQ(v.memory(), 200);
  EXPECT_EQ(v.io(), 3);
  EXPECT_EQ(v.config(), 4);
  v.set(ResourceKind::kCompute, 7);
  EXPECT_EQ(v.get(ResourceKind::kCompute), 7);
}

TEST(ResourceVectorTest, Arithmetic) {
  const ResourceVector a(10, 20, 1, 0);
  const ResourceVector b(5, 5, 1, 0);
  EXPECT_EQ((a + b), ResourceVector(15, 25, 2, 0));
  EXPECT_EQ((a - b), ResourceVector(5, 15, 0, 0));
}

TEST(ResourceVectorTest, FitsWithinIsComponentWise) {
  const ResourceVector cap(100, 100, 10, 10);
  EXPECT_TRUE(ResourceVector(100, 100, 10, 10).fits_within(cap));
  EXPECT_TRUE(ResourceVector(0, 0, 0, 0).fits_within(cap));
  // One oversubscribed component fails even if others are far under.
  EXPECT_FALSE(ResourceVector(101, 0, 0, 0).fits_within(cap));
  EXPECT_FALSE(ResourceVector(0, 0, 11, 0).fits_within(cap));
}

TEST(ResourceVectorTest, AnyNegative) {
  EXPECT_FALSE(ResourceVector(1, 0, 0, 0).any_negative());
  EXPECT_TRUE((ResourceVector(0, 0, 0, 0) - ResourceVector(1, 0, 0, 0))
                  .any_negative());
}

TEST(ResourceVectorTest, UtilisationPicksWorstDimension) {
  const ResourceVector cap(1000, 100, 10, 10);
  EXPECT_DOUBLE_EQ(ResourceVector(500, 10, 0, 0).utilisation_of(cap), 0.5);
  EXPECT_DOUBLE_EQ(ResourceVector(100, 90, 0, 0).utilisation_of(cap), 0.9);
  // Demanding a kind with zero capacity can never fit.
  const ResourceVector zero_io(1000, 100, 0, 10);
  EXPECT_TRUE(std::isinf(ResourceVector(1, 1, 1, 1).utilisation_of(zero_io)));
}

TEST(ResourceVectorTest, ToStringFormat) {
  EXPECT_EQ(ResourceVector(1, 2, 3, 4).to_string(), "1/2/3/4");
}

// --- Platform topology ------------------------------------------------------

TEST(PlatformTest, AddElementsAndLinks) {
  Platform p("test");
  const ElementId a = p.add_element(ElementType::kDsp, "a",
                                    ResourceVector(100, 100, 1, 1));
  const ElementId b = p.add_element(ElementType::kDsp, "b",
                                    ResourceVector(100, 100, 1, 1));
  EXPECT_EQ(p.element_count(), 2u);
  p.add_duplex_link(a, b, 4, 100);
  EXPECT_EQ(p.link_count(), 2u);
  EXPECT_EQ(p.out_links(a).size(), 1u);
  EXPECT_EQ(p.in_links(a).size(), 1u);
  EXPECT_EQ(p.neighbors(a).size(), 1u);
  EXPECT_EQ(p.degree(a), 1);
  EXPECT_TRUE(p.find_link(a, b).has_value());
  EXPECT_TRUE(p.find_link(b, a).has_value());
}

TEST(PlatformTest, ParallelLinksDoNotDuplicateNeighbors) {
  Platform p;
  const ElementId a =
      p.add_element(ElementType::kGeneric, "a", ResourceVector(1, 1, 1, 1));
  const ElementId b =
      p.add_element(ElementType::kGeneric, "b", ResourceVector(1, 1, 1, 1));
  p.add_link(a, b, 1, 10);
  p.add_link(a, b, 1, 10);
  EXPECT_EQ(p.out_links(a).size(), 2u);
  EXPECT_EQ(p.neighbors(a).size(), 1u);
}

TEST(PlatformTest, HopDistances) {
  Platform p = make_chain(5);
  const auto d = p.hop_distances_from(ElementId{0});
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(p.diameter(), 4);
}

TEST(PlatformTest, HopDistancesUnreachable) {
  Platform p;
  p.add_element(ElementType::kGeneric, "a", ResourceVector(1, 1, 1, 1));
  p.add_element(ElementType::kGeneric, "b", ResourceVector(1, 1, 1, 1));
  const auto d = p.hop_distances_from(ElementId{0});
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], -1);
}

// --- allocation state ---------------------------------------------------------

TEST(PlatformAllocTest, AllocateRespectsCapacity) {
  Platform p;
  const ElementId e =
      p.add_element(ElementType::kDsp, "e", ResourceVector(100, 50, 1, 1));
  EXPECT_TRUE(p.allocate(e, ResourceVector(60, 10, 0, 0)));
  EXPECT_FALSE(p.allocate(e, ResourceVector(60, 10, 0, 0)));  // over compute
  EXPECT_TRUE(p.allocate(e, ResourceVector(40, 40, 1, 1)));   // exact fill
  EXPECT_EQ(p.element(e).free(), ResourceVector(0, 0, 0, 0));
  p.release(e, ResourceVector(60, 10, 0, 0));
  EXPECT_EQ(p.element(e).free(), ResourceVector(60, 10, 0, 0));
  EXPECT_TRUE(p.invariants_hold());
}

TEST(PlatformAllocTest, TaskCountsDriveIsUsed) {
  Platform p;
  const ElementId e =
      p.add_element(ElementType::kDsp, "e", ResourceVector(100, 50, 1, 1));
  EXPECT_FALSE(p.element(e).is_used());
  p.add_task(e);
  p.add_task(e);
  EXPECT_TRUE(p.element(e).is_used());
  EXPECT_EQ(p.element(e).task_count(), 2);
  p.remove_task(e);
  EXPECT_TRUE(p.element(e).is_used());
  p.remove_task(e);
  EXPECT_FALSE(p.element(e).is_used());
}

/// The elements of `type` covering `demand`, from the platform's index.
std::vector<ElementId> available(const Platform& p, ElementType type,
                                 const ResourceVector& demand) {
  std::vector<ElementId> out;
  p.availability().collect_available(
      type, demand, ElementId{}, std::numeric_limits<std::size_t>::max(), out);
  return out;
}

TEST(PlatformAllocTest, AllocationRemovesAnElementFromTheAvailableList) {
  Platform p;
  const ElementId a =
      p.add_element(ElementType::kDsp, "a", ResourceVector(100, 100, 1, 1));
  const ElementId b =
      p.add_element(ElementType::kDsp, "b", ResourceVector(100, 100, 1, 1));
  const ElementId c =
      p.add_element(ElementType::kArm, "c", ResourceVector(500, 100, 1, 1));
  const ResourceVector demand(80, 0, 0, 0);
  EXPECT_EQ(available(p, ElementType::kDsp, demand),
            (std::vector<ElementId>{a, b}));
  ASSERT_TRUE(p.allocate(a, ResourceVector(50, 0, 0, 0)));
  EXPECT_EQ(available(p, ElementType::kDsp, demand),
            (std::vector<ElementId>{b}));
  EXPECT_EQ(available(p, ElementType::kArm, ResourceVector(400, 0, 0, 0)),
            (std::vector<ElementId>{c}));
  p.release(a, ResourceVector(50, 0, 0, 0));
  EXPECT_EQ(available(p, ElementType::kDsp, demand),
            (std::vector<ElementId>{a, b}));
}

TEST(PlatformAllocTest, ChannelAllocation) {
  Platform p;
  const ElementId a =
      p.add_element(ElementType::kDsp, "a", ResourceVector(1, 1, 1, 1));
  const ElementId b =
      p.add_element(ElementType::kDsp, "b", ResourceVector(1, 1, 1, 1));
  const LinkId l = p.add_link(a, b, 2, 100);
  EXPECT_TRUE(p.allocate_channel(l, 60));
  EXPECT_FALSE(p.allocate_channel(l, 60));  // bandwidth exceeded
  EXPECT_TRUE(p.allocate_channel(l, 40));
  EXPECT_FALSE(p.allocate_channel(l, 0));  // virtual channels exhausted
  p.release_channel(l, 60);
  EXPECT_TRUE(p.allocate_channel(l, 10));
  EXPECT_TRUE(p.invariants_hold());
}

TEST(PlatformAllocTest, LinkLoadFraction) {
  Platform p;
  const ElementId a =
      p.add_element(ElementType::kDsp, "a", ResourceVector(1, 1, 1, 1));
  const ElementId b =
      p.add_element(ElementType::kDsp, "b", ResourceVector(1, 1, 1, 1));
  const LinkId l = p.add_link(a, b, 4, 200);
  EXPECT_DOUBLE_EQ(p.link(l).load(), 0.0);
  ASSERT_TRUE(p.allocate_channel(l, 50));
  EXPECT_DOUBLE_EQ(p.link(l).load(), 0.25);
}

// --- snapshots & transactions ---------------------------------------------------

TEST(SnapshotTest, RestoreUndoesEverything) {
  Platform p = make_mesh(2, 2);
  const Snapshot before = p.snapshot();
  ASSERT_TRUE(p.allocate(ElementId{0}, ResourceVector(100, 0, 0, 0)));
  p.add_task(ElementId{0});
  ASSERT_TRUE(p.allocate_channel(p.out_links(ElementId{0}).front(), 10));
  p.restore(before);
  EXPECT_TRUE(p.element(ElementId{0}).used().is_zero());
  EXPECT_FALSE(p.element(ElementId{0}).is_used());
  EXPECT_EQ(p.link(p.out_links(ElementId{0}).front()).bw_used(), 0);
}

TEST(SnapshotTest, CopiesShareTopologyUntilEdited) {
  // Copies share the adjacency lists; an edit on either side must clone
  // them first, so neither ever sees the other's edits.
  Platform original = make_mesh(3, 3);
  const Platform copy = original;
  EXPECT_EQ(&copy.out_links(ElementId{4}), &original.out_links(ElementId{4}));
  EXPECT_EQ(copy.search_serial(), original.search_serial());
  const auto out_before = copy.out_links(ElementId{0});
  const auto in_before = copy.in_links(ElementId{8});
  const auto neighbors_before = copy.neighbors(ElementId{0});

  const ElementId added = original.add_element(
      ElementType::kGeneric, "x", ResourceVector{1, 1, 1, 1});
  original.add_duplex_link(ElementId{0}, added, 1, 10);
  original.add_link(ElementId{0}, ElementId{8}, 1, 10);
  EXPECT_EQ(original.element_count(), 10u);
  EXPECT_EQ(original.out_links(ElementId{0}).size(), out_before.size() + 2);

  EXPECT_EQ(copy.element_count(), 9u);
  EXPECT_EQ(copy.link_count(), 24u);
  EXPECT_EQ(copy.out_links(ElementId{0}), out_before);
  EXPECT_EQ(copy.in_links(ElementId{8}), in_before);
  EXPECT_EQ(copy.neighbors(ElementId{0}), neighbors_before);
  EXPECT_NE(copy.search_serial(), original.search_serial());

  // And the other way round: editing a copy leaves the original alone.
  Platform second = original;
  second.add_link(ElementId{1}, ElementId{7}, 1, 10);
  EXPECT_EQ(original.out_links(ElementId{1}).size() + 1,
            second.out_links(ElementId{1}).size());
}

TEST(SnapshotTest, ElementFaultsChangeTheSearchSerialOfOneCopyOnly) {
  Platform original = make_mesh(2, 2);
  const Platform copy = original;
  original.set_element_failed(ElementId{1}, true);
  EXPECT_NE(copy.search_serial(), original.search_serial());
  const std::uint64_t failed = original.search_serial();
  original.set_element_failed(ElementId{1}, false);
  EXPECT_NE(original.search_serial(), failed);
  EXPECT_NE(original.search_serial(), copy.search_serial());
  // Allocation state and link faults do not shape the search trees.
  const std::uint64_t repaired = original.search_serial();
  original.set_link_failed(LinkId{0}, true);
  ASSERT_TRUE(original.allocate_channel(LinkId{1}, 1));
  EXPECT_EQ(original.search_serial(), repaired);
}

TEST(TransactionTest, RollsBackUnlessCommitted) {
  Platform p = make_mesh(2, 2);
  {
    Transaction txn(p);
    ASSERT_TRUE(p.allocate(ElementId{1}, ResourceVector(10, 10, 0, 0)));
  }  // destructor rolls back
  EXPECT_TRUE(p.element(ElementId{1}).used().is_zero());
  {
    Transaction txn(p);
    ASSERT_TRUE(p.allocate(ElementId{1}, ResourceVector(10, 10, 0, 0)));
    txn.commit();
  }
  EXPECT_EQ(p.element(ElementId{1}).used().compute(), 10);
}

TEST(TransactionTest, ExplicitRollback) {
  Platform p = make_mesh(2, 2);
  Transaction txn(p);
  ASSERT_TRUE(p.allocate(ElementId{2}, ResourceVector(5, 5, 0, 0)));
  txn.rollback();
  EXPECT_TRUE(p.element(ElementId{2}).used().is_zero());
}

TEST(PlatformTest, ClearAllocations) {
  Platform p = make_mesh(2, 2);
  ASSERT_TRUE(p.allocate(ElementId{0}, ResourceVector(10, 0, 0, 0)));
  p.add_task(ElementId{0});
  ASSERT_TRUE(p.allocate_channel(LinkId{0}, 10));
  p.clear_allocations();
  EXPECT_TRUE(p.element(ElementId{0}).used().is_zero());
  EXPECT_EQ(p.element(ElementId{0}).task_count(), 0);
  EXPECT_EQ(p.link(LinkId{0}).vc_used(), 0);
}

// --- builders -----------------------------------------------------------------

TEST(BuildersTest, MeshShape) {
  Platform p = make_mesh(4, 3);
  EXPECT_EQ(p.element_count(), 12u);
  // 2*(w-1)*h + 2*w*(h-1) directed links.
  EXPECT_EQ(p.link_count(), 2u * (3 * 3 + 4 * 2));
  // Corners have degree 2, interior 4.
  EXPECT_EQ(p.degree(ElementId{0}), 2);
  EXPECT_EQ(p.degree(ElementId{5}), 4);
}

TEST(BuildersTest, TorusIsRegular) {
  Platform p = make_torus(4, 4);
  for (const auto& e : p.elements()) {
    EXPECT_EQ(p.degree(e.id()), 4) << e.name();
  }
  EXPECT_EQ(p.diameter(), 4);
}

TEST(BuildersTest, TwoWideTorusDoublesItsLinks) {
  // In a dimension of size 2 the wrap-around neighbor is the plain
  // neighbor: that pair gets two parallel duplex links, in every build.
  const Platform p = make_torus(2, 3);
  EXPECT_EQ(p.element_count(), 6u);
  EXPECT_EQ(p.link_count(), 6u * 4);
  int parallel = 0;
  for (const LinkId l : p.out_links(ElementId{0})) {
    if (p.link(l).dst() == ElementId{1}) ++parallel;
  }
  EXPECT_EQ(parallel, 2);
  EXPECT_EQ(p.degree(ElementId{0}), 3);
  EXPECT_THROW(make_torus(1, 3), std::invalid_argument);
  EXPECT_THROW(make_torus(3, 0), std::invalid_argument);
}

TEST(BuildersTest, RingAndChainAndStar) {
  EXPECT_EQ(make_ring(6).diameter(), 3);
  EXPECT_EQ(make_chain(6).diameter(), 5);
  const Platform star = make_star(5);
  EXPECT_EQ(star.degree(ElementId{0}), 4);
  EXPECT_EQ(star.diameter(), 2);
}

TEST(BuildersTest, IrregularIsConnectedAndDeterministic) {
  const Platform a = make_irregular(20, 10, 42);
  const Platform b = make_irregular(20, 10, 42);
  EXPECT_EQ(a.link_count(), b.link_count());
  const auto d = a.hop_distances_from(ElementId{0});
  EXPECT_TRUE(std::all_of(d.begin(), d.end(), [](int x) { return x >= 0; }));
}

TEST(BuildersTest, CustomElementType) {
  BuilderConfig cfg;
  cfg.element_type = ElementType::kDsp;
  const Platform p = make_mesh(2, 2, cfg);
  for (const auto& e : p.elements()) {
    EXPECT_EQ(e.type(), ElementType::kDsp);
  }
}

// --- CRISP -------------------------------------------------------------------

TEST(CrispTest, ElementInventoryMatchesThePaper) {
  CrispLayout layout;
  const Platform p = make_crisp_platform(CrispConfig{}, layout);
  EXPECT_EQ(p.element_count(), 62u);  // 45 DSP + 10 MEM + 5 TEST + ARM + FPGA
  EXPECT_EQ(layout.dsps.size(), 45u);
  EXPECT_EQ(layout.memories.size(), 10u);
  EXPECT_EQ(layout.test_units.size(), 5u);
  int dsp = 0, mem = 0, test = 0, arm = 0, fpga = 0;
  for (const auto& e : p.elements()) {
    switch (e.type()) {
      case ElementType::kDsp: ++dsp; break;
      case ElementType::kMemory: ++mem; break;
      case ElementType::kTestUnit: ++test; break;
      case ElementType::kArm: ++arm; break;
      case ElementType::kFpga: ++fpga; break;
      default: break;
    }
  }
  EXPECT_EQ(dsp, 45);
  EXPECT_EQ(mem, 10);
  EXPECT_EQ(test, 5);
  EXPECT_EQ(arm, 1);
  EXPECT_EQ(fpga, 1);
}

TEST(CrispTest, FullyConnected) {
  const Platform p = make_crisp_platform();
  const auto d = p.hop_distances_from(ElementId{0});
  EXPECT_TRUE(std::all_of(d.begin(), d.end(), [](int x) { return x >= 0; }));
}

TEST(CrispTest, MastersReachEveryPackage) {
  CrispLayout layout;
  const Platform p = make_crisp_platform(CrispConfig{}, layout);
  // The board interconnect gives the FPGA and the ARM one link per package.
  EXPECT_EQ(p.degree(layout.fpga), 5);
  EXPECT_EQ(p.degree(layout.arm), 5);
}

TEST(CrispTest, PackagesAreAnnotated) {
  CrispLayout layout;
  const Platform p = make_crisp_platform(CrispConfig{}, layout);
  EXPECT_EQ(p.element(layout.dsps[0]).package(), 0);
  EXPECT_EQ(p.element(layout.dsps[44]).package(), 4);
  EXPECT_EQ(p.element(layout.arm).package(), -1);
}

TEST(CrispTest, ScalesWithConfig) {
  CrispConfig cfg;
  cfg.packages = 2;
  cfg.mesh_width = 2;
  const Platform p = make_crisp_platform(cfg);
  // 2 packages x (4 DSP + 2 MEM + 1 TEST) + ARM + FPGA.
  EXPECT_EQ(p.element_count(), 16u);
}

// --- fragmentation --------------------------------------------------------------

TEST(FragmentationTest, EmptyPlatformIsZero) {
  const Platform p = make_mesh(3, 3);
  EXPECT_DOUBLE_EQ(external_fragmentation(p), 0.0);
  EXPECT_DOUBLE_EQ(element_utilisation(p), 0.0);
}

TEST(FragmentationTest, SingleUsedElementFragmentsItsNeighborhood) {
  Platform p = make_chain(3);  // pairs: (0,1), (1,2)
  p.add_task(ElementId{1});
  // Both pairs have exactly one used element.
  EXPECT_DOUBLE_EQ(external_fragmentation(p), 1.0);
  p.add_task(ElementId{0});
  p.add_task(ElementId{2});
  EXPECT_DOUBLE_EQ(external_fragmentation(p), 0.0);  // all used
}

TEST(FragmentationTest, HalfFragmentedChain) {
  Platform p = make_chain(5);  // pairs: 4
  p.add_task(ElementId{0});
  p.add_task(ElementId{1});
  // Pair (1,2) is mixed; (0,1) both used; (2,3),(3,4) both free.
  EXPECT_DOUBLE_EQ(external_fragmentation(p), 0.25);
}

TEST(FragmentationTest, ResourceUtilisation) {
  Platform p = make_mesh(2, 2);  // four 1000-compute elements
  ASSERT_TRUE(p.allocate(ElementId{0}, ResourceVector(1000, 0, 0, 0)));
  EXPECT_DOUBLE_EQ(resource_utilisation(p, ResourceKind::kCompute), 0.25);
}

TEST(FragmentationTest, IsolationRiskRanksSurroundedElements) {
  Platform p = make_chain(4);
  p.add_task(ElementId{1});
  // Element 2 has one of one... element 0's single neighbor (1) is used;
  // element 3's single neighbor (2) is free.
  EXPECT_GT(isolation_risk(p, ElementId{0}), isolation_risk(p, ElementId{3}));
  // Interior elements get a smaller border bias than leaves.
  Platform q = make_chain(3);
  EXPECT_GT(isolation_risk(q, ElementId{0}), isolation_risk(q, ElementId{1}));
}

// --- hop cache & diameter ----------------------------------------------------

/// Ground truth: one BFS per element, max finite distance.
int brute_force_diameter(const Platform& p) {
  int diameter = 0;
  for (const auto& e : p.elements()) {
    const auto dist = p.hop_distances_from(e.id());
    for (const int d : dist) diameter = std::max(diameter, d);
  }
  return diameter;
}

TEST(HopCacheTest, RowsMatchDirectBfsAndAreStable) {
  Platform p = make_mesh(4, 3);
  const auto cache = p.hop_cache();
  for (const auto& e : p.elements()) {
    EXPECT_EQ(cache->row(p, e.id()), p.hop_distances_from(e.id()));
  }
  // Rows are built once; repeated access returns the same storage.
  const auto* row0 = cache->row(p, ElementId{0}).data();
  EXPECT_EQ(cache->row(p, ElementId{0}).data(), row0);
}

TEST(HopCacheTest, AllocationStateDoesNotInvalidate) {
  Platform p = make_mesh(3, 3);
  const auto before = p.hop_cache();
  ASSERT_TRUE(p.allocate(ElementId{4}, ResourceVector(100, 0, 0, 0)));
  p.add_task(ElementId{4});
  EXPECT_EQ(p.hop_cache().get(), before.get());  // hops are pure topology
}

TEST(HopCacheTest, TopologyEditInvalidates) {
  Platform p = make_chain(3);
  const int before = p.diameter();
  EXPECT_EQ(before, 2);
  const ElementId extra =
      p.add_element(ElementType::kGeneric, "tail", ResourceVector(10, 0, 0, 0));
  p.add_link(ElementId{2}, extra, 4, 100);
  p.add_link(extra, ElementId{2}, 4, 100);
  EXPECT_EQ(p.diameter(), 3);
}

// The diameter feeds the cost model's missing-distance penalty, so the iFUB
// implementation must be *exact* — not an estimate — on every topology
// shape, including the regular ones where a poorly rooted search degrades.
TEST(HopCacheTest, DiameterIsExactAcrossTopologies) {
  const Platform shapes[] = {
      make_mesh(7, 7),   make_mesh(12, 3), make_torus(6, 6),
      make_torus(5, 4),  make_ring(17),    make_star(9),
      make_chain(11),    make_irregular(40, 25, 0xD1A),
      make_irregular(60, 10, 0xBEEF),
  };
  for (const Platform& p : shapes) {
    EXPECT_EQ(p.diameter(), brute_force_diameter(p)) << p.name();
  }
}

TEST(HopCacheTest, DiameterOfDisconnectedPlatformSpansComponents) {
  // Two disjoint chains of different lengths: the diameter is the larger
  // component's, and unreachable pairs (-1 in the rows) are ignored.
  Platform p("split");
  for (int i = 0; i < 9; ++i) {
    p.add_element(ElementType::kGeneric, "e" + std::to_string(i),
                  ResourceVector(10, 0, 0, 0));
  }
  auto link = [&](int a, int b) {
    p.add_link(ElementId{a}, ElementId{b}, 4, 100);
    p.add_link(ElementId{b}, ElementId{a}, 4, 100);
  };
  link(0, 1);
  link(1, 2);           // chain of 3: diameter 2
  for (int i = 3; i < 8; ++i) link(i, i + 1);  // chain of 6: diameter 5
  EXPECT_EQ(p.diameter(), 5);
  EXPECT_EQ(p.diameter(), brute_force_diameter(p));
  EXPECT_EQ(p.hop_cache()->row(p, ElementId{0})[8], -1);
}

TEST(HopCacheTest, SingleElementAndEmpty) {
  Platform empty("empty");
  EXPECT_EQ(empty.diameter(), 0);
  Platform one("one");
  one.add_element(ElementType::kGeneric, "only", ResourceVector(1, 0, 0, 0));
  EXPECT_EQ(one.diameter(), 0);
}

}  // namespace
}  // namespace kairos::platform

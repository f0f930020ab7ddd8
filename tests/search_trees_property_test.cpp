// Property tests for the per-origin search trees (platform/search_trees.hpp)
// against test-local copies of the searches they replaced:
//  * the BFS router, which reads a route out of its source's cached tree
//    and falls back to a live BFS when a link on that path is blocked,
//    against the plain live BFS, on random meshes, tori (2-wide ones, with
//    parallel links, included), irregular graphs and CRISP, under random
//    saturation, link and element faults, repairs, topology edits and
//    random bandwidths. Routes must be equal link for link;
//  * the mapper's RingSearch, which reads ring slices of the trees, against
//    the per-origin live BFS it replaced: the same rings in the same order
//    and the same DistanceOracle contents after start() and every ring.
// Platform copies taken before a fault are queried after it, so a table
// that served trees across search serials would be caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/layout.hpp"
#include "core/ring_search.hpp"
#include "noc/router.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "platform/search_trees.hpp"
#include "util/rng.hpp"

namespace kairos {
namespace {

using platform::ElementId;
using platform::LinkId;
using platform::Platform;

// --- references ----------------------------------------------------------------

/// The live BFS router as it was before the trees: fewest hops over links
/// that are usable and can carry the bandwidth, adjacency in link order.
std::optional<std::vector<LinkId>> reference_route(const Platform& p,
                                                   ElementId src,
                                                   ElementId dst,
                                                   std::int64_t bandwidth) {
  if (src == dst) return std::vector<LinkId>{};
  const std::size_t n = p.element_count();
  std::vector<char> seen(n, 0);
  std::vector<LinkId> via(n);
  std::vector<ElementId> queue{src};
  seen[static_cast<std::size_t>(src.value)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const LinkId l : p.out_links(queue[head])) {
      const auto& link = p.link(l);
      if (!link.can_carry(bandwidth) || !p.link_usable(l)) continue;
      const auto idx = static_cast<std::size_t>(link.dst().value);
      if (seen[idx]) continue;
      seen[idx] = 1;
      via[idx] = l;
      if (link.dst() == dst) {
        std::vector<LinkId> route;
        for (ElementId cur = dst; cur != src;) {
          route.push_back(via[static_cast<std::size_t>(cur.value)]);
          cur = p.link(route.back()).src();
        }
        std::reverse(route.begin(), route.end());
        return route;
      }
      queue.push_back(link.dst());
    }
  }
  return std::nullopt;
}

/// The mapper's ring search as it was before the trees: one live BFS per
/// origin, advanced a ring per call.
class ReferenceRingSearch {
 public:
  ReferenceRingSearch(const Platform& platform, core::DistanceOracle& oracle,
                      const std::vector<core::RingOrigin>& origins)
      : platform_(&platform),
        oracle_(&oracle),
        discovered_(platform.element_count(), 0) {
    for (const core::RingOrigin& o : origins) {
      PerOrigin po;
      po.origin = o;
      po.visited.assign(platform.element_count(), false);
      po.visited[static_cast<std::size_t>(o.element.value)] = true;
      po.frontier.assign(1, o.element);
      oracle_->set(o.element, o.element, 0);
      per_origin_.push_back(std::move(po));
    }
  }

  std::vector<ElementId> next_ring() {
    std::vector<ElementId> ring;
    if (distance_ == 0) {
      for (const PerOrigin& po : per_origin_) claim(po.origin.element, ring);
      ++distance_;
      return ring;
    }
    for (PerOrigin& po : per_origin_) {
      std::vector<ElementId> next;
      for (const ElementId e : po.frontier) {
        if (po.origin.forward) {
          for (const LinkId l : platform_->out_links(e)) {
            step(po, platform_->link(l).dst(), next, ring);
          }
        } else {
          for (const LinkId l : platform_->in_links(e)) {
            step(po, platform_->link(l).src(), next, ring);
          }
        }
      }
      po.frontier.swap(next);
    }
    ++distance_;
    return ring;
  }

 private:
  struct PerOrigin {
    core::RingOrigin origin;
    std::vector<bool> visited;
    std::vector<ElementId> frontier;
  };

  void claim(ElementId e, std::vector<ElementId>& ring) {
    auto& d = discovered_[static_cast<std::size_t>(e.value)];
    if (!d) {
      d = 1;
      ring.push_back(e);
    }
  }

  void step(PerOrigin& po, ElementId next, std::vector<ElementId>& frontier,
            std::vector<ElementId>& ring) {
    const auto idx = static_cast<std::size_t>(next.value);
    if (po.visited[idx] || platform_->element(next).is_failed()) return;
    po.visited[idx] = true;
    oracle_->set(po.origin.element, next, distance_);
    frontier.push_back(next);
    claim(next, ring);
  }

  const Platform* platform_;
  core::DistanceOracle* oracle_;
  std::vector<char> discovered_;
  std::vector<PerOrigin> per_origin_;
  int distance_ = 0;
};

// --- random platforms and edits ------------------------------------------------

Platform random_platform(util::Xoshiro256& rng) {
  platform::BuilderConfig cfg;
  cfg.vc_capacity = static_cast<int>(rng.uniform_int(1, 3));
  cfg.bw_capacity = rng.uniform_int(50, 200);
  const auto dim = [&](int lo, int hi) {
    return static_cast<int>(rng.uniform_int(lo, hi));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return platform::make_mesh(dim(1, 7), dim(2, 7), cfg);
    case 1:
      return platform::make_torus(dim(2, 5), dim(2, 5), cfg);
    case 2:
      return platform::make_irregular(dim(2, 40), dim(0, 30), rng.next(),
                                      cfg);
    default:
      return platform::make_crisp_platform();
  }
}

ElementId random_element(util::Xoshiro256& rng, const Platform& p) {
  return ElementId{static_cast<std::int32_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(p.element_count()) - 1))};
}

/// One random change to the platform's fault state, topology or link load.
void random_edit(util::Xoshiro256& rng, Platform& p) {
  const std::int64_t op = rng.uniform_int(0, 99);
  if (op < 30) {
    const ElementId e = random_element(rng, p);
    p.set_element_failed(e, !p.element(e).is_failed());
  } else if (op < 55) {
    const LinkId l{static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.link_count()) - 1))};
    p.set_link_failed(l, !p.link(l).is_failed());
  } else if (op < 75) {
    // Parallel links included: the builders never add them outside a
    // 2-wide torus.
    const ElementId a = random_element(rng, p);
    const ElementId b = random_element(rng, p);
    if (a != b) p.add_link(a, b, 2, 100);
  } else if (op < 80) {
    const ElementId anchor = random_element(rng, p);
    const ElementId e = p.add_element(platform::ElementType::kGeneric, "new",
                                      platform::ResourceVector{10, 10, 1, 1});
    p.add_duplex_link(anchor, e, 2, 100);
  } else {
    // Saturation: load a random link towards (or past) its capacity.
    const LinkId l{static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.link_count()) - 1))};
    (void)p.allocate_channel(l, rng.uniform_int(0, p.link(l).bw_free()));
  }
}

// --- router --------------------------------------------------------------------

void expect_routes_match(const noc::Router& router, const Platform& p,
                         util::Xoshiro256& rng, int queries,
                         std::uint64_t seed) {
  for (int q = 0; q < queries; ++q) {
    const ElementId src = random_element(rng, p);
    const ElementId dst = random_element(rng, p);
    const std::int64_t bw = rng.uniform_int(0, 150);
    const auto expected = reference_route(p, src, dst, bw);
    const auto actual = router.find_route(p, src, dst, bw);
    ASSERT_EQ(actual.has_value(), expected.has_value())
        << "seed " << seed << " " << src.value << "->" << dst.value
        << " bw " << bw;
    if (actual.has_value()) {
      ASSERT_EQ(actual->links, *expected)
          << "seed " << seed << " " << src.value << "->" << dst.value
          << " bw " << bw;
    }
  }
}

TEST(SearchTreesPropertyTest, TreeRouterMatchesLiveBfs) {
  const noc::Router router(noc::RoutingStrategy::kBreadthFirst);
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    util::Xoshiro256 rng(seed);
    Platform p = random_platform(rng);
    std::vector<Platform> copies;
    for (int round = 0; round < 12; ++round) {
      expect_routes_match(router, p, rng, 25, seed);
      // Reserve some found routes, as the routing phase does.
      for (int k = 0; k < 5; ++k) {
        const ElementId src = random_element(rng, p);
        const ElementId dst = random_element(rng, p);
        (void)router.allocate_route(p, src, dst, rng.uniform_int(1, 80));
      }
      if (rng.uniform_int(0, 3) == 0) copies.push_back(p);
      for (int k = static_cast<int>(rng.uniform_int(1, 3)); k > 0; --k) {
        random_edit(rng, p);
      }
      // A copy from before the edits must still be routed on its own
      // state, interleaved with the edited original.
      if (!copies.empty()) {
        const auto c = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(copies.size()) - 1));
        expect_routes_match(router, copies[c], rng, 10, seed);
      }
    }
  }
}

TEST(SearchTreesPropertyTest, CachedPathsAreUsedAndFallbacksStayExact) {
  // On an empty mesh every cached path is intact; saturating one link of a
  // route must divert the next search around it, exactly as the live BFS.
  const noc::Router router(noc::RoutingStrategy::kBreadthFirst);
  platform::BuilderConfig cfg;
  cfg.vc_capacity = 1;
  Platform p = platform::make_mesh(5, 5, cfg);
  const ElementId src{0};
  const ElementId dst{24};
  const auto first = router.allocate_route(p, src, dst, 10);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->hops(), 8);
  const auto second = router.find_route(p, src, dst, 10);
  const auto expected = reference_route(p, src, dst, 10);
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(second->links, *expected);
  EXPECT_NE(second->links, first->links);
}

TEST(SearchTreesPropertyTest, TableEmptiesAtItsCapAndKeepsAnswering) {
  // 2·V·min(V, 64) entries on a 16x16 mesh is less than every out-tree
  // grown in full, so the table must empty itself on the way, and the
  // routes after that must still be exact.
  const noc::Router router(noc::RoutingStrategy::kBreadthFirst);
  Platform p = platform::make_mesh(16, 16);
  const auto v = static_cast<std::int32_t>(p.element_count());
  const std::size_t cap =
      2 * p.element_count() * std::min<std::size_t>(p.element_count(), 64);
  std::size_t previous = 0;
  int flushes = 0;
  for (std::int32_t s = 0; s < v; ++s) {
    for (const std::int32_t d : {0, 15, v - 16, v - 1}) {
      const auto expected = reference_route(p, ElementId{s}, ElementId{d}, 1);
      const auto actual = router.find_route(p, ElementId{s}, ElementId{d}, 1);
      ASSERT_TRUE(actual.has_value());
      ASSERT_EQ(actual->links, *expected);
      const std::size_t entries = platform::SearchTrees::local(p).entries();
      ASSERT_LE(entries, cap);
      if (entries < previous) ++flushes;
      previous = entries;
    }
  }
  EXPECT_GT(flushes, 0);
}

// --- ring search ----------------------------------------------------------------

void expect_same_oracle(const core::DistanceOracle& actual,
                        const core::DistanceOracle& expected,
                        std::size_t elements, std::uint64_t seed, int ring) {
  ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed << " ring "
                                            << ring;
  for (std::int32_t o = 0; o < static_cast<std::int32_t>(elements); ++o) {
    for (std::int32_t t = 0; t < static_cast<std::int32_t>(elements); ++t) {
      ASSERT_EQ(actual.lookup(ElementId{o}, ElementId{t}),
                expected.lookup(ElementId{o}, ElementId{t}))
          << "seed " << seed << " ring " << ring << " (" << o << ", " << t
          << ")";
    }
  }
}

void expect_same_rings(const Platform& p, util::Xoshiro256& rng,
                       core::RingSearch& search, core::DistanceOracle& oracle,
                       std::uint64_t seed) {
  std::vector<core::RingOrigin> origins;
  for (int k = static_cast<int>(rng.uniform_int(1, 5)); k > 0; --k) {
    const core::RingOrigin o{random_element(rng, p), rng.uniform_int(0, 1) == 0};
    if (std::find(origins.begin(), origins.end(), o) == origins.end()) {
      origins.push_back(o);
    }
  }
  // The mapper reuses one oracle across a map() call's searches; so do we.
  if (rng.uniform_int(0, 2) == 0) oracle.reset(p.element_count());
  core::DistanceOracle expected_oracle = oracle;
  ReferenceRingSearch reference(p, expected_oracle, origins);
  search.start(p, origins, oracle);
  expect_same_oracle(oracle, expected_oracle, p.element_count(), seed, -1);
  std::vector<ElementId> ring;
  for (int d = 0; d <= static_cast<int>(p.element_count()) + 1; ++d) {
    const std::vector<ElementId> expected = reference.next_ring();
    search.next_ring(ring);
    ASSERT_EQ(ring, expected) << "seed " << seed << " ring " << d;
    expect_same_oracle(oracle, expected_oracle, p.element_count(), seed, d);
    if (expected.empty()) break;
  }
}

TEST(SearchTreesPropertyTest, RingsMatchPerOriginLiveBfs) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    util::Xoshiro256 rng(seed);
    Platform p = random_platform(rng);
    core::RingSearch search;
    core::DistanceOracle oracle(p.element_count());
    std::vector<Platform> copies;
    for (int round = 0; round < 8; ++round) {
      expect_same_rings(p, rng, search, oracle, seed);
      if (rng.uniform_int(0, 2) == 0) copies.push_back(p);
      for (int k = static_cast<int>(rng.uniform_int(1, 3)); k > 0; --k) {
        random_edit(rng, p);
      }
      oracle.reset(p.element_count());
      if (!copies.empty()) {
        const Platform& c = copies[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(copies.size()) - 1))];
        core::DistanceOracle copy_oracle(c.element_count());
        expect_same_rings(c, rng, search, copy_oracle, seed);
      }
    }
  }
}

}  // namespace
}  // namespace kairos

// Exception safety of ResourceManager::admit(): a throw at any point of an
// admission must leave the platform bit-identical — element reservations,
// task counts and wear, and every link's virtual channels and bandwidth —
// and the manager must go on deciding exactly as before.
//
// The throws are injected by this binary's global operator new, which fails
// the k-th allocation after it is armed, once. Sweeping k over every
// allocation an admission makes reaches every point that can throw: inside
// binding, mapping and routing, and after routing has reserved links
// (validation and the bookkeeping that follows it), which the element
// transaction does not cover.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "gen/datasets.hpp"
#include "platform/crisp.hpp"

namespace {

/// Allocations left before the injected failure; < 0 when disarmed.
long g_countdown = -1;
/// Set when an injected failure fired.
bool g_fired = false;
/// Read when the failure fires: the platform under test, and whether any
/// link held more reservations than before the admission started.
const kairos::platform::Platform* g_platform = nullptr;
std::vector<int> g_vc_before;
bool g_links_reserved_at_throw = false;

// The deletes below go through this out-of-line function: inlined into a
// call site that used `new`, a direct free() reads to the compiler as a
// mismatched deallocation (-Wmismatched-new-delete), though it pairs with
// the malloc() of the operator new below.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

bool links_reserved_beyond_baseline() {
  const auto& links = g_platform->links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].vc_used() != g_vc_before[i]) return true;
  }
  return false;
}

}  // namespace

void* operator new(std::size_t size) {
  if (g_countdown >= 0 && g_countdown-- == 0) {
    g_fired = true;
    g_links_reserved_at_throw =
        g_links_reserved_at_throw || links_reserved_beyond_baseline();
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace kairos {
namespace {

void expect_same_state(const platform::Snapshot& before,
                       const platform::Snapshot& after, long k) {
  ASSERT_EQ(before.elements.size(), after.elements.size());
  for (std::size_t i = 0; i < before.elements.size(); ++i) {
    EXPECT_EQ(before.elements[i].used, after.elements[i].used)
        << "allocation " << k << ": element " << i;
    EXPECT_EQ(before.elements[i].task_count, after.elements[i].task_count)
        << "allocation " << k << ": element " << i;
    EXPECT_EQ(before.elements[i].wear, after.elements[i].wear)
        << "allocation " << k << ": element " << i;
  }
  ASSERT_EQ(before.links.size(), after.links.size());
  for (std::size_t i = 0; i < before.links.size(); ++i) {
    EXPECT_EQ(before.links[i].vc_used, after.links[i].vc_used)
        << "allocation " << k << ": link " << i;
    EXPECT_EQ(before.links[i].bw_used, after.links[i].bw_used)
        << "allocation " << k << ": link " << i;
  }
}

/// CRISP with a channel already reserved on every third link, so that the
/// admission under test routes around existing link reservations.
struct Loaded {
  platform::Platform crisp = loaded_crisp();
  core::ResourceManager manager;

  Loaded() : manager(crisp, config()) {}
  static platform::Platform loaded_crisp() {
    platform::Platform crisp = platform::make_crisp_platform();
    for (std::size_t l = 0; l < crisp.link_count(); l += 3) {
      EXPECT_TRUE(crisp.allocate_channel(
          platform::LinkId{static_cast<std::int32_t>(l)}, 1));
    }
    return crisp;
  }
  static core::KairosConfig config() {
    core::KairosConfig config;
    config.weights = {4.0, 100.0};
    return config;
  }
};

TEST(AdmissionExceptionSafetyTest, AThrowAnywhereLeavesThePlatformUnchanged) {
  const graph::Application app = gen::make_beamforming_application();
  // The reference decision, taken before any throw could touch the
  // thread's search caches.
  const core::AdmissionReport expected = [&] {
    Loaded reference;
    return reference.manager.admit(app);
  }();
  ASSERT_TRUE(expected.admitted) << expected.reason;

  Loaded loaded;
  core::ResourceManager& manager = loaded.manager;
  const std::size_t live_before = manager.live_count();

  long throws = 0;
  bool admitted = false;
  core::AdmissionReport report;
  for (long k = 0; !admitted; ++k) {
    ASSERT_LT(k, 100000) << "the sweep never reached a whole admission";
    const platform::Snapshot before = manager.platform().snapshot();
    g_platform = &manager.platform();
    g_vc_before.clear();
    for (const auto& link : manager.platform().links()) {
      g_vc_before.push_back(link.vc_used());
    }
    g_fired = false;
    g_countdown = k;
    try {
      report = manager.admit(app);
    } catch (const std::bad_alloc&) {
    }
    g_countdown = -1;
    if (!g_fired) {
      admitted = true;  // k is past the admission's last allocation
      break;
    }
    ++throws;
    // The throw either escaped admit() or was absorbed into a rejection;
    // in both cases nothing of the attempt may remain.
    if (report.admitted) {
      ASSERT_TRUE(manager.remove(report.handle).ok());
      report = {};
    }
    expect_same_state(before, manager.platform().snapshot(), k);
    EXPECT_EQ(manager.live_count(), live_before) << "allocation " << k;
    if (HasFailure()) return;
  }
  EXPECT_GT(throws, 0);
  // The sweep reached the window the element transaction does not cover.
  EXPECT_TRUE(g_links_reserved_at_throw)
      << "no injected throw landed after routing had reserved links";

  // The manager decides exactly as one that never saw a throw.
  ASSERT_TRUE(report.admitted) << report.reason;
  EXPECT_EQ(report.mapping_cost, expected.mapping_cost);
  EXPECT_EQ(report.average_hops, expected.average_hops);
  ASSERT_EQ(report.layout.placements().size(),
            expected.layout.placements().size());
  for (std::size_t t = 0; t < report.layout.placements().size(); ++t) {
    EXPECT_EQ(report.layout.placements()[t].element,
              expected.layout.placements()[t].element);
  }
}

}  // namespace
}  // namespace kairos

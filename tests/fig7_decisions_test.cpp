// Pins the decisions of the paper's Fig. 7 case study (§IV-A): the 53-task
// beamformer admitted on an empty CRISP with the mapping weights {4, 100}.
// The mapper's inner loop is rewritten for speed from time to time; every
// such rewrite must reproduce this exact placement, cost and search effort.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "platform/crisp.hpp"

namespace kairos {
namespace {

/// FNV-1a over (element id, implementation index) of every task, in task
/// order.
std::uint64_t placement_hash(const core::ExecutionLayout& layout) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&](std::int64_t value) {
    const auto v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  for (const core::TaskPlacement& p : layout.placements()) {
    mix(p.element.value);
    mix(p.impl_index);
  }
  return hash;
}

TEST(Fig7DecisionsTest, BeamformerOnEmptyCrispIsPinned) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  core::ResourceManager kairos(crisp, config);

  const auto report = kairos.admit(gen::make_beamforming_application());
  ASSERT_TRUE(report.admitted) << report.reason;
  EXPECT_EQ(report.mapping_cost, 74980.0);
  EXPECT_EQ(report.average_hops, 3.25);
  EXPECT_EQ(report.mapping_stats.iterations, 4);
  EXPECT_EQ(report.mapping_stats.rings, 22);
  EXPECT_EQ(report.mapping_stats.gap_elements, 144);
  EXPECT_EQ(report.layout.placements().size(), 53u);
  EXPECT_EQ(placement_hash(report.layout), 0x2a169ac233250d08ULL);
}

}  // namespace
}  // namespace kairos

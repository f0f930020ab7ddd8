// Paper-result regression tests: fast, coarse versions of the Table-I and
// Fig. 8-10 experiments asserted as invariants, so a refactor that silently
// destroys a reproduced result fails CI rather than only the (human-read)
// bench output.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "gen/datasets.hpp"
#include "platform/crisp.hpp"
#include "platform/fragmentation.hpp"
#include "util/rng.hpp"

namespace kairos {
namespace {

core::KairosConfig paper_config() {
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  config.validation_rejects = false;
  return config;
}

struct MiniSequenceResult {
  long admitted = 0;
  long rejected = 0;
  std::array<long, core::kPhaseCount> failures{};

  double share(core::Phase phase) const {
    return rejected == 0
               ? 0.0
               : static_cast<double>(
                     failures[static_cast<std::size_t>(phase)]) /
                     static_cast<double>(rejected);
  }
};

MiniSequenceResult run_mini(gen::DatasetKind kind, int sequences) {
  MiniSequenceResult result;
  platform::Platform crisp = platform::make_crisp_platform();
  const auto config = paper_config();
  auto apps = gen::make_dataset(kind, 60, 0xC0FFEE);
  auto kept = gen::filter_admissible(std::move(apps), crisp, config);
  util::Xoshiro256 rng(0xBEEF);
  for (int s = 0; s < sequences; ++s) {
    std::vector<std::size_t> order(kept.size());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    crisp.clear_allocations();
    core::ResourceManager kairos(crisp, config);
    for (const std::size_t i : order) {
      const auto report = kairos.admit(kept[i]);
      if (report.admitted) {
        ++result.admitted;
      } else {
        ++result.rejected;
        ++result.failures[static_cast<std::size_t>(report.failed_phase)];
      }
    }
  }
  return result;
}

// Table I shape: communication datasets die in routing, computation
// datasets die in binding.
TEST(PaperRegressionTest, CommunicationAppsFailMostlyInRouting) {
  const auto r = run_mini(gen::DatasetKind::kCommunicationMedium, 3);
  ASSERT_GT(r.rejected, 0);
  EXPECT_GT(r.share(core::Phase::kRouting), 0.6);
  EXPECT_LT(r.share(core::Phase::kBinding), 0.3);
}

TEST(PaperRegressionTest, ComputationAppsFailMostlyInBinding) {
  const auto r = run_mini(gen::DatasetKind::kComputationMedium, 3);
  ASSERT_GT(r.rejected, 0);
  EXPECT_GT(r.share(core::Phase::kBinding), 0.6);
  EXPECT_LT(r.share(core::Phase::kRouting), 0.3);
}

TEST(PaperRegressionTest, MappingFailuresAreRare) {
  for (const auto kind : {gen::DatasetKind::kCommunicationMedium,
                          gen::DatasetKind::kComputationMedium}) {
    const auto r = run_mini(kind, 2);
    EXPECT_LT(r.share(core::Phase::kMapping), 0.1);
  }
}

// Fig. 8/9 shape: the platform saturates — success collapses after the
// first wave of admissions, and fragmentation rises but stays bounded.
TEST(PaperRegressionTest, PlatformSaturatesWithinTheSequence) {
  platform::Platform crisp = platform::make_crisp_platform();
  const auto config = paper_config();
  auto apps = gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 60,
                                0xC0FFEE);
  auto kept = gen::filter_admissible(std::move(apps), crisp, config);
  ASSERT_GT(kept.size(), 30u);
  core::ResourceManager kairos(crisp, config);
  int admitted_late = 0;
  int attempts_late = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const bool ok = kairos.admit(kept[i]).admitted;
    if (i >= 30) {
      ++attempts_late;
      if (ok) ++admitted_late;
    }
  }
  // Late in the sequence the success rate is far below the early 100%.
  EXPECT_LT(static_cast<double>(admitted_late) /
                static_cast<double>(attempts_late),
            0.35);
  const double frag = platform::external_fragmentation(crisp);
  EXPECT_GT(frag, 0.05);
  EXPECT_LT(frag, 0.5);
}

// Fig. 10 headline: the beamformer admits for a combined weighting and
// never when either objective is disabled.
TEST(PaperRegressionTest, BeamformingAdmissionBandExists) {
  platform::Platform crisp = platform::make_crisp_platform();
  const graph::Application app = gen::make_beamforming_application();

  auto attempt = [&](double wc, double wf) {
    crisp.clear_allocations();
    core::KairosConfig config;
    config.weights = {wc, wf};
    config.validation_enabled = false;
    core::ResourceManager kairos(crisp, config);
    return kairos.admit(app).admitted;
  };

  // Axes: never.
  for (const double wf : {0.0, 10.0, 100.0, 1000.0}) {
    EXPECT_FALSE(attempt(0.0, wf)) << "wf=" << wf;
  }
  for (const double wc : {1.0, 4.0, 16.0, 25.0}) {
    EXPECT_FALSE(attempt(wc, 0.0)) << "wc=" << wc;
  }
  // The known band: combined objectives admit.
  EXPECT_TRUE(attempt(4.0, 100.0));
  EXPECT_TRUE(attempt(16.0, 100.0));
}

// §IV-A: mapping the 53-task beamformer scales well — its share of the
// total allocation time stays moderate. The share is a wall-clock ratio, so
// one admission preempted mid-mapping can read high; the median over
// repeated admit/remove rounds on one manager is what is asserted.
TEST(PaperRegressionTest, BeamformingMappingScalesWell) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager kairos(crisp, paper_config());
  const graph::Application app = gen::make_beamforming_application();
  constexpr int kReps = 15;
  std::vector<double> shares;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto report = kairos.admit(app);
    ASSERT_TRUE(report.admitted) << report.reason;
    shares.push_back(report.times.mapping_ms / report.times.total_ms());
    ASSERT_TRUE(kairos.remove(report.handle).ok());
  }
  std::nth_element(shares.begin(), shares.begin() + kReps / 2, shares.end());
  EXPECT_LT(shares[kReps / 2], 0.75);
}

}  // namespace
}  // namespace kairos

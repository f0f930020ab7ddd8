// Contract tests for service::AdmissionService and for the manager's
// stage/commit split: every submitted future settles, commits book exactly
// what was staged, conflicts are reported without touching the platform,
// removal and shutdown behave, the commit log matches the live bookkeeping,
// and a mapper that throws settles its request without taking the service
// down.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "mappers/incremental_mapper.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"

namespace kairos::service {
namespace {

std::vector<graph::Application> small_pool(int count, std::uint64_t seed) {
  return gen::make_dataset(gen::DatasetKind::kCommunicationSmall, count,
                           seed);
}

TEST(AdmissionServiceTest, EverySubmittedFutureSettles) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);

  const auto pool = small_pool(12, 0xA11CE);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (const graph::Application& app : pool) {
    futures.push_back(service.submit(app));
  }
  std::size_t admitted = 0;
  for (auto& future : futures) {
    const core::AdmissionReport report = future.get();
    if (report.admitted) {
      EXPECT_GE(report.handle, 1);
      EXPECT_EQ(report.failed_phase, core::Phase::kNone);
      ++admitted;
    } else {
      EXPECT_EQ(report.handle, -1);
      EXPECT_NE(report.failed_phase, core::Phase::kNone);
      EXPECT_FALSE(report.reason.empty());
    }
  }
  service.drain();
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(manager.live_count(), admitted);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(AdmissionServiceTest, HandlesAreUniqueAcrossConcurrentAdmissions) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);

  const auto pool = small_pool(10, 0xB0B);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (const auto& app : pool) futures.push_back(service.submit(app));
  std::set<core::AppHandle> handles;
  for (auto& future : futures) {
    const auto report = future.get();
    if (report.admitted) {
      EXPECT_TRUE(handles.insert(report.handle).second)
          << "handle " << report.handle << " assigned twice";
    }
  }
}

TEST(AdmissionServiceTest, RemoveReleasesAndRejectsUnknownHandles) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);

  const auto report = service.submit(small_pool(1, 0xC0DE).front()).get();
  ASSERT_TRUE(report.admitted);
  EXPECT_EQ(manager.live_count(), 1u);

  EXPECT_TRUE(service.remove(report.handle).ok());
  EXPECT_EQ(manager.live_count(), 0u);
  // Everything released: the platform is back to a clean slate.
  for (const platform::Element& element : manager.platform().elements()) {
    EXPECT_TRUE(element.used().is_zero());
    EXPECT_EQ(element.task_count(), 0);
  }
  EXPECT_FALSE(service.remove(report.handle).ok());
  EXPECT_FALSE(service.remove(9999).ok());
}

TEST(AdmissionServiceTest, SubmitAfterStopSettlesWithRejection) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);
  service.stop();

  auto future = service.submit(small_pool(1, 0xDEAD).front());
  const core::AdmissionReport report = future.get();
  EXPECT_FALSE(report.admitted);
  EXPECT_EQ(report.reason, "service stopped");
}

TEST(AdmissionServiceTest, CommitLogMatchesLiveBookkeeping) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);

  for (const auto& app : small_pool(8, 0xF00D)) service.submit(app);
  service.drain();

  const std::vector<CommitRecord> log = service.commit_log();
  std::set<core::AppHandle> logged;
  for (const CommitRecord& record : log) {
    EXPECT_TRUE(logged.insert(record.handle).second)
        << "handle " << record.handle << " committed twice";
  }
  for (const core::AppHandle handle : manager.live_handles()) {
    ASSERT_TRUE(logged.count(handle))
        << "live handle " << handle << " missing from the commit log";
    const auto it = std::find_if(
        log.begin(), log.end(),
        [&](const CommitRecord& r) { return r.handle == handle; });
    // The log records exactly the reservations the manager holds live.
    EXPECT_EQ(it->task_allocations, manager.allocations_of(handle));
  }
}

/// A strategy that throws for the named applications and maps every other
/// one with the paper's incremental mapper — the faulty member of the
/// throwing-admission test.
class ThrowingStubMapper final : public mappers::Mapper {
 public:
  explicit ThrowingStubMapper(std::set<std::string> victims)
      : victims_(std::move(victims)) {}

  std::string name() const override { return "throwing_stub"; }

  using Mapper::map;
  core::MappingResult map(const graph::Application& app,
                          const std::vector<int>& impl_of,
                          const core::PinTable& pins,
                          platform::Platform& platform,
                          const mappers::StopToken& stop) const override {
    if (victims_.count(app.name()) != 0) {
      throw std::runtime_error("stub mapper exploded on " + app.name());
    }
    return inner_.map(app, impl_of, pins, platform, stop);
  }

 private:
  std::set<std::string> victims_;
  mappers::IncrementalStrategy inner_;
};

TEST(AdmissionServiceTest, ThrowingMapperSettlesItsRequestAndWorkerSurvives) {
  const auto pool = small_pool(9, 0xE7707);
  std::set<std::string> victims;
  for (std::size_t i = 0; i < pool.size(); i += 3) {
    victims.insert(pool[i].name());
  }
  ASSERT_EQ(victims.size(), 3u);

  platform::Platform crisp = platform::make_crisp_platform();
  core::KairosConfig kairos_config;
  kairos_config.mapper = std::make_shared<ThrowingStubMapper>(victims);
  core::ResourceManager manager(crisp, kairos_config);
  // One submitter: every request after the first throw is admitted by the
  // thread whose admission threw.
  AdmissionService service(manager);

  std::vector<std::future<core::AdmissionReport>> futures;
  for (const graph::Application& app : pool) {
    futures.push_back(service.submit(app));
  }
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "request " << i << " never settled";
    const core::AdmissionReport report = futures[i].get();
    if (victims.count(pool[i].name()) != 0) {
      EXPECT_FALSE(report.admitted);
      EXPECT_EQ(report.handle, -1);
      EXPECT_NE(report.reason.find("stub mapper exploded on " +
                                   pool[i].name()),
                std::string::npos)
          << report.reason;
    } else if (report.admitted) {
      ++admitted;
    }
  }
  EXPECT_GT(admitted, 0u);

  // The service keeps serving after the throws.
  const core::AdmissionReport after = service.submit(pool[1]).get();
  EXPECT_TRUE(after.admitted) << after.reason;
  service.drain();
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(manager.live_count(), admitted + (after.admitted ? 1u : 0u));
}

TEST(StageCommitTest, StagedAdmissionCommitsOntoLivePlatform) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  const graph::Application app = small_pool(1, 0xFACE).front();

  platform::Platform scratch = manager.snapshot_platform();
  core::StagedAdmission staged = manager.stage(app, scratch);
  ASSERT_TRUE(staged.report.admitted);
  EXPECT_EQ(staged.report.handle, -1);  // not yet booked
  EXPECT_EQ(manager.live_count(), 0u);  // live platform untouched by staging

  auto committed = manager.commit_staged(std::move(staged));
  ASSERT_TRUE(committed.ok());
  EXPECT_GE(committed.value().handle, 1);
  EXPECT_EQ(manager.live_count(), 1u);
  // The committed reservations are now live and owned by that handle.
  EXPECT_FALSE(manager.allocations_of(committed.value().handle).empty());
}

TEST(StageCommitTest, CommitConflictLeavesPlatformUntouched) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  const graph::Application app = small_pool(1, 0xFEED).front();

  platform::Platform scratch = manager.snapshot_platform();
  core::StagedAdmission staged = manager.stage(app, scratch);
  ASSERT_TRUE(staged.report.admitted);
  ASSERT_FALSE(staged.task_allocations.empty());

  // The platform moves under the snapshot: one of the staged elements dies.
  const platform::ElementId victim = staged.task_allocations.front().first;
  manager.circumvent_fault(victim);

  const platform::Snapshot before = manager.platform().snapshot();
  auto committed = manager.commit_staged(std::move(staged));
  ASSERT_FALSE(committed.ok());
  EXPECT_NE(committed.error().find("conflict"), std::string::npos);
  // Nothing partial leaked: allocation state is exactly as before the try.
  const platform::Snapshot after = manager.platform().snapshot();
  ASSERT_EQ(before.elements.size(), after.elements.size());
  for (std::size_t i = 0; i < before.elements.size(); ++i) {
    EXPECT_EQ(before.elements[i].used, after.elements[i].used);
    EXPECT_EQ(before.elements[i].task_count, after.elements[i].task_count);
  }
  ASSERT_EQ(before.links.size(), after.links.size());
  for (std::size_t i = 0; i < before.links.size(); ++i) {
    EXPECT_EQ(before.links[i].vc_used, after.links[i].vc_used);
    EXPECT_EQ(before.links[i].bw_used, after.links[i].bw_used);
  }
  EXPECT_EQ(manager.live_count(), 0u);
}

TEST(StageCommitTest, CommittingARejectedStagingIsAnError) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  core::StagedAdmission staged;  // default: not admitted
  auto committed = manager.commit_staged(std::move(staged));
  EXPECT_FALSE(committed.ok());
}

}  // namespace
}  // namespace kairos::service

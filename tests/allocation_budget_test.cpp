// Heap-allocation budgets of the admission hot paths.
//
// This binary's global operator new counts the allocations the calling
// thread makes while a counter is armed. An admission's allocation count is
// a host-independent measure of its bookkeeping: it does not drift with the
// machine's load the way a time does, so a change that starts copying an
// application, a route or a record per request shows here as a number.
//
// Budgets, measured in steady state (after warm-up admissions have filled
// the thread's pooled scratch buffers):
//  * one admit() of the 53-task beamformer on an empty CRISP;
//  * one AdmissionService::submit() of a small Table I application, the
//    benchmark's serving workload, averaged over a churn stream — at the
//    default log level and with the level raised above debug.
// A budget that starts failing names a regression; one that is beaten
// should be lowered to the new count. The budgets are those of NDEBUG
// builds: with assertions on, the platform audits its availability index
// against a fresh rebuild every 64th mutation, and that rebuild allocates.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "gen/datasets.hpp"
#include "obs/event_log.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"

namespace {

/// Allocations made by this thread since it was armed; counting only while
/// `t_armed` is set keeps gtest's own bookkeeping out of the count.
thread_local bool t_armed = false;
thread_local std::uint64_t t_allocations = 0;

// The deletes below go through this out-of-line function: inlined into a
// call site that used `new`, a direct free() reads to the compiler as a
// mismatched deallocation (-Wmismatched-new-delete), though it pairs with
// the malloc() of the operator new below.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

/// Counts the allocations `body` makes on the calling thread.
template <typename Body>
std::uint64_t allocations_of(Body&& body) {
  t_allocations = 0;
  t_armed = true;
  body();
  t_armed = false;
  return t_allocations;
}

}  // namespace

void* operator new(std::size_t size) {
  if (t_armed) ++t_allocations;
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

class AllocationBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef NDEBUG
    GTEST_SKIP() << "budgets hold for NDEBUG builds; the debug availability "
                    "audit allocates";
#endif
  }
};

TEST_F(AllocationBudgetTest, BeamformerAdmit) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  core::ResourceManager manager(crisp, config);
  const graph::Application app = gen::make_beamforming_application();

  // Warm-up: the first admissions fill the thread's pooled scratch.
  for (int i = 0; i < 3; ++i) {
    const core::AdmissionReport report = manager.admit(app);
    ASSERT_TRUE(report.admitted) << report.reason;
    ASSERT_TRUE(manager.remove(report.handle).ok());
  }
  core::AdmissionReport report;
  const std::uint64_t admit =
      allocations_of([&] { report = manager.admit(app); });
  ASSERT_TRUE(report.admitted) << report.reason;
  EXPECT_EQ(report.mapping_cost, 74980.0);
  const std::uint64_t remove =
      allocations_of([&] { ASSERT_TRUE(manager.remove(report.handle).ok()); });

  RecordProperty("admit_allocations", static_cast<int>(admit));
  RecordProperty("remove_allocations", static_cast<int>(remove));
  EXPECT_LE(admit, 103u) << "allocations in one beamformer admit()";
  EXPECT_EQ(remove, 0u) << "allocations in one beamformer remove()";
}

/// Mean allocations per AdmissionService::submit() of a small Table I
/// application over a churn stream on a fresh CRISP.
double mean_submit_allocations() {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  service::AdmissionService service(manager);
  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 64, 0x5EED);

  // A churn stream: each admission departs eight arrivals later.
  constexpr std::size_t kLifetime = 8;
  std::vector<core::AppHandle> live;
  std::uint64_t allocations = 0;
  std::size_t measured = 0;
  for (std::size_t i = 0; i < 4 * pool.size(); ++i) {
    if (live.size() == kLifetime) {
      if (live.front() >= 0) {
        EXPECT_TRUE(service.remove(live.front()).ok());
      }
      live.erase(live.begin());
    }
    const graph::Application& app = pool[i % pool.size()];
    core::AdmissionReport report;
    const std::uint64_t submit =
        allocations_of([&] { report = service.submit(app).get(); });
    // The first pass over the pool is warm-up.
    if (i >= pool.size()) {
      allocations += submit;
      ++measured;
    }
    live.push_back(report.admitted ? report.handle : -1);
  }
  return static_cast<double>(allocations) / static_cast<double>(measured);
}

TEST_F(AllocationBudgetTest, SmallApplicationSubmit) {
  const double mean = mean_submit_allocations();
  RecordProperty("submit_allocations_mean", std::to_string(mean));
  EXPECT_LE(mean, 23.0) << "mean allocations per small-application submit()";
}

// A raised log level discards the per-request debug event before anything
// is built for it, so the same stream allocates less per submit().
TEST_F(AllocationBudgetTest, RaisedLogLevelSubmitBuildsNoDebugEvent) {
  obs::EventLog& log = obs::EventLog::global();
  const obs::LogLevel saved = log.min_level();
  const double at_debug = mean_submit_allocations();
  log.set_min_level(obs::LogLevel::kInfo);
  const double at_info = mean_submit_allocations();
  log.set_min_level(saved);

  RecordProperty("submit_allocations_mean_at_info", std::to_string(at_info));
  EXPECT_LT(at_info, at_debug)
      << "a raised level still builds the discarded debug event";
  EXPECT_LE(at_info, 19.0) << "mean allocations per submit() at kInfo";
}

}  // namespace
}  // namespace kairos

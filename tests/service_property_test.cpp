// System property tests for the admission service, which admits each
// request on the thread that submits it (admission_service.hpp).
//
// ConcurrentChurnKeepsOwnershipAndReplaysExactly: several client threads,
// each admitting its own requests, hammer submit/remove through one
// AdmissionService while a reader polls the shared surfaces; then two
// global invariants are audited:
//
//  1. Ownership: every element reservation in the platform is owned by
//     exactly one live application — per element, the component-wise sum of
//     the live applications' allocations equals the element's used vector,
//     and the live task count equals its task_count().
//
//  2. Serial replay: replaying the service's commit log (restricted to the
//     still-live handles, in handle = registration order) through the plain
//     platform API onto a fresh platform reproduces the live platform's
//     allocation state exactly — element used vectors, task counts, link
//     virtual channels and bandwidth. Wear is excluded by design: admissions
//     run the mapping search against the live platform, whose trial
//     placements advance wear in a way a replay of final placements does not
//     repeat (wear feeds only the optional wear-leveling objective).
//
// SingleSubmitterDecidesAsDirectAdmit: with one submitter the service makes
// exactly the decisions of a direct admit() loop over the same stream.
//
// BarrierStartedSubmittersEachSettleOnce: many submitters released at once
// contend for the manager; every request settles exactly once, with its own
// id, and the in-flight count returns to zero.
//
// Run under -fsanitize=thread to also certify the locking discipline; the
// ctest label is "property" so the TSan CI lane picks it up via -L property.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"
#include "util/rng.hpp"

namespace kairos::service {
namespace {

TEST(ServicePropertyTest, ConcurrentChurnKeepsOwnershipAndReplaysExactly) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);

  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 24, 0x7E57);

  constexpr int kClients = 4;
  constexpr int kIterations = 30;
  std::atomic<bool> done{false};

  // A reader thread polling the shared read surfaces the whole time — under
  // TSan this certifies readers never race the admission/removal writers.
  const std::size_t element_count = manager.platform().element_count();
  std::thread reader([&] {
    std::size_t spins = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto live = manager.live_handles();
      for (const core::AppHandle handle : live) {
        (void)manager.allocations_of(handle);
      }
      const auto element = platform::ElementId{
          static_cast<std::int32_t>(spins++ % element_count)};
      (void)manager.apps_using(element);
      (void)manager.live_count();
    }
  });

  std::vector<std::thread> clients;
  std::vector<std::vector<core::AppHandle>> kept(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& app =
            pool[static_cast<std::size_t>(c * kIterations + i) % pool.size()];
        const core::AdmissionReport report = service.submit(app).get();
        if (!report.admitted) continue;
        // Churn: remove two out of three admissions straight away, keep the
        // rest live so the final audit has something to own.
        if (i % 3 != 0) {
          ASSERT_TRUE(service.remove(report.handle).ok());
        } else {
          kept[static_cast<std::size_t>(c)].push_back(report.handle);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  service.drain();

  // --- every kept handle is live, exactly the kept set is live ------------
  const std::vector<core::AppHandle> live = manager.live_handles();
  const std::set<core::AppHandle> live_set(live.begin(), live.end());
  std::set<core::AppHandle> kept_set;
  for (const auto& per_client : kept) {
    for (const core::AppHandle handle : per_client) {
      EXPECT_TRUE(kept_set.insert(handle).second);
    }
  }
  EXPECT_EQ(kept_set, live_set);

  // --- invariant 1: exclusive ownership of every reservation --------------
  const platform::Platform& live_platform = manager.platform();
  std::vector<platform::ResourceVector> owned(live_platform.element_count());
  std::vector<int> owned_tasks(live_platform.element_count(), 0);
  for (const core::AppHandle handle : live) {
    const auto allocations = manager.allocations_of(handle);
    ASSERT_FALSE(allocations.empty());
    for (const auto& [element, demand] : allocations) {
      owned[static_cast<std::size_t>(element.value)] += demand;
      ++owned_tasks[static_cast<std::size_t>(element.value)];
    }
  }
  for (std::size_t i = 0; i < live_platform.element_count(); ++i) {
    const platform::Element& element =
        live_platform.element(platform::ElementId{static_cast<int>(i)});
    EXPECT_EQ(element.used(), owned[i])
        << "element " << element.name() << " holds reservations owned by "
        << "no live application (or double-owned)";
    EXPECT_EQ(element.task_count(), owned_tasks[i]);
  }

  // --- invariant 2: serial replay of the committed order ------------------
  std::vector<CommitRecord> log = service.commit_log();
  std::sort(log.begin(), log.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.handle < b.handle;
            });
  platform::Platform replay = platform::make_crisp_platform();
  for (const CommitRecord& record : log) {
    if (!live_set.count(record.handle)) continue;  // later removed
    // Each prefix of the live set fits (it is component-wise <= the final
    // live state), so every replayed operation must succeed.
    for (const auto& [element, demand] : record.task_allocations) {
      ASSERT_TRUE(replay.allocate(element, demand));
      replay.add_task(element);
    }
    for (const auto& [link, bandwidth] : record.link_claims) {
      ASSERT_TRUE(replay.allocate_channel(link, bandwidth));
    }
  }
  const platform::Snapshot expected = replay.snapshot();
  const platform::Snapshot actual = live_platform.snapshot();
  ASSERT_EQ(expected.elements.size(), actual.elements.size());
  for (std::size_t i = 0; i < expected.elements.size(); ++i) {
    EXPECT_EQ(expected.elements[i].used, actual.elements[i].used)
        << "element " << i << " allocation state diverged from the replay";
    EXPECT_EQ(expected.elements[i].task_count, actual.elements[i].task_count);
  }
  ASSERT_EQ(expected.links.size(), actual.links.size());
  for (std::size_t i = 0; i < expected.links.size(); ++i) {
    EXPECT_EQ(expected.links[i].vc_used, actual.links[i].vc_used)
        << "link " << i << " virtual-channel state diverged from the replay";
    EXPECT_EQ(expected.links[i].bw_used, actual.links[i].bw_used);
  }

  // --- quiesced availability index matches a linear recount ---------------
  // (Debug builds also audit it every few mutations during the churn; this
  // certifies release builds at the quiesce point.)
  EXPECT_TRUE(live_platform.availability_consistent());
}

TEST(ServicePropertyTest, DrainQuiescesUnderConcurrentSubmissions) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);

  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 8, 0xD12A);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const auto& app : pool) futures.push_back(service.submit(app));
    service.drain();
    EXPECT_EQ(service.pending(), 0u);
    // After a drain every future so far must be immediately ready.
    for (auto& future : futures) {
      if (!future.valid()) continue;
      const auto report = future.get();
      if (report.admitted) {
        ASSERT_TRUE(service.remove(report.handle).ok());
      }
    }
    futures.clear();
  }
  EXPECT_EQ(manager.live_count(), 0u);
}

/// One decision, as the test compares them: bit-equal cost, not near.
struct Decision {
  bool admitted = false;
  core::AppHandle handle = -1;
  double mapping_cost = 0.0;
  double average_hops = 0.0;

  bool operator==(const Decision&) const = default;
};

Decision decision_of(const core::AdmissionReport& report) {
  return {report.admitted, report.handle, report.mapping_cost,
          report.average_hops};
}

TEST(ServicePropertyTest, SingleSubmitterDecidesAsDirectAdmit) {
  for (const std::uint64_t seed : {0x51ULL, 0x52ULL, 0x53ULL}) {
    SCOPED_TRACE(seed);
    const auto pool =
        gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 16, seed);
    // A churn stream: arrival i holds pool[app[i]] and departs when arrival
    // i + life[i] comes in (departures first, then the arrival).
    constexpr std::size_t kArrivals = 160;
    util::Xoshiro256 rng(seed);
    std::vector<std::size_t> app(kArrivals), life(kArrivals);
    for (std::size_t i = 0; i < kArrivals; ++i) {
      app[i] = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      life[i] = static_cast<std::size_t>(rng.uniform_int(1, 12));
    }

    // Drives the stream through `admit` and `remove`, returning every
    // decision in arrival order.
    const auto drive = [&](const auto& admit, const auto& remove) {
      std::vector<Decision> decisions;
      std::vector<core::AppHandle> handle(kArrivals, -1);
      for (std::size_t i = 0; i < kArrivals; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          if (handle[j] >= 0 && j + life[j] == i) {
            EXPECT_TRUE(remove(handle[j]).ok());
            handle[j] = -1;
          }
        }
        const core::AdmissionReport report = admit(pool[app[i]]);
        decisions.push_back(decision_of(report));
        if (report.admitted) handle[i] = report.handle;
      }
      return decisions;
    };

    platform::Platform direct_crisp = platform::make_crisp_platform();
    core::ResourceManager direct(direct_crisp, {});
    const std::vector<Decision> expected = drive(
        [&](const graph::Application& a) { return direct.admit(a); },
        [&](core::AppHandle h) { return direct.remove(h); });

    platform::Platform served_crisp = platform::make_crisp_platform();
    core::ResourceManager manager(served_crisp, {});
    AdmissionService service(manager);
    const std::vector<Decision> served = drive(
        [&](const graph::Application& a) { return service.submit(a).get(); },
        [&](core::AppHandle h) { return service.remove(h); });

    ASSERT_EQ(served.size(), expected.size());
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i], expected[i]) << "arrival " << i;
      admitted += served[i].admitted ? 1 : 0;
    }
    // The stream must exercise both outcomes to mean anything.
    EXPECT_GT(admitted, 0u);
    EXPECT_LT(admitted, served.size());
  }
}

TEST(ServicePropertyTest, BarrierStartedSubmittersEachSettleOnce) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager);
  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 12, 0xBA22);

  constexpr int kRounds = 200;
  constexpr int kSubmitters = 8;
  constexpr int kRequests = 1;
  struct Sent {
    std::uint64_t id = 0;
    std::future<core::AdmissionReport> future;
  };
  std::set<std::uint64_t> ids;
  std::set<core::AppHandle> handles;
  std::size_t settled = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<Sent>> sent(kSubmitters);
    std::latch start(kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        start.arrive_and_wait();
        // No waiting between submissions: the submitters contend for the
        // manager's lock and the service's in-flight count.
        for (int i = 0; i < kRequests; ++i) {
          Sent s;
          s.future = service.submit(
              pool[static_cast<std::size_t>(round + t * kRequests + i) %
                   pool.size()],
              &s.id);
          sent[static_cast<std::size_t>(t)].push_back(std::move(s));
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();

    // Every submit() has returned, so every request has settled and none
    // is still counted in flight.
    EXPECT_EQ(service.pending(), 0u) << "round " << round;
    for (auto& per_thread : sent) {
      for (Sent& s : per_thread) {
        ASSERT_EQ(s.future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "round " << round << ": request " << s.id
            << " returned unsettled";
        const core::AdmissionReport report = s.future.get();
        ++settled;
        EXPECT_EQ(report.request_id, s.id);
        EXPECT_TRUE(ids.insert(report.request_id).second)
            << "request id " << report.request_id << " settled twice";
        if (report.admitted) {
          EXPECT_TRUE(handles.insert(report.handle).second)
              << "handle " << report.handle << " assigned twice";
        }
      }
    }
  }
  EXPECT_EQ(settled,
            static_cast<std::size_t>(kRounds * kSubmitters * kRequests));
  EXPECT_FALSE(handles.empty());
  EXPECT_EQ(manager.live_count(), handles.size());
  EXPECT_EQ(service.commit_log().size(), handles.size());
}

}  // namespace
}  // namespace kairos::service

// Property test for the binding phase's class-memoised feasibility: on
// random applications and platforms, BindingPhase::bind() must decide
// exactly what a copy of the regret loop that scans the platform for every
// (task, implementation) in every round decides — the same success, the
// same implementation per task, a bit-equal total cost and, on failure, the
// same failed task and reason.
//
// The generated cases are built to reach every memo path: requirement
// classes shared across tasks and implementations, tasks with several
// implementations and tied costs, pins (onto elements of the wrong type,
// failed elements and elements short of capacity as well as good ones),
// platforms with preloaded and failed elements, and applications that fit
// task by task but jointly oversubscribe a type.
#include <gtest/gtest.h>

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/binding.hpp"
#include "platform/availability.hpp"
#include "util/rng.hpp"

namespace kairos::core {
namespace {

using graph::Application;
using graph::Implementation;
using graph::TaskId;
using platform::ElementId;
using platform::ElementType;
using platform::Platform;
using platform::ResourceVector;

/// The regret loop as it was before feasibility classes: every unbound
/// task's every implementation asks the scratch pool directly, every round.
/// `claims_before_failure` reports how many tasks were bound when it failed.
BindingResult reference_bind(const Platform& platform, const Application& app,
                             const PinTable& pins,
                             std::size_t& claims_before_failure) {
  BindingResult result;
  result.impl_of.assign(app.task_count(), -1);

  platform::ScratchAvailability avail(platform);
  std::vector<bool> bound(app.task_count(), false);
  std::size_t remaining = app.task_count();

  auto feasible = [&](const graph::Task& task, const Implementation& impl) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    if (pins[idx].has_value()) {
      const auto& element = platform.element(*pins[idx]);
      return element.type() == impl.target && !element.is_failed() &&
             impl.requirement.fits_within(avail->free(*pins[idx]));
    }
    // A linear scan, independent of the index's tree walks.
    for (const auto& element : platform.elements()) {
      if (element.type() == impl.target && !element.is_failed() &&
          impl.requirement.fits_within(avail->free(element.id()))) {
        return true;
      }
    }
    return false;
  };

  while (remaining > 0) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    TaskId pick;
    int pick_impl = -1;
    double pick_regret = -1.0;
    double pick_cost = kInf;

    for (const auto& task : app.tasks()) {
      const auto idx = static_cast<std::size_t>(task.id().value);
      if (bound[idx]) continue;
      double best = kInf;
      double second = kInf;
      int best_impl = -1;
      for (std::size_t k = 0; k < task.implementations().size(); ++k) {
        const auto& impl = task.implementations()[k];
        if (!feasible(task, impl)) continue;
        if (impl.cost < best) {
          second = best;
          best = impl.cost;
          best_impl = static_cast<int>(k);
        } else if (impl.cost < second) {
          second = impl.cost;
        }
      }
      if (best_impl < 0) {
        result.failed_task = task.id();
        result.reason = "no feasible implementation for task '" +
                        task.name() + "' (resources exhausted)";
        claims_before_failure = app.task_count() - remaining;
        return result;
      }
      const double regret = second == kInf ? kInf : second - best;
      const bool better =
          regret > pick_regret || (regret == pick_regret && best < pick_cost);
      if (!pick.valid() || better) {
        pick = task.id();
        pick_impl = best_impl;
        pick_regret = regret;
        pick_cost = best;
      }
    }

    const auto pick_idx = static_cast<std::size_t>(pick.value);
    const auto& impl =
        app.task(pick).implementations()[static_cast<std::size_t>(pick_impl)];
    result.impl_of[pick_idx] = pick_impl;
    result.total_cost += impl.cost;
    const ElementId host =
        pins[pick_idx].has_value()
            ? *pins[pick_idx]
            : avail->first_available(impl.target, impl.requirement);
    avail->set_free(host, avail->free(host) - impl.requirement);
    bound[pick_idx] = true;
    --remaining;
  }

  result.ok = true;
  return result;
}

constexpr ElementType kTypes[] = {ElementType::kDsp, ElementType::kArm,
                                  ElementType::kFpga};

ElementType random_type(util::Xoshiro256& rng) {
  return kTypes[rng.uniform_int(0, 2)];
}

/// A few element types with uneven capacities; some elements preloaded,
/// some failed.
Platform random_platform(util::Xoshiro256& rng) {
  Platform p("random");
  const auto n = rng.uniform_int(3, 12);
  for (std::int64_t i = 0; i < n; ++i) {
    p.add_element(random_type(rng), "e" + std::to_string(i),
                  ResourceVector(100 * rng.uniform_int(1, 4),
                                 64 * rng.uniform_int(1, 3), 2, 2));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const ElementId e{static_cast<std::int32_t>(i)};
    const std::int64_t roll = rng.uniform_int(0, 9);
    if (roll < 3) {
      const ResourceVector load(50 * rng.uniform_int(1, 2),
                                32 * rng.uniform_int(0, 1), 0, 0);
      if (load.fits_within(p.element(e).free())) p.allocate(e, load);
    } else if (roll == 3) {
      p.set_element_failed(e, true);
    }
  }
  return p;
}

/// Tasks draw targets and requirements from small palettes, so requirement
/// classes repeat across tasks and implementations; costs come from a small
/// set, so regret and cost ties occur.
Application random_app(util::Xoshiro256& rng, const Platform& platform) {
  const ResourceVector palette[] = {
      ResourceVector(50, 32, 0, 0), ResourceVector(100, 32, 0, 0),
      ResourceVector(100, 64, 1, 0), ResourceVector(200, 64, 0, 1),
      ResourceVector(350, 128, 0, 0)};
  const double costs[] = {1.0, 2.0, 2.5, 4.0};
  Application app("random");
  const auto tasks = rng.uniform_int(1, 14);
  for (std::int64_t t = 0; t < tasks; ++t) {
    const TaskId id = app.add_task("t" + std::to_string(t));
    const auto impls = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < impls; ++k) {
      Implementation impl;
      impl.name = "v" + std::to_string(k);
      impl.target = random_type(rng);
      impl.requirement = palette[rng.uniform_int(0, 4)];
      impl.cost = costs[rng.uniform_int(0, 3)];
      app.task_mut(id).add_implementation(impl);
    }
    if (rng.uniform_int(0, 5) == 0) {
      app.task_mut(id).set_pinned(ElementId{static_cast<std::int32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(
                                 platform.element_count()) - 1))});
    }
  }
  return app;
}

TEST(BindingPropertyTest, ClassMemoDecidesLikePerProbeRegretLoop) {
  int succeeded = 0;
  int failed = 0;
  int failed_at_pin = 0;
  int failed_after_claims = 0;
  int pinned_bound = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    util::Xoshiro256 rng(seed);
    const Platform platform = random_platform(rng);
    const Application app = random_app(rng, platform);
    const auto pins = resolve_pins(app, platform);
    ASSERT_TRUE(pins.ok()) << pins.error();

    std::size_t claims_before_failure = 0;
    const BindingResult expected =
        reference_bind(platform, app, pins.value(), claims_before_failure);
    const BindingResult actual =
        BindingPhase(platform).bind(app, pins.value());

    ASSERT_EQ(actual.ok, expected.ok) << "seed " << seed;
    ASSERT_EQ(actual.impl_of, expected.impl_of) << "seed " << seed;
    ASSERT_EQ(actual.total_cost, expected.total_cost) << "seed " << seed;
    ASSERT_EQ(actual.failed_task, expected.failed_task) << "seed " << seed;
    ASSERT_EQ(actual.reason, expected.reason) << "seed " << seed;

    if (expected.ok) {
      ++succeeded;
      for (std::size_t t = 0; t < app.task_count(); ++t) {
        if (pins.value()[t].has_value()) ++pinned_bound;
      }
    } else {
      ++failed;
      if (claims_before_failure > 0) ++failed_after_claims;
      if (pins.value()[static_cast<std::size_t>(
              expected.failed_task.value)].has_value()) {
        ++failed_at_pin;
      }
    }
  }
  // The generator must reach both outcomes, pinned successes and pinned
  // failures, and failures that only earlier claims caused (tasks that fit
  // one by one but jointly oversubscribe a type), or the comparison above
  // proves little.
  EXPECT_GT(succeeded, 300);
  EXPECT_GT(failed, 300);
  EXPECT_GT(failed_after_claims, 100);
  EXPECT_GT(pinned_bound, 100);
  EXPECT_GT(failed_at_pin, 50);
}

}  // namespace
}  // namespace kairos::core

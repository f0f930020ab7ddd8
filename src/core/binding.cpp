#include "core/binding.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "platform/availability.hpp"

namespace kairos::core {

using graph::TaskId;
using platform::ElementId;
using platform::ElementType;
using platform::ResourceVector;

util::Result<PinTable> resolve_pins(const graph::Application& app,
                                    const platform::Platform& platform) {
  PinTable pins(app.task_count());
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    if (task.pinned().has_value()) {
      const ElementId e = *task.pinned();
      if (!e.valid() ||
          static_cast<std::size_t>(e.value) >= platform.element_count()) {
        return util::Error("task '" + task.name() +
                           "' is pinned to a non-existent element id");
      }
      pins[idx] = e;
      continue;
    }
    if (!task.pinned_name().empty()) {
      bool found = false;
      for (const auto& e : platform.elements()) {
        if (e.name() == task.pinned_name()) {
          pins[idx] = e.id();
          found = true;
          break;
        }
      }
      if (!found) {
        return util::Error("task '" + task.name() +
                           "' is pinned to unknown element '" +
                           task.pinned_name() + "'");
      }
    }
  }
  return pins;
}

namespace {

/// A scratch view of every element's free capacity. Binding claims each
/// selected implementation from some concrete element (first fit), which
/// keeps the phase's "available somewhere in the platform" test honest at
/// element granularity: an application whose tasks individually fit but
/// jointly oversubscribe every element is rejected here rather than deep in
/// the mapping phase. The scratch is only a feasibility oracle — the actual
/// placement decision is the mapping phase's.
///
/// Backed by a pooled AvailabilityIndex, which finds the first fitting
/// element (lowest id, as a linear first fit would) in O(log V). The regret
/// loop does not probe it per (task, implementation, round): it asks a
/// FeasibilityClass (below), which probes again only once a claim has
/// taken the room of the element it found last.
struct Pool {
  platform::ScratchAvailability avail;

  explicit Pool(const platform::Platform& platform) : avail(platform) {}

  ElementId first_available(ElementType type,
                            const ResourceVector& req) const {
    return avail->first_available(type, req);
  }

  bool fits(ElementId e, const ResourceVector& req) const {
    return req.fits_within(avail->free(e));
  }

  bool pin_fits(const platform::Platform& platform, ElementId pin,
                const ResourceVector& req) const {
    return !platform.element(pin).is_failed() &&
           req.fits_within(avail->free(pin));
  }

  /// Claims `req` on `e`, which must be first_available(type, req).
  void claim(ElementType type, ElementId e, const ResourceVector& req) {
    assert(e == avail->first_available(type, req));
    (void)type;
    avail->set_free(e, avail->free(e) - req);
  }

  void claim_pinned(ElementId pin, const ResourceVector& req) {
    avail->set_free(pin, avail->free(pin) - req);
    assert(!avail->free(pin).any_negative());
  }
};

/// One distinct (target type, requirement) pair among the implementations
/// of a bind's unpinned tasks. An unpinned implementation is feasible iff
/// some element of its target type fits its requirement, so every
/// implementation of a class shares one verdict. The verdict is probed
/// lazily, when the regret loop first asks for it, so tasks meet their
/// verdicts in the same order (and the first infeasible task fails with the
/// same reason) as when every implementation probes for itself, with at
/// most as many probes.
///
/// Claims only shrink the pool, so a "no" stays "no". A "yes" keeps its
/// witness, the element first_available() returned: the verdict holds for
/// as long as the witness still fits the requirement, and only once a
/// claim has taken the witness's room is the pool probed again (for a new
/// witness, or a "no"). The witness is also the element a claim of the
/// class takes: no element before it fitted when it was found, and claims
/// only shrink, so while it fits it is still the first that does.
struct FeasibilityClass {
  enum class Verdict : std::uint8_t { kUnknown, kYes, kNo };

  ElementType target;
  Verdict verdict = Verdict::kUnknown;
  ElementId witness;
  /// The requirement of the class's first implementation, in the app.
  const ResourceVector* requirement;
};

/// Per-thread buffers of bind(), reused across calls (like RouterScratch in
/// noc/router.cpp) so that small applications allocate nothing but their
/// result. The regret loop reads only these flat arrays and the classes.
struct BindScratch {
  /// One implementation as the regret loop sees it: its feasibility class
  /// (-1 for the implementations of pinned tasks, which are checked
  /// against their pin) and its cost.
  struct Option {
    int cls;
    double cost;
  };

  std::vector<FeasibilityClass> classes;
  /// Per implementation, task-major.
  std::vector<Option> options;
  /// Per task, plus one: offset of its first implementation in `options`.
  std::vector<std::uint32_t> first_option;
  /// Open-addressing index of `classes` by (target, requirement); -1 = empty.
  std::vector<int> slots;

  void reset(const graph::Application& app, const PinTable& pins) {
    classes.clear();
    options.clear();
    first_option.clear();
    std::size_t impls = 0;
    for (const auto& task : app.tasks()) impls += task.implementations().size();
    std::size_t capacity = 8;
    while (capacity < 2 * impls) capacity *= 2;
    slots.assign(capacity, -1);
    for (const auto& task : app.tasks()) {
      first_option.push_back(static_cast<std::uint32_t>(options.size()));
      const bool pinned =
          pins[static_cast<std::size_t>(task.id().value)].has_value();
      for (const auto& impl : task.implementations()) {
        options.push_back({pinned ? -1 : class_index(impl), impl.cost});
      }
    }
    first_option.push_back(static_cast<std::uint32_t>(options.size()));
  }

  int class_index(const graph::Implementation& impl) {
    // FNV-style mix of the target and the requirement's components.
    std::uint64_t h = static_cast<std::uint64_t>(impl.target);
    for (std::size_t k = 0; k < platform::kResourceKindCount; ++k) {
      h = (h ^ static_cast<std::uint64_t>(impl.requirement.get(
                   static_cast<platform::ResourceKind>(k)))) *
          0x100000001b3ULL;
    }
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      if (slots[i] < 0) {
        slots[i] = static_cast<int>(classes.size());
        classes.push_back({impl.target, FeasibilityClass::Verdict::kUnknown,
                           ElementId{}, &impl.requirement});
        return slots[i];
      }
      const auto& cls = classes[static_cast<std::size_t>(slots[i])];
      if (cls.target == impl.target && *cls.requirement == impl.requirement) {
        return slots[i];
      }
    }
  }

  bool feasible(int c, const Pool& pool) {
    FeasibilityClass& cls = classes[static_cast<std::size_t>(c)];
    using Verdict = FeasibilityClass::Verdict;
    if (cls.verdict == Verdict::kNo) return false;
    if (cls.verdict == Verdict::kYes &&
        pool.fits(cls.witness, *cls.requirement)) {
      return true;
    }
    cls.witness = pool.first_available(cls.target, *cls.requirement);
    cls.verdict = cls.witness.valid() ? Verdict::kYes : Verdict::kNo;
    return cls.verdict == Verdict::kYes;
  }
};

BindScratch& bind_scratch() {
  thread_local BindScratch scratch;
  return scratch;
}

}  // namespace

BindingResult BindingPhase::bind(const graph::Application& app,
                                 const PinTable& pins) const {
  BindingResult result;
  result.impl_of.assign(app.task_count(), -1);

  Pool pool(*platform_);
  // A pinned task's implementation is feasible only on its pin.
  auto pinned_feasible = [&](const graph::Implementation& impl,
                             ElementId pin) {
    return platform_->element(pin).type() == impl.target &&
           pool.pin_fits(*platform_, pin, impl.requirement);
  };
  BindScratch& scratch = bind_scratch();
  scratch.reset(app, pins);
  std::size_t remaining = app.task_count();

  while (remaining > 0) {
    // For every unbound task: cheapest and second-cheapest feasible
    // implementation under the current pool.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    TaskId pick;
    int pick_impl = -1;
    double pick_regret = -1.0;
    double pick_cost = kInf;

    for (std::size_t idx = 0; idx < app.task_count(); ++idx) {
      if (result.impl_of[idx] >= 0) continue;  // bound in an earlier round
      const auto* options = scratch.options.data() + scratch.first_option[idx];
      const std::size_t count =
          scratch.first_option[idx + 1] - scratch.first_option[idx];
      double best = kInf;
      double second = kInf;
      int best_impl = -1;
      for (std::size_t k = 0; k < count; ++k) {
        const bool feasible =
            options[k].cls >= 0
                ? scratch.feasible(options[k].cls, pool)
                : pinned_feasible(app.tasks()[idx].implementations()[k],
                                  *pins[idx]);
        if (!feasible) continue;
        const double cost = options[k].cost;
        if (cost < best) {
          second = best;
          best = cost;
          best_impl = static_cast<int>(k);
        } else if (cost < second) {
          second = cost;
        }
      }
      if (best_impl < 0) {
        const auto& task = app.tasks()[idx];
        result.failed_task = task.id();
        result.reason = "no feasible implementation for task '" +
                        task.name() + "' (resources exhausted)";
        return result;
      }
      // Regret: difference between cheapest and second cheapest. A task
      // with a single option has infinite regret and binds first.
      const double regret = second == kInf ? kInf : second - best;
      const bool better =
          regret > pick_regret ||
          (regret == pick_regret && best < pick_cost);
      if (!pick.valid() || better) {
        pick = TaskId(static_cast<std::int32_t>(idx));
        pick_impl = best_impl;
        pick_regret = regret;
        pick_cost = best;
      }
    }

    assert(pick.valid());
    const auto pick_idx = static_cast<std::size_t>(pick.value);
    const auto& impl =
        app.task(pick).implementations()[static_cast<std::size_t>(pick_impl)];
    result.impl_of[pick_idx] = pick_impl;
    result.total_cost += impl.cost;
    if (pins[pick_idx].has_value()) {
      pool.claim_pinned(*pins[pick_idx], impl.requirement);
    } else {
      const int cls =
          scratch.options[scratch.first_option[pick_idx] +
                          static_cast<std::size_t>(pick_impl)]
              .cls;
      pool.claim(impl.target,
                 scratch.classes[static_cast<std::size_t>(cls)].witness,
                 impl.requirement);
    }
    --remaining;
  }

  result.ok = true;
  return result;
}

}  // namespace kairos::core

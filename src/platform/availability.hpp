// Indexed availability — sublinear free-capacity queries over the platform.
//
// Every admission phase asks the same family of questions: "is there an
// element of type t whose free capacity covers r?" (binding feasibility),
// "which is the first such element?" (first-fit seeding), "how many are
// there?" (Platform::count_available), "list them all" (candidate
// enumeration for the mapping strategies). The seed answered each with a
// linear scan over all V elements; at paper scale (25 elements) that is
// free, at 10k elements those scans *are* the admission bill — the binding
// phase alone performs O(tasks² · implementations) of them per admission.
//
// AvailabilityIndex answers all of them from one structure: a per-type
// segment tree over the type's member elements (in ascending element-id
// order, so every query preserves the element-index-order semantics the
// regression pins depend on). Each tree node holds the component-wise max
// and min of its leaves' free vectors plus the count of non-failed leaves:
//
//   * covers(t, r)            — descend wherever r fits the node max; O(log V)
//                               expected, pruned subtrees cannot contain a fit.
//   * first_available(t, r)   — leftmost fitting leaf = exactly the first
//                               element in id order a linear first-fit finds.
//   * count_available(t, r)   — subtrees where r fits the node *min* are
//                               counted wholesale via the non-failed count.
//   * collect_available(...)  — in-order walk of fitting leaves, with
//                               optional exclusion and limit.
//   * total_free(t)           — maintained running sum (failed excluded).
//
// Failed elements keep their true free vector in the flat mirror but their
// leaf is a -1 sentinel: no non-negative requirement fits, so every query
// excludes them without a per-leaf fault check — and repair simply writes
// the real vector back.
//
// The index plays two roles:
//
//   * Platform-owned: maintained incrementally (O(log V)) by allocate /
//     release / set_element_failed. It is built lazily, and ONLY from
//     non-const contexts (Platform::ensure_availability or a mutator) —
//     const queries under the service's shared lock fall back to the linear
//     scan rather than building, so readers never write shared state.
//     restore() and clear_allocations() invalidate; the next ensure rebuilds.
//   * Scratch: planning code (binding pool, SA/tabu free-state) needs a
//     *hypothetical* availability the platform must not see. ScratchAvailability
//     pools index instances thread-locally and rebuilds them from the live
//     platform per admission.
//
// In debug builds Platform cross-checks the incremental index against a
// linear recount every few mutations (consistent_with); the churn property
// test does the same in release builds.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/element.hpp"
#include "platform/resource_vector.hpp"

namespace kairos::platform {

class Platform;

/// Static per-type member lists (element ids, ascending) — pure topology,
/// shared across platform copies like the hop cache. Consumers that only
/// need "all elements of type t, in id order" (optimal search, simple_map)
/// iterate these directly and keep their own per-element checks.
struct TypeMembers {
  std::array<std::vector<ElementId>, kElementTypeCount> of;
};

class AvailabilityIndex {
 public:
  AvailabilityIndex() = default;

  /// (Re)builds from the platform's current free/failed state. O(V).
  /// Reuses previously-allocated buffers, so pooled instances rebuild
  /// without touching the heap once warm.
  void rebuild(const Platform& platform);

  bool built() const { return built_; }
  void invalidate() { built_ = false; }

  // --- incremental maintenance (all O(log V)) ------------------------------

  /// Mirrors Platform::allocate / release: demand leaves (enters) e's free.
  void on_allocate(ElementId e, const ResourceVector& demand);
  void on_release(ElementId e, const ResourceVector& demand);

  /// Mirrors Platform::set_element_failed: swaps the leaf between its real
  /// free vector and the nothing-fits sentinel, and moves the element's
  /// free capacity out of (into) the per-type running sum.
  void on_failed(ElementId e, bool failed);

  // --- queries (exact; element-id order) -----------------------------------

  /// The element's true free vector (tracked even while failed).
  const ResourceVector& free(ElementId e) const {
    return free_[static_cast<std::size_t>(e.value)];
  }

  bool is_failed(ElementId e) const {
    return failed_[static_cast<std::size_t>(e.value)] != 0;
  }

  /// True iff some non-failed element of `type` covers `demand`.
  bool covers(ElementType type, const ResourceVector& demand) const;

  /// The lowest-id non-failed element of `type` covering `demand`; invalid
  /// id when none — bit-identical to a linear first-fit scan.
  ElementId first_available(ElementType type, const ResourceVector& demand) const;

  /// Number of non-failed elements of `type` covering `demand`.
  int count_available(ElementType type, const ResourceVector& demand) const;

  /// Appends the non-failed elements of `type` covering `demand`, in id
  /// order, skipping `exclude` (pass an invalid id to skip nothing), until
  /// `limit` elements have been appended.
  void collect_available(ElementType type, const ResourceVector& demand,
                         ElementId exclude, std::size_t limit,
                         std::vector<ElementId>& out) const;

  /// Aggregate free over non-failed elements of `type` (maintained sum).
  const ResourceVector& total_free(ElementType type) const {
    return sums_[static_cast<std::size_t>(type)];
  }

  /// Linear recount ground truth — true iff every derived quantity (flat
  /// mirrors, tree nodes, sums) matches a fresh build from `platform`.
  bool consistent_with(const Platform& platform) const;

 private:
  // One segment tree per element type over that type's members (id order).
  // Leaves live at [base, base + members); `base` is the padded power of
  // two. Padding leaves are "absorbing": max = -1 (nothing fits), min =
  // +inf (never shortcuts a count), avail = 0.
  struct Tree {
    std::size_t base = 0;
    std::vector<ResourceVector> maxv;
    std::vector<ResourceVector> minv;
    std::vector<std::int32_t> avail;
  };

  void refresh_leaf(ElementId e);
  ElementId leaf_element(const Tree& tree, std::size_t type_index,
                         std::size_t node) const;

  std::shared_ptr<const TypeMembers> members_;
  std::array<Tree, kElementTypeCount> trees_;
  std::array<ResourceVector, kElementTypeCount> sums_;
  std::vector<ResourceVector> free_;  // exact free per element, failed or not
  std::vector<std::uint8_t> failed_;
  std::vector<std::int32_t> slot_;  // member slot within the type's tree
  std::vector<std::uint8_t> type_;  // element type, as index
  bool built_ = false;
};

/// RAII lease of a pooled AvailabilityIndex rebuilt from `platform` — the
/// scratch role above. Instances are recycled through a thread-local
/// freelist, so per-admission planning reuses warm buffers instead of
/// allocating O(V) state each time. Thread-local by construction: never
/// shared across threads, invisible to TSan.
class ScratchAvailability {
 public:
  explicit ScratchAvailability(const Platform& platform);
  ~ScratchAvailability();

  ScratchAvailability(const ScratchAvailability&) = delete;
  ScratchAvailability& operator=(const ScratchAvailability&) = delete;

  AvailabilityIndex& operator*() { return *index_; }
  AvailabilityIndex* operator->() { return index_.get(); }
  const AvailabilityIndex& operator*() const { return *index_; }
  const AvailabilityIndex* operator->() const { return index_.get(); }

 private:
  std::unique_ptr<AvailabilityIndex> index_;
};

}  // namespace kairos::platform

// Indexed availability — sublinear free-capacity queries over the platform.
//
// The binding phase asks whether "the required resources are available
// somewhere in the platform" (§I-A) and first-fits each implementation;
// mapping then lists the elements that can host each task. A linear scan
// over all V elements answers both, and at paper scale (25 elements) that
// is free; at 10k elements those scans *are* the admission bill.
//
// AvailabilityIndex answers both from one structure: a per-type segment
// tree over the type's member elements (in ascending element-id order, so
// every answer keeps the element-index order the regression pins depend
// on). Each tree node holds the component-wise max of its leaves' free
// vectors:
//
//   * first_available(t, r)   — leftmost fitting leaf = exactly the first
//                               element in id order a linear first-fit finds.
//   * collect_available(...)  — in-order walk of fitting leaves, with
//                               optional exclusion and limit.
//
// Failed elements keep their true free vector in the flat mirror but their
// leaf is a -1 sentinel: no non-negative requirement fits, so every query
// excludes them without a per-leaf fault check — and repair simply writes
// the real vector back.
//
// The index plays two roles:
//
//   * Platform-owned: valid from construction and always current.
//     add_element grows it; allocate / release / set_element_failed and the
//     leaves a restore() or clear_allocations() changes are refreshed in
//     O(log V) each.
//   * Scratch: planning code (binding pool, SA/tabu free-state) needs a
//     *hypothetical* availability the platform must not see. ScratchAvailability
//     leases a pooled index thread-locally and copies the platform's into it.
//
// In debug builds Platform cross-checks its index against a fresh build
// (consistent_with) every few mutations; the churn property test does the
// same in release builds.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/element.hpp"
#include "platform/resource_vector.hpp"

namespace kairos::platform {

class Platform;

/// Per-type member lists (element ids, ascending) — pure topology. Copies of
/// an index share one instance; add_element clones it first if it is shared.
struct TypeMembers {
  std::array<std::vector<ElementId>, kElementTypeCount> of;
};

class AvailabilityIndex {
 public:
  AvailabilityIndex() = default;

  /// Appends element `e`, which must be the next id, with free capacity
  /// `free`. Its leaf takes a padding slot of its type's tree; the tree is
  /// laid out afresh (at double the size) only when it is full, so growing
  /// to V elements costs amortised O(V).
  void add_element(ElementId e, ElementType type, const ResourceVector& free);

  // --- incremental maintenance (all O(log V)) ------------------------------

  /// Overwrites e's free vector: every allocate, release, restore and
  /// clear, and every hypothetical claim on a scratch copy, goes through it.
  void set_free(ElementId e, const ResourceVector& free);

  /// Mirrors Platform::set_element_failed: swaps the leaf between its real
  /// free vector and the nothing-fits sentinel.
  void on_failed(ElementId e, bool failed);

  // --- queries (exact; element-id order) -----------------------------------

  /// Ids of all elements of `type`, ascending.
  const std::vector<ElementId>& members(ElementType type) const {
    return members_->of[static_cast<std::size_t>(type)];
  }

  /// The element's true free vector (tracked even while failed).
  const ResourceVector& free(ElementId e) const {
    return free_[static_cast<std::size_t>(e.value)];
  }

  bool is_failed(ElementId e) const {
    return failed_[static_cast<std::size_t>(e.value)] != 0;
  }

  /// The lowest-id non-failed element of `type` covering `demand`; invalid
  /// id when none — bit-identical to a linear first-fit scan.
  ElementId first_available(ElementType type, const ResourceVector& demand) const;

  /// Appends the non-failed elements of `type` covering `demand`, in id
  /// order, skipping `exclude` (pass an invalid id to skip nothing), until
  /// `limit` elements have been appended.
  void collect_available(ElementType type, const ResourceVector& demand,
                         ElementId exclude, std::size_t limit,
                         std::vector<ElementId>& out) const;

  /// Linear recount ground truth — true iff the member lists, flat mirrors
  /// and tree nodes all match a fresh build from `platform`'s elements.
  bool consistent_with(const Platform& platform) const;

 private:
  // One segment tree per element type over that type's members (id order).
  // Leaves live at [base, base + members); `base` is the padded power of
  // two. Padding leaves (and node 0, which is unused) hold the nothing-fits
  // sentinel.
  struct Tree {
    std::size_t base = 0;
    std::vector<ResourceVector> maxv;
  };

  /// Re-derives type `type_index`'s whole tree from the flat mirrors.
  void lay_out(std::size_t type_index);
  void refresh_leaf(ElementId e);

  std::shared_ptr<TypeMembers> members_ = std::make_shared<TypeMembers>();
  std::array<Tree, kElementTypeCount> trees_;
  std::vector<ResourceVector> free_;  // exact free per element, failed or not
  std::vector<std::uint8_t> failed_;
  std::vector<std::int32_t> slot_;  // member slot within the type's tree
  std::vector<std::uint8_t> type_;  // element type, as index
};

/// RAII lease of a pooled AvailabilityIndex holding a copy of `platform`'s
/// — the scratch role above. Instances are recycled through a thread-local
/// freelist, so the copy reuses warm buffers instead of allocating O(V)
/// state per admission, and the member lists are shared, not copied.
/// Thread-local by construction: never shared across threads, invisible to
/// TSan.
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

// The platform graph P = <E, L> of §III: processing elements connected by
// (directed) network-on-chip links, plus the mutable allocation state the
// run-time resource manager operates on.
//
// All state mutation flows through this class so that admissions can be made
// atomic: Snapshot/restore (and the RAII Transaction wrapper) give each
// allocation attempt all-or-nothing semantics — a rejected application leaves
// no residue in the platform.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/availability.hpp"
#include "platform/element.hpp"
#include "platform/hop_cache.hpp"
#include "platform/resource_vector.hpp"

namespace kairos::platform {

/// Strongly-typed link index into Platform::links().
struct LinkId {
  std::int32_t value = -1;

  constexpr LinkId() = default;
  constexpr explicit LinkId(std::int32_t v) : value(v) {}
  constexpr bool valid() const { return value >= 0; }
  friend constexpr bool operator==(LinkId, LinkId) = default;
  friend constexpr auto operator<=>(LinkId, LinkId) = default;
};

/// A directed NoC link. Capacity is two-dimensional, matching the virtual
/// channel scheme of Kavaldjiev et al. [11] the paper adopts: a link offers a
/// fixed number of virtual channels (time slots) and an aggregate bandwidth.
/// A route through the link claims one virtual channel plus its bandwidth.
class Link {
 public:
  Link(LinkId id, ElementId src, ElementId dst, int vc_capacity,
       std::int64_t bw_capacity)
      : id_(id),
        src_(src),
        dst_(dst),
        vc_capacity_(vc_capacity),
        bw_capacity_(bw_capacity) {}

  LinkId id() const { return id_; }
  ElementId src() const { return src_; }
  ElementId dst() const { return dst_; }
  int vc_capacity() const { return vc_capacity_; }
  int vc_used() const { return vc_used_; }
  int vc_free() const { return vc_capacity_ - vc_used_; }
  std::int64_t bw_capacity() const { return bw_capacity_; }
  std::int64_t bw_used() const { return bw_used_; }
  std::int64_t bw_free() const { return bw_capacity_ - bw_used_; }

  /// True iff one more virtual channel with `bandwidth` can be reserved.
  bool can_carry(std::int64_t bandwidth) const {
    return vc_free() >= 1 && bw_free() >= bandwidth;
  }

  /// Fraction of bandwidth in use, in [0, 1].
  double load() const {
    return bw_capacity_ == 0
               ? 0.0
               : static_cast<double>(bw_used_) /
                     static_cast<double>(bw_capacity_);
  }

  /// Fault state of the wire itself (endpoint faults are tracked on the
  /// elements; Platform::link_usable() combines both).
  bool is_failed() const { return failed_; }

 private:
  friend class Platform;

  LinkId id_;
  ElementId src_;
  ElementId dst_;
  int vc_capacity_;
  std::int64_t bw_capacity_;
  int vc_used_ = 0;
  std::int64_t bw_used_ = 0;
  bool failed_ = false;
};

/// A copy of all mutable allocation state; see Platform::snapshot().
struct Snapshot {
  struct ElementState {
    ResourceVector used;
    int task_count = 0;
    long wear = 0;
  };
  struct LinkState {
    int vc_used = 0;
    std::int64_t bw_used = 0;
  };
  std::vector<ElementState> elements;
  std::vector<LinkState> links;
};

/// What a snapshot/restore pair covers. A phase that provably mutates only
/// element state (the mapper: allocate/add_task) can skip copying the link
/// arrays, which dominate a full snapshot on mesh platforms (~4 links per
/// element).
enum class SnapshotScope { kAll, kElementsOnly };

class Platform {
 public:
  Platform() = default;
  explicit Platform(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- construction -------------------------------------------------------

  /// Adds an element and returns its id.
  ElementId add_element(ElementType type, std::string name,
                        ResourceVector capacity, int package = -1);

  /// Adds a directed link a -> b.
  LinkId add_link(ElementId a, ElementId b, int vc_capacity,
                  std::int64_t bw_capacity);

  /// Adds both directions a -> b and b -> a with identical capacities.
  void add_duplex_link(ElementId a, ElementId b, int vc_capacity,
                       std::int64_t bw_capacity);

  // --- topology queries ----------------------------------------------------

  std::size_t element_count() const { return elements_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Element& element(ElementId id) const { return elements_.at(index(id)); }
  const Link& link(LinkId id) const { return links_.at(lindex(id)); }
  const std::vector<Element>& elements() const { return elements_; }
  const std::vector<Link>& links() const { return links_; }

  /// Outgoing / incoming links of an element, in ascending link id.
  const std::vector<LinkId>& out_links(ElementId e) const {
    return adjacency_->out.at(index(e));
  }
  const std::vector<LinkId>& in_links(ElementId e) const {
    return adjacency_->in.at(index(e));
  }

  /// Undirected neighbor set (deduplicated union of in- and out-neighbors).
  const std::vector<ElementId>& neighbors(ElementId e) const {
    return adjacency_->neighbors.at(index(e));
  }

  /// Names the platform's topology and element fault state: two platforms
  /// with the same serial have the same elements, links and failed
  /// elements. Copies keep the serial; add_element, add_link and
  /// set_element_failed draw a fresh one from a process-wide counter, so a
  /// serial is never reused. Allocation state and link faults do not enter
  /// it. The per-origin search trees (search_trees.hpp) are keyed by it.
  std::uint64_t search_serial() const { return search_serial_; }

  /// Undirected degree (number of distinct neighbors) — the "connectivity"
  /// the fragmentation cost term of §III-D uses: border elements have lower
  /// connectivity and are favoured.
  int degree(ElementId e) const {
    return static_cast<int>(neighbors(e).size());
  }

  /// The link a -> b, if present.
  std::optional<LinkId> find_link(ElementId a, ElementId b) const;

  /// Undirected hop distances from `from` to every element (-1 where
  /// unreachable). O(E + L). Always recomputes; prefer hop_row().
  std::vector<int> hop_distances_from(ElementId from) const;

  /// Cached undirected hop distances from `from` (-1 where unreachable) —
  /// computed on first request and shared across platform copies; see
  /// hop_cache.hpp for the invalidation contract.
  const std::vector<int>& hop_row(ElementId from) const;

  /// The shared hop-distance cache itself, for consumers (DistanceCache,
  /// cost models) that outlive individual calls.
  std::shared_ptr<const HopCache> hop_cache() const;

  /// The largest finite undirected hop distance in the platform. Used to
  /// scale the missing-distance penalty of the mapping cost function.
  /// Cached (iFUB, exact); invalidated only by topology edits.
  int diameter() const;

  /// Ids of all elements of `type`, ascending — shared static member lists.
  const std::vector<ElementId>& elements_of_type(ElementType type) const;
  std::shared_ptr<const TypeMembers> type_members() const;

  // --- element allocation state --------------------------------------------

  /// Attempts to reserve `demand` on the element. Fails (returning false and
  /// changing nothing) if the free capacity does not cover the demand.
  bool allocate(ElementId e, const ResourceVector& demand);

  /// Releases a prior reservation. The demand must not exceed what is
  /// currently in use (checked with an assertion).
  void release(ElementId e, const ResourceVector& demand);

  /// Task-hosting counters back the is_used() bit of the fragmentation
  /// metric; the mapping phase registers one count per mapped task.
  void add_task(ElementId e);
  void remove_task(ElementId e);

  /// Aggregate free resources over all elements of a given type — the
  /// availability test the binding phase performs ("the required resources
  /// must be available somewhere in the platform", §I-A).
  ResourceVector total_free(ElementType type) const;

  /// Number of elements of a type whose free capacity covers `demand`.
  int count_available(ElementType type, const ResourceVector& demand) const;

  // --- availability index ----------------------------------------------------

  /// Builds the incremental availability index if absent (O(V)); afterwards
  /// allocate/release/set_element_failed maintain it in O(log V) and
  /// total_free/count_available answer from it. Non-const by design: const
  /// queries under a shared lock must never build shared state, they fall
  /// back to the linear scan instead. Call from exclusive contexts (the
  /// admission path) before heavy candidate enumeration.
  void ensure_availability();

  bool availability_ready() const { return availability_.built(); }

  /// The platform-owned index; only valid when availability_ready().
  const AvailabilityIndex& availability() const { return availability_; }

  /// True iff the incremental index (when built) matches a linear recount.
  /// Trivially true when the index is not built. For tests and audits.
  bool availability_consistent() const;

  // --- link allocation state ------------------------------------------------

  /// Reserves one virtual channel plus bandwidth on the link; false if the
  /// link cannot carry the request.
  bool allocate_channel(LinkId l, std::int64_t bandwidth);

  /// Releases one virtual channel plus bandwidth.
  void release_channel(LinkId l, std::int64_t bandwidth);

  // --- fault injection --------------------------------------------------------

  /// Marks an element (un)failed. Failed elements are skipped by
  /// total_free/count_available and must be excluded from av(e,t) by the
  /// allocation phases. Existing allocations are left in place — the caller
  /// (e.g. core::ResourceManager::apps_using) decides what to do with
  /// applications that were running there.
  void set_element_failed(ElementId e, bool failed);

  /// Marks a link (un)failed. Failed links carry no new routes.
  void set_link_failed(LinkId l, bool failed);

  /// True iff the link and both its endpoints are fault-free — the
  /// usability test the router applies.
  bool link_usable(LinkId l) const;

  /// Number of failed elements.
  int failed_element_count() const;

  // --- atomicity -------------------------------------------------------------

  Snapshot snapshot() const;

  /// snapshot() into a caller-owned buffer, reusing its capacity — the
  /// allocation-free form the pooled Transaction uses. An elements-only
  /// scope leaves snap.links untouched.
  void snapshot_into(Snapshot& snap,
                     SnapshotScope scope = SnapshotScope::kAll) const;

  /// Restores the state captured by snapshot_into with the same scope.
  void restore(const Snapshot& snap,
               SnapshotScope scope = SnapshotScope::kAll);

  /// Removes every allocation (elements and links). Used between benchmark
  /// sequences ("between sequences the platform is emptied", §IV).
  void clear_allocations();

  /// Sanity check: all usage within capacity and non-negative. Intended for
  /// tests and debug assertions.
  bool invariants_hold() const;

 private:
  /// Debug-build cross-check: every few index mutations, assert the
  /// incremental state equals a linear recount.
  void audit_availability();

  std::size_t index(ElementId id) const {
    return static_cast<std::size_t>(id.value);
  }
  std::size_t lindex(LinkId id) const {
    return static_cast<std::size_t>(id.value);
  }

  /// The adjacency lists: pure topology, so copies of the platform share
  /// one instance (a snapshot copies a pointer, not ~3 vectors per
  /// element). The first topology edit on a shared instance clones it.
  struct Adjacency {
    std::vector<std::vector<LinkId>> out;
    std::vector<std::vector<LinkId>> in;
    std::vector<std::vector<ElementId>> neighbors;
  };

  /// The adjacency, cloned first if another platform copy shares it.
  Adjacency& edit_adjacency();

  std::string name_;
  std::vector<Element> elements_;
  std::vector<Link> links_;
  std::shared_ptr<const Adjacency> adjacency_ = std::make_shared<Adjacency>();
  std::uint64_t search_serial_ = 0;
  // Shared lazily-built topology caches (see hop_cache.hpp); copies of the
  // platform share the pointees, topology edits drop the pointers.
  mutable detail::AtomicSharedPtr<HopCache> hop_cache_;
  mutable detail::AtomicSharedPtr<const TypeMembers> type_members_;
  // Incremental availability index — per-copy (it tracks allocation state).
  AvailabilityIndex availability_;
#ifndef NDEBUG
  unsigned availability_audit_ = 0;
#endif
};

/// RAII transaction: captures a snapshot on construction and restores it on
/// destruction unless commit() was called. Gives every allocation phase
/// all-or-nothing behaviour. The snapshot buffer is leased from a
/// thread-local pool, so the nested transactions every admission opens
/// (stage + incremental-mapper) reuse warm O(V)-sized buffers instead of
/// allocating them each time.
class Transaction {
 public:
  explicit Transaction(Platform& platform,
                       SnapshotScope scope = SnapshotScope::kAll);
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Keeps all changes made since construction.
  void commit() { committed_ = true; }

  /// Rolls back immediately (the destructor then becomes a no-op).
  void rollback();

 private:
  Platform* platform_;
  std::unique_ptr<Snapshot> snapshot_;
  SnapshotScope scope_;
  bool committed_ = false;
};

}  // namespace kairos::platform

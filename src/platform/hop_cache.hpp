// The shared hop-distance cache — one lazily-filled, row-stable distance
// table per platform topology.
//
// Before this existed, every consumer of hop distances re-derived them
// independently: `layout_cost`, `layout_cost_terms` and the optimal search
// each kept a hand-rolled `if (row.empty())` memo (which recomputes an
// isolated element's legitimately empty row forever), the mappers'
// DistanceCache kept a fourth copy per admission, and `diameter()` ran a
// full BFS from every element. At paper scale (25 elements) none of that
// shows up; at 10k elements the diameter alone is ~V BFS runs = hundreds of
// milliseconds, paid once per constructed platform copy.
//
// The cache is owned by Platform via shared_ptr and *shared across platform
// copies*: the per-admission staging copies the service makes all reuse the
// rows computed on the live platform. Two properties make that sound:
//
//  * Rows are pure topology. BFS walks Platform::neighbors(), which ignores
//    allocations and fault marks — fault circumvention is the router's job
//    (link_usable), not the distance metric's — so allocate/release/fault/
//    repair transitions leave every row valid by construction. Only
//    topology edits (add_element/add_link) invalidate, and Platform does
//    that by dropping its pointer; live references die with the old cache
//    when the last holder releases it.
//  * Filling is thread-safe. Each row (and the diameter) has a "built"
//    flag, read with acquire; a cold row is built under one build mutex and
//    published with a release store, so readers of built rows never lock.
//    A build that throws (an allocation failure) leaves its row unbuilt,
//    and the next request builds it again.
//
// The diameter uses the iFUB algorithm (Crescenzi et al.) instead of
// all-pairs BFS: a double sweep finds a lower bound and a central root,
// then only vertices deep enough to possibly beat the bound get their
// eccentricity computed. Exact — bit-identical to the old max-over-all-BFS
// — but on a 100x100 mesh it needs a handful of BFS runs, not 10 000.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "platform/element.hpp"

namespace kairos::platform {

class Platform;

class HopCache {
 public:
  explicit HopCache(std::size_t element_count);

  HopCache(const HopCache&) = delete;
  HopCache& operator=(const HopCache&) = delete;

  /// Undirected hop distances from `from` to every element (-1 where
  /// unreachable). Computed on first request; the returned reference is
  /// stable for the cache's lifetime.
  const std::vector<int>& row(const Platform& platform, ElementId from) const;

  /// The largest finite undirected hop distance (max over components for a
  /// disconnected platform). Computed once, via iFUB.
  int diameter(const Platform& platform) const;

 private:
  static int exact_diameter(const Platform& platform);

  // rows_ never resizes, so built rows are address-stable. A row (or the
  // diameter) is written only under build_mutex_ and only while its flag is
  // false; the flag's release store publishes it to lock-free readers.
  mutable std::mutex build_mutex_;
  mutable std::vector<std::atomic<bool>> row_built_;
  mutable std::vector<std::vector<int>> rows_;
  mutable std::atomic<bool> diameter_built_{false};
  mutable int diameter_ = 0;
};

namespace detail {

/// A copyable holder of an atomically-swappable shared cache pointer.
/// Platform must stay copyable (per-admission staging copies it wholesale),
/// but a raw shared_ptr member would race: one thread lazily creating the
/// cache while another copies the platform under the manager's shared lock.
/// std::atomic<shared_ptr> fixes the race and this wrapper restores
/// copyability (a copy shares the pointee — exactly what the cache wants).
template <typename T>
class AtomicSharedPtr {
 public:
  AtomicSharedPtr() = default;
  AtomicSharedPtr(const AtomicSharedPtr& other) : ptr_(other.load()) {}
  AtomicSharedPtr& operator=(const AtomicSharedPtr& other) {
    ptr_.store(other.load());
    return *this;
  }

  std::shared_ptr<T> load() const { return ptr_.load(); }
  void store(std::shared_ptr<T> value) { ptr_.store(std::move(value)); }

  /// Returns the current pointee, creating it via `make` if absent. When
  /// two threads race on a cold pointer, one creation wins and the loser's
  /// result is discarded — both callers observe the same instance.
  template <typename Make>
  std::shared_ptr<T> ensure(Make&& make) const {
    std::shared_ptr<T> current = ptr_.load();
    if (current) return current;
    std::shared_ptr<T> fresh = make();
    if (ptr_.compare_exchange_strong(current, fresh)) return fresh;
    return current;
  }

 private:
  mutable std::atomic<std::shared_ptr<T>> ptr_;
};

}  // namespace detail

}  // namespace kairos::platform

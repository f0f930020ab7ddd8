// The execution layout — the output of a successful resource allocation
// attempt (Fig. 1): what specific element each task runs on, which
// implementation it uses, and which NoC links each channel occupies. The
// bootstrapping layer would configure the hardware from this structure.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/application.hpp"
#include "noc/router.hpp"
#include "platform/platform.hpp"

namespace kairos::core {

/// Directional distance matrix built during the platform search (§III-D: "A
/// sparse distance matrix is built while searching the platform for
/// elements. If a required distance lookup fails, a relative high penalty is
/// given"). The semantics are the paper's sparse ones: only the (origin,
/// target) pairs the search discovered have a distance, keys are ordered
/// pairs because the search is directional, a later set() of a pair
/// overwrites the earlier one, and every other lookup fails.
///
/// The storage is dense: one row per origin that was ever set, indexed by
/// target id, with -1 marking a target not discovered from that origin.
/// Rows grow lazily up to the largest target set, and origins get a row
/// only on their first set(), so a large platform pays nothing for the
/// elements a search never reaches. Lookups are two vector reads, with no
/// hashing.
class DistanceOracle {
 public:
  /// An empty matrix over the element ids [0, element_count).
  explicit DistanceOracle(std::size_t element_count)
      : element_count_(element_count) {}

  /// Records the hop distance from `origin` to `target`. Throws
  /// std::out_of_range for an element id outside [0, element_count) and
  /// std::invalid_argument for a negative distance.
  void set(platform::ElementId origin, platform::ElementId target, int hops);

  /// The recorded distance, or nullopt when the pair was never set (also
  /// for element ids outside [0, element_count)).
  std::optional<int> lookup(platform::ElementId origin,
                            platform::ElementId target) const {
    if (!origin.valid() || !target.valid()) return std::nullopt;
    const auto o = static_cast<std::size_t>(origin.value);
    if (o >= row_of_.size() || row_of_[o] < 0) return std::nullopt;
    const std::vector<int>& row = rows_[static_cast<std::size_t>(row_of_[o])];
    const auto t = static_cast<std::size_t>(target.value);
    if (t >= row.size() || row[t] < 0) return std::nullopt;
    return row[t];
  }

  /// Number of distinct (origin, target) pairs set.
  std::size_t size() const { return size_; }

  /// Forgets every pair and makes the matrix range over [0,
  /// element_count). The row storage is kept for the next pairs.
  void reset(std::size_t element_count);
  void clear() { reset(element_count_); }

 private:
  std::size_t element_count_;
  std::vector<int> row_of_;            ///< origin id -> row, -1 if none
  std::vector<std::vector<int>> rows_;  ///< per origin: target id -> hops
  std::size_t rows_used_ = 0;          ///< rows_[0, rows_used_) are live
  std::size_t size_ = 0;
};

/// The evolving task -> element assignment during the mapping phase, plus
/// the per-element count of this application's tasks (needed by the
/// fragmentation bonus of the cost function, which distinguishes neighbors
/// hosting *this* application from neighbors used by others).
class PartialMapping {
 public:
  PartialMapping(std::size_t task_count, std::size_t element_count);

  /// Unmaps every task and resizes to the given counts, keeping capacity.
  void reset(std::size_t task_count, std::size_t element_count);

  void assign(graph::TaskId t, platform::ElementId e);
  bool is_mapped(graph::TaskId t) const { return element_of(t).valid(); }
  platform::ElementId element_of(graph::TaskId t) const {
    return task_to_element_.at(static_cast<std::size_t>(t.value));
  }

  /// Number of this application's tasks currently placed on `e`.
  int app_tasks_on(platform::ElementId e) const {
    return tasks_on_element_.at(static_cast<std::size_t>(e.value));
  }

  std::size_t mapped_count() const { return mapped_count_; }
  const std::vector<platform::ElementId>& task_to_element() const {
    return task_to_element_;
  }

 private:
  std::vector<platform::ElementId> task_to_element_;
  std::vector<int> tasks_on_element_;
  std::size_t mapped_count_ = 0;
};

/// Placement of one task.
struct TaskPlacement {
  platform::ElementId element;
  int impl_index = -1;
};

/// Route of one channel. Channels between co-located tasks have an empty
/// route and claim no link resources.
struct ChannelRoute {
  noc::Route route;
  std::int64_t bandwidth = 0;
};

/// The complete execution layout of an admitted application.
class ExecutionLayout {
 public:
  ExecutionLayout() = default;
  ExecutionLayout(std::size_t task_count, std::size_t channel_count)
      : placements_(task_count), routes_(channel_count) {}

  void place(graph::TaskId t, platform::ElementId e, int impl_index) {
    placements_.at(static_cast<std::size_t>(t.value)) =
        TaskPlacement{e, impl_index};
  }
  void set_route(graph::ChannelId c, noc::Route route,
                 std::int64_t bandwidth) {
    routes_.at(static_cast<std::size_t>(c.value)) =
        ChannelRoute{std::move(route), bandwidth};
  }

  const TaskPlacement& placement(graph::TaskId t) const {
    return placements_.at(static_cast<std::size_t>(t.value));
  }
  const ChannelRoute& route(graph::ChannelId c) const {
    return routes_.at(static_cast<std::size_t>(c.value));
  }
  const std::vector<TaskPlacement>& placements() const { return placements_; }
  const std::vector<ChannelRoute>& routes() const { return routes_; }

  /// Average hops per channel — the quantity Fig. 8 plots ("resource
  /// allocation per channel (hops)"). Co-located channels count as 0 hops.
  double average_hops() const;

  /// Total links claimed over all routes.
  int total_hops() const;

  /// Number of distinct elements used by this layout.
  int distinct_elements() const;

 private:
  std::vector<TaskPlacement> placements_;
  std::vector<ChannelRoute> routes_;
};

}  // namespace kairos::core

// The binding phase: "for each task of the application, an implementation is
// selected that is able to execute the task with low cost and sufficient
// performance. The required resources must be available somewhere in the
// platform." (§I-A)
//
// Implementation selection follows the approach of Hölzenspies et al. [9]:
// tasks are processed "ordered by the difference between the cheapest and
// second cheapest assignment" — the classical regret ordering of Martello &
// Toth [10]. Tasks whose options are scarce (large regret, or only a single
// feasible implementation) bind first, while flexible tasks bind last, when
// less of the resource pool remains.
//
// Feasibility of an implementation is checked against two conditions:
//  (1) at least one element of the target type can individually satisfy the
//      requirement out of its *current free* capacity (otherwise av(e,t) is
//      empty and mapping could never succeed), and
//  (2) once earlier-bound tasks of this application have claimed their
//      elements on a scratch copy of the availability index, some element
//      of the target type still has room for the requirement ("available
//      somewhere in the platform").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/application.hpp"
#include "platform/platform.hpp"
#include "util/result.hpp"

namespace kairos::core {

/// Pin side-table: per task, the element it must run on (if any). Built by
/// resolve_pins() from Task::pinned() ids and Task::pinned_name() lookups.
using PinTable = std::vector<std::optional<platform::ElementId>>;

/// Resolves every task's pin against a concrete platform. Fails when a
/// pinned_name does not exist in the platform.
util::Result<PinTable> resolve_pins(const graph::Application& app,
                                    const platform::Platform& platform);

struct BindingResult {
  bool ok = false;
  /// Per task, the index of the selected implementation.
  std::vector<int> impl_of;
  /// On failure: the task that could not be bound, and why.
  graph::TaskId failed_task;
  std::string reason;
  /// Total cost of the selected implementations.
  double total_cost = 0.0;
};

class BindingPhase {
 public:
  explicit BindingPhase(const platform::Platform& platform)
      : platform_(&platform) {}

  BindingResult bind(const graph::Application& app,
                     const PinTable& pins) const;

 private:
  const platform::Platform* platform_;
};

}  // namespace kairos::core

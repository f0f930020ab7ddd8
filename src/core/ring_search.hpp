// The platform search of MapApplication (§III-B, Fig. 5 lines 7-9): rings
// of growing hop distance around the elements of T_i's mapped peers.
//
// Each origin is searched along out-links when its peer produces for T_i
// (E+) and along in-links when it consumes from T_i (E-). Ring d of the
// search is, origin by origin, ring d of that origin's BFS tree
// (platform/search_trees.hpp), keeping only the elements no earlier ring or
// origin has reported. Every element of an origin's ring d, new or not,
// records its exact distance d into the DistanceOracle, so the cost
// function sees per-origin distances.
//
// The BFS trees are built once per platform state and shared with every
// later search and with the router; a ring search only reads slices of
// them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layout.hpp"
#include "platform/platform.hpp"
#include "platform/search_trees.hpp"

namespace kairos::core {

/// One search origin: the element of a mapped communication peer and the
/// direction to search from it.
struct RingOrigin {
  platform::ElementId element;
  bool forward = true;  ///< along out-links (E+); in-links (E-) otherwise

  friend bool operator==(const RingOrigin&, const RingOrigin&) = default;
};

/// A multi-origin ring search. One instance serves any number of
/// searches: start() resets it, and its buffers keep their capacity.
class RingSearch {
 public:
  /// Starts a search of `platform` from `origins`, recording distances
  /// into `oracle`: each origin's distance to itself (0) is set here, in
  /// origin order. Both must outlive the search.
  void start(const platform::Platform& platform,
             const std::vector<RingOrigin>& origins, DistanceOracle& oracle);

  /// Writes the next ring into `ring`. Ring 0 is the origin elements
  /// themselves (they remain candidates: an element may host several
  /// tasks). The ring is empty once no origin's BFS reports a new element.
  void next_ring(std::vector<platform::ElementId>& ring);

 private:
  const platform::Platform* platform_ = nullptr;
  DistanceOracle* oracle_ = nullptr;
  std::vector<RingOrigin> origins_;
  std::vector<platform::SearchTree*> trees_;
  /// Elements already reported by this search: those stamped with epoch_.
  std::vector<std::uint32_t> reported_;
  std::uint32_t epoch_ = 0;
  int distance_ = 0;
};

}  // namespace kairos::core

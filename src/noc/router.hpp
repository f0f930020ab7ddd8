// NoC route establishment — the routing phase of the workflow (Fig. 1).
//
// Communication resources are time-shared through virtual channels per
// Kavaldjiev et al. [11]: establishing a route claims one virtual channel and
// the channel's bandwidth on every traversed link. The paper uses
// breadth-first search because it showed "no noticeable performance
// differences in terms of successful routes and energy consumption, compared
// to Dijkstra's algorithm" (§II); both strategies are implemented here so
// that claim can be re-examined (bench_ablation_routing).
//
// The BFS router answers from the per-origin search tree of its source
// (platform/search_trees.hpp) whenever it can. The cached-path rule: walk
// the tree's parent links back from the destination; if every link on that
// path is usable and can carry the bandwidth, that path is the route, and
// it is exactly the route a live BFS would return (router.cpp gives the
// argument). A destination missing from the complete tree has no route. In
// every other case one live BFS over the current link state decides.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace kairos::noc {

/// An established route: the ordered links from source to destination
/// element. Empty when source and destination coincide.
struct Route {
  std::vector<platform::LinkId> links;

  int hops() const { return static_cast<int>(links.size()); }
};

enum class RoutingStrategy {
  kBreadthFirst,  ///< fewest hops among links with free capacity
  kDijkstra,      ///< minimises hop count + load (contention aware)
};

std::string to_string(RoutingStrategy strategy);

/// Stateless route finder over a Platform's link state.
class Router {
 public:
  explicit Router(RoutingStrategy strategy = RoutingStrategy::kBreadthFirst)
      : strategy_(strategy) {}

  RoutingStrategy strategy() const { return strategy_; }

  /// Finds a route src -> dst such that every traversed link can still carry
  /// one more virtual channel with `bandwidth`. Does not modify the
  /// platform. Returns std::nullopt when no such route exists.
  std::optional<Route> find_route(const platform::Platform& platform,
                                  platform::ElementId src,
                                  platform::ElementId dst,
                                  std::int64_t bandwidth) const;

  /// find_route + reservation of the virtual channels and bandwidth along
  /// the result. The platform is unchanged on failure.
  std::optional<Route> allocate_route(platform::Platform& platform,
                                      platform::ElementId src,
                                      platform::ElementId dst,
                                      std::int64_t bandwidth) const;

  /// Releases a route previously obtained from allocate_route.
  static void release_route(platform::Platform& platform, const Route& route,
                            std::int64_t bandwidth);

 private:
  std::optional<Route> bfs(const platform::Platform& platform,
                           platform::ElementId src, platform::ElementId dst,
                           std::int64_t bandwidth) const;
  /// The BFS over the current link state, for when the cached path is
  /// blocked.
  std::optional<Route> live_bfs(const platform::Platform& platform,
                                platform::ElementId src,
                                platform::ElementId dst,
                                std::int64_t bandwidth) const;
  std::optional<Route> dijkstra(const platform::Platform& platform,
                                platform::ElementId src,
                                platform::ElementId dst,
                                std::int64_t bandwidth) const;

  RoutingStrategy strategy_;
};

}  // namespace kairos::noc

// The routing phase: "for pairs of tasks that need to communicate,
// communication links are established between the elements assigned to them
// in the mapping phase" (§I-A). Routes claim one virtual channel plus
// bandwidth on every traversed link; channels between co-located tasks need
// no links. Channels are routed in order of decreasing bandwidth so the most
// demanding streams see the least-congested network.
#pragma once

#include <string>
#include <vector>

#include "core/layout.hpp"
#include "graph/application.hpp"
#include "noc/router.hpp"
#include "platform/platform.hpp"

namespace kairos::core {

struct RoutingResult {
  bool ok = false;
  std::string reason;
  graph::ChannelId failed_channel;
  /// Per channel (indexed by ChannelId), the allocated route.
  std::vector<ChannelRoute> routes;
  double average_hops = 0.0;
};

class RoutingPhase {
 public:
  explicit RoutingPhase(
      noc::RoutingStrategy strategy = noc::RoutingStrategy::kBreadthFirst)
      : router_(strategy) {}

  /// Establishes a route for every channel of `app` between the elements in
  /// `element_of`. Link reservations stay allocated on success; the platform
  /// is restored on failure and when anything inside the call throws.
  RoutingResult route(const graph::Application& app,
                      const std::vector<platform::ElementId>& element_of,
                      platform::Platform& platform) const;

  const noc::Router& router() const { return router_; }

 private:
  noc::Router router_;
};

}  // namespace kairos::core

#include "core/routing_phase.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

#include "util/scope_exit.hpp"

namespace kairos::core {

namespace {

/// The phase's working lists, reused across calls on one thread.
struct RoutingScratch {
  std::vector<std::size_t> order;
  std::vector<std::size_t> routed;
};

thread_local RoutingScratch routing_scratch;

}  // namespace

RoutingResult RoutingPhase::route(
    const graph::Application& app,
    const std::vector<platform::ElementId>& element_of,
    platform::Platform& platform) const {
  RoutingResult result;
  result.routes.resize(app.channel_count());
  assert(element_of.size() == app.task_count());

  // Most demanding channels first, ties in channel order (a stable sort,
  // without the buffer std::stable_sort allocates).
  std::vector<std::size_t>& order = routing_scratch.order;
  order.resize(app.channel_count());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::int64_t bw_a = app.channels()[a].bandwidth;
    const std::int64_t bw_b = app.channels()[b].bandwidth;
    return bw_a != bw_b ? bw_a > bw_b : a < b;
  });

  // Rollback is an undo list, not a platform transaction: routing touches
  // only link state, release_route is allocate_route's exact inverse, and a
  // transaction snapshot is O(V + E) per admission attempt. A failed route
  // replays the list before returning; the guard replays it on a throw.
  // The list's capacity is reserved up front, so recording a route that is
  // already allocated never throws.
  std::vector<std::size_t>& routed = routing_scratch.routed;
  routed.clear();
  routed.reserve(order.size());
  const auto release_routed = [&] {
    for (std::size_t k = routed.size(); k-- > 0;) {
      const ChannelRoute& done = result.routes[routed[k]];
      noc::Router::release_route(platform, done.route, done.bandwidth);
    }
  };
  util::ScopeExit undo(release_routed);

  int total_hops = 0;
  for (const std::size_t idx : order) {
    const graph::Channel& channel = app.channels()[idx];
    const platform::ElementId src =
        element_of.at(static_cast<std::size_t>(channel.src.value));
    const platform::ElementId dst =
        element_of.at(static_cast<std::size_t>(channel.dst.value));
    assert(src.valid() && dst.valid() && "routing requires a full mapping");

    auto route = router_.allocate_route(platform, src, dst, channel.bandwidth);
    if (!route.has_value()) {
      result.failed_channel = channel.id;
      result.reason = "no route with free capacity from '" +
                      platform.element(src).name() + "' to '" +
                      platform.element(dst).name() + "' for channel " +
                      std::to_string(channel.id.value);
      release_routed();
      undo.dismiss();
      return result;
    }
    total_hops += route->hops();
    result.routes[idx] = ChannelRoute{std::move(*route), channel.bandwidth};
    routed.push_back(idx);
  }

  undo.dismiss();
  result.ok = true;
  result.average_hops =
      app.channel_count() == 0
          ? 0.0
          : static_cast<double>(total_hops) /
                static_cast<double>(app.channel_count());
  return result;
}

}  // namespace kairos::core

#include "noc/router.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "platform/search_trees.hpp"

namespace kairos::noc {

using platform::ElementId;
using platform::LinkId;
using platform::Platform;

namespace {

/// Thread-local, epoch-stamped search scratch. An admission routes one
/// channel at a time — O(channels) searches — and each search used to
/// allocate and zero-fill O(V) visited/via/dist arrays. The stamps make
/// "clear" O(1): an entry is valid for this search iff its stamp equals the
/// current epoch, so only the elements a search actually touches cost
/// anything. Thread-local: concurrent admission threads each get their own.
struct RouterScratch {
  std::vector<std::uint32_t> stamp;       // via/dist validity
  std::vector<std::uint32_t> done_stamp;  // Dijkstra's settled set
  std::vector<LinkId> via;
  std::vector<double> dist;
  std::vector<ElementId> queue;  // BFS FIFO, walked by index
  std::vector<std::pair<double, std::int32_t>> heap;
  std::uint32_t epoch = 0;

  void begin(std::size_t n) {
    if (stamp.size() != n) {
      stamp.assign(n, 0);
      done_stamp.assign(n, 0);
      via.assign(n, LinkId{});
      dist.assign(n, 0.0);
      epoch = 0;
    }
    if (++epoch == 0) {  // epoch wrapped: hard reset once every 2^32 searches
      std::fill(stamp.begin(), stamp.end(), 0);
      std::fill(done_stamp.begin(), done_stamp.end(), 0);
      epoch = 1;
    }
    queue.clear();
    heap.clear();
  }

  bool seen(std::size_t idx) const { return stamp[idx] == epoch; }
  void mark(std::size_t idx) { stamp[idx] = epoch; }
};

thread_local RouterScratch router_scratch;

/// The route src -> dst along a search's `via` links, in one exact-size
/// allocation.
Route trace_back(const Platform& platform, const std::vector<LinkId>& via,
                 ElementId src, ElementId dst) {
  std::size_t hops = 0;
  for (ElementId cur = dst; cur != src; ++hops) {
    cur = platform.link(via[static_cast<std::size_t>(cur.value)]).src();
  }
  Route route;
  route.links.resize(hops);
  for (ElementId cur = dst; cur != src;) {
    const LinkId step = via[static_cast<std::size_t>(cur.value)];
    route.links[--hops] = step;
    cur = platform.link(step).src();
  }
  return route;
}

}  // namespace

std::string to_string(RoutingStrategy strategy) {
  switch (strategy) {
    case RoutingStrategy::kBreadthFirst:
      return "BFS";
    case RoutingStrategy::kDijkstra:
      return "Dijkstra";
  }
  return "?";
}

std::optional<Route> Router::find_route(const Platform& platform,
                                        ElementId src, ElementId dst,
                                        std::int64_t bandwidth) const {
  if (src == dst) return Route{};
  switch (strategy_) {
    case RoutingStrategy::kBreadthFirst:
      return bfs(platform, src, dst, bandwidth);
    case RoutingStrategy::kDijkstra:
      return dijkstra(platform, src, dst, bandwidth);
  }
  return std::nullopt;
}

// Why reading the route out of the cached tree is exact. The tree is the
// BFS from src over graph G: every link between non-failed elements (src
// included whatever its state), adjacency walked in ascending link id. The
// live search runs the same BFS over G', G minus the links that are failed,
// touch a failed endpoint or cannot carry the bandwidth; G' is a subgraph
// of G. A BFS with ordered adjacency reaches every element along its
// lexicographically smallest (by link id) shortest path. When the tree's
// path to dst survives in G', it is still a shortest path there (G' has no
// shorter one, being a subgraph), and it is still the smallest (G' has only
// fewer candidates), so the live BFS would return exactly it. When dst is
// missing from the complete tree it is unreachable in G, hence in G'.
// Otherwise a link on the cached path is blocked and the live BFS decides.
std::optional<Route> Router::bfs(const Platform& platform, ElementId src,
                                 ElementId dst,
                                 std::int64_t bandwidth) const {
  platform::SearchTree& tree =
      platform::SearchTrees::local(platform).tree(
          src, platform::SearchDirection::kOut);
  const int found = tree.find(platform, dst);
  if (found < 0) return std::nullopt;
  std::size_t hops = 0;
  for (int pos = found; pos > 0; pos = tree.node(pos).parent) {
    const LinkId l = tree.node(pos).via;
    if (!platform.link(l).can_carry(bandwidth) || !platform.link_usable(l)) {
      return live_bfs(platform, src, dst, bandwidth);
    }
    ++hops;
  }
  Route route;
  route.links.resize(hops);
  for (int pos = found; pos > 0; pos = tree.node(pos).parent) {
    route.links[--hops] = tree.node(pos).via;
  }
  return route;
}

std::optional<Route> Router::live_bfs(const Platform& platform, ElementId src,
                                      ElementId dst,
                                      std::int64_t bandwidth) const {
  const std::size_t n = platform.element_count();
  RouterScratch& s = router_scratch;
  s.begin(n);
  s.mark(static_cast<std::size_t>(src.value));
  s.queue.push_back(src);

  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const ElementId e = s.queue[head];
    for (const LinkId l : platform.out_links(e)) {
      const auto& link = platform.link(l);
      if (!link.can_carry(bandwidth) || !platform.link_usable(l)) continue;
      const ElementId next = link.dst();
      const auto idx = static_cast<std::size_t>(next.value);
      if (s.seen(idx)) continue;
      s.mark(idx);
      s.via[idx] = l;
      if (next == dst) return trace_back(platform, s.via, src, dst);
      s.queue.push_back(next);
    }
  }
  return std::nullopt;
}

std::optional<Route> Router::dijkstra(const Platform& platform, ElementId src,
                                      ElementId dst,
                                      std::int64_t bandwidth) const {
  const std::size_t n = platform.element_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RouterScratch& s = router_scratch;
  s.begin(n);

  using Entry = std::pair<double, std::int32_t>;  // (distance, element)
  const auto heap_cmp = std::greater<Entry>{};
  s.dist[static_cast<std::size_t>(src.value)] = 0.0;
  s.mark(static_cast<std::size_t>(src.value));
  s.heap.emplace_back(0.0, src.value);

  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), heap_cmp);
    const auto [d, ev] = s.heap.back();
    s.heap.pop_back();
    const auto idx = static_cast<std::size_t>(ev);
    if (s.done_stamp[idx] == s.epoch) continue;
    s.done_stamp[idx] = s.epoch;
    if (ElementId{ev} == dst) break;
    for (const LinkId l : platform.out_links(ElementId{ev})) {
      const auto& link = platform.link(l);
      if (!link.can_carry(bandwidth) || !platform.link_usable(l)) continue;
      // Edge weight: one hop plus the current load, so that congested links
      // are avoided when an equally short alternative exists.
      const double weight = 1.0 + link.load();
      const auto nidx = static_cast<std::size_t>(link.dst().value);
      const double dn = s.seen(nidx) ? s.dist[nidx] : kInf;
      if (d + weight < dn) {
        s.dist[nidx] = d + weight;
        s.mark(nidx);
        s.via[nidx] = l;
        s.heap.emplace_back(s.dist[nidx], link.dst().value);
        std::push_heap(s.heap.begin(), s.heap.end(), heap_cmp);
      }
    }
  }

  const auto dst_idx = static_cast<std::size_t>(dst.value);
  if (!s.seen(dst_idx) || s.done_stamp[dst_idx] != s.epoch) return std::nullopt;
  return trace_back(platform, s.via, src, dst);
}

std::optional<Route> Router::allocate_route(Platform& platform, ElementId src,
                                            ElementId dst,
                                            std::int64_t bandwidth) const {
  auto route = find_route(platform, src, dst, bandwidth);
  if (!route.has_value()) return std::nullopt;
  // The links were all able to carry the bandwidth when found; allocate in
  // order, rolling back on the (impossible in single-threaded use) failure.
  std::size_t allocated = 0;
  for (const LinkId l : route->links) {
    if (!platform.allocate_channel(l, bandwidth)) {
      for (std::size_t k = 0; k < allocated; ++k) {
        platform.release_channel(route->links[k], bandwidth);
      }
      return std::nullopt;
    }
    ++allocated;
  }
  return route;
}

void Router::release_route(Platform& platform, const Route& route,
                           std::int64_t bandwidth) {
  for (const LinkId l : route.links) {
    platform.release_channel(l, bandwidth);
  }
}

}  // namespace kairos::noc

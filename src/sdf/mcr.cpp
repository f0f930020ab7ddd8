#include "sdf/mcr.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace kairos::sdf {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::size_t src(const HsdfEdge& e) { return static_cast<std::size_t>(e.src); }
std::size_t dst(const HsdfEdge& e) { return static_cast<std::size_t>(e.dst); }

/// a > b for ratios with positive token sums, exactly.
bool greater(CycleRatio a, CycleRatio b) {
  return static_cast<__int128>(a.weight) * b.tokens >
         static_cast<__int128>(b.weight) * a.tokens;
}

bool same(CycleRatio a, CycleRatio b) {
  return a.weight == b.weight && a.tokens == b.tokens;
}

/// weight - ratio * tokens of edge `e`, scaled by r.tokens: how much the
/// consumer's potential exceeds the producer's along `e` under ratio r.
__int128 scaled_slack(const HsdfEdge& e, CycleRatio r) {
  return static_cast<__int128>(e.weight) * r.tokens -
         static_cast<__int128>(r.weight) * e.tokens;
}

/// Counting sort of edge indices by `key(edge)`: node v's edges are
/// order[begin[v] .. begin[v + 1]).
template <typename Key>
void group_edges(std::size_t n, const std::vector<HsdfEdge>& edges, Key key,
                 std::vector<std::size_t>& begin,
                 std::vector<std::size_t>& order) {
  begin.assign(n + 1, 0);
  for (const HsdfEdge& e : edges) ++begin[key(e) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  order.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    order[begin[key(edges[i])]++] = i;
  }
  // Each begin[v] has advanced to v's end, which is begin[v + 1]'s value.
  std::copy_backward(begin.begin(), begin.end() - 1, begin.end());
  begin[0] = 0;
}

}  // namespace

void HowardMcr::build_adjacency(std::size_t n,
                                const std::vector<HsdfEdge>& edges) {
  group_edges(n, edges, dst, in_begin_, in_);
  group_edges(n, edges, src, out_begin_, out_);
}

/// Marks every node a token-free cycle reaches. Peeling the token-free
/// subgraph (Kahn) leaves exactly the nodes on or after a token-free cycle
/// along token-free edges; everything reachable from those is deadlocked.
void HowardMcr::mark_deadlocks(std::size_t n,
                               const std::vector<HsdfEdge>& edges) {
  state_.assign(n, kAcyclic);
  count_.assign(n, 0);
  for (const HsdfEdge& e : edges) {
    if (e.tokens == 0) ++count_[dst(e)];
  }
  stack_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (count_[v] == 0) stack_.push_back(v);
  }
  while (!stack_.empty()) {
    const std::size_t v = stack_.back();
    stack_.pop_back();
    for (std::size_t i = out_begin_[v]; i < out_begin_[v + 1]; ++i) {
      const HsdfEdge& e = edges[out_[i]];
      if (e.tokens == 0 && --count_[dst(e)] == 0) stack_.push_back(dst(e));
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (count_[v] > 0) {
      state_[v] = kDeadlocked;
      stack_.push_back(v);
    }
  }
  while (!stack_.empty()) {
    const std::size_t v = stack_.back();
    stack_.pop_back();
    for (std::size_t i = out_begin_[v]; i < out_begin_[v + 1]; ++i) {
      const std::size_t w = dst(edges[out_[i]]);
      if (state_[w] != kDeadlocked) {
        state_[w] = kDeadlocked;
        stack_.push_back(w);
      }
    }
  }
}

/// Marks the live nodes some cycle reaches. A live node's predecessors are
/// all live (a deadlock would propagate), so peeling the live subgraph
/// leaves exactly those nodes, each with a live cyclic predecessor.
void HowardMcr::mark_cyclic(std::size_t n,
                            const std::vector<HsdfEdge>& edges) {
  stack_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (state_[v] == kDeadlocked) continue;
    count_[v] = in_begin_[v + 1] - in_begin_[v];
    if (count_[v] == 0) stack_.push_back(v);
  }
  while (!stack_.empty()) {
    const std::size_t v = stack_.back();
    stack_.pop_back();
    for (std::size_t i = out_begin_[v]; i < out_begin_[v + 1]; ++i) {
      const std::size_t w = dst(edges[out_[i]]);
      if (state_[w] != kDeadlocked && --count_[w] == 0) stack_.push_back(w);
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (state_[v] != kDeadlocked && count_[v] > 0) state_[v] = kCyclic;
  }
}

/// Value determination: follows each node's policy back to the policy
/// graph's cycle, whose ratio becomes the node's value. Each cycle's root
/// is its smallest node, at potential 0, so a cycle that survives an
/// improvement keeps its potentials — the invariant Howard's termination
/// argument needs.
void HowardMcr::evaluate_policy(std::size_t n,
                                const std::vector<HsdfEdge>& edges) {
  mark_.assign(n, kNone);
  for (std::size_t start = 0; start < n; ++start) {
    if (state_[start] != kCyclic || mark_[start] != kNone) continue;
    path_.clear();
    std::size_t u = start;
    while (mark_[u] == kNone) {
      mark_[u] = start;
      path_.push_back(u);
      u = src(edges[policy_[u]]);
    }
    std::size_t tail = path_.size();
    if (mark_[u] == start) {
      // A new cycle: path_[first..] with pred(path_[j]) = path_[j + 1],
      // wrapping to path_[first].
      const auto first = static_cast<std::size_t>(
          std::find(path_.begin(), path_.end(), u) - path_.begin());
      CycleRatio r;
      std::size_t root = first;
      for (std::size_t j = first; j < path_.size(); ++j) {
        const HsdfEdge& e = edges[policy_[path_[j]]];
        r.weight += e.weight;
        r.tokens += e.tokens;
        if (path_[j] < path_[root]) root = j;
      }
      assert(r.tokens > 0 && "live cycles carry tokens");
      const std::int64_t g = std::gcd(r.weight, r.tokens);
      r.weight /= g;
      r.tokens /= g;
      ratio_[path_[root]] = r;
      potential_[path_[root]] = 0;
      // Walk the cycle backwards from the root: each node's predecessor is
      // valued before it.
      const std::size_t len = path_.size() - first;
      for (std::size_t step = 1; step < len; ++step) {
        const std::size_t c = path_[first + (root - first + len - step) % len];
        const HsdfEdge& e = edges[policy_[c]];
        ratio_[c] = r;
        potential_[c] = scaled_slack(e, r) + potential_[src(e)];
      }
      tail = first;
    }
    // The walk's other nodes lead into a valued node: value them from the
    // far end.
    for (std::size_t j = tail; j-- > 0;) {
      const std::size_t c = path_[j];
      const HsdfEdge& e = edges[policy_[c]];
      ratio_[c] = ratio_[src(e)];
      potential_[c] = scaled_slack(e, ratio_[c]) + potential_[src(e)];
    }
  }
}

/// Policy improvement, first kind: a node with an in-edge from a node of
/// strictly larger ratio switches to the largest such.
bool HowardMcr::improve_ratios(std::size_t n,
                               const std::vector<HsdfEdge>& edges) {
  bool changed = false;
  for (std::size_t v = 0; v < n; ++v) {
    if (state_[v] != kCyclic) continue;
    CycleRatio best = ratio_[v];
    std::size_t best_edge = kNone;
    for (std::size_t i = in_begin_[v]; i < in_begin_[v + 1]; ++i) {
      const std::size_t u = src(edges[in_[i]]);
      if (state_[u] == kCyclic && greater(ratio_[u], best)) {
        best = ratio_[u];
        best_edge = in_[i];
      }
    }
    if (best_edge != kNone) {
      policy_[v] = best_edge;
      changed = true;
    }
  }
  return changed;
}

/// Policy improvement, second kind (ratios are stable): a node switches to
/// the in-edge, among those from nodes of equal ratio, that strictly raises
/// its potential.
bool HowardMcr::improve_potentials(std::size_t n,
                                   const std::vector<HsdfEdge>& edges) {
  bool changed = false;
  for (std::size_t v = 0; v < n; ++v) {
    if (state_[v] != kCyclic) continue;
    const CycleRatio r = ratio_[v];
    __int128 best = potential_[v];
    std::size_t best_edge = kNone;
    for (std::size_t i = in_begin_[v]; i < in_begin_[v + 1]; ++i) {
      const HsdfEdge& e = edges[in_[i]];
      const std::size_t u = src(e);
      if (state_[u] != kCyclic || !same(ratio_[u], r)) continue;
      const __int128 candidate = scaled_slack(e, r) + potential_[u];
      if (candidate > best) {
        best = candidate;
        best_edge = in_[i];
      }
    }
    if (best_edge != kNone) {
      policy_[v] = best_edge;
      changed = true;
    }
  }
  return changed;
}

void HowardMcr::solve(std::size_t node_count,
                      const std::vector<HsdfEdge>& edges) {
  const std::size_t n = node_count;
  build_adjacency(n, edges);
  mark_deadlocks(n, edges);
  mark_cyclic(n, edges);

  // Initial policy: the heaviest in-edge from a cyclic node.
  policy_.assign(n, kNone);
  ratio_.resize(n);
  potential_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (state_[v] != kCyclic) continue;
    for (std::size_t i = in_begin_[v]; i < in_begin_[v + 1]; ++i) {
      const HsdfEdge& e = edges[in_[i]];
      if (state_[src(e)] == kCyclic &&
          (policy_[v] == kNone || e.weight > edges[policy_[v]].weight)) {
        policy_[v] = in_[i];
      }
    }
  }

  do {
    evaluate_policy(n, edges);
  } while (improve_ratios(n, edges) || improve_potentials(n, edges));
}

McrResult max_cycle_ratio(const SdfGraph& graph) {
  McrResult result;
  thread_local std::vector<HsdfEdge> edges;
  edges.clear();
  for (const auto& c : graph.channels()) {
    if (c.production != c.consumption) return result;  // not applicable
    if (c.initial_tokens % c.production != 0) return result;
    edges.push_back(HsdfEdge{c.src.value, c.dst.value,
                             graph.actor(c.src).exec_time,
                             c.initial_tokens / c.production});
  }
  result.applicable = true;

  thread_local HowardMcr solver;
  solver.solve(graph.actor_count(), edges);
  CycleRatio critical;
  for (std::size_t v = 0; v < graph.actor_count(); ++v) {
    if (solver.deadlocked(v)) {
      result.deadlock = true;
      return result;
    }
    const CycleRatio r = solver.ratio(v);
    if (r.tokens > 0 && (critical.tokens == 0 || greater(r, critical))) {
      critical = r;
    }
  }
  if (critical.tokens == 0) return result;  // acyclic: mcm 0
  result.mcm = static_cast<double>(critical.weight) /
               static_cast<double>(critical.tokens);
  result.throughput = critical.weight > 0
                          ? static_cast<double>(critical.tokens) /
                                static_cast<double>(critical.weight)
                          : 0.0;
  return result;
}

}  // namespace kairos::sdf

// Exact maximum-cycle-ratio (MCR) throughput analysis.
//
// The paper's validation phase uses state-space exploration, whose runtime
// "clearly becomes problematic when the complexity of the task graph
// increases" (§V). For homogeneous SDF graphs (every rate 1) the self-timed
// execution has a closed form: an actor fires, in the long run, once per
//
//   MCM = max over directed cycles C that reach the actor of
//         (sum of actor execution times on C) / (sum of channel tokens on C)
//
// time units, and it stops for good (deadlock) iff a token-free cycle
// reaches it. A graph whose channels each have equal production and
// consumption rates and initial tokens divisible by the rate is homogeneous
// after dividing every channel's tokens by its rate (token counts stay
// multiples of the rate throughout the execution), so the same holds for it.
// That precondition — "rate homogeneity" — holds for every graph the
// validation phase builds.
//
// HowardMcr computes the MCM by Howard's policy iteration (Cochet-Terrasson
// et al., 1998; Dasdan, TODAES 2004) in integer arithmetic: cycle ratios
// are reduced fractions W/T compared by 128-bit cross-multiplication, and
// node potentials are kept scaled by T, so no step rounds. The result is
// the exact rational, and 1/MCM as a double is the correctly rounded T/W —
// bit-identical to the state-space analyzer's firings/period for the same
// graph, which is the same rational.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sdf/sdf_graph.hpp"

namespace kairos::sdf {

/// One edge of a homogeneous SDF graph: the producer `src`, the consumer
/// `dst`, the producer's execution time and the edge's initial tokens.
struct HsdfEdge {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int64_t weight = 0;
  std::int64_t tokens = 0;
};

/// An exact cycle ratio weight/tokens in lowest terms; tokens == 0 means
/// "no cycle" (the ratio is then reported as 0).
struct CycleRatio {
  std::int64_t weight = 0;
  std::int64_t tokens = 0;
};

/// Howard policy iteration over an HsdfEdge list. Each node's policy is one
/// of its in-edges (its critical predecessor); following policies backwards
/// from a node reaches one cycle, whose ratio is the node's current value.
/// Improving a policy raises a node's value first by ratio, then by
/// potential, until no in-edge improves any node; the values are then the
/// maxima over the cycles that reach each node.
///
/// Reuses its buffers across solve() calls: keep one instance per thread
/// and a steady stream of similar graphs allocates nothing.
///
/// Preconditions: every edge's endpoints are below node_count; weights and
/// tokens are non-negative and their totals fit in int64 (products are
/// formed in 128 bits).
class HowardMcr {
 public:
  void solve(std::size_t node_count, const std::vector<HsdfEdge>& edges);

  /// True iff a token-free cycle reaches `v`: its firings are bounded.
  bool deadlocked(std::size_t v) const { return state_[v] == kDeadlocked; }
  /// The maximum ratio over the cycles that reach `v`, in lowest terms;
  /// {0, 0} when none does or `v` is deadlocked.
  CycleRatio ratio(std::size_t v) const {
    return state_[v] == kCyclic ? ratio_[v] : CycleRatio{};
  }

 private:
  enum : std::uint8_t { kAcyclic, kCyclic, kDeadlocked };

  void build_adjacency(std::size_t n, const std::vector<HsdfEdge>& edges);
  void mark_deadlocks(std::size_t n, const std::vector<HsdfEdge>& edges);
  void mark_cyclic(std::size_t n, const std::vector<HsdfEdge>& edges);
  void evaluate_policy(std::size_t n, const std::vector<HsdfEdge>& edges);
  bool improve_ratios(std::size_t n, const std::vector<HsdfEdge>& edges);
  bool improve_potentials(std::size_t n, const std::vector<HsdfEdge>& edges);

  // Edge indices grouped by destination (in_) and by source (out_): node
  // v's are in_[in_begin_[v] .. in_begin_[v + 1]).
  std::vector<std::size_t> in_begin_, in_;
  std::vector<std::size_t> out_begin_, out_;
  std::vector<std::uint8_t> state_;
  std::vector<std::size_t> policy_;  // in-edge index per cyclic node
  std::vector<CycleRatio> ratio_;
  std::vector<__int128> potential_;  // scaled by ratio_[v].tokens
  std::vector<std::size_t> mark_;    // evaluate_policy's walk stamps
  std::vector<std::size_t> count_, stack_, path_;
};

struct McrResult {
  /// False when the graph is not rate-homogeneous (prod != cons on some
  /// channel, or tokens not divisible by the rate): the closed form does
  /// not hold and the caller must use state-space exploration.
  bool applicable = false;
  /// True when a token-free cycle exists: the self-timed execution never
  /// fires it again (deadlock), throughput 0.
  bool deadlock = false;
  /// The maximum cycle mean over the whole graph (time units per token);
  /// 0 for acyclic graphs.
  double mcm = 0.0;
  /// 1 / mcm, or 0 for acyclic graphs (every actor of a validation model
  /// has a self-loop, so there a cycle always exists).
  double throughput = 0.0;
};

/// Adapts a named SdfGraph onto HowardMcr and reports the graph-wide MCM.
McrResult max_cycle_ratio(const SdfGraph& graph);

}  // namespace kairos::sdf

// Tests for the maximum-cycle-ratio analyzer and the buffer-sizing search,
// including property tests that MCR agrees with state-space exploration and
// that the exact Howard core agrees with cycle enumeration.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "sdf/buffer_sizing.hpp"
#include "sdf/mcr.hpp"
#include "sdf/throughput.hpp"
#include "util/rng.hpp"

namespace kairos::sdf {
namespace {

TEST(McrTest, SingleSelfLoop) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 4);
  g.disable_auto_concurrency(a);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_FALSE(r.deadlock);
  EXPECT_NEAR(r.mcm, 4.0, 1e-6);
  EXPECT_NEAR(r.throughput, 0.25, 1e-6);
}

TEST(McrTest, TwoActorCycle) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 3);
  const ActorId b = g.add_actor("b", 5);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 1);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_NEAR(r.mcm, 8.0, 1e-6);
}

TEST(McrTest, TwoTokensHalveTheRatio) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 3);
  const ActorId b = g.add_actor("b", 5);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 2);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  // Cycle ratio (3+5)/2 = 4, but the self-timed bound is the slowest actor
  // only when auto-concurrency is disabled; without self-loops MCR is 4.
  EXPECT_NEAR(r.mcm, 4.0, 1e-6);
}

TEST(McrTest, DeadlockOnTokenFreeCycle) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 1);
  const ActorId b = g.add_actor("b", 1);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 0);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_TRUE(r.deadlock);
}

TEST(McrTest, MultiRateGraphNotApplicable) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 1);
  const ActorId b = g.add_actor("b", 1);
  g.add_channel(a, b, 2, 3, 0);
  EXPECT_FALSE(max_cycle_ratio(g).applicable);
}

TEST(McrTest, NonDivisibleTokensNotApplicable) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 1);
  const ActorId b = g.add_actor("b", 1);
  g.add_channel(a, b, 2, 2, 3);  // 3 tokens at rate 2
  EXPECT_FALSE(max_cycle_ratio(g).applicable);
}

TEST(McrTest, EqualRatesWithDivisibleTokensNormalise) {
  // Rate-4 edges carrying multiples of 4 tokens behave like rate-1 edges
  // with a quarter of the tokens.
  SdfGraph g;
  const ActorId a = g.add_actor("a", 3);
  const ActorId b = g.add_actor("b", 5);
  g.add_channel(a, b, 4, 4, 0);
  g.add_channel(b, a, 4, 4, 4);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_NEAR(r.mcm, 8.0, 1e-6);
}

TEST(McrTest, AcyclicGraphHasZeroMcm) {
  SdfGraph g;
  const ActorId a = g.add_actor("a", 3);
  const ActorId b = g.add_actor("b", 5);
  g.add_channel(a, b, 1, 1, 0);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_FALSE(r.deadlock);
  EXPECT_DOUBLE_EQ(r.mcm, 0.0);
}

// Property: on random pipelines with explicit self-loops and buffered
// channels, MCR throughput equals the state-space analyzer's throughput.
class McrAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McrAgreementTest, MatchesStateSpaceThroughput) {
  util::Xoshiro256 rng(GetParam());
  SdfGraph g;
  const int stages = static_cast<int>(rng.uniform_int(2, 7));
  std::vector<ActorId> actors;
  for (int i = 0; i < stages; ++i) {
    actors.push_back(
        g.add_actor("a" + std::to_string(i), rng.uniform_int(1, 9)));
    g.disable_auto_concurrency(actors.back());
    if (i > 0) {
      g.add_buffered_channel(actors[static_cast<std::size_t>(i - 1)],
                             actors.back(), 1, rng.uniform_int(1, 4));
    }
  }
  const auto mcr = max_cycle_ratio(g);
  ASSERT_TRUE(mcr.applicable);
  ASSERT_FALSE(mcr.deadlock);

  const ThroughputAnalyzer analyzer;
  const auto exact = analyzer.analyze(g, actors.back());
  ASSERT_EQ(exact.status, ThroughputStatus::kPeriodic);
  EXPECT_NEAR(mcr.throughput, exact.throughput, 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomPipelines, McrAgreementTest,
                         ::testing::Range<std::uint64_t>(300, 340));

// --- the exact Howard core ---------------------------------------------------

void expect_ratio(const HowardMcr& mcr, std::size_t v, std::int64_t weight,
                  std::int64_t tokens) {
  const std::int64_t g = std::gcd(weight, tokens);
  EXPECT_EQ(mcr.ratio(v).weight, weight / g) << "node " << v;
  EXPECT_EQ(mcr.ratio(v).tokens, tokens / g) << "node " << v;
}

TEST(HowardMcrTest, EqualRatiosMeetAtOneNode) {
  // Cycles x<->y (2+4 over 2 tokens) and the self-loop z (3 over 1) both
  // have ratio 3 and both reach w, so the second improvement step — which
  // compares potentials between in-edges of equal ratio — decides w's
  // policy, and must settle.
  const std::vector<HsdfEdge> edges{
      {0, 1, 2, 1}, {1, 0, 4, 1},  // x <-> y
      {2, 2, 3, 1},                // z
      {1, 3, 4, 0}, {2, 3, 3, 0},  // y -> w, z -> w
      {3, 3, 1, 1},                // w's self-loop, ratio 1
      {0, 3, 2, 5},                // x -> w, heavy in tokens
  };
  HowardMcr mcr;
  mcr.solve(4, edges);
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_FALSE(mcr.deadlocked(v));
    expect_ratio(mcr, v, 3, 1);
  }
}

TEST(HowardMcrTest, EqualRatiosOfDifferentLengthsReduceAlike) {
  // 6/2 and 9/3 are the same ratio: both reduce to 3/1. The cycle a->b->a
  // is lighter, 15/6.
  SdfGraph g;
  const ActorId a = g.add_actor("a", 6);
  const ActorId b = g.add_actor("b", 9);
  g.add_channel(a, a, 1, 1, 2);
  g.add_channel(b, b, 1, 1, 3);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 6);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_EQ(r.mcm, 3.0);
  EXPECT_EQ(r.throughput, 1.0 / 3.0);
}

TEST(HowardMcrTest, NodesWithoutOutEdgesTakeTheirUpstreamRatio) {
  // a (self-loop 5/1) -> b -> c, where c has no out-edges and b no cycle of
  // its own; d is isolated.
  const std::vector<HsdfEdge> edges{{0, 0, 5, 1}, {0, 1, 5, 0}, {1, 2, 7, 0}};
  HowardMcr mcr;
  mcr.solve(4, edges);
  for (std::size_t v = 0; v < 3; ++v) expect_ratio(mcr, v, 5, 1);
  EXPECT_EQ(mcr.ratio(3).tokens, 0);
  EXPECT_FALSE(mcr.deadlocked(3));
}

TEST(HowardMcrTest, AcyclicGraphHasNoRatio) {
  const std::vector<HsdfEdge> edges{{0, 1, 3, 0}, {1, 2, 4, 2}, {0, 2, 9, 1}};
  HowardMcr mcr;
  mcr.solve(3, edges);
  for (std::size_t v = 0; v < 3; ++v) {
    EXPECT_FALSE(mcr.deadlocked(v));
    EXPECT_EQ(mcr.ratio(v).weight, 0);
    EXPECT_EQ(mcr.ratio(v).tokens, 0);
  }
  HowardMcr empty;
  empty.solve(2, {});
  EXPECT_EQ(empty.ratio(1).tokens, 0);

  SdfGraph g;
  const ActorId a = g.add_actor("a", 3);
  const ActorId b = g.add_actor("b", 5);
  const ActorId c = g.add_actor("c", 2);
  g.add_channel(a, b, 2, 2, 0);
  g.add_channel(b, c, 1, 1, 1);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_FALSE(r.deadlock);
  EXPECT_EQ(r.mcm, 0.0);
  EXPECT_EQ(r.throughput, 0.0);
}

TEST(HowardMcrTest, OnlyNodesATokenFreeCycleReachesDeadlock) {
  // a <-> b token-free, feeding c; d keeps its own live self-loop.
  const std::vector<HsdfEdge> edges{
      {0, 1, 1, 0}, {1, 0, 1, 0}, {1, 2, 1, 0}, {2, 2, 1, 1}, {3, 3, 2, 1}};
  HowardMcr mcr;
  mcr.solve(4, edges);
  EXPECT_TRUE(mcr.deadlocked(0));
  EXPECT_TRUE(mcr.deadlocked(1));
  EXPECT_TRUE(mcr.deadlocked(2));
  EXPECT_FALSE(mcr.deadlocked(3));
  EXPECT_EQ(mcr.ratio(2).tokens, 0);
  expect_ratio(mcr, 3, 2, 1);
}

TEST(HowardMcrTest, ExecTimesNear2Pow40CompareExactly) {
  // Two self-loops whose ratios w1/t1 > w2/t2 differ by 1/(t1*t2) ~ 2^-45:
  // the same double, and cross products of 2^63 and 2^63 - 1, which no
  // int64 holds both of. b's heavier self-loop is its first policy; only
  // an exact comparison moves b onto a's cycle.
  constexpr std::int64_t w1 = std::int64_t{1} << 40;
  constexpr std::int64_t t1 = 7 * 649'657;         // a factor of 2^63 - 1
  constexpr std::int64_t w2 = 2'028'184'990'993;   // (2^63 - 1) / t1
  constexpr std::int64_t t2 = std::int64_t{1} << 23;
  static_assert(w2 > w1 && w2 * t1 == INT64_MAX);
  ASSERT_EQ(static_cast<double>(w1) / static_cast<double>(t1),
            static_cast<double>(w2) / static_cast<double>(t2));
  const std::vector<HsdfEdge> edges{
      {0, 0, w1, t1}, {1, 1, w2, t2}, {0, 1, w1, 0}};
  HowardMcr mcr;
  mcr.solve(2, edges);
  expect_ratio(mcr, 0, w1, t1);
  expect_ratio(mcr, 1, w1, t1);

  // The same through the SdfGraph adapter, at rate 3.
  SdfGraph g;
  const ActorId a = g.add_actor("a", w1);
  const ActorId b = g.add_actor("b", w2);
  g.add_channel(a, a, 3, 3, 3 * t1);
  g.add_channel(b, b, 3, 3, 3 * t2);
  g.add_channel(a, b, 3, 3, 0);
  const auto r = max_cycle_ratio(g);
  ASSERT_TRUE(r.applicable);
  EXPECT_EQ(r.throughput,
            static_cast<double>(t1) / static_cast<double>(w1));
}

TEST(HowardMcrTest, NonHomogeneousGraphIsNotApplicable) {
  // Homogeneous everywhere except one multi-rate channel on a cycle.
  SdfGraph g;
  const ActorId a = g.add_actor("a", 2);
  const ActorId b = g.add_actor("b", 3);
  const ActorId c = g.add_actor("c", 4);
  g.disable_auto_concurrency(a);
  g.disable_auto_concurrency(b);
  g.add_buffered_channel(a, b, 1, 2);
  g.add_channel(b, c, 1, 2, 0);
  g.add_channel(c, b, 2, 1, 4);
  EXPECT_FALSE(max_cycle_ratio(g).applicable);
}

/// Brute force: every simple cycle by DFS; a node's ratio is the largest
/// over the cycles that reach it, and it deadlocks iff a token-free cycle
/// reaches it.
struct BruteForce {
  std::vector<bool> deadlocked;
  std::vector<CycleRatio> ratio;  // tokens 0: none
};

BruteForce brute_force(std::size_t n, const std::vector<HsdfEdge>& edges) {
  std::vector<std::vector<bool>> reaches(n, std::vector<bool>(n, false));
  for (std::size_t v = 0; v < n; ++v) reaches[v][v] = true;
  for (std::size_t round = 0; round < n; ++round) {
    for (const HsdfEdge& e : edges) {
      for (std::size_t v = 0; v < n; ++v) {
        if (reaches[static_cast<std::size_t>(e.dst)][v]) {
          reaches[static_cast<std::size_t>(e.src)][v] = true;
        }
      }
    }
  }
  BruteForce out{std::vector<bool>(n, false), std::vector<CycleRatio>(n)};
  auto record = [&](std::size_t on_cycle, CycleRatio r) {
    for (std::size_t v = 0; v < n; ++v) {
      if (!reaches[on_cycle][v]) continue;
      if (r.tokens == 0) {
        out.deadlocked[v] = true;
      } else if (out.ratio[v].tokens == 0 ||
                 static_cast<__int128>(r.weight) * out.ratio[v].tokens >
                     static_cast<__int128>(out.ratio[v].weight) * r.tokens) {
        out.ratio[v] = r;
      }
    }
  };
  // Cycles through `start` whose other nodes are all larger than it.
  std::vector<bool> on_path(n, false);
  std::function<void(std::size_t, std::size_t, CycleRatio)> dfs =
      [&](std::size_t start, std::size_t v, CycleRatio sum) {
        on_path[v] = true;
        for (const HsdfEdge& e : edges) {
          if (static_cast<std::size_t>(e.src) != v) continue;
          const auto w = static_cast<std::size_t>(e.dst);
          const CycleRatio next{sum.weight + e.weight, sum.tokens + e.tokens};
          if (w == start) {
            record(start, next);
          } else if (w > start && !on_path[w]) {
            dfs(start, w, next);
          }
        }
        on_path[v] = false;
      };
  for (std::size_t s = 0; s < n; ++s) dfs(s, s, {});
  for (std::size_t v = 0; v < n; ++v) {
    if (out.deadlocked[v]) out.ratio[v] = {};
  }
  return out;
}

class HowardBruteForceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HowardBruteForceTest, MatchesCycleEnumeration) {
  util::Xoshiro256 rng(GetParam());
  HowardMcr mcr;  // reused across graphs, as the validation phase does
  for (int graph = 0; graph < 20; ++graph) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<HsdfEdge> edges;
    const std::int64_t m = rng.uniform_int(0, 12);
    for (std::int64_t i = 0; i < m; ++i) {
      // Small ranges make equal ratios common; a quarter of the edges
      // carry no tokens.
      edges.push_back(HsdfEdge{
          static_cast<std::int32_t>(rng.uniform_int(0, n - 1)),
          static_cast<std::int32_t>(rng.uniform_int(0, n - 1)),
          rng.uniform_int(0, 6),
          rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, 3)});
    }
    mcr.solve(n, edges);
    const BruteForce expected = brute_force(n, edges);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(mcr.deadlocked(v), expected.deadlocked[v])
          << "seed " << GetParam() << " graph " << graph << " node " << v;
      const CycleRatio r = expected.ratio[v];
      if (r.tokens == 0) {
        EXPECT_EQ(mcr.ratio(v).tokens, 0) << "node " << v;
      } else {
        expect_ratio(mcr, v, r.weight, r.tokens);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, HowardBruteForceTest,
                         ::testing::Range<std::uint64_t>(500, 540));

// --- buffer sizing -------------------------------------------------------------

namespace {

SdfGraph producer_consumer(int buffer_factor, int exec_p, int exec_c) {
  SdfGraph g;
  const ActorId p = g.add_actor("p", exec_p);
  const ActorId c = g.add_actor("c", exec_c);
  g.disable_auto_concurrency(p);
  g.disable_auto_concurrency(c);
  g.add_buffered_channel(p, c, 1, buffer_factor);
  return g;
}

}  // namespace

TEST(BufferSizingTest, FindsMinimalFactor) {
  // Producer 2, consumer 3: factor 1 serialises (1/5), factor >= 2 reaches
  // the consumer-limited 1/3.
  const auto result = minimal_buffer_factor(
      [](int f) { return producer_consumer(f, 2, 3); }, ActorId{1},
      1.0 / 3.0 - 1e-9);
  ASSERT_TRUE(result.satisfiable);
  EXPECT_EQ(result.buffer_factor, 2);
  EXPECT_NEAR(result.throughput, 1.0 / 3.0, 1e-9);
}

TEST(BufferSizingTest, FactorOneSufficesForLooseRequirement) {
  const auto result = minimal_buffer_factor(
      [](int f) { return producer_consumer(f, 2, 3); }, ActorId{1}, 0.1);
  ASSERT_TRUE(result.satisfiable);
  EXPECT_EQ(result.buffer_factor, 1);
}

TEST(BufferSizingTest, ImpossibleRequirementReportsUnsatisfiable) {
  const auto result = minimal_buffer_factor(
      [](int f) { return producer_consumer(f, 2, 3); }, ActorId{1},
      0.9, /*max_factor=*/16);
  EXPECT_FALSE(result.satisfiable);
}

TEST(BufferSizingTest, MonotoneAcrossFactors) {
  const ThroughputAnalyzer analyzer;
  double previous = 0.0;
  for (int f = 1; f <= 6; ++f) {
    const auto g = producer_consumer(f, 3, 4);
    const double t = analyzer.analyze(g, ActorId{1}).throughput;
    EXPECT_GE(t, previous - 1e-12) << "factor " << f;
    previous = t;
  }
}

}  // namespace
}  // namespace kairos::sdf

#include "platform/hop_cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "platform/platform.hpp"

namespace kairos::platform {

namespace {

/// BFS from `start` into `dist` (which must be pre-filled with -1 and is
/// only written within start's component). Returns the eccentricity of
/// `start` within its component. `queue` is caller-provided scratch.
int bfs_fill(const Platform& platform, ElementId start, std::vector<int>& dist,
             std::vector<ElementId>& queue) {
  queue.clear();
  dist[static_cast<std::size_t>(start.value)] = 0;
  queue.push_back(start);
  int ecc = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ElementId e = queue[head];
    const int next = dist[static_cast<std::size_t>(e.value)] + 1;
    for (const ElementId n : platform.neighbors(e)) {
      int& slot = dist[static_cast<std::size_t>(n.value)];
      if (slot == -1) {
        slot = next;
        ecc = std::max(ecc, next);
        queue.push_back(n);
      }
    }
  }
  return ecc;
}

/// Eccentricity of `start` without keeping the distances (scratch is reset
/// to -1 for the visited component before returning, so it is reusable).
int bfs_ecc(const Platform& platform, ElementId start, std::vector<int>& dist,
            std::vector<ElementId>& queue) {
  const int ecc = bfs_fill(platform, start, dist, queue);
  for (const ElementId e : queue) dist[static_cast<std::size_t>(e.value)] = -1;
  return ecc;
}

}  // namespace

HopCache::HopCache(std::size_t element_count)
    : row_built_(element_count), rows_(element_count) {}

const std::vector<int>& HopCache::row(const Platform& platform,
                                      ElementId from) const {
  const auto idx = static_cast<std::size_t>(from.value);
  assert(idx < rows_.size() && "hop row requested for unknown element");
  if (!row_built_[idx].load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(build_mutex_);
    if (!row_built_[idx].load(std::memory_order_relaxed)) {
      rows_[idx] = platform.hop_distances_from(from);
      row_built_[idx].store(true, std::memory_order_release);
    }
  }
  return rows_[idx];
}

int HopCache::diameter(const Platform& platform) const {
  if (!diameter_built_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(build_mutex_);
    if (!diameter_built_.load(std::memory_order_relaxed)) {
      diameter_ = exact_diameter(platform);
      diameter_built_.store(true, std::memory_order_release);
    }
  }
  return diameter_;
}

int HopCache::exact_diameter(const Platform& platform) {
  const std::size_t n = platform.element_count();
  if (n == 0) return 0;

  // Scratch shared by every BFS below. `component` marks elements whose
  // component has already been measured.
  std::vector<int> dist(n, -1);
  std::vector<int> ecc_dist(n, -1);
  std::vector<ElementId> queue;
  std::vector<ElementId> ecc_queue;
  std::vector<char> measured(n, 0);
  queue.reserve(n);
  int diameter = 0;

  for (std::size_t seed = 0; seed < n; ++seed) {
    if (measured[seed]) continue;
    const ElementId s(static_cast<std::int32_t>(seed));

    // Sweep 0 discovers the component; u = farthest vertex from the seed.
    bfs_fill(platform, s, dist, queue);
    const std::vector<ElementId> component = queue;
    for (const ElementId e : component) {
      measured[static_cast<std::size_t>(e.value)] = 1;
    }
    ElementId u = s;
    for (const ElementId e : component) {
      const int de = dist[static_cast<std::size_t>(e.value)];
      const int du = dist[static_cast<std::size_t>(u.value)];
      if (de > du || (de == du && e.value < u.value)) u = e;
    }
    for (const ElementId e : component) {
      dist[static_cast<std::size_t>(e.value)] = -1;
    }

    // Reference sweeps. Every reference BFS raises the lower bound (its
    // eccentricity is a diameter witness) and is a root candidate; the root
    // iFUB wants is the *most central* vertex we can find, because the
    // level-pruning below only bites when the root's BFS tree is shallow.
    // The first two references are the classic double-sweep pair (u and its
    // farthest vertex w); each refinement then adds the vertex minimising
    // the maximum distance to all references so far. One reference alone is
    // a poor centre proxy on regular topologies — on a mesh, max(d(u,·),
    // d(w,·)) is flat along the whole anti-diagonal, and a corner of it
    // roots a deep tree that disables the pruning — but each added
    // reference cuts the tie region down, converging on the true centre in
    // a few sweeps.
    std::vector<ElementId> refs;
    std::vector<std::vector<int>> ref_dist;
    int lb = 0;
    ElementId root;
    int root_ecc = std::numeric_limits<int>::max();
    std::size_t root_ref = 0;
    auto add_ref = [&](ElementId c) {
      const int ecc = bfs_fill(platform, c, dist, queue);
      lb = std::max(lb, ecc);
      if (ecc < root_ecc) {
        root = c;
        root_ecc = ecc;
        root_ref = refs.size();
      }
      refs.push_back(c);
      ref_dist.push_back(dist);  // full copy; cleared for the next BFS below
      for (const ElementId e : component) {
        dist[static_cast<std::size_t>(e.value)] = -1;
      }
    };

    add_ref(u);
    ElementId w = u;
    for (const ElementId e : component) {
      const int de = ref_dist[0][static_cast<std::size_t>(e.value)];
      const int dw = ref_dist[0][static_cast<std::size_t>(w.value)];
      if (de > dw || (de == dw && e.value < w.value)) w = e;
    }
    if (w != u) add_ref(w);

    // Candidate = the vertex minimising the max distance to all references;
    // ties go to the vertex *farthest* from the references (the tie region
    // contains the references themselves — on a mesh it is the whole
    // anti-diagonal — and the centre is its point most remote from the
    // already-chosen extremes), then to the lowest id for determinism.
    constexpr int kRefinements = 4;
    for (int iter = 0; iter < kRefinements; ++iter) {
      ElementId c;
      int c_radius = std::numeric_limits<int>::max();
      int c_spread = -1;
      for (const ElementId e : component) {
        int radius = 0;
        int spread = std::numeric_limits<int>::max();
        for (const auto& rd : ref_dist) {
          const int d = rd[static_cast<std::size_t>(e.value)];
          radius = std::max(radius, d);
          spread = std::min(spread, d);
        }
        if (radius < c_radius ||
            (radius == c_radius &&
             (spread > c_spread || (spread == c_spread && e.value < c.value)))) {
          c = e;
          c_radius = radius;
          c_spread = spread;
        }
      }
      if (std::find(refs.begin(), refs.end(), c) != refs.end()) break;
      add_ref(c);
    }

    // iFUB: walk the root's BFS levels top-down. Once 2*depth <= lb, every
    // unprocessed pair x,y has d(x,y) <= d(x,root)+d(root,y) <= 2*depth and
    // cannot beat the bound, so lb is the component's exact diameter.
    const std::vector<int>& root_dist = ref_dist[root_ref];
    std::vector<std::vector<ElementId>> by_depth;
    for (const ElementId e : component) {
      const auto depth = static_cast<std::size_t>(
          root_dist[static_cast<std::size_t>(e.value)]);
      if (by_depth.size() <= depth) by_depth.resize(depth + 1);
      by_depth[depth].push_back(e);
    }
    for (std::size_t depth = by_depth.size(); depth-- > 1;) {
      if (2 * static_cast<int>(depth) <= lb) break;
      for (const ElementId e : by_depth[depth]) {
        lb = std::max(lb, bfs_ecc(platform, e, ecc_dist, ecc_queue));
      }
    }
    diameter = std::max(diameter, lb);
  }
  return diameter;
}

}  // namespace kairos::platform

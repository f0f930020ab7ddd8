// The incremental mapping algorithm MapApplication of §III (Fig. 5) — the
// paper's main contribution.
//
// The mapping problem is decomposed by divide-and-conquer along the task
// graph:
//
//  1. Anchoring. Tasks with exactly one available element (|{e | av(e,t)}| =
//     1 — typically pinned I/O tasks) form the partial mapping M0. When no
//     task is anchored, a task of minimum degree δ(T) is mapped to the
//     available element of minimum MappingCost, preferring elements at risk
//     of becoming isolated.
//  2. Neighborhoods. The remaining tasks are grouped into sets T_i of equal
//     undirected distance i from the anchors, and processed in order of
//     increasing i.
//  3. Element search. For each T_i, a directional breadth-first search runs
//     outwards from the elements hosting the mapped communication peers of
//     T_i (E+ along out-links for producers, E- along in-links for
//     consumers), ring by ring, recording distances into the
//     DistanceOracle — the paper's sparse distance matrix: only discovered
//     (origin, target) pairs have a distance and any other lookup misses,
//     though the storage is dense per-origin rows so that each lookup in
//     the cost function is two vector reads. Once enough candidate elements
//     are available, one extra ring is searched ("we do not stop searching
//     ... if we found exactly enough elements"), keeping the fragmentation
//     objective effective. The rings are read from per-origin BFS trees
//     built once per platform state and shared with the router (see
//     ring_search.hpp).
//  4. Assignment. Candidates feed the incremental Cohen-Katzir-Raz GAP
//     solver (one knapsack per element over cost *reductions*); if tasks
//     remain unassigned the candidate set keeps growing (Fig. 4) until
//     either all tasks of T_i are mapped or the platform is exhausted.
//
// On success the mapper leaves the task resource demands allocated on the
// platform; on failure the platform is rolled back to its entry state. Its
// working buffers are thread-local and reused, so a warm map() call
// allocates only its result.
#pragma once

#include <string>
#include <vector>

#include "core/binding.hpp"
#include "core/cost_model.hpp"
#include "core/layout.hpp"
#include "graph/application.hpp"
#include "platform/platform.hpp"

namespace kairos::core {

struct MapperConfig {
  CostWeights weights{};
  FragmentationBonuses bonuses{};
  /// Additional search rings beyond the first ring that yields enough
  /// candidates (§III-B prescribes one; 0 gives the minimal-search ablation).
  int extra_rings = 1;
  /// Use the exact branch-and-bound knapsack instead of the O(T²) greedy
  /// (ablation; only viable for small neighborhoods).
  bool exact_knapsack = false;
};

struct MappingStats {
  int iterations = 0;     ///< neighborhoods T_i processed
  int rings = 0;          ///< search rings expanded
  int gap_elements = 0;   ///< elements offered to the GAP solver
  int components = 0;     ///< anchor (re)starts, 1 for a connected graph
};

struct MappingResult {
  bool ok = false;
  std::string reason;
  /// Per task, the assigned element (valid iff ok).
  std::vector<platform::ElementId> element_of;
  /// Sum of the cost-function values of the final assignments.
  double total_cost = 0.0;
  MappingStats stats;
};

class IncrementalMapper {
 public:
  explicit IncrementalMapper(MapperConfig config = {}) : config_(config) {}

  const MapperConfig& config() const { return config_; }

  /// Runs MapApplication for an application whose implementations were
  /// selected by the binding phase (`impl_of`). Allocates task demands on
  /// `platform` on success; restores `platform` on failure.
  MappingResult map(const graph::Application& app,
                    const std::vector<int>& impl_of, const PinTable& pins,
                    platform::Platform& platform) const;

 private:
  MapperConfig config_;
};

}  // namespace kairos::core

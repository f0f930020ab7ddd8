// Synthetic platform builders for tests and ablation benches. The paper's
// algorithm is explicitly topology-generic ("a generic task mapping algorithm
// that works on a variety of platforms", §II); these builders exercise that
// claim on meshes, tori, rings, stars and random irregular graphs.
#pragma once

#include <cstdint>

#include "platform/platform.hpp"

namespace kairos::platform {

/// Parameters shared by the synthetic builders.
struct BuilderConfig {
  ResourceVector element_capacity{1000, 512, 16, 8};
  ElementType element_type = ElementType::kGeneric;
  int vc_capacity = 4;
  std::int64_t bw_capacity = 1000;
};

/// width x height grid with duplex links between 4-neighbors.
Platform make_mesh(int width, int height, const BuilderConfig& cfg = {});

/// Mesh with wrap-around links in both dimensions. Each element gets a
/// duplex link to its right and to its lower neighbor, wrapping at the
/// edges; in a dimension of size 2 the wrap-around neighbor is the plain
/// neighbor, so that pair is joined by two parallel duplex links (legal in
/// Platform; routing treats them as alternatives). Throws
/// std::invalid_argument when width or height is below 2, where the wrap
/// would be a self-link.
Platform make_torus(int width, int height, const BuilderConfig& cfg = {});

/// n elements in a duplex cycle.
Platform make_ring(int n, const BuilderConfig& cfg = {});

/// One hub connected to n-1 leaves (worst case for fragmentation).
Platform make_star(int n, const BuilderConfig& cfg = {});

/// A connected random graph: a random spanning tree plus `extra_links`
/// additional random duplex links. Deterministic for a given seed.
Platform make_irregular(int n, int extra_links, std::uint64_t seed,
                        const BuilderConfig& cfg = {});

/// A 1xN chain (a degenerate mesh) — handy for routing edge cases.
Platform make_chain(int n, const BuilderConfig& cfg = {});

}  // namespace kairos::platform

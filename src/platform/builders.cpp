#include "platform/builders.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace kairos::platform {

namespace {

ElementId add_numbered(Platform& p, const BuilderConfig& cfg, int i) {
  return p.add_element(cfg.element_type, "e" + std::to_string(i),
                       cfg.element_capacity);
}

}  // namespace

Platform make_mesh(int width, int height, const BuilderConfig& cfg) {
  assert(width > 0 && height > 0);
  Platform p("mesh" + std::to_string(width) + "x" + std::to_string(height));
  std::vector<ElementId> ids;
  ids.reserve(static_cast<std::size_t>(width) * height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      ids.push_back(add_numbered(p, cfg, y * width + x));
    }
  }
  auto at = [&](int x, int y) { return ids[static_cast<std::size_t>(y) * width + x]; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) {
        p.add_duplex_link(at(x, y), at(x + 1, y), cfg.vc_capacity,
                          cfg.bw_capacity);
      }
      if (y + 1 < height) {
        p.add_duplex_link(at(x, y), at(x, y + 1), cfg.vc_capacity,
                          cfg.bw_capacity);
      }
    }
  }
  return p;
}

Platform make_torus(int width, int height, const BuilderConfig& cfg) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("make_torus: width and height must be >= 2");
  }
  Platform p("torus" + std::to_string(width) + "x" + std::to_string(height));
  std::vector<ElementId> ids;
  ids.reserve(static_cast<std::size_t>(width) * height);
  for (int i = 0; i < width * height; ++i) ids.push_back(add_numbered(p, cfg, i));
  auto at = [&](int x, int y) { return ids[static_cast<std::size_t>(y) * width + x]; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      p.add_duplex_link(at(x, y), at((x + 1) % width, y), cfg.vc_capacity,
                        cfg.bw_capacity);
      p.add_duplex_link(at(x, y), at(x, (y + 1) % height), cfg.vc_capacity,
                        cfg.bw_capacity);
    }
  }
  return p;
}

Platform make_ring(int n, const BuilderConfig& cfg) {
  assert(n >= 3);
  Platform p("ring" + std::to_string(n));
  std::vector<ElementId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(add_numbered(p, cfg, i));
  for (int i = 0; i < n; ++i) {
    p.add_duplex_link(ids[static_cast<std::size_t>(i)],
                      ids[static_cast<std::size_t>((i + 1) % n)],
                      cfg.vc_capacity, cfg.bw_capacity);
  }
  return p;
}

Platform make_star(int n, const BuilderConfig& cfg) {
  assert(n >= 2);
  Platform p("star" + std::to_string(n));
  const ElementId hub = add_numbered(p, cfg, 0);
  for (int i = 1; i < n; ++i) {
    const ElementId leaf = add_numbered(p, cfg, i);
    p.add_duplex_link(hub, leaf, cfg.vc_capacity, cfg.bw_capacity);
  }
  return p;
}

Platform make_chain(int n, const BuilderConfig& cfg) {
  assert(n >= 1);
  Platform p("chain" + std::to_string(n));
  std::vector<ElementId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(add_numbered(p, cfg, i));
  for (int i = 0; i + 1 < n; ++i) {
    p.add_duplex_link(ids[static_cast<std::size_t>(i)],
                      ids[static_cast<std::size_t>(i + 1)], cfg.vc_capacity,
                      cfg.bw_capacity);
  }
  return p;
}

Platform make_irregular(int n, int extra_links, std::uint64_t seed,
                        const BuilderConfig& cfg) {
  assert(n >= 2);
  Platform p("irregular" + std::to_string(n));
  util::Xoshiro256 rng(seed);
  std::vector<ElementId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(add_numbered(p, cfg, i));
  // Random spanning tree: attach each new node to a random existing one.
  for (int i = 1; i < n; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, i - 1));
    p.add_duplex_link(ids[static_cast<std::size_t>(i)], ids[j],
                      cfg.vc_capacity, cfg.bw_capacity);
  }
  // Extra random links (skipping self-loops and duplicates).
  int added = 0;
  int attempts = 0;
  while (added < extra_links && attempts < extra_links * 20 + 100) {
    ++attempts;
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (a == b) continue;
    if (p.find_link(ids[a], ids[b]).has_value()) continue;
    p.add_duplex_link(ids[a], ids[b], cfg.vc_capacity, cfg.bw_capacity);
    ++added;
  }
  return p;
}

}  // namespace kairos::platform

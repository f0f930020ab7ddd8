#include "platform/availability.hpp"

#include <bit>
#include <cassert>
#include <limits>

#include "platform/platform.hpp"

namespace kairos::platform {

namespace {

// A failed (or padding) leaf takes these absorbing values: no non-negative
// demand fits a -1 max, and a +inf min never enables the count-all-at-once
// shortcut for a subtree it does not actually satisfy.
constexpr ResourceVector kNothingFits{-1, -1, -1, -1};
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
constexpr ResourceVector kNeverShortcuts{kInf, kInf, kInf, kInf};

ResourceVector component_max(const ResourceVector& a, const ResourceVector& b) {
  ResourceVector out;
  for (std::size_t k = 0; k < kResourceKindCount; ++k) {
    const auto kind = static_cast<ResourceKind>(k);
    out.set(kind, a.get(kind) > b.get(kind) ? a.get(kind) : b.get(kind));
  }
  return out;
}

ResourceVector component_min(const ResourceVector& a, const ResourceVector& b) {
  ResourceVector out;
  for (std::size_t k = 0; k < kResourceKindCount; ++k) {
    const auto kind = static_cast<ResourceKind>(k);
    out.set(kind, a.get(kind) < b.get(kind) ? a.get(kind) : b.get(kind));
  }
  return out;
}

}  // namespace

void AvailabilityIndex::rebuild(const Platform& platform) {
  members_ = platform.type_members();
  const std::size_t n = platform.element_count();
  free_.resize(n);
  failed_.resize(n);
  slot_.resize(n);
  type_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Element& el = platform.elements()[i];
    free_[i] = el.free();
    failed_[i] = el.is_failed() ? 1 : 0;
    type_[i] = static_cast<std::uint8_t>(el.type());
  }

  for (std::size_t k = 0; k < kElementTypeCount; ++k) {
    const std::vector<ElementId>& members = members_->of[k];
    Tree& tree = trees_[k];
    sums_[k] = ResourceVector{};
    if (members.empty()) {
      tree.base = 0;
      tree.maxv.clear();
      tree.minv.clear();
      tree.avail.clear();
      continue;
    }
    tree.base = std::bit_ceil(members.size());
    tree.maxv.resize(2 * tree.base);
    tree.minv.resize(2 * tree.base);
    tree.avail.resize(2 * tree.base);
    // Node 0 is unused; pin it so pooled rebuilds stay bit-comparable.
    tree.maxv[0] = ResourceVector{};
    tree.minv[0] = ResourceVector{};
    tree.avail[0] = 0;
    for (std::size_t s = 0; s < tree.base; ++s) {
      const std::size_t node = tree.base + s;
      if (s < members.size()) {
        const auto idx = static_cast<std::size_t>(members[s].value);
        slot_[idx] = static_cast<std::int32_t>(s);
        if (failed_[idx]) {
          tree.maxv[node] = kNothingFits;
          tree.minv[node] = kNeverShortcuts;
          tree.avail[node] = 0;
        } else {
          tree.maxv[node] = free_[idx];
          tree.minv[node] = free_[idx];
          tree.avail[node] = 1;
          sums_[k] += free_[idx];
        }
      } else {
        tree.maxv[node] = kNothingFits;
        tree.minv[node] = kNeverShortcuts;
        tree.avail[node] = 0;
      }
    }
    for (std::size_t node = tree.base; node-- > 1;) {
      tree.maxv[node] = component_max(tree.maxv[2 * node], tree.maxv[2 * node + 1]);
      tree.minv[node] = component_min(tree.minv[2 * node], tree.minv[2 * node + 1]);
      tree.avail[node] = tree.avail[2 * node] + tree.avail[2 * node + 1];
    }
  }
  built_ = true;
}

void AvailabilityIndex::refresh_leaf(ElementId e) {
  const auto idx = static_cast<std::size_t>(e.value);
  Tree& tree = trees_[type_[idx]];
  std::size_t node = tree.base + static_cast<std::size_t>(slot_[idx]);
  if (failed_[idx]) {
    tree.maxv[node] = kNothingFits;
    tree.minv[node] = kNeverShortcuts;
    tree.avail[node] = 0;
  } else {
    tree.maxv[node] = free_[idx];
    tree.minv[node] = free_[idx];
    tree.avail[node] = 1;
  }
  for (node >>= 1; node >= 1; node >>= 1) {
    tree.maxv[node] = component_max(tree.maxv[2 * node], tree.maxv[2 * node + 1]);
    tree.minv[node] = component_min(tree.minv[2 * node], tree.minv[2 * node + 1]);
    tree.avail[node] = tree.avail[2 * node] + tree.avail[2 * node + 1];
  }
}

void AvailabilityIndex::on_allocate(ElementId e, const ResourceVector& demand) {
  assert(built_);
  const auto idx = static_cast<std::size_t>(e.value);
  free_[idx] -= demand;
  if (!failed_[idx]) {
    sums_[type_[idx]] -= demand;
    refresh_leaf(e);
  }
}

void AvailabilityIndex::on_release(ElementId e, const ResourceVector& demand) {
  assert(built_);
  const auto idx = static_cast<std::size_t>(e.value);
  free_[idx] += demand;
  if (!failed_[idx]) {
    sums_[type_[idx]] += demand;
    refresh_leaf(e);
  }
}

void AvailabilityIndex::on_failed(ElementId e, bool failed) {
  assert(built_);
  const auto idx = static_cast<std::size_t>(e.value);
  if ((failed_[idx] != 0) == failed) return;
  failed_[idx] = failed ? 1 : 0;
  if (failed) {
    sums_[type_[idx]] -= free_[idx];
  } else {
    sums_[type_[idx]] += free_[idx];
  }
  refresh_leaf(e);
}

bool AvailabilityIndex::covers(ElementType type,
                               const ResourceVector& demand) const {
  const Tree& tree = trees_[static_cast<std::size_t>(type)];
  if (tree.base == 0) return false;
  std::size_t stack[64];
  std::size_t depth = 0;
  stack[depth++] = 1;
  while (depth > 0) {
    const std::size_t node = stack[--depth];
    if (!demand.fits_within(tree.maxv[node])) continue;
    if (node >= tree.base) return true;
    if (tree.avail[node] > 0 && demand.fits_within(tree.minv[node])) return true;
    stack[depth++] = 2 * node + 1;
    stack[depth++] = 2 * node;
  }
  return false;
}

ElementId AvailabilityIndex::first_available(ElementType type,
                                             const ResourceVector& demand) const {
  // A node's max is *componentwise*, so fitting it is necessary but not
  // sufficient for any single leaf underneath to fit — the search must
  // backtrack, not commit to one child. Left is explored first, so the
  // first leaf reached (where the max is the element's exact free vector)
  // is the lowest-id fit.
  const Tree& tree = trees_[static_cast<std::size_t>(type)];
  if (tree.base == 0) return ElementId{};
  std::size_t stack[64];
  std::size_t depth = 0;
  stack[depth++] = 1;
  while (depth > 0) {
    const std::size_t node = stack[--depth];
    if (!demand.fits_within(tree.maxv[node])) continue;
    if (node >= tree.base) {
      return members_->of[static_cast<std::size_t>(type)][node - tree.base];
    }
    stack[depth++] = 2 * node + 1;  // right pushed first: left pops first
    stack[depth++] = 2 * node;
  }
  return ElementId{};
}

int AvailabilityIndex::count_available(ElementType type,
                                       const ResourceVector& demand) const {
  const Tree& tree = trees_[static_cast<std::size_t>(type)];
  if (tree.base == 0) return 0;
  int count = 0;
  std::size_t stack[64];
  std::size_t depth = 0;
  stack[depth++] = 1;
  while (depth > 0) {
    const std::size_t node = stack[--depth];
    if (!demand.fits_within(tree.maxv[node])) continue;
    if (demand.fits_within(tree.minv[node])) {
      count += tree.avail[node];
      continue;
    }
    if (node >= tree.base) {
      count += tree.avail[node];
      continue;
    }
    stack[depth++] = 2 * node + 1;
    stack[depth++] = 2 * node;
  }
  return count;
}

void AvailabilityIndex::collect_available(ElementType type,
                                          const ResourceVector& demand,
                                          ElementId exclude, std::size_t limit,
                                          std::vector<ElementId>& out) const {
  const Tree& tree = trees_[static_cast<std::size_t>(type)];
  if (tree.base == 0 || limit == 0) return;
  const std::vector<ElementId>& members =
      members_->of[static_cast<std::size_t>(type)];
  std::size_t stack[64];
  std::size_t depth = 0;
  stack[depth++] = 1;
  while (depth > 0 && out.size() < limit) {
    const std::size_t node = stack[--depth];
    if (!demand.fits_within(tree.maxv[node])) continue;
    if (node >= tree.base) {
      const ElementId e = members[node - tree.base];
      if (e != exclude) out.push_back(e);
      continue;
    }
    stack[depth++] = 2 * node + 1;  // pushed second half first: left pops first
    stack[depth++] = 2 * node;
  }
}

bool AvailabilityIndex::consistent_with(const Platform& platform) const {
  if (!built_) return false;
  AvailabilityIndex fresh;
  fresh.rebuild(platform);
  if (free_ != fresh.free_ || failed_ != fresh.failed_ ||
      slot_ != fresh.slot_ || type_ != fresh.type_) {
    return false;
  }
  for (std::size_t k = 0; k < kElementTypeCount; ++k) {
    if (sums_[k] != fresh.sums_[k]) return false;
    const Tree& a = trees_[k];
    const Tree& b = fresh.trees_[k];
    if (a.base != b.base || a.maxv != b.maxv || a.minv != b.minv ||
        a.avail != b.avail) {
      return false;
    }
  }
  return true;
}

namespace {
thread_local std::vector<std::unique_ptr<AvailabilityIndex>> scratch_pool;
}  // namespace

ScratchAvailability::ScratchAvailability(const Platform& platform) {
  if (!scratch_pool.empty()) {
    index_ = std::move(scratch_pool.back());
    scratch_pool.pop_back();
  } else {
    index_ = std::make_unique<AvailabilityIndex>();
  }
  // When the platform's own index is current, cloning it is a plain buffer
  // copy; the rebuild (re-deriving every leaf and tree level from element
  // state) is the cold-start fallback. Both produce the identical index.
  if (platform.availability().built()) {
    *index_ = platform.availability();
  } else {
    index_->rebuild(platform);
  }
}

ScratchAvailability::~ScratchAvailability() {
  if (scratch_pool.size() < 4) scratch_pool.push_back(std::move(index_));
}

}  // namespace kairos::platform

#include "platform/availability.hpp"

#include <bit>
#include <cassert>

#include "platform/platform.hpp"

namespace kairos::platform {

namespace {

// A failed (or padding) leaf takes this absorbing value: no non-negative
// demand fits a -1 max.
constexpr ResourceVector kNothingFits{-1, -1, -1, -1};

ResourceVector component_max(const ResourceVector& a, const ResourceVector& b) {
  ResourceVector out;
  for (std::size_t k = 0; k < kResourceKindCount; ++k) {
    const auto kind = static_cast<ResourceKind>(k);
    out.set(kind, a.get(kind) > b.get(kind) ? a.get(kind) : b.get(kind));
  }
  return out;
}

}  // namespace

void AvailabilityIndex::add_element(ElementId e, ElementType type,
                                    const ResourceVector& free) {
  assert(static_cast<std::size_t>(e.value) == free_.size());
  // Copies of this index never run concurrently with its growth, so the use
  // count cannot grow while it is read.
  if (members_.use_count() != 1) {
    members_ = std::make_shared<TypeMembers>(*members_);
  }
  const auto k = static_cast<std::size_t>(type);
  std::vector<ElementId>& members = members_->of[k];
  slot_.push_back(static_cast<std::int32_t>(members.size()));
  members.push_back(e);
  free_.push_back(free);
  failed_.push_back(0);
  type_.push_back(static_cast<std::uint8_t>(k));
  if (members.size() > trees_[k].base) {
    lay_out(k);
  } else {
    refresh_leaf(e);
  }
}

void AvailabilityIndex::lay_out(std::size_t type_index) {
  const std::vector<ElementId>& members = members_->of[type_index];
  Tree& tree = trees_[type_index];
  tree.base = members.empty() ? 0 : std::bit_ceil(members.size());
  tree.maxv.assign(2 * tree.base, kNothingFits);
  for (std::size_t s = 0; s < members.size(); ++s) {
    const auto idx = static_cast<std::size_t>(members[s].value);
    if (!failed_[idx]) tree.maxv[tree.base + s] = free_[idx];
  }
  for (std::size_t node = tree.base; node-- > 1;) {
    tree.maxv[node] = component_max(tree.maxv[2 * node], tree.maxv[2 * node + 1]);
  }
}

void AvailabilityIndex::refresh_leaf(ElementId e) {
  const auto idx = static_cast<std::size_t>(e.value);
  Tree& tree = trees_[type_[idx]];
  std::size_t node = tree.base + static_cast<std::size_t>(slot_[idx]);
  tree.maxv[node] = failed_[idx] ? kNothingFits : free_[idx];
  for (node >>= 1; node >= 1; node >>= 1) {
    tree.maxv[node] = component_max(tree.maxv[2 * node], tree.maxv[2 * node + 1]);
  }
}

void AvailabilityIndex::set_free(ElementId e, const ResourceVector& free) {
  const auto idx = static_cast<std::size_t>(e.value);
  free_[idx] = free;
  if (!failed_[idx]) refresh_leaf(e);
}

void AvailabilityIndex::on_failed(ElementId e, bool failed) {
  const auto idx = static_cast<std::size_t>(e.value);
  if ((failed_[idx] != 0) == failed) return;
  failed_[idx] = failed ? 1 : 0;
  refresh_leaf(e);
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
  AvailabilityIndex fresh;
  auto members = std::make_shared<TypeMembers>();
  for (const Element& el : platform.elements()) {
    const auto k = static_cast<std::size_t>(el.type());
    fresh.slot_.push_back(static_cast<std::int32_t>(members->of[k].size()));
    members->of[k].push_back(el.id());
    fresh.free_.push_back(el.free());
    fresh.failed_.push_back(el.is_failed() ? 1 : 0);
    fresh.type_.push_back(static_cast<std::uint8_t>(k));
  }
  fresh.members_ = std::move(members);
  for (std::size_t k = 0; k < kElementTypeCount; ++k) fresh.lay_out(k);

  if (members_->of != fresh.members_->of || free_ != fresh.free_ ||
      failed_ != fresh.failed_ || slot_ != fresh.slot_ ||
      type_ != fresh.type_) {
    return false;
  }
  for (std::size_t k = 0; k < kElementTypeCount; ++k) {
    if (trees_[k].base != fresh.trees_[k].base ||
        trees_[k].maxv != fresh.trees_[k].maxv) {
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
  *index_ = platform.availability();
}

ScratchAvailability::~ScratchAvailability() {
  if (scratch_pool.size() < 4) scratch_pool.push_back(std::move(index_));
}

}  // namespace kairos::platform

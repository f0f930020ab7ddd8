#include "platform/search_trees.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/scope_exit.hpp"

namespace kairos::platform {

namespace {

thread_local SearchTrees local_trees;

/// A new tree's hash capacity: room for 32 elements before a rehash.
constexpr std::size_t kFirstSlots = 64;

/// A serial no platform carries: a table marked with it is emptied on its
/// next use.
constexpr std::uint64_t kStaleSerial =
    std::numeric_limits<std::uint64_t>::max();

std::size_t hash_slot(ElementId e, std::size_t mask) {
  return (static_cast<std::uint32_t>(e.value) * 0x9E3779B1u) & mask;
}

}  // namespace

SearchTree::SearchTree(SearchTrees& owner, ElementId origin,
                       SearchDirection direction)
    : owner_(&owner), direction_(direction), slots_(kFirstSlots) {
  // Most trees stay small; one reservation each covers their growth.
  nodes_.reserve(kFirstSlots / 2);
  ring_start_.reserve(8);
  ring_start_.push_back(0);
  discover(origin, LinkId{}, -1);
  ring_start_.push_back(1);
}

std::span<const SearchTree::Node> SearchTree::ring(const Platform& platform,
                                                   int d) {
  assert(d >= 0);
  const auto ring = static_cast<std::size_t>(d);
  while (ring + 1 >= ring_start_.size() && !complete_) {
    expand(platform, ElementId{});
  }
  if (ring + 1 >= ring_start_.size()) return {};
  const auto first = static_cast<std::size_t>(ring_start_[ring]);
  const auto last = static_cast<std::size_t>(ring_start_[ring + 1]);
  return std::span<const Node>(nodes_).subspan(first, last - first);
}

int SearchTree::find(const Platform& platform, ElementId e) {
  int pos = position(e);
  while (pos < 0 && !complete_) pos = expand(platform, e);
  return pos;
}

int SearchTree::expand(const Platform& platform, ElementId target) {
  assert(!complete_);
  // A throw part-way (an allocation failure) would leave this tree half
  // expanded, and later searches would miss elements: the whole table is
  // then emptied on its next use instead.
  util::ScopeExit stale([this] { owner_->serial_ = kStaleSerial; });
  const std::int32_t pos = expanded_++;
  const ElementId e = nodes_[slot(pos)].element;
  const bool out = direction_ == SearchDirection::kOut;
  int found = -1;
  for (const LinkId l : out ? platform.out_links(e) : platform.in_links(e)) {
    const Link& link = platform.link(l);
    const ElementId next = out ? link.dst() : link.src();
    if (position(next) >= 0 || platform.element(next).is_failed()) continue;
    if (next == target) found = static_cast<int>(nodes_.size());
    discover(next, l, pos);
  }
  // The last element of the deepest complete ring is expanded: the ring
  // after it is complete too, or empty, which ends the search.
  if (expanded_ == ring_start_.back()) {
    const auto end = static_cast<std::int32_t>(nodes_.size());
    if (end == expanded_) {
      complete_ = true;
    } else {
      ring_start_.push_back(end);
    }
  }
  stale.dismiss();
  return found;
}

void SearchTree::discover(ElementId e, LinkId via, int parent) {
  const auto pos = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{e, via, parent});
  index(e, pos);
  ++owner_->entries_;
}

int SearchTree::position(ElementId e) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash_slot(e, mask);; s = (s + 1) & mask) {
    if (slots_[s].element == e.value) return slots_[s].pos;
    if (slots_[s].element < 0) return -1;
  }
}

void SearchTree::index(ElementId e, int pos) {
  if (2 * nodes_.size() > slots_.size()) {
    slots_.assign(2 * slots_.size(), Slot{});
    for (std::size_t p = 0; p + 1 < nodes_.size(); ++p) {
      place(nodes_[p].element, static_cast<int>(p));
    }
  }
  place(e, pos);
}

void SearchTree::place(ElementId e, int pos) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = hash_slot(e, mask);
  while (slots_[s].element >= 0) s = (s + 1) & mask;
  slots_[s] = Slot{e.value, pos};
}

SearchTrees& SearchTrees::local(const Platform& platform) {
  SearchTrees& table = local_trees;
  if (table.serial_ != platform.search_serial() ||
      table.entries_ > table.cap_) {
    const std::size_t n = platform.element_count();
    table.serial_ = kStaleSerial;  // until the reset below has completed
    table.trees_.clear();
    table.tree_of_.assign(2 * n, -1);
    table.cap_ = 2 * n * std::min<std::size_t>(n, 64);
    table.entries_ = 0;
    table.serial_ = platform.search_serial();
  }
  return table;
}

SearchTree& SearchTrees::tree(ElementId origin, SearchDirection direction) {
  const std::size_t key = 2 * static_cast<std::size_t>(origin.value) +
                          (direction == SearchDirection::kIn ? 1 : 0);
  assert(key < tree_of_.size() && "search origin outside the platform");
  std::int32_t& index = tree_of_[key];
  if (index < 0) {
    // Indexed only once stored, so a throwing push leaves no dangling index.
    trees_.push_back(SearchTree(*this, origin, direction));
    index = static_cast<std::int32_t>(trees_.size() - 1);
  }
  return trees_[static_cast<std::size_t>(index)];
}

}  // namespace kairos::platform

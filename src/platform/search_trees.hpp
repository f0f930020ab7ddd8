// Per-origin breadth-first search trees over the platform, built once and
// read by every search that starts at the same element.
//
// At run time the platform's topology is fixed (§III): only allocation and
// fault state change. The mapper's ring search (§III-B) and the BFS router
// (§II) both explore the platform breadth-first from an element, and both
// used to redo that exploration on every call. A SearchTree is the
// exploration done once: the BFS from one origin along out-links (or
// in-links) through non-failed elements, recording the discovery order,
// where each ring of equal hop distance starts, and the link and parent
// each element was discovered through. Adjacency lists are walked in
// ascending link id, so the tree is the one the live searches would build.
// Trees grow lazily, one element's links at a time and only as far as a
// caller asks (a whole ring for the ring search, up to the destination for
// the router), so a 10k-element mesh never pays for a full BFS per origin.
//
// Neither allocation state nor link faults shape a tree: the ring search
// ignores both, and the router checks them on the path it reads out (see
// noc/router.hpp). Element faults do, since a failed element's router is
// dead; the origin itself is always the tree's root.
//
// The trees live in a thread-local table keyed by Platform::search_serial().
// Copies of a platform share the serial, so the snapshots the admission
// service stages against reuse the trees built on the live platform, while
// a topology edit or an element fault or repair gives the platform a fresh
// serial, which empties the table on its next use. A platform copy made
// before a fault keeps its old serial and is never served the new trees.
// Being thread-local, the table needs no locks.
//
// Memory is what the searches explored: a tree holds the elements it has
// discovered plus a hash index over them (a new tree reserves room for 32,
// about 1 KiB). SearchTrees::local() empties the table once it holds more
// than 2·V·min(V, 64) entries, so it never exceeds that cap by more than
// one search's exploration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "platform/platform.hpp"

namespace kairos::platform {

/// Which links a search follows away from its origin.
enum class SearchDirection : std::uint8_t {
  kOut,  ///< along out-links: elements the origin can send to
  kIn,   ///< along in-links: elements that can send to the origin
};

class SearchTrees;

/// The BFS tree of one origin. Positions index the discovery order;
/// position 0 is the origin.
class SearchTree {
 public:
  /// One discovered element.
  struct Node {
    ElementId element;
    /// The link the element was discovered through; invalid for the origin.
    LinkId via;
    /// The position of the element `via` leaves from; -1 for the origin.
    std::int32_t parent = -1;
  };

  /// Ring d: the elements at hop distance exactly d, in discovery order,
  /// growing the tree as far as needed. Empty beyond the tree's last ring.
  std::span<const Node> ring(const Platform& platform, int d);

  /// The position of `e`, growing the tree until `e` is found or the tree
  /// is complete; -1 when `e` is not reachable.
  int find(const Platform& platform, ElementId e);

  const Node& node(int pos) const { return nodes_[slot(pos)]; }

 private:
  friend class SearchTrees;

  SearchTree(SearchTrees& owner, ElementId origin, SearchDirection direction);

  static std::size_t slot(int pos) { return static_cast<std::size_t>(pos); }

  /// Follows the links of the next unexpanded element (the BFS's next
  /// dequeue). Returns the position of `target` if that discovered it, -1
  /// otherwise. Must not be called once complete.
  int expand(const Platform& platform, ElementId target);
  void discover(ElementId e, LinkId via, int parent);
  /// Hash-index lookup of a discovered element; -1 when absent.
  int position(ElementId e) const;
  /// Adds a discovered element to the hash index, rehashing when full.
  void index(ElementId e, int pos);
  void place(ElementId e, int pos);

  struct Slot {
    std::int32_t element = -1;  ///< -1 where empty
    std::int32_t pos = -1;
  };

  SearchTrees* owner_;
  SearchDirection direction_;
  /// True once every reachable element has been discovered.
  bool complete_ = false;
  std::vector<Node> nodes_;
  /// Positions [0, expanded_) have had their links followed.
  std::int32_t expanded_ = 0;
  /// ring_start_[d] is the position ring d starts at; the last entry ends
  /// the deepest complete ring. Elements past it form the next ring, still
  /// being discovered.
  std::vector<std::int32_t> ring_start_;
  /// Open addressing over element ids. The capacity is a power of two at
  /// least twice the size.
  std::vector<Slot> slots_;
};

/// The calling thread's table of search trees for one platform state.
class SearchTrees {
 public:
  SearchTrees() = default;
  // Trees point back at their table.
  SearchTrees(const SearchTrees&) = delete;
  SearchTrees& operator=(const SearchTrees&) = delete;

  /// The calling thread's table, emptied first when it holds the trees of
  /// another search serial or more entries than its cap. Trees obtained
  /// from the table stay valid until the next call.
  static SearchTrees& local(const Platform& platform);

  /// The tree of (origin, direction), created (holding only the origin) on
  /// first request.
  SearchTree& tree(ElementId origin, SearchDirection direction);

  /// Elements held over all trees.
  std::size_t entries() const { return entries_; }

 private:
  friend class SearchTree;

  std::uint64_t serial_ = 0;
  std::size_t cap_ = 0;
  std::size_t entries_ = 0;
  /// (origin, direction) -> index into trees_, -1 when absent.
  std::vector<std::int32_t> tree_of_;
  /// A deque: references to trees stay valid as trees are added.
  std::deque<SearchTree> trees_;
};

}  // namespace kairos::platform

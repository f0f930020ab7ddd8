#include "platform/platform.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>

namespace kairos::platform {

namespace {

std::atomic<std::uint64_t> next_search_serial{1};

std::uint64_t fresh_search_serial() {
  return next_search_serial.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Platform::Adjacency& Platform::edit_adjacency() {
  // Topology edits never run concurrently with copies of this platform, so
  // the use count cannot grow while it is read.
  if (adjacency_.use_count() != 1) {
    adjacency_ = std::make_shared<Adjacency>(*adjacency_);
  }
  return const_cast<Adjacency&>(*adjacency_);
}

ElementId Platform::add_element(ElementType type, std::string name,
                                ResourceVector capacity, int package) {
  const ElementId id(static_cast<std::int32_t>(elements_.size()));
  elements_.emplace_back(id, type, std::move(name), capacity, package);
  Adjacency& adjacency = edit_adjacency();
  adjacency.out.emplace_back();
  adjacency.in.emplace_back();
  adjacency.neighbors.emplace_back();
  search_serial_ = fresh_search_serial();
  hop_cache_.store(nullptr);
  type_members_.store(nullptr);
  availability_.invalidate();
  return id;
}

LinkId Platform::add_link(ElementId a, ElementId b, int vc_capacity,
                          std::int64_t bw_capacity) {
  assert(a.valid() && b.valid());
  assert(index(a) < elements_.size() && index(b) < elements_.size());
  assert(a != b && "self-links are not meaningful in a NoC");
  const LinkId id(static_cast<std::int32_t>(links_.size()));
  links_.emplace_back(id, a, b, vc_capacity, bw_capacity);
  Adjacency& adjacency = edit_adjacency();
  adjacency.out[index(a)].push_back(id);
  adjacency.in[index(b)].push_back(id);
  auto& na = adjacency.neighbors[index(a)];
  if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
  auto& nb = adjacency.neighbors[index(b)];
  if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
  search_serial_ = fresh_search_serial();
  hop_cache_.store(nullptr);
  return id;
}

void Platform::add_duplex_link(ElementId a, ElementId b, int vc_capacity,
                               std::int64_t bw_capacity) {
  add_link(a, b, vc_capacity, bw_capacity);
  add_link(b, a, vc_capacity, bw_capacity);
}

std::optional<LinkId> Platform::find_link(ElementId a, ElementId b) const {
  for (const LinkId l : out_links(a)) {
    if (links_[lindex(l)].dst() == b) return l;
  }
  return std::nullopt;
}

std::vector<int> Platform::hop_distances_from(ElementId from) const {
  std::vector<int> dist(elements_.size(), -1);
  std::deque<ElementId> queue;
  dist[index(from)] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const ElementId e = queue.front();
    queue.pop_front();
    for (const ElementId n : neighbors(e)) {
      if (dist[index(n)] == -1) {
        dist[index(n)] = dist[index(e)] + 1;
        queue.push_back(n);
      }
    }
  }
  return dist;
}

std::shared_ptr<const HopCache> Platform::hop_cache() const {
  return hop_cache_.ensure(
      [&] { return std::make_shared<HopCache>(elements_.size()); });
}

const std::vector<int>& Platform::hop_row(ElementId from) const {
  // The pointee outlives the returned reference: only topology edits drop
  // the platform's pointer, and they never run concurrently with queries.
  return hop_cache()->row(*this, from);
}

int Platform::diameter() const {
  if (elements_.empty()) return 0;
  return hop_cache()->diameter(*this);
}

std::shared_ptr<const TypeMembers> Platform::type_members() const {
  return type_members_.ensure([&] {
    auto members = std::make_shared<TypeMembers>();
    for (const auto& e : elements_) {
      members->of[static_cast<std::size_t>(e.type())].push_back(e.id());
    }
    return members;
  });
}

const std::vector<ElementId>& Platform::elements_of_type(
    ElementType type) const {
  return type_members()->of[static_cast<std::size_t>(type)];
}

bool Platform::allocate(ElementId e, const ResourceVector& demand) {
  Element& el = elements_.at(index(e));
  if (!demand.fits_within(el.free())) return false;
  el.used_ += demand;
  if (availability_.built()) {
    availability_.on_allocate(e, demand);
    audit_availability();
  }
  return true;
}

void Platform::release(ElementId e, const ResourceVector& demand) {
  Element& el = elements_.at(index(e));
  el.used_ -= demand;
  assert(!el.used_.any_negative() && "released more than was allocated");
  if (availability_.built()) {
    availability_.on_release(e, demand);
    audit_availability();
  }
}

void Platform::add_task(ElementId e) {
  Element& el = elements_.at(index(e));
  ++el.task_count_;
  ++el.wear_;
}

void Platform::remove_task(ElementId e) {
  Element& el = elements_.at(index(e));
  --el.task_count_;
  assert(el.task_count_ >= 0 && "removed more tasks than were added");
}

ResourceVector Platform::total_free(ElementType type) const {
  if (availability_.built()) return availability_.total_free(type);
  ResourceVector total;
  for (const auto& e : elements_) {
    if (e.type() == type && !e.is_failed()) total += e.free();
  }
  return total;
}

int Platform::count_available(ElementType type,
                              const ResourceVector& demand) const {
  if (availability_.built()) return availability_.count_available(type, demand);
  int count = 0;
  for (const auto& e : elements_) {
    if (e.type() == type && !e.is_failed() && demand.fits_within(e.free())) {
      ++count;
    }
  }
  return count;
}

void Platform::ensure_availability() {
  if (!availability_.built()) availability_.rebuild(*this);
}

bool Platform::availability_consistent() const {
  return !availability_.built() || availability_.consistent_with(*this);
}

void Platform::audit_availability() {
#ifndef NDEBUG
  if ((++availability_audit_ & 63u) == 0) {
    assert(availability_.consistent_with(*this) &&
           "incremental availability index diverged from linear recount");
  }
#endif
}

void Platform::set_element_failed(ElementId e, bool failed) {
  elements_.at(index(e)).failed_ = failed;
  search_serial_ = fresh_search_serial();
  if (availability_.built()) {
    availability_.on_failed(e, failed);
    audit_availability();
  }
}

void Platform::set_link_failed(LinkId l, bool failed) {
  links_.at(lindex(l)).failed_ = failed;
}

bool Platform::link_usable(LinkId l) const {
  const Link& link = links_.at(lindex(l));
  return !link.failed_ && !elements_.at(index(link.src())).failed_ &&
         !elements_.at(index(link.dst())).failed_;
}

int Platform::failed_element_count() const {
  int count = 0;
  for (const auto& e : elements_) {
    if (e.is_failed()) ++count;
  }
  return count;
}

bool Platform::allocate_channel(LinkId l, std::int64_t bandwidth) {
  Link& link = links_.at(lindex(l));
  if (!link.can_carry(bandwidth)) return false;
  link.vc_used_ += 1;
  link.bw_used_ += bandwidth;
  return true;
}

void Platform::release_channel(LinkId l, std::int64_t bandwidth) {
  Link& link = links_.at(lindex(l));
  link.vc_used_ -= 1;
  link.bw_used_ -= bandwidth;
  assert(link.vc_used_ >= 0 && link.bw_used_ >= 0 &&
         "released more channel capacity than was allocated");
}

Snapshot Platform::snapshot() const {
  Snapshot snap;
  snapshot_into(snap);
  return snap;
}

void Platform::snapshot_into(Snapshot& snap, SnapshotScope scope) const {
  snap.elements.resize(elements_.size());
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const Element& e = elements_[i];
    snap.elements[i] = {e.used_, e.task_count_, e.wear_};
  }
  if (scope == SnapshotScope::kElementsOnly) return;
  snap.links.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    snap.links[i] = {l.vc_used_, l.bw_used_};
  }
}

void Platform::restore(const Snapshot& snap, SnapshotScope scope) {
  assert(snap.elements.size() == elements_.size());
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    elements_[i].used_ = snap.elements[i].used;
    elements_[i].task_count_ = snap.elements[i].task_count;
    elements_[i].wear_ = snap.elements[i].wear;
  }
  if (scope == SnapshotScope::kAll) {
    assert(snap.links.size() == links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) {
      links_[i].vc_used_ = snap.links[i].vc_used;
      links_[i].bw_used_ = snap.links[i].bw_used;
    }
  }
  // Bulk overwrite — cheaper to rebuild lazily than to diff.
  availability_.invalidate();
}

void Platform::clear_allocations() {
  for (auto& e : elements_) {
    e.used_ = ResourceVector{};
    e.task_count_ = 0;
  }
  for (auto& l : links_) {
    l.vc_used_ = 0;
    l.bw_used_ = 0;
  }
  availability_.invalidate();
}

namespace {
// Thread-local snapshot-buffer pool backing Transaction. Admissions open
// two nested transactions (stage + incremental mapper); at 10k elements
// each snapshot is several hundred KiB, so reusing warm buffers removes
// two large allocations per admission. Thread-local: never shared, safe
// under the concurrent admission service.
thread_local std::vector<std::unique_ptr<Snapshot>> snapshot_pool;

std::unique_ptr<Snapshot> acquire_snapshot() {
  if (!snapshot_pool.empty()) {
    auto snap = std::move(snapshot_pool.back());
    snapshot_pool.pop_back();
    return snap;
  }
  return std::make_unique<Snapshot>();
}

void recycle_snapshot(std::unique_ptr<Snapshot> snap) {
  if (snapshot_pool.size() < 4) snapshot_pool.push_back(std::move(snap));
}
}  // namespace

Transaction::Transaction(Platform& platform, SnapshotScope scope)
    : platform_(&platform), snapshot_(acquire_snapshot()), scope_(scope) {
  platform.snapshot_into(*snapshot_, scope_);
}

Transaction::~Transaction() {
  if (!committed_) platform_->restore(*snapshot_, scope_);
  recycle_snapshot(std::move(snapshot_));
}

void Transaction::rollback() {
  if (!committed_) {
    platform_->restore(*snapshot_, scope_);
    committed_ = true;
  }
}

bool Platform::invariants_hold() const {
  for (const auto& e : elements_) {
    if (e.used_.any_negative()) return false;
    if (!e.used_.fits_within(e.capacity())) return false;
    if (e.task_count_ < 0) return false;
  }
  for (const auto& l : links_) {
    if (l.vc_used_ < 0 || l.vc_used_ > l.vc_capacity_) return false;
    if (l.bw_used_ < 0 || l.bw_used_ > l.bw_capacity_) return false;
  }
  return true;
}

}  // namespace kairos::platform

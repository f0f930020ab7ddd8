#include "core/ring_search.hpp"

#include <algorithm>

namespace kairos::core {

void RingSearch::start(const platform::Platform& platform,
                       const std::vector<RingOrigin>& origins,
                       DistanceOracle& oracle) {
  platform_ = &platform;
  oracle_ = &oracle;
  origins_.assign(origins.begin(), origins.end());
  platform::SearchTrees& table = platform::SearchTrees::local(platform);
  trees_.clear();
  for (const RingOrigin& o : origins_) {
    trees_.push_back(&table.tree(o.element,
                                 o.forward ? platform::SearchDirection::kOut
                                           : platform::SearchDirection::kIn));
    oracle.set(o.element, o.element, 0);
  }
  if (reported_.size() != platform.element_count()) {
    reported_.assign(platform.element_count(), 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrapped: hard reset once every 2^32 searches
    std::fill(reported_.begin(), reported_.end(), 0);
    epoch_ = 1;
  }
  distance_ = 0;
}

void RingSearch::next_ring(std::vector<platform::ElementId>& ring) {
  ring.clear();
  for (std::size_t k = 0; k < trees_.size(); ++k) {
    const platform::ElementId origin = origins_[k].element;
    for (const platform::SearchTree::Node& node :
         trees_[k]->ring(*platform_, distance_)) {
      const platform::ElementId e = node.element;
      if (distance_ > 0) oracle_->set(origin, e, distance_);
      std::uint32_t& stamp = reported_[static_cast<std::size_t>(e.value)];
      if (stamp != epoch_) {
        stamp = epoch_;
        ring.push_back(e);
      }
    }
  }
  ++distance_;
}

}  // namespace kairos::core

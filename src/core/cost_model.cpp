#include "core/cost_model.hpp"

#include <algorithm>

namespace kairos::core {

MappingCostModel::MappingCostModel(CostWeights weights,
                                   const platform::Platform& platform,
                                   const graph::Application& app,
                                   FragmentationBonuses bonuses) {
  reset(weights, platform, app, bonuses);
}

void MappingCostModel::reset(CostWeights weights,
                             const platform::Platform& platform,
                             const graph::Application& app,
                             FragmentationBonuses bonuses) {
  weights_ = weights;
  platform_ = &platform;
  bonuses_ = bonuses;
  missing_penalty_ = 2.0 * (platform.diameter() + 1);
  peers_.clear();
  peer_begin_.assign(1, 0);
  peer_begin_.reserve(app.task_count() + 1);
  terms_.clear();
  term_begin_.assign(1, 0);
  term_begin_.reserve(app.task_count() + 1);
  terms_.reserve(2 * app.channels().size());
  // Application::neighbors(t) without its per-task vector: the out-peers
  // then the in-peers, each kept once.
  auto add_peer = [&](graph::TaskId peer) {
    const auto first =
        peers_.begin() + static_cast<std::ptrdiff_t>(peer_begin_.back());
    if (std::find(first, peers_.end(), peer) == peers_.end()) {
      peers_.push_back(peer);
    }
  };
  for (const auto& task : app.tasks()) {
    for (const graph::ChannelId cid : app.out_channels(task.id())) {
      const auto& c = app.channel(cid);
      add_peer(c.dst);
      terms_.push_back(ChannelTerm{c.dst, c.bandwidth});
    }
    for (const graph::ChannelId cid : app.in_channels(task.id())) {
      const auto& c = app.channel(cid);
      add_peer(c.src);
      terms_.push_back(ChannelTerm{c.src, c.bandwidth});
    }
    peer_begin_.push_back(peers_.size());
    term_begin_.push_back(terms_.size());
  }
}

double MappingCostModel::peer_distance(
    platform::ElementId peer_element, platform::ElementId e,
    const DistanceOracle& distances) const {
  // The search runs from the mapped peers outwards, so the oracle is keyed
  // (origin=peer_element, target=candidate). Direction matters for
  // irregular platforms; try the search direction first, then the
  // opposite, then charge the penalty.
  std::optional<int> hops = distances.lookup(peer_element, e);
  if (!hops.has_value()) hops = distances.lookup(e, peer_element);
  if (peer_element == e) hops = 0;
  return hops.has_value() ? static_cast<double>(*hops) : missing_penalty_;
}

double MappingCostModel::non_peer_bonus(platform::ElementId n,
                                        const PartialMapping& mapping) const {
  if (mapping.app_tasks_on(n) > 0) return bonuses_.same_app;
  if (platform_->element(n).is_used()) return bonuses_.other_app;
  return 0.0;
}

double MappingCostModel::communication_cost(
    graph::TaskId t, platform::ElementId e, const PartialMapping& mapping,
    const DistanceOracle& distances) const {
  const auto i = static_cast<std::size_t>(t.value);
  const std::size_t end = term_begin_.at(i + 1);
  double cost = 0.0;
  for (std::size_t k = term_begin_[i]; k < end; ++k) {
    const ChannelTerm& term = terms_[k];
    if (!mapping.is_mapped(term.peer)) continue;  // unknown distance: left out
    cost += static_cast<double>(term.bandwidth) *
            peer_distance(mapping.element_of(term.peer), e, distances);
  }
  return cost;
}

double MappingCostModel::fragmentation_cost(
    graph::TaskId t, platform::ElementId e,
    const PartialMapping& mapping) const {
  const std::span<const graph::TaskId> peers = peers_of(t);

  double cost = 0.0;
  for (const platform::ElementId n : platform_->neighbors(e)) {
    // Highest applicable bonus wins (they are mutually refining categories).
    bool hosts_peer = false;
    for (const graph::TaskId peer : peers) {
      if (mapping.is_mapped(peer) && mapping.element_of(peer) == n) {
        hosts_peer = true;
        break;
      }
    }
    cost += 1.0 - (hosts_peer ? bonuses_.peer : non_peer_bonus(n, mapping));
  }
  // Summing (1 - bonus) over all neighbors folds the connectivity term in:
  // high-degree (interior) elements accumulate more full-price neighbors
  // than border elements, so borders are cheaper, as §III-D prescribes.
  return cost;
}

double MappingCostModel::load_balance_cost(platform::ElementId e) const {
  const auto& element = platform_->element(e);
  return element.used().utilisation_of(element.capacity());
}

double MappingCostModel::wear_cost(platform::ElementId e) const {
  return static_cast<double>(platform_->element(e).wear());
}

double MappingCostModel::anchor_cost(graph::TaskId t, platform::ElementId e,
                                     const PartialMapping& mapping) const {
#ifndef NDEBUG
  for (const graph::TaskId peer : peers_of(t)) {
    assert(!mapping.is_mapped(peer) &&
           "anchor_cost requires a task with no mapped peers");
  }
#endif
  (void)t;
  double cost = 0.0;
  if (weights_.fragmentation != 0.0) {
    // fragmentation_cost with the hosts_peer branch proven false: a mapped
    // peer on a neighbor would have made t reachable, not an anchor.
    double fragmentation = 0.0;
    for (const platform::ElementId n : platform_->neighbors(e)) {
      fragmentation += 1.0 - non_peer_bonus(n, mapping);
    }
    cost += weights_.fragmentation * fragmentation;
  }
  if (weights_.load_balance != 0.0) {
    cost += weights_.load_balance * load_balance_cost(e);
  }
  if (weights_.wear != 0.0) {
    cost += weights_.wear * wear_cost(e);
  }
  return cost;
}

double MappingCostModel::task_cost(graph::TaskId t, platform::ElementId e,
                                   const PartialMapping& mapping,
                                   const DistanceOracle& distances) const {
  double cost = 0.0;
  if (weights_.communication != 0.0) {
    cost += weights_.communication *
            communication_cost(t, e, mapping, distances);
  }
  if (weights_.fragmentation != 0.0) {
    cost += weights_.fragmentation * fragmentation_cost(t, e, mapping);
  }
  if (weights_.load_balance != 0.0) {
    cost += weights_.load_balance * load_balance_cost(e);
  }
  if (weights_.wear != 0.0) {
    cost += weights_.wear * wear_cost(e);
  }
  return cost;
}

void NeighborhoodPricer::start(const std::vector<graph::TaskId>& tasks) {
  class_of_.clear();
  terms_.clear();
  term_begin_.assign(1, 0);
  peer_elements_.clear();
  peer_begin_.assign(1, 0);
  const MappingCostModel& model = *model_;
  for (const graph::TaskId t : tasks) {
    // Append the task's tables as a new class, then drop them again if an
    // earlier class has the same ones.
    const auto i = static_cast<std::size_t>(t.value);
    const std::size_t end = model.term_begin_.at(i + 1);
    for (std::size_t k = model.term_begin_[i]; k < end; ++k) {
      const auto& term = model.terms_[k];
      if (!mapping_->is_mapped(term.peer)) continue;
      terms_.push_back(
          MappedTerm{mapping_->element_of(term.peer), term.bandwidth});
    }
    for (const graph::TaskId peer : model.peers_of(t)) {
      if (mapping_->is_mapped(peer)) {
        peer_elements_.push_back(mapping_->element_of(peer));
      }
    }
    const std::size_t fresh = term_begin_.size() - 1;
    const auto new_terms = std::span<const MappedTerm>(terms_).subspan(
        term_begin_[fresh]);
    const auto new_peers = std::span<const platform::ElementId>(
        peer_elements_).subspan(peer_begin_[fresh]);
    std::size_t c = 0;
    for (; c < fresh; ++c) {
      const auto class_terms = std::span<const MappedTerm>(terms_).subspan(
          term_begin_[c], term_begin_[c + 1] - term_begin_[c]);
      const auto class_peers =
          std::span<const platform::ElementId>(peer_elements_)
              .subspan(peer_begin_[c], peer_begin_[c + 1] - peer_begin_[c]);
      if (std::ranges::equal(class_terms, new_terms) &&
          std::ranges::equal(class_peers, new_peers)) {
        break;
      }
    }
    class_of_.push_back(c);
    if (c < fresh) {
      terms_.resize(term_begin_[fresh]);
      peer_elements_.resize(peer_begin_[fresh]);
    } else {
      term_begin_.push_back(terms_.size());
      peer_begin_.push_back(peer_elements_.size());
    }
  }
  class_cost_.resize(term_begin_.size() - 1);
}

void NeighborhoodPricer::set_element(platform::ElementId e) {
  const MappingCostModel& model = *model_;
  element_ = e;
  neighbors_ = model.platform_->neighbors(e);
  base_bonus_.clear();
  for (const platform::ElementId n : neighbors_) {
    base_bonus_.push_back(model.non_peer_bonus(n, *mapping_));
  }
  if (model.weights_.load_balance != 0.0) {
    load_balance_ = model.load_balance_cost(e);
  }
  if (model.weights_.wear != 0.0) wear_ = model.wear_cost(e);
  priced_.assign(class_cost_.size(), 0);
}

double NeighborhoodPricer::cost(std::size_t k) {
  const std::size_t c = class_of_[k];
  if (!priced_[c]) {
    class_cost_[c] = price(c);
    priced_[c] = 1;
  }
  return class_cost_[c];
}

double NeighborhoodPricer::price(std::size_t c) const {
  const MappingCostModel& model = *model_;
  const CostWeights& weights = model.weights_;
  double cost = 0.0;
  if (weights.communication != 0.0) {
    double communication = 0.0;
    for (std::size_t j = term_begin_[c]; j < term_begin_[c + 1]; ++j) {
      const MappedTerm& term = terms_[j];
      communication += static_cast<double>(term.bandwidth) *
                       model.peer_distance(term.element, element_,
                                           *distances_);
    }
    cost += weights.communication * communication;
  }
  if (weights.fragmentation != 0.0) {
    const auto first = peer_elements_.begin() +
                       static_cast<std::ptrdiff_t>(peer_begin_[c]);
    const auto last = peer_elements_.begin() +
                      static_cast<std::ptrdiff_t>(peer_begin_[c + 1]);
    double fragmentation = 0.0;
    for (std::size_t j = 0; j < neighbors_.size(); ++j) {
      const bool hosts_peer =
          std::find(first, last, neighbors_[j]) != last;
      fragmentation += 1.0 - (hosts_peer ? model.bonuses_.peer
                                         : base_bonus_[j]);
    }
    cost += weights.fragmentation * fragmentation;
  }
  if (weights.load_balance != 0.0) {
    cost += weights.load_balance * load_balance_;
  }
  if (weights.wear != 0.0) cost += weights.wear * wear_;
  return cost;
}

}  // namespace kairos::core

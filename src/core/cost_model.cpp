#include "core/cost_model.hpp"

namespace kairos::core {

MappingCostModel::MappingCostModel(CostWeights weights,
                                   const platform::Platform& platform,
                                   const graph::Application& app,
                                   FragmentationBonuses bonuses)
    : weights_(weights),
      platform_(&platform),
      app_(&app),
      bonuses_(bonuses),
      missing_penalty_(2.0 * (platform.diameter() + 1)) {
  peer_begin_.reserve(app.task_count() + 1);
  peer_begin_.push_back(0);
  for (const auto& task : app.tasks()) {
    for (const graph::TaskId peer : app.neighbors(task.id())) {
      peers_.push_back(peer);
    }
    peer_begin_.push_back(peers_.size());
  }
}

double MappingCostModel::communication_cost(
    graph::TaskId t, platform::ElementId e, const PartialMapping& mapping,
    const DistanceOracle& distances) const {
  double cost = 0.0;
  auto peer_term = [&](graph::TaskId peer, std::int64_t bandwidth,
                       bool towards_peer) {
    if (!mapping.is_mapped(peer)) return;  // unknown distance: left out
    const platform::ElementId peer_element = mapping.element_of(peer);
    // The search runs from the mapped peers outwards, so the oracle is
    // keyed (origin=peer_element, target=candidate). Direction matters for
    // irregular platforms; try the search direction first, then the
    // opposite, then charge the penalty.
    std::optional<int> hops = distances.lookup(peer_element, e);
    if (!hops.has_value()) hops = distances.lookup(e, peer_element);
    if (peer_element == e) hops = 0;
    const double distance =
        hops.has_value() ? static_cast<double>(*hops) : missing_penalty_;
    (void)towards_peer;
    cost += static_cast<double>(bandwidth) * distance;
  };
  for (const graph::ChannelId cid : app_->out_channels(t)) {
    const auto& c = app_->channel(cid);
    peer_term(c.dst, c.bandwidth, true);
  }
  for (const graph::ChannelId cid : app_->in_channels(t)) {
    const auto& c = app_->channel(cid);
    peer_term(c.src, c.bandwidth, false);
  }
  return cost;
}

double MappingCostModel::fragmentation_cost(
    graph::TaskId t, platform::ElementId e,
    const PartialMapping& mapping) const {
  const std::span<const graph::TaskId> peers = peers_of(t);

  double cost = 0.0;
  for (const platform::ElementId n : platform_->neighbors(e)) {
    double bonus = 0.0;
    // Highest applicable bonus wins (they are mutually refining categories).
    bool hosts_peer = false;
    for (const graph::TaskId peer : peers) {
      if (mapping.is_mapped(peer) && mapping.element_of(peer) == n) {
        hosts_peer = true;
        break;
      }
    }
    if (hosts_peer) {
      bonus = bonuses_.peer;
    } else if (mapping.app_tasks_on(n) > 0) {
      bonus = bonuses_.same_app;
    } else if (platform_->element(n).is_used()) {
      bonus = bonuses_.other_app;
    }
    cost += 1.0 - bonus;
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
      double bonus = 0.0;
      if (mapping.app_tasks_on(n) > 0) {
        bonus = bonuses_.same_app;
      } else if (platform_->element(n).is_used()) {
        bonus = bonuses_.other_app;
      }
      fragmentation += 1.0 - bonus;
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

}  // namespace kairos::core

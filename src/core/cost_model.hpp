// The mapping cost function of §III-D.
//
// Two objectives, mixed by weights (the knobs swept in Figs. 8-10):
//
//  * Communication distance — for every channel between the candidate task t
//    and an already-mapped peer u, the channel bandwidth times the hop
//    distance between the candidate element e and u's element, read from the
//    sparse distance matrix the platform search builds. A failed lookup
//    charges a high penalty ("we assume a large communication distance").
//    Channels towards not-yet-mapped tasks are "inherently unknown, and
//    therefore left out of the equation".
//
//  * External resource fragmentation — each neighbor of e contributes a unit
//    of fragmentation cost, discounted by decreasing bonuses when the
//    neighbor "retains communication peers of t, tasks from the same
//    application A, or tasks from other applications". Unused neighbors pay
//    full price, which simultaneously (a) rewards clustering next to
//    friendly elements and (b) favours low-connectivity elements on the
//    borders of chips — both effects §III-D asks for.
#pragma once

#include <span>
#include <vector>

#include "core/layout.hpp"
#include "graph/application.hpp"
#include "platform/platform.hpp"

namespace kairos::core {

/// Relative importance of the mapping objectives. The paper's experiments
/// sweep the first two; wear leveling and load balancing are the further
/// objectives §III explicitly names ("Various mapping objectives may be
/// defined, like minimal energy consumption, reducing resource
/// fragmentation, wear leveling, or load balancing"). All zeros disables
/// the cost function (the "None" series of Figs. 8/9): every candidate
/// costs the same and the first-fit behaviour of the search order takes
/// over.
struct CostWeights {
  double communication = 1.0;
  double fragmentation = 1.0;
  /// Penalises the element's post-placement utilisation (spreads load).
  double load_balance = 0.0;
  /// Penalises the element's historical hosting count (spreads wear).
  double wear = 0.0;

  static CostWeights none() { return {0.0, 0.0, 0.0, 0.0}; }
  static CostWeights communication_only() { return {1.0, 0.0, 0.0, 0.0}; }
  static CostWeights fragmentation_only() { return {0.0, 1.0, 0.0, 0.0}; }
};

/// Neighbor bonuses (decreasing, per the paper). Exposed for ablation.
struct FragmentationBonuses {
  double peer = 1.0;       ///< neighbor hosts a communication peer of t
  double same_app = 0.6;   ///< neighbor hosts a task of the same application
  double other_app = 0.3;  ///< neighbor is used by another application
};

/// The stationary layout objective broken into exact integer terms.
///
/// Both components of the objective are sums whose summands are determined
/// by *discrete* facts: the communication term sums bandwidth × hop counts
/// (both integers), and the fragmentation term sums (1 - bonus) over
/// (task, neighbor-element) pairs where the bonus is one of four categories.
/// Holding the breakdown as integer counts instead of an accumulated double
/// makes the objective order-independent: a from-scratch recount and an
/// incrementally maintained count produce the *same* integers, so value()
/// produces bit-identical doubles — the property the delta-cost evaluator
/// of src/mappers/ relies on to keep search trajectories reproducible.
struct LayoutCostTerms {
  /// Σ over channels with both endpoints placed of bandwidth × hops.
  std::int64_t comm_bw_hops = 0;
  /// Total (task, neighbor-element) pairs over all placed tasks.
  std::int64_t frag_pairs = 0;
  /// Pairs whose neighbor hosts a communication peer of the task.
  std::int64_t peer_pairs = 0;
  /// Pairs whose neighbor hosts another task of the same application
  /// (and no peer).
  std::int64_t same_app_pairs = 0;
  /// Pairs whose neighbor is used by another application only.
  std::int64_t other_app_pairs = 0;

  /// The communication objective alone: Σ bandwidth × hops as a double —
  /// one of the axes the multi-objective subsystem (src/mo/) optimises.
  double communication_term() const {
    return static_cast<double>(comm_bw_hops);
  }

  /// The fragmentation objective alone: total pairs discounted by the bonus
  /// categories. One fixed expression, so equal integer terms always yield
  /// the exact same double (the bit-identity contract of value()).
  double fragmentation_term(const FragmentationBonuses& bonuses) const {
    return static_cast<double>(frag_pairs) -
           bonuses.peer * static_cast<double>(peer_pairs) -
           bonuses.same_app * static_cast<double>(same_app_pairs) -
           bonuses.other_app * static_cast<double>(other_app_pairs);
  }

  /// The weighted objective. Evaluated as one fixed expression so that equal
  /// terms always yield the exact same double.
  double value(const CostWeights& weights,
               const FragmentationBonuses& bonuses) const {
    return weights.communication * communication_term() +
           weights.fragmentation * fragmentation_term(bonuses);
  }

  friend bool operator==(const LayoutCostTerms&,
                         const LayoutCostTerms&) = default;
};

class MappingCostModel {
 public:
  MappingCostModel(CostWeights weights, const platform::Platform& platform,
                   const graph::Application& app,
                   FragmentationBonuses bonuses = {});

  /// A model of nothing; reset() gives it an application to price.
  MappingCostModel() = default;

  /// Becomes the model the constructor would build from the same
  /// arguments, keeping the tables' capacity.
  void reset(CostWeights weights, const platform::Platform& platform,
             const graph::Application& app, FragmentationBonuses bonuses = {});

  /// Cost of mapping task t onto element e given the current partial mapping
  /// and the distances discovered so far.
  double task_cost(graph::TaskId t, platform::ElementId e,
                   const PartialMapping& mapping,
                   const DistanceOracle& distances) const;

  /// task_cost for a task with no mapped communication peer — the anchor of
  /// a still-unreached component. The communication term is exactly zero and
  /// no neighbor can host a peer, so both the channel loops and the
  /// peers-of-t scan vanish; the arithmetic that remains is bit-identical to
  /// task_cost's. The anchor candidate scan covers every available element,
  /// which makes this the hottest cost-model path on large platforms.
  double anchor_cost(graph::TaskId t, platform::ElementId e,
                     const PartialMapping& mapping) const;

  /// The communication component alone (weight not applied).
  double communication_cost(graph::TaskId t, platform::ElementId e,
                            const PartialMapping& mapping,
                            const DistanceOracle& distances) const;

  /// The fragmentation component alone (weight not applied).
  double fragmentation_cost(graph::TaskId t, platform::ElementId e,
                            const PartialMapping& mapping) const;

  /// Load-balancing component: the element's utilisation fraction (worst
  /// resource kind) at decision time, so loaded elements price themselves
  /// out (weight not applied).
  double load_balance_cost(platform::ElementId e) const;

  /// Wear-leveling component: the element's historical hosting count
  /// (weight not applied).
  double wear_cost(platform::ElementId e) const;

  /// Penalty used for missing distance lookups: twice the platform diameter
  /// plus slack, i.e. worse than any real route.
  double missing_distance_penalty() const { return missing_penalty_; }

  const CostWeights& weights() const { return weights_; }

 private:
  friend class NeighborhoodPricer;

  /// The hop distance the communication term charges between a mapped
  /// peer's element and candidate e.
  double peer_distance(platform::ElementId peer_element, platform::ElementId e,
                       const DistanceOracle& distances) const;

  /// Neighbor n's fragmentation bonus when it hosts no peer of the task
  /// priced: same application, else other application, else none.
  double non_peer_bonus(platform::ElementId n,
                        const PartialMapping& mapping) const;

  /// The undirected communication peers of t (Application::neighbors(t)).
  std::span<const graph::TaskId> peers_of(graph::TaskId t) const {
    const auto i = static_cast<std::size_t>(t.value);
    return std::span<const graph::TaskId>(peers_).subspan(
        peer_begin_.at(i), peer_begin_.at(i + 1) - peer_begin_[i]);
  }

  /// One channel incident to a task, seen from that task: the other end
  /// and the channel's bandwidth.
  struct ChannelTerm {
    graph::TaskId peer;
    std::int64_t bandwidth = 0;
  };

  CostWeights weights_;
  const platform::Platform* platform_ = nullptr;
  FragmentationBonuses bonuses_;
  double missing_penalty_ = 0.0;
  /// Every task's peers, built once per model: task t's run is
  /// peers_[peer_begin_[t], peer_begin_[t + 1]).
  std::vector<graph::TaskId> peers_;
  std::vector<std::size_t> peer_begin_;
  /// Every task's channels, out-channels then in-channels in the
  /// application's order (communication_cost sums in this order): task t's
  /// run is terms_[term_begin_[t], term_begin_[t + 1]).
  std::vector<ChannelTerm> terms_;
  std::vector<std::size_t> term_begin_;
};

/// task_cost for every task of a neighborhood T_i against one candidate
/// element at a time, as the mapper's ring loop asks for it. Nothing is
/// mapped while a neighborhood's candidates are priced, so start() collects
/// each task's mapped peers once, and set_element() reads the element's
/// task-independent terms (its neighbors' non-peer bonuses, load, wear)
/// once. A task's cost then depends only on its channels to mapped peers
/// and its mapped peers' elements; tasks equal in both (a fan-out's
/// consumers, say) form one class, priced once per element. cost(k) equals
/// task_cost(tasks[k], e, mapping, distances) bit for bit: the same terms
/// are summed in the same order.
class NeighborhoodPricer {
 public:
  NeighborhoodPricer(const MappingCostModel& model,
                     const PartialMapping& mapping,
                     const DistanceOracle& distances)
      : model_(&model), mapping_(&mapping), distances_(&distances) {}

  /// Starts a neighborhood; the mapping must not change until the next
  /// start().
  void start(const std::vector<graph::TaskId>& tasks);

  /// Selects the candidate element the next cost() calls price.
  void set_element(platform::ElementId e);

  /// task_cost of the k-th task of start()'s list on the selected element.
  double cost(std::size_t k);

 private:
  /// A channel towards a mapped peer: the peer's element and the bandwidth.
  struct MappedTerm {
    platform::ElementId element;
    std::int64_t bandwidth = 0;

    friend bool operator==(const MappedTerm&, const MappedTerm&) = default;
  };

  double price(std::size_t c) const;

  const MappingCostModel* model_;
  const PartialMapping* mapping_;
  const DistanceOracle* distances_;
  /// The class of each task of start()'s list.
  std::vector<std::size_t> class_of_;
  /// Class c's channels to mapped peers, in communication_cost's order:
  /// terms_[term_begin_[c], term_begin_[c + 1]).
  std::vector<MappedTerm> terms_;
  std::vector<std::size_t> term_begin_;
  /// Class c's mapped peers' elements (one per distinct peer):
  /// peer_elements_[peer_begin_[c], peer_begin_[c + 1]).
  std::vector<platform::ElementId> peer_elements_;
  std::vector<std::size_t> peer_begin_;
  /// The selected element, its neighbors and each neighbor's bonus when it
  /// hosts no peer of the task priced.
  platform::ElementId element_;
  std::span<const platform::ElementId> neighbors_;
  std::vector<double> base_bonus_;
  double load_balance_ = 0.0;
  double wear_ = 0.0;
  /// Each class's cost on the selected element, valid where priced_ is set.
  std::vector<double> class_cost_;
  std::vector<char> priced_;
};

}  // namespace kairos::core

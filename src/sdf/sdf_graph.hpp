// Synchronous dataflow graphs — the substrate of the validation phase.
//
// Following the approach of Stuijk et al. [5] and Ghamarian et al. [13] the
// paper models "the influence of the platform and the application
// specification as an SDF graph" and computes its throughput by state-space
// exploration of the self-timed execution. This module provides the graph
// representation, consistency analysis (repetition vector via the balance
// equations), and structural queries; throughput.hpp implements the
// state-space exploration and mcr.hpp the exact maximum-cycle-ratio
// analysis the validation phase uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace kairos::sdf {

/// Strongly-typed actor index.
struct ActorId {
  std::int32_t value = -1;

  constexpr ActorId() = default;
  constexpr explicit ActorId(std::int32_t v) : value(v) {}
  constexpr bool valid() const { return value >= 0; }
  friend constexpr bool operator==(ActorId, ActorId) = default;
  friend constexpr auto operator<=>(ActorId, ActorId) = default;
};

/// An SDF actor: fires for `exec_time` time units, consuming its input rates
/// at firing start and producing its output rates at firing end (self-timed
/// operational semantics).
struct Actor {
  ActorId id;
  std::string name;
  std::int64_t exec_time = 1;
};

/// An SDF channel with fixed production/consumption rates and initial
/// tokens.
struct SdfChannel {
  std::int32_t id = -1;
  ActorId src;
  ActorId dst;
  int production = 1;   ///< tokens produced per src firing
  int consumption = 1;  ///< tokens consumed per dst firing
  std::int64_t initial_tokens = 0;
};

class SdfGraph {
 public:
  SdfGraph() = default;
  explicit SdfGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  ActorId add_actor(std::string name, std::int64_t exec_time);

  /// Adds a channel; rates must be positive, initial tokens non-negative.
  std::int32_t add_channel(ActorId src, ActorId dst, int production,
                           int consumption, std::int64_t initial_tokens = 0);

  /// Convenience: adds a pair of opposing channels modelling a bounded
  /// buffer of `capacity` tokens on a src -> dst stream (forward channel
  /// starts empty, reverse channel starts full). Returns the forward
  /// channel's id.
  std::int32_t add_buffered_channel(ActorId src, ActorId dst, int rate,
                                    std::int64_t capacity);

  /// Adds a one-token self-loop, disabling auto-concurrency of the actor (at
  /// most one firing in flight) — the standard modelling of a task bound to
  /// a single processing element.
  void disable_auto_concurrency(ActorId a);

  std::size_t actor_count() const { return actors_.size(); }
  std::size_t channel_count() const { return channels_.size(); }
  const Actor& actor(ActorId id) const {
    return actors_.at(static_cast<std::size_t>(id.value));
  }
  const std::vector<Actor>& actors() const { return actors_; }
  const SdfChannel& channel(std::int32_t id) const {
    return channels_.at(static_cast<std::size_t>(id));
  }
  const std::vector<SdfChannel>& channels() const { return channels_; }

  const std::vector<std::int32_t>& in_channels(ActorId a) const {
    return in_channels_.at(static_cast<std::size_t>(a.value));
  }
  const std::vector<std::int32_t>& out_channels(ActorId a) const {
    return out_channels_.at(static_cast<std::size_t>(a.value));
  }

  /// Solves the balance equations. Returns the smallest positive integer
  /// repetition vector, or an error when the graph is inconsistent (no
  /// periodic schedule with bounded buffers exists). Disconnected graphs are
  /// handled per connected component.
  util::Result<std::vector<std::int64_t>> repetition_vector() const;

  /// True iff repetition_vector() succeeds.
  bool is_consistent() const { return repetition_vector().ok(); }

 private:
  std::string name_;
  std::vector<Actor> actors_;
  std::vector<SdfChannel> channels_;
  std::vector<std::vector<std::int32_t>> in_channels_;
  std::vector<std::vector<std::int32_t>> out_channels_;
};

}  // namespace kairos::sdf

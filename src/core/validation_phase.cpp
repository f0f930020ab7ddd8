#include "core/validation_phase.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "sdf/mcr.hpp"

namespace kairos::core {

namespace {

void put_word(std::string& key, std::int64_t word) {
  key.append(reinterpret_cast<const char*>(&word), sizeof(word));
}

void put_bits(std::string& key, double value) {
  std::int64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(value));
  put_word(key, bits);
}

/// Writes into `key` everything the verdict depends on, as one flat string
/// of 64-bit words taken from the model's *inputs*: the model
/// configuration, the observed actor, the constraint, each task's bound
/// execution time, and each channel's endpoints, token rate and route
/// length. The model (build_sdf's, or its homogeneous form below) is a pure
/// function of exactly these (plus names, which the analysis ignores), so
/// equal keys mean equal models and — by construction — the identical
/// ValidationResult; model_memo below may then skip building the model as
/// well as analysing it. The key is the full word string, not a hash of it,
/// so distinct inputs never collide.
void model_signature(const ValidationConfig& config,
                     const graph::Application& app,
                     const std::vector<int>& impl_of,
                     const std::vector<ChannelRoute>& routes,
                     sdf::ActorId observed, std::string& key) {
  assert(impl_of.size() == app.task_count());
  assert(routes.size() == app.channel_count());
  key.clear();
  key.reserve(sizeof(std::int64_t) *
              (6 + app.task_count() + 4 * app.channel_count()));
  put_bits(key, config.hop_latency);
  put_word(key, config.buffer_factor);
  put_word(key, observed.value);
  put_bits(key, app.throughput_constraint());
  put_word(key, static_cast<std::int64_t>(app.task_count()));
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    put_word(key, task.implementations()
                      .at(static_cast<std::size_t>(impl_of[idx]))
                      .exec_time);
  }
  put_word(key, static_cast<std::int64_t>(app.channel_count()));
  for (const auto& channel : app.channels()) {
    put_word(key, channel.src.value);
    put_word(key, channel.dst.value);
    put_word(key, channel.tokens);
    put_word(key,
             routes[static_cast<std::size_t>(channel.id.value)].route.hops());
  }
}

/// Memoised verdicts keyed by model_signature. Thread-local (lock-free under
/// the concurrent admission service), bounded by wholesale reset. The hit
/// rate is structural: a recurring application admitted with the same
/// binding and the same per-channel hop counts has the same key no matter
/// *where* on the platform it landed, and neither the model nor its
/// analysis need be built again for it.
std::unordered_map<std::string, ValidationResult>& model_memo() {
  thread_local std::unordered_map<std::string, ValidationResult> memo;
  constexpr std::size_t kMaxEntries = 512;
  if (memo.size() >= kMaxEntries) memo.clear();
  return memo;
}

/// The execution time of task `idx` in the model: its bound
/// implementation's, at least 1 (zero-time actors would make zero-length
/// cycles).
std::int64_t task_exec_time(const graph::Application& app,
                            const std::vector<int>& impl_of, std::size_t idx) {
  const auto& task = app.tasks()[idx];
  return std::max<std::int64_t>(
      1, task.implementations()
             .at(static_cast<std::size_t>(impl_of[idx]))
             .exec_time);
}

/// The execution time of a routed channel's transport actor.
std::int64_t transport_latency(const ValidationConfig& config, int hops) {
  return static_cast<std::int64_t>(
      std::max(1.0, std::ceil(config.hop_latency * hops)));
}

/// Writes build_sdf's model in homogeneous form: the same actors in the
/// same order (tasks, then one transport actor per routed channel in
/// channel order), every channel's tokens divided by its rate, each edge
/// weighted by its producer's execution time. Returns the actor count.
std::size_t homogeneous_model(const ValidationConfig& config,
                              const graph::Application& app,
                              const std::vector<int>& impl_of,
                              const std::vector<ChannelRoute>& routes,
                              std::vector<sdf::HsdfEdge>& edges) {
  edges.clear();
  auto actors = static_cast<std::int32_t>(app.task_count());
  // A self-loop with one token per actor: no auto-concurrency.
  for (std::int32_t t = 0; t < actors; ++t) {
    edges.push_back(
        {t, t, task_exec_time(app, impl_of, static_cast<std::size_t>(t)), 1});
  }
  // A bounded buffer: the forward edge starts empty, the reverse edge full.
  auto buffer = [&](std::int32_t src, std::int64_t src_exec,
                    std::int32_t dst, std::int64_t dst_exec) {
    edges.push_back({src, dst, src_exec, 0});
    edges.push_back({dst, src, dst_exec, config.buffer_factor});
  };
  for (const auto& channel : app.channels()) {
    const std::int32_t src = channel.src.value;
    const std::int32_t dst = channel.dst.value;
    const std::int64_t src_exec =
        task_exec_time(app, impl_of, static_cast<std::size_t>(src));
    const std::int64_t dst_exec =
        task_exec_time(app, impl_of, static_cast<std::size_t>(dst));
    const int hops = routes[static_cast<std::size_t>(channel.id.value)]
                         .route.hops();
    if (hops == 0) {
      buffer(src, src_exec, dst, dst_exec);
      continue;
    }
    const std::int32_t transport = actors++;
    const std::int64_t latency = transport_latency(config, hops);
    edges.push_back({transport, transport, latency, 1});
    buffer(src, src_exec, transport, latency);
    buffer(transport, latency, dst, dst_exec);
  }
  return static_cast<std::size_t>(actors);
}

}  // namespace

sdf::ActorId ValidationPhase::observed_actor(const graph::Application& app) {
  // Actor i is task i: both models add the task actors first, in task order.
  for (const auto& task : app.tasks()) {
    if (app.out_channels(task.id()).empty()) {
      return sdf::ActorId{task.id().value};
    }
  }
  return sdf::ActorId{0};
}

sdf::SdfGraph ValidationPhase::build_sdf(
    const graph::Application& app, const std::vector<int>& impl_of,
    const std::vector<platform::ElementId>& element_of,
    const std::vector<ChannelRoute>& routes) const {
  assert(impl_of.size() == app.task_count());
  assert(element_of.size() == app.task_count());
  assert(routes.size() == app.channel_count());
  (void)element_of;  // only consulted by the size assertion above

  sdf::SdfGraph g(app.name());

  // One actor per task; the execution time comes from the implementation
  // selected by the binding phase.
  std::vector<sdf::ActorId> actor_of(app.task_count());
  for (const auto& task : app.tasks()) {
    const auto idx = static_cast<std::size_t>(task.id().value);
    actor_of[idx] =
        g.add_actor(task.name(), task_exec_time(app, impl_of, idx));
    g.disable_auto_concurrency(actor_of[idx]);
  }

  for (const auto& channel : app.channels()) {
    const auto cid = static_cast<std::size_t>(channel.id.value);
    const sdf::ActorId src =
        actor_of[static_cast<std::size_t>(channel.src.value)];
    const sdf::ActorId dst =
        actor_of[static_cast<std::size_t>(channel.dst.value)];
    const int rate = channel.tokens;
    const std::int64_t capacity =
        static_cast<std::int64_t>(config_.buffer_factor) * rate;

    const int hops = routes[cid].route.hops();
    if (hops == 0) {
      // Co-located tasks: a plain bounded buffer.
      g.add_buffered_channel(src, dst, rate, capacity);
      continue;
    }
    // Routed channel: insert a transport actor whose execution time models
    // the per-hop latency of the established route.
    const sdf::ActorId transport = g.add_actor(
        "route:" + app.task(channel.src).name() + "->" +
            app.task(channel.dst).name(),
        transport_latency(config_, hops));
    g.disable_auto_concurrency(transport);
    g.add_buffered_channel(src, transport, rate, capacity);
    g.add_buffered_channel(transport, dst, rate, capacity);
  }

  return g;
}

ValidationResult ValidationPhase::validate(
    const graph::Application& app, const std::vector<int>& impl_of,
    const std::vector<platform::ElementId>& element_of,
    const std::vector<ChannelRoute>& routes) const {
  assert(element_of.size() == app.task_count());
  (void)element_of;  // the model depends on hop counts, not on places
  ValidationResult result;
  result.required_throughput = app.throughput_constraint();

  if (app.task_count() == 0) {
    result.ok = true;
    return result;
  }

  const sdf::ActorId observed = observed_actor(app);
  // Reused across calls: a memo hit allocates nothing, nor does a miss
  // once the buffers have grown.
  thread_local std::string signature;
  model_signature(config_, app, impl_of, routes, observed, signature);
  auto& memo = model_memo();
  if (const auto it = memo.find(signature); it != memo.end()) {
    return it->second;
  }

  thread_local std::vector<sdf::HsdfEdge> edges;
  thread_local sdf::HowardMcr mcr;
  const std::size_t actors =
      homogeneous_model(config_, app, impl_of, routes, edges);
  mcr.solve(actors, edges);

  const auto v = static_cast<std::size_t>(observed.value);
  result.status = sdf::ThroughputStatus::kPeriodic;
  if (!mcr.deadlocked(v)) {
    // The observed actor's self-loop is a cycle, so the ratio is defined.
    const sdf::CycleRatio r = mcr.ratio(v);
    result.throughput =
        static_cast<double>(r.tokens) / static_cast<double>(r.weight);
  } else {
    // Each component of the model is strongly connected (every channel is
    // a buffer pair), so the execution stops altogether only when every
    // component deadlocks; while another still runs, the observed actor's
    // rate is a periodic zero.
    bool all_deadlocked = true;
    for (std::size_t a = 0; a < actors && all_deadlocked; ++a) {
      all_deadlocked = mcr.deadlocked(a);
    }
    if (all_deadlocked) {
      result.status = sdf::ThroughputStatus::kDeadlock;
      result.reason = "SDF model deadlocks";
    }
  }
  const double required = app.throughput_constraint();
  result.ok = required <= 0.0 ||
              (result.status == sdf::ThroughputStatus::kPeriodic &&
               result.throughput >= required);
  if (!result.ok && result.status == sdf::ThroughputStatus::kPeriodic) {
    result.reason = "throughput " + std::to_string(result.throughput) +
                    " below required " + std::to_string(required);
  }
  memo.emplace(signature, result);
  return result;
}

}  // namespace kairos::core

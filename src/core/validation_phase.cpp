#include "core/validation_phase.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

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
/// of 64-bit words taken from build_sdf's *inputs*: the analysis
/// configuration, the observed actor, the constraint, each task's bound
/// execution time, and each channel's endpoints, token rate and route
/// length. build_sdf is a pure function of exactly these (plus names, which
/// the analysis ignores), so equal keys mean equal SDF models and — by
/// construction — the identical ValidationResult; model_memo below may then
/// skip building the model as well as analysing it. The key is the full
/// word string, not a hash of it, so distinct inputs never collide.
void model_signature(const ValidationConfig& config,
                     const graph::Application& app,
                     const std::vector<int>& impl_of,
                     const std::vector<ChannelRoute>& routes,
                     sdf::ActorId observed, std::string& key) {
  assert(impl_of.size() == app.task_count());
  assert(routes.size() == app.channel_count());
  key.clear();
  key.reserve(sizeof(std::int64_t) *
              (8 + app.task_count() + 4 * app.channel_count()));
  put_word(key, config.use_mcr ? 1 : 0);
  put_word(key, config.throughput.max_states);
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
/// *where* on the platform it landed, and neither the SDF model (one named
/// actor per task and per routed channel) nor its analysis — easily the
/// most expensive platform-size-independent part of admission — need be
/// built again for it.
std::unordered_map<std::string, ValidationResult>& model_memo() {
  thread_local std::unordered_map<std::string, ValidationResult> memo;
  constexpr std::size_t kMaxEntries = 512;
  if (memo.size() >= kMaxEntries) memo.clear();
  return memo;
}

}  // namespace

sdf::ActorId ValidationPhase::observed_actor(const graph::Application& app) {
  // Actor i is task i: build_sdf adds the task actors first, in task order.
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
    const auto& impl = task.implementations().at(
        static_cast<std::size_t>(impl_of[idx]));
    const std::int64_t exec_time = std::max<std::int64_t>(1, impl.exec_time);
    actor_of[idx] = g.add_actor(task.name(), exec_time);
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
    const auto latency = static_cast<std::int64_t>(
        std::max(1.0, std::ceil(config_.hop_latency * hops)));
    const sdf::ActorId transport = g.add_actor(
        "route:" + app.task(channel.src).name() + "->" +
            app.task(channel.dst).name(),
        latency);
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
  ValidationResult result;
  result.required_throughput = app.throughput_constraint();

  if (app.task_count() == 0) {
    result.ok = true;
    return result;
  }

  const sdf::ActorId observed = observed_actor(app);
  // Reused across calls: a memo hit allocates nothing.
  thread_local std::string signature;
  model_signature(config_, app, impl_of, routes, observed, signature);
  auto& memo = model_memo();
  if (const auto it = memo.find(signature); it != memo.end()) {
    return it->second;
  }

  const sdf::SdfGraph g = build_sdf(app, impl_of, element_of, routes);
  const ValidationResult computed = [&] {
    if (config_.use_mcr) {
      const sdf::McrResult mcr = sdf::max_cycle_ratio(g);
      if (mcr.applicable) {
        result.states_explored = 0;
        if (mcr.deadlock) {
          result.status = sdf::ThroughputStatus::kDeadlock;
          result.reason = "SDF model deadlocks (token-free cycle)";
          result.ok = app.throughput_constraint() <= 0.0;
          return result;
        }
        result.status = sdf::ThroughputStatus::kPeriodic;
        result.throughput = mcr.throughput;
        result.ok = app.throughput_constraint() <= 0.0 ||
                    mcr.throughput >= app.throughput_constraint();
        if (!result.ok) {
          result.reason = "throughput " + std::to_string(mcr.throughput) +
                          " below required " +
                          std::to_string(app.throughput_constraint());
        }
        return result;
      }
      // Not applicable: fall through to the state-space analyzer.
    }

    const sdf::ThroughputAnalyzer analyzer(config_.throughput);
    const sdf::ThroughputResult analysis = analyzer.analyze(g, observed);
    result.throughput = analysis.throughput;
    result.states_explored = analysis.states_explored;
    result.status = analysis.status;

    if (analysis.status == sdf::ThroughputStatus::kDeadlock) {
      result.reason = "SDF model deadlocks";
      result.ok = app.throughput_constraint() <= 0.0;
      return result;
    }
    result.ok =
        sdf::satisfies_throughput(analysis, app.throughput_constraint());
    if (!result.ok) {
      result.reason = "throughput " + std::to_string(analysis.throughput) +
                      " below required " +
                      std::to_string(app.throughput_constraint());
    }
    return result;
  }();
  memo.emplace(signature, computed);
  return computed;
}

}  // namespace kairos::core

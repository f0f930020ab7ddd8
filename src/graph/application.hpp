// The application model A = <T, C> of §III: an annotated task graph produced
// by the design-time partitioning phase (Fig. 1). Each task carries one or
// more *implementations* — alternative realisations from different IP
// vendors, QoS levels, or target element types — among which the binding
// phase chooses. Channels carry bandwidth demands for the routing phase and
// token rates for the SDF validation phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "platform/element.hpp"
#include "platform/resource_vector.hpp"
#include "util/result.hpp"

namespace kairos::graph {

/// Strongly-typed task index into Application::tasks().
struct TaskId {
  std::int32_t value = -1;

  constexpr TaskId() = default;
  constexpr explicit TaskId(std::int32_t v) : value(v) {}
  constexpr bool valid() const { return value >= 0; }
  friend constexpr bool operator==(TaskId, TaskId) = default;
  friend constexpr auto operator<=>(TaskId, TaskId) = default;
};

/// Strongly-typed channel index into Application::channels().
struct ChannelId {
  std::int32_t value = -1;

  constexpr ChannelId() = default;
  constexpr explicit ChannelId(std::int32_t v) : value(v) {}
  constexpr bool valid() const { return value >= 0; }
  friend constexpr bool operator==(ChannelId, ChannelId) = default;
  friend constexpr auto operator<=>(ChannelId, ChannelId) = default;
};

/// One realisation of a task: the element type it runs on, the resource
/// vector it claims there, an abstract cost (the quantity the binding phase
/// minimises — e.g. energy), and the execution time per firing used by the
/// SDF throughput validation.
struct Implementation {
  std::string name;
  platform::ElementType target = platform::ElementType::kGeneric;
  platform::ResourceVector requirement;
  double cost = 1.0;
  std::int64_t exec_time = 1;
};

/// A task of the application graph.
class Task {
 public:
  Task(TaskId id, std::string name) : id_(id), name_(std::move(name)) {}

  TaskId id() const { return id_; }
  const std::string& name() const { return name_; }

  const std::vector<Implementation>& implementations() const {
    return impls_;
  }
  void add_implementation(Implementation impl) {
    impls_.push_back(std::move(impl));
  }

  /// Fixed location, if any. I/O tasks whose interfaces exist at one spot in
  /// the platform are pinned; pinned tasks seed the partial mapping M0 of
  /// the incremental mapping algorithm (§III-A).
  std::optional<platform::ElementId> pinned() const { return pinned_; }
  void set_pinned(platform::ElementId e) { pinned_ = e; }
  void clear_pinned() { pinned_.reset(); }

  /// Pin expressed by element *name*, used by the serialized form; resolved
  /// against a concrete platform by core::resolve_pins().
  const std::string& pinned_name() const { return pinned_name_; }
  void set_pinned_name(std::string name) { pinned_name_ = std::move(name); }

 private:
  TaskId id_;
  std::string name_;
  std::vector<Implementation> impls_;
  std::optional<platform::ElementId> pinned_;
  std::string pinned_name_;
};

/// A directed communication channel between two tasks.
struct Channel {
  ChannelId id;
  TaskId src;
  TaskId dst;
  std::int64_t bandwidth = 1;  ///< bandwidth units reserved along the route
  int tokens = 1;              ///< tokens produced/consumed per firing (SDF)
};

/// The application: tasks, channels, and optional performance constraints.
///
/// Copy-on-write. An Application is a handle to a shared, immutable body:
/// copying one (into a service request, into the manager's record of a
/// live application, into an eviction list) bumps a reference count and
/// copies nothing else. The mutators — set_name, add_task, task_mut,
/// add_channel, set_throughput_constraint — first give this handle a
/// private copy of the body when another handle shares it, so a mutation
/// is never seen through a copy taken before it. A default-constructed
/// Application allocates nothing until its first mutation.
///
/// One caveat: a `Task&` from task_mut() refers into the body the handle
/// held at that call. Copying the application afterwards shares that body,
/// so writing through the old reference would change the copy too. Call
/// task_mut() again after a copy; do not keep the reference across one.
///
/// Concurrent const use of handles that share a body — reading, copying,
/// destroying — is safe; mutating one handle from several threads at once
/// is not (as for any standard container).
class Application {
 public:
  Application() noexcept = default;
  explicit Application(std::string name);
  Application(const Application& other) noexcept;
  Application(Application&& other) noexcept
      : shared_(std::exchange(other.shared_, nullptr)) {}
  Application& operator=(const Application& other) noexcept;
  Application& operator=(Application&& other) noexcept;
  ~Application() { release(); }

  const std::string& name() const { return body().name; }
  void set_name(std::string name) { mut().name = std::move(name); }

  // --- construction -------------------------------------------------------

  TaskId add_task(std::string name);
  Task& task_mut(TaskId id) { return mut().tasks.at(index(id)); }

  ChannelId add_channel(TaskId src, TaskId dst, std::int64_t bandwidth = 1,
                        int tokens = 1);

  /// Throughput constraint in sink firings per time unit; 0 disables the
  /// validation check. Latency constraints are expressed as throughput
  /// constraints following Moreira & Bekooij [12] (§II of the paper).
  double throughput_constraint() const { return body().throughput_constraint; }
  void set_throughput_constraint(double t) { mut().throughput_constraint = t; }

  // --- queries -------------------------------------------------------------

  std::size_t task_count() const { return body().tasks.size(); }
  std::size_t channel_count() const { return body().channels.size(); }

  const Task& task(TaskId id) const { return body().tasks.at(index(id)); }
  const std::vector<Task>& tasks() const { return body().tasks; }
  const Channel& channel(ChannelId id) const {
    return body().channels.at(static_cast<std::size_t>(id.value));
  }
  const std::vector<Channel>& channels() const { return body().channels; }

  const std::vector<ChannelId>& out_channels(TaskId t) const {
    return body().out_channels.at(index(t));
  }
  const std::vector<ChannelId>& in_channels(TaskId t) const {
    return body().in_channels.at(index(t));
  }

  /// Undirected degree d(t): number of incident channels. δ(T) (the minimum
  /// degree) selects the anchor task when no task is pinned (§III-A).
  int degree(TaskId t) const {
    return static_cast<int>(out_channels(t).size() + in_channels(t).size());
  }

  /// Distinct undirected neighbor tasks.
  std::vector<TaskId> neighbors(TaskId t) const;

  /// Tasks with the minimum degree δ(T).
  std::vector<TaskId> min_degree_tasks() const;

  /// Undirected BFS levels from a seed set: result[t] is the hop distance of
  /// task t from the nearest seed (-1 if unreachable). This produces the
  /// neighborhoods T_i = N_i(T_0) that decompose the mapping problem.
  std::vector<int> bfs_levels(const std::vector<TaskId>& seeds) const;

  /// bfs_levels into `level`, with `queue` as the search's FIFO; both are
  /// overwritten and their capacity reused.
  void bfs_levels(const std::vector<TaskId>& seeds, std::vector<int>& level,
                  std::vector<TaskId>& queue) const;

  /// True iff the undirected task graph is connected (empty and singleton
  /// graphs count as connected).
  bool is_connected() const;

  /// Structural well-formedness: every task has at least one implementation,
  /// channel endpoints are valid and distinct, token counts positive.
  util::VoidResult validate() const;

 private:
  struct Body {
    std::string name;
    std::vector<Task> tasks;
    std::vector<Channel> channels;
    std::vector<std::vector<ChannelId>> out_channels;
    std::vector<std::vector<ChannelId>> in_channels;
    double throughput_constraint = 0.0;
  };
  /// A body and the number of handles sharing it.
  struct Shared {
    std::atomic<std::int32_t> refs{1};
    Body body;
  };

  static std::size_t index(TaskId id) {
    return static_cast<std::size_t>(id.value);
  }

  /// The body every handle without one reads: empty, never written.
  static const Body& empty_body();
  const Body& body() const {
    return shared_ != nullptr ? shared_->body : empty_body();
  }
  /// This handle's body, made private to it first if another handle shares
  /// it (or created, if it has none).
  Body& mut();
  void release() noexcept;

  Shared* shared_ = nullptr;
};

}  // namespace kairos::graph

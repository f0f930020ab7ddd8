#include "graph/application.hpp"

#include <algorithm>
#include <limits>

namespace kairos::graph {

Application::Application(std::string name) { mut().name = std::move(name); }

Application::Application(const Application& other) noexcept
    : shared_(other.shared_) {
  if (shared_ != nullptr) shared_->refs.fetch_add(1, std::memory_order_relaxed);
}

Application& Application::operator=(const Application& other) noexcept {
  Shared* const shared = other.shared_;  // `other` may be *this
  if (shared != nullptr) shared->refs.fetch_add(1, std::memory_order_relaxed);
  release();
  shared_ = shared;
  return *this;
}

Application& Application::operator=(Application&& other) noexcept {
  if (this != &other) {
    release();
    shared_ = std::exchange(other.shared_, nullptr);
  }
  return *this;
}

void Application::release() noexcept {
  // acq_rel: the last owner's delete happens after every other owner's
  // reads of the body.
  if (shared_ != nullptr &&
      shared_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete shared_;
  }
  shared_ = nullptr;
}

const Application::Body& Application::empty_body() {
  static const Body empty;
  return empty;
}

Application::Body& Application::mut() {
  if (shared_ == nullptr) {
    shared_ = new Shared;
  } else if (shared_->refs.load(std::memory_order_acquire) != 1) {
    // Acquire: a handle that dropped its share just before this load has
    // finished reading the body this handle is about to write.
    auto* own = new Shared{{1}, shared_->body};
    release();
    shared_ = own;
  }
  return shared_->body;
}

TaskId Application::add_task(std::string name) {
  Body& b = mut();
  const TaskId id(static_cast<std::int32_t>(b.tasks.size()));
  b.tasks.emplace_back(id, std::move(name));
  b.out_channels.emplace_back();
  b.in_channels.emplace_back();
  return id;
}

ChannelId Application::add_channel(TaskId src, TaskId dst,
                                   std::int64_t bandwidth, int tokens) {
  Body& b = mut();
  const ChannelId id(static_cast<std::int32_t>(b.channels.size()));
  b.channels.push_back(Channel{id, src, dst, bandwidth, tokens});
  b.out_channels.at(index(src)).push_back(id);
  b.in_channels.at(index(dst)).push_back(id);
  return id;
}

std::vector<TaskId> Application::neighbors(TaskId t) const {
  std::vector<TaskId> out;
  auto push_unique = [&](TaskId n) {
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  };
  for (const ChannelId c : out_channels(t)) push_unique(channel(c).dst);
  for (const ChannelId c : in_channels(t)) push_unique(channel(c).src);
  return out;
}

std::vector<TaskId> Application::min_degree_tasks() const {
  std::vector<TaskId> out;
  int best = std::numeric_limits<int>::max();
  for (const auto& t : tasks()) {
    const int d = degree(t.id());
    if (d < best) {
      best = d;
      out.clear();
    }
    if (d == best) out.push_back(t.id());
  }
  return out;
}

std::vector<int> Application::bfs_levels(
    const std::vector<TaskId>& seeds) const {
  std::vector<int> level;
  std::vector<TaskId> queue;
  bfs_levels(seeds, level, queue);
  return level;
}

void Application::bfs_levels(const std::vector<TaskId>& seeds,
                             std::vector<int>& level,
                             std::vector<TaskId>& queue) const {
  level.assign(task_count(), -1);
  // FIFO walked by index: every task enters at most once.
  queue.clear();
  queue.reserve(task_count());
  for (const TaskId s : seeds) {
    if (level[index(s)] == -1) {
      level[index(s)] = 0;
      queue.push_back(s);
    }
  }
  auto visit = [&](TaskId n, int next_level) {
    if (level[index(n)] == -1) {
      level[index(n)] = next_level;
      queue.push_back(n);
    }
  };
  // The channel lists are walked directly rather than through neighbors():
  // a task reached twice keeps its first (equal, BFS) level either way.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const TaskId t = queue[head];
    const int next_level = level[index(t)] + 1;
    for (const ChannelId c : out_channels(t)) visit(channel(c).dst, next_level);
    for (const ChannelId c : in_channels(t)) visit(channel(c).src, next_level);
  }
}

bool Application::is_connected() const {
  if (task_count() <= 1) return true;
  const auto level = bfs_levels({tasks().front().id()});
  return std::all_of(level.begin(), level.end(),
                     [](int l) { return l >= 0; });
}

util::VoidResult Application::validate() const {
  for (const auto& t : tasks()) {
    if (t.implementations().empty()) {
      return util::Error("task '" + t.name() + "' has no implementations");
    }
    for (const auto& impl : t.implementations()) {
      if (impl.requirement.any_negative()) {
        return util::Error("task '" + t.name() + "' implementation '" +
                           impl.name + "' has a negative requirement");
      }
      if (impl.exec_time <= 0) {
        return util::Error("task '" + t.name() + "' implementation '" +
                           impl.name + "' has non-positive execution time");
      }
    }
  }
  for (const auto& c : channels()) {
    if (!c.src.valid() || index(c.src) >= task_count() || !c.dst.valid() ||
        index(c.dst) >= task_count()) {
      return util::Error("channel " + std::to_string(c.id.value) +
                         " references an unknown task");
    }
    if (c.src == c.dst) {
      return util::Error("channel " + std::to_string(c.id.value) +
                         " is a self-loop");
    }
    if (c.bandwidth < 0) {
      return util::Error("channel " + std::to_string(c.id.value) +
                         " has negative bandwidth");
    }
    if (c.tokens <= 0) {
      return util::Error("channel " + std::to_string(c.id.value) +
                         " has non-positive token rate");
    }
  }
  if (throughput_constraint() < 0.0) {
    return util::Error("negative throughput constraint");
  }
  return util::VoidResult::success();
}

}  // namespace kairos::graph

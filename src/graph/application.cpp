#include "graph/application.hpp"

#include <algorithm>
#include <limits>

namespace kairos::graph {

TaskId Application::add_task(std::string name) {
  const TaskId id(static_cast<std::int32_t>(tasks_.size()));
  tasks_.emplace_back(id, std::move(name));
  out_channels_.emplace_back();
  in_channels_.emplace_back();
  return id;
}

ChannelId Application::add_channel(TaskId src, TaskId dst,
                                   std::int64_t bandwidth, int tokens) {
  const ChannelId id(static_cast<std::int32_t>(channels_.size()));
  channels_.push_back(Channel{id, src, dst, bandwidth, tokens});
  out_channels_.at(index(src)).push_back(id);
  in_channels_.at(index(dst)).push_back(id);
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
  for (const auto& t : tasks_) {
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
  level.assign(tasks_.size(), -1);
  // FIFO walked by index: every task enters at most once.
  queue.clear();
  queue.reserve(tasks_.size());
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
  if (tasks_.size() <= 1) return true;
  const auto level = bfs_levels({tasks_.front().id()});
  return std::all_of(level.begin(), level.end(),
                     [](int l) { return l >= 0; });
}

util::VoidResult Application::validate() const {
  for (const auto& t : tasks_) {
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
  for (const auto& c : channels_) {
    if (!c.src.valid() || index(c.src) >= tasks_.size() || !c.dst.valid() ||
        index(c.dst) >= tasks_.size()) {
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
  if (throughput_constraint_ < 0.0) {
    return util::Error("negative throughput constraint");
  }
  return util::VoidResult::success();
}

}  // namespace kairos::graph

#include "core/layout.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace kairos::core {

void DistanceOracle::set(platform::ElementId origin,
                         platform::ElementId target, int hops) {
  if (!origin.valid() || !target.valid() ||
      static_cast<std::size_t>(origin.value) >= element_count_ ||
      static_cast<std::size_t>(target.value) >= element_count_) {
    throw std::out_of_range("DistanceOracle::set: invalid element id");
  }
  if (hops < 0) {
    throw std::invalid_argument("DistanceOracle::set: negative distance");
  }
  const auto o = static_cast<std::size_t>(origin.value);
  if (o >= row_of_.size()) row_of_.resize(o + 1, -1);
  if (row_of_[o] < 0) {
    row_of_[o] = static_cast<int>(rows_used_);
    if (rows_used_ == rows_.size()) rows_.emplace_back();
    ++rows_used_;
  }
  std::vector<int>& row = rows_[static_cast<std::size_t>(row_of_[o])];
  const auto t = static_cast<std::size_t>(target.value);
  if (t >= row.size()) row.resize(t + 1, -1);
  if (row[t] < 0) ++size_;
  row[t] = hops;
}

void DistanceOracle::reset(std::size_t element_count) {
  element_count_ = element_count;
  row_of_.clear();
  for (std::size_t r = 0; r < rows_used_; ++r) rows_[r].clear();
  rows_used_ = 0;
  size_ = 0;
}

PartialMapping::PartialMapping(std::size_t task_count,
                               std::size_t element_count)
    : task_to_element_(task_count), tasks_on_element_(element_count, 0) {}

void PartialMapping::reset(std::size_t task_count,
                           std::size_t element_count) {
  task_to_element_.assign(task_count, platform::ElementId{});
  tasks_on_element_.assign(element_count, 0);
  mapped_count_ = 0;
}

void PartialMapping::assign(graph::TaskId t, platform::ElementId e) {
  auto& slot = task_to_element_.at(static_cast<std::size_t>(t.value));
  assert(!slot.valid() && "task already mapped");
  slot = e;
  ++tasks_on_element_.at(static_cast<std::size_t>(e.value));
  ++mapped_count_;
}

double ExecutionLayout::average_hops() const {
  if (routes_.empty()) return 0.0;
  return static_cast<double>(total_hops()) /
         static_cast<double>(routes_.size());
}

int ExecutionLayout::total_hops() const {
  int total = 0;
  for (const auto& r : routes_) total += r.route.hops();
  return total;
}

int ExecutionLayout::distinct_elements() const {
  std::vector<std::int32_t> ids;
  ids.reserve(placements_.size());
  for (const auto& p : placements_) {
    if (p.element.valid()) ids.push_back(p.element.value);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return static_cast<int>(ids.size());
}

std::vector<TaskAllocation> ExecutionLayout::task_allocations(
    const graph::Application& app) const {
  std::vector<TaskAllocation> out;
  out.reserve(placements_.size());
  for (std::size_t t = 0; t < placements_.size(); ++t) {
    const TaskPlacement& p = placements_[t];
    out.emplace_back(p.element,
                     app.tasks()[t]
                         .implementations()
                         .at(static_cast<std::size_t>(p.impl_index))
                         .requirement);
  }
  return out;
}

std::vector<LinkClaim> ExecutionLayout::link_claims() const {
  std::vector<LinkClaim> out;
  out.reserve(static_cast<std::size_t>(total_hops()));
  for (const ChannelRoute& channel : routes_) {
    for (const platform::LinkId l : channel.route.links) {
      out.emplace_back(l, channel.bandwidth);
    }
  }
  return out;
}

}  // namespace kairos::core

#include "platform/resource_vector.hpp"

#include <algorithm>
#include <limits>

namespace kairos::platform {

std::string to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCompute:
      return "compute";
    case ResourceKind::kMemory:
      return "memory";
    case ResourceKind::kIo:
      return "io";
    case ResourceKind::kConfig:
      return "config";
  }
  return "unknown";
}

bool ResourceVector::is_zero() const {
  for (const auto v : v_) {
    if (v != 0) return false;
  }
  return true;
}

std::int64_t ResourceVector::total() const {
  std::int64_t sum = 0;
  for (const auto v : v_) sum += v;
  return sum;
}

double ResourceVector::utilisation_of(const ResourceVector& capacity) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < kResourceKindCount; ++i) {
    if (v_[i] == 0) continue;
    if (capacity.v_[i] == 0) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, static_cast<double>(v_[i]) /
                                static_cast<double>(capacity.v_[i]));
  }
  return worst;
}

std::string ResourceVector::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < kResourceKindCount; ++i) {
    if (i != 0) out += '/';
    out += std::to_string(v_[i]);
  }
  return out;
}

}  // namespace kairos::platform

// Resource vectors — the quantitative half of the platform model.
//
// Following the vector notation of Hölzenspies et al. [14] (cited in §III of
// the paper), both the resources *provided* by a processing element and the
// resources *required* by a task implementation are expressed as vectors over
// a fixed set of resource kinds. An element can host an implementation iff
// the requirement vector fits component-wise within the element's free
// capacity vector.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace kairos::platform {

/// The resource kinds tracked per element. The concrete set mirrors what the
/// CRISP tiles expose: processor cycles, local memory, I/O interfaces and
/// reconfiguration contexts.
enum class ResourceKind : std::uint8_t {
  kCompute = 0,  ///< processing capacity (abstract cycles per period)
  kMemory = 1,   ///< local data memory (KiB)
  kIo = 2,       ///< I/O interface slots
  kConfig = 3,   ///< configuration / context slots
};

inline constexpr std::size_t kResourceKindCount = 4;

/// Short lowercase name of a resource kind ("compute", "memory", ...).
std::string to_string(ResourceKind kind);

/// A non-negative quantity per resource kind, with component-wise algebra.
class ResourceVector {
 public:
  constexpr ResourceVector() = default;

  /// Convenience constructor listing all four kinds in enum order.
  constexpr ResourceVector(std::int64_t compute, std::int64_t memory,
                           std::int64_t io = 0, std::int64_t config = 0)
      : v_{compute, memory, io, config} {}

  std::int64_t get(ResourceKind kind) const {
    return v_[static_cast<std::size_t>(kind)];
  }
  void set(ResourceKind kind, std::int64_t value) {
    v_[static_cast<std::size_t>(kind)] = value;
  }

  std::int64_t compute() const { return get(ResourceKind::kCompute); }
  std::int64_t memory() const { return get(ResourceKind::kMemory); }
  std::int64_t io() const { return get(ResourceKind::kIo); }
  std::int64_t config() const { return get(ResourceKind::kConfig); }

  ResourceVector& operator+=(const ResourceVector& rhs) {
    for (std::size_t i = 0; i < kResourceKindCount; ++i) v_[i] += rhs.v_[i];
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& rhs) {
    for (std::size_t i = 0; i < kResourceKindCount; ++i) v_[i] -= rhs.v_[i];
    return *this;
  }
  friend ResourceVector operator+(ResourceVector lhs,
                                  const ResourceVector& rhs) {
    return lhs += rhs;
  }
  friend ResourceVector operator-(ResourceVector lhs,
                                  const ResourceVector& rhs) {
    return lhs -= rhs;
  }
  friend bool operator==(const ResourceVector&, const ResourceVector&) =
      default;

  /// True iff every component of *this is <= the corresponding component of
  /// `capacity` — the av(e,t) feasibility test of §III-B.
  bool fits_within(const ResourceVector& capacity) const {
    for (std::size_t i = 0; i < kResourceKindCount; ++i) {
      if (v_[i] > capacity.v_[i]) return false;
    }
    return true;
  }

  /// True iff any component is negative (used to detect over-release).
  bool any_negative() const {
    for (const auto v : v_) {
      if (v < 0) return true;
    }
    return false;
  }

  /// True iff all components are zero.
  bool is_zero() const;

  /// Sum of all components (a crude scalar magnitude, used for tie-breaks).
  std::int64_t total() const;

  /// The largest utilisation fraction of this vector relative to `capacity`,
  /// over all kinds with non-zero capacity. This is the scalar "size" the
  /// knapsack greedy uses to rank items. Returns +inf if any kind with zero
  /// capacity is requested.
  double utilisation_of(const ResourceVector& capacity) const;

  /// "compute/memory/io/config" rendering, e.g. "700/128/0/1".
  std::string to_string() const;

 private:
  std::array<std::int64_t, kResourceKindCount> v_{};
};

}  // namespace kairos::platform

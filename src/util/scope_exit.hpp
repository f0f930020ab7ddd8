// A scope guard: runs a callable when the scope ends, on every exit — a
// return or a throw — unless dismissed first. It is the rollback half of a
// multi-step mutation that must leave no partial state behind: arm it once
// the first step has landed, dismiss it once the last one has.
#pragma once

#include <utility>

namespace kairos::util {

template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F undo) : undo_(std::move(undo)) {}
  ~ScopeExit() {
    if (armed_) undo_();
  }

  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

  /// Keeps the mutation: the destructor then does nothing.
  void dismiss() { armed_ = false; }

 private:
  F undo_;
  bool armed_ = true;
};

}  // namespace kairos::util

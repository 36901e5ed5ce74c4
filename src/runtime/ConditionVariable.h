//===- runtime/ConditionVariable.h - Instrumented condition ------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A condition variable that participates in the managed runtime. The
/// paper's model treats a thread "waiting on a wait in Java" as disabled
/// (§2.1) and scopes its detection to resource deadlocks; this primitive
/// implements that semantics — waiting threads leave Enabled(s), notifies
/// re-enable them, and a stall in which some thread is parked on a
/// condition is classified as a *communication* stall in the
/// ExecutionResult (an extension to the paper's classification).
///
/// In Record and Passthrough modes the class delegates to a
/// std::condition_variable_any that releases and re-acquires the
/// instrumented Mutex, the re-acquire at the wait's ReacquireSite, so the
/// recorder sees the same events as in Active mode.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_CONDITIONVARIABLE_H
#define DLF_RUNTIME_CONDITIONVARIABLE_H

#include "event/Label.h"
#include "runtime/Mutex.h"

#include <condition_variable>
#include <string>

namespace dlf {

class Runtime;
struct CondRecord;

/// An instrumented condition variable. Like Mutex, binds to the runtime
/// installed at construction time.
class ConditionVariable {
public:
  explicit ConditionVariable(const std::string &Name = "cond");

  ConditionVariable(const ConditionVariable &) = delete;
  ConditionVariable &operator=(const ConditionVariable &) = delete;

  /// Atomically releases \p M (which the caller must hold exactly once)
  /// and blocks until notified, then re-acquires M. \p ReacquireSite
  /// labels the re-acquisition for the analysis. Callers must use the
  /// standard predicate-loop idiom: in Active mode there are no spurious
  /// wakeups, but notifications can still race with state changes.
  void wait(Mutex &M, Label ReacquireSite = Label());

  /// Waits until \p Predicate holds.
  template <typename Pred>
  void waitUntil(Mutex &M, Pred Predicate, Label ReacquireSite = Label()) {
    while (!Predicate())
      wait(M, ReacquireSite);
  }

  /// Wakes one waiter (no-op when none).
  void notifyOne();

  /// Wakes every waiter.
  void notifyAll();

private:
  Runtime *RT = nullptr;
  CondRecord *Rec = nullptr;
  std::condition_variable_any Real;
};

} // namespace dlf

#endif // DLF_RUNTIME_CONDITIONVARIABLE_H

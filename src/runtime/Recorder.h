//===- runtime/Recorder.h - Event recorder interface ------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase I observes an execution through this interface. The runtime calls
/// it at every executed Acquire event (the 0->1 re-entrancy transitions
/// only) and at thread/lock creations; src/igoodlock implements it to build
/// the lock dependency relation of Definition 1.
///
/// All calls are externally synchronized by the runtime; implementations
/// need no locking of their own. The lock callbacks come from the Runtime's
/// lock transitions (acquireEvent, grantLock, releaseLock, joinEdge), which
/// the Active scheduler runs under its lock and Record mode under
/// Runtime::recordMu(); creation callbacks run under recordMu() in both
/// modes, and the condvar callbacks (Active mode only) under the scheduler
/// lock.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_RECORDER_H
#define DLF_RUNTIME_RECORDER_H

#include "runtime/Records.h"

namespace dlf {

/// Observer for synchronization events of one execution.
class DependencyRecorder {
public:
  virtual ~DependencyRecorder();

  /// A thread was created (including the main thread).
  virtual void onThreadCreated(const ThreadRecord &T) {}

  /// A lock was created.
  virtual void onLockCreated(const LockRecord &L) {}

  /// Thread \p T executed `Site : Acquire(L)` in \p Mode while holding
  /// \p HeldBefore (its lock stack before the push; entries carry their own
  /// modes). This is the paper's "add (t, LockSet[t], l, Context[t]) to D"
  /// step, widened with acquisition modes so the closure can apply read-read
  /// non-exclusion.
  virtual void onAcquireExecuted(const ThreadRecord &T, const LockRecord &L,
                                 const std::vector<LockStackEntry> &HeldBefore,
                                 Label Site, LockMode Mode) {}

  // Optional grant/release/condvar/fork/join notifications, default no-ops.
  // onAcquireExecuted fires at the acquire *attempt* (the paper's dependency
  // relation needs the request point); onLockGranted fires when the lock is
  // actually held. Trace capture for --predict uses the grant, because its
  // soundness argument needs conflicting critical sections to never overlap
  // in emission order (see analysis/Predict.cpp).

  /// Thread \p T now holds \p L in \p Mode (acquired at \p Site).
  virtual void onLockGranted(const ThreadRecord &T, const LockRecord &L,
                             Label Site, LockMode Mode) {}

  /// Thread \p T released \p L (its hold was in \p Mode).
  virtual void onReleaseExecuted(const ThreadRecord &T, const LockRecord &L,
                                 LockMode Mode) {}

  /// Thread \p T signaled or broadcast condvar \p CV.
  virtual void onCondNotify(const ThreadRecord &T, const CondRecord &CV) {}

  /// Thread \p T resumed from a wait on \p CV after a notify.
  virtual void onCondWake(const ThreadRecord &T, const CondRecord &CV) {}

  /// \p Parent created \p Child (fires after onThreadCreated(Child)).
  virtual void onForkEdge(const ThreadRecord &Parent,
                          const ThreadRecord &Child) {}

  /// Thread \p T joined \p Target (the join returned).
  virtual void onJoinExecuted(const ThreadRecord &T,
                              const ThreadRecord &Target) {}
};

} // namespace dlf

#endif // DLF_RUNTIME_RECORDER_H

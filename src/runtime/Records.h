//===- runtime/Records.h - Per-thread and per-lock runtime state -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bookkeeping records the runtime keeps for every managed thread and
/// lock, and the pending-operation descriptor a thread publishes at each
/// scheduling point. These mirror the data structures of the paper's
/// Algorithm 3: LockSet and Context (here fused into one stack of
/// LockStackEntry), lock ownership with the re-entrancy usage counter of
/// footnote 2, and the thread's lifecycle state, from which Enabled(s) and
/// Alive(s) are computed.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_RECORDS_H
#define DLF_RUNTIME_RECORDS_H

#include "abstraction/ExecutionIndex.h"
#include "event/Abstraction.h"
#include "event/Ids.h"
#include "event/Label.h"
#include "event/VectorClock.h"

#include <chrono>
#include <string>
#include <vector>

namespace dlf {

/// One held (or pending) lock together with the label of the Acquire
/// statement that (will have) acquired it. The per-thread vector of these is
/// simultaneously the paper's LockSet[t] (project onto .Lock) and Context[t]
/// (project onto .Site).
struct LockStackEntry {
  LockId Lock;
  Label Site;
  /// Exclusive for mutexes and rwlock write sides, Shared for read sides.
  /// Not part of identity: a stack never holds the same lock at the same
  /// site in two modes, and release matches on (Lock, Site) alone.
  LockMode Mode = LockMode::Exclusive;

  friend bool operator==(const LockStackEntry &A, const LockStackEntry &B) {
    return A.Lock == B.Lock && A.Site == B.Site;
  }
};

/// The operation a thread announces at a scheduling point; committed by the
/// scheduler when the thread is picked.
struct PendingOp {
  enum class Kind {
    None,            ///< no pending operation (thread is running user code)
    ThreadStart,     ///< first transition of a newly created thread
    AcquireAttempt,  ///< about to execute `Site: Acquire(Lock)`
    CompleteAcquire, ///< blocked on Lock; completes when Lock is free
    Release,         ///< about to execute `Release(Lock)`
    Join,            ///< waiting for JoinTarget to finish
    YieldPoint,      ///< an explicit scheduling point with no state effect
    ThreadExit,      ///< thread body finished
    CondWait,        ///< about to release Lock and wait on condition Cond
    CondBlocked,     ///< waiting for a notify on Cond (not schedulable)
    ReacquireAfterWait, ///< notified; re-acquires Lock when it is free
    Notify,          ///< about to notify Cond (one or all waiters)
  };

  Kind K = Kind::None;
  LockId Lock;
  Label Site;
  ThreadId JoinTarget;
  /// Condition-variable id for the Cond* kinds (raw; 0 = none).
  uint64_t Cond = 0;
  /// Notify-all flag for Kind::Notify.
  bool NotifyAll = false;
  /// Acquire mode for AcquireAttempt/CompleteAcquire (condvar reacquires
  /// are always Exclusive — a condvar is bound to a mutex).
  LockMode Mode = LockMode::Exclusive;

  static PendingOp threadStart() { return {Kind::ThreadStart, {}, {}, {}}; }
  static PendingOp acquireAttempt(LockId L, Label Site,
                                  LockMode M = LockMode::Exclusive) {
    return {Kind::AcquireAttempt, L, Site, {}, 0, false, M};
  }
  static PendingOp release(LockId L, Label Site) {
    return {Kind::Release, L, Site, {}};
  }
  static PendingOp join(ThreadId Target) {
    return {Kind::Join, {}, {}, Target};
  }
  static PendingOp yieldPoint() { return {Kind::YieldPoint, {}, {}, {}}; }
  static PendingOp threadExit() { return {Kind::ThreadExit, {}, {}, {}}; }
  static PendingOp condWait(LockId L, Label ReacquireSite, uint64_t Cond) {
    return {Kind::CondWait, L, ReacquireSite, {}, Cond, false};
  }
  static PendingOp notify(uint64_t Cond, bool All) {
    return {Kind::Notify, {}, {}, {}, Cond, All};
  }
};

/// Lifecycle state of a managed thread.
enum class ThreadState {
  Announced, ///< has a pending op and is schedulable (unless blocked)
  Running,   ///< executing user code (owns the token)
  Blocked,   ///< pending op cannot commit yet (lock held / join target alive)
  Finished,  ///< body completed (normally or by abort)
};

/// Everything the runtime knows about one managed thread.
struct ThreadRecord {
  ThreadId Id;
  std::string Name;

  /// Abstractions of the thread object, computed at creation in the
  /// *creating* thread (paper §2.4).
  AbstractionSet Abs;

  ThreadState State = ThreadState::Announced;
  PendingOp Pending = PendingOp::threadStart();

  /// Fused LockSet[t] + Context[t] (innermost lock last). Includes the
  /// pending lock for a thread blocked in CompleteAcquire, per Algorithm 3's
  /// push-before-Execute semantics; excludes it for a paused thread.
  std::vector<LockStackEntry> LockStack;

  /// Per-thread execution-indexing state (paper §2.4.2).
  IndexingState Index;

  /// Happens-before timestamp (maintained only when Options::HappensBefore
  /// is not Off).
  VectorClock Clock;

  /// Scheduler bookkeeping: paused by the active strategy (Algorithm 3's
  /// Paused set).
  bool Paused = false;
  /// Set when thrash handling / the livelock monitor removed this thread
  /// from Paused: its pending acquire must then execute rather than re-pause
  /// (the paper's resumed threads continue past the instrumentation point).
  bool ForceExecute = false;
  /// Step number at which the thread was paused (for the livelock monitor).
  uint64_t PausedSinceStep = 0;
  /// Wall-clock instant of the pause (for the monitor's wall-clock
  /// fallback, which rescues peers of a thread stuck in long compute).
  std::chrono::steady_clock::time_point PausedSinceWall{};
  /// The acquire the thread is paused before (valid while Paused). A
  /// paused thread is committed to executing this acquire, so
  /// checkRealDeadlock may treat it as a wait-for edge — that is what lets
  /// a deadlock be confirmed the moment it becomes inevitable, with no
  /// thrashing.
  bool HasPausedPending = false;
  LockStackEntry PausedPending;

  /// §4 yield bookkeeping for the current announce: whether the strategy
  /// was asked yet (-1 = not asked, 0 = no yield, 1 = yielding) and how many
  /// more pick rounds this thread still defers to others.
  int8_t YieldEval = -1;
  unsigned YieldsRemaining = 0;

  /// Set when the avoidance extension deferred this thread's acquire
  /// because another participant of an avoided cycle is in progress;
  /// cleared whenever any lock is released.
  bool DeferredByAvoidance = false;

  /// Number of times this thread ever entered the Paused set (statistics).
  uint64_t TimesPaused = 0;
};

/// Everything the runtime knows about one managed condition variable
/// (Active mode only; the other modes delegate to a real condvar).
struct CondRecord {
  uint64_t Id = 0;
  std::string Name;
  /// Threads currently in CondBlocked on this condition.
  std::vector<ThreadId> Waiting;
};

/// Everything the runtime knows about one managed lock.
struct LockRecord {
  LockId Id;
  std::string Name;

  /// Abstractions of the lock object, computed at creation (§2.4).
  AbstractionSet Abs;

  /// Current exclusive owner; invalid when free. Set by the runtime's lock
  /// transitions in Active and Record mode alike (Record mode keeps the real
  /// lock too; re-entrant holds are counted there, not in Recursion).
  ThreadId Owner;

  /// Re-entrancy usage counter (paper footnote 2): only 0->1 transitions
  /// are Acquire events and only 1->0 transitions are Release events.
  uint32_t Recursion = 0;

  /// Threads currently holding this lock in Shared mode (rwlock read side;
  /// always empty for plain mutexes, which is what keeps mutex-only runs
  /// byte-identical to the pre-rwlock model). Exclusive ownership and
  /// shared ownership are mutually exclusive.
  std::vector<ThreadId> Readers;

  /// Timestamp of the last release (FullSync happens-before mode only).
  VectorClock Clock;

  /// Join of the read-side release timestamps since the last write-side
  /// acquire (FullSync only): a write acquire orders after every reader
  /// that released, but a read acquire orders only after the last writer.
  VectorClock ReadersClock;
};

} // namespace dlf

#endif // DLF_RUNTIME_RECORDS_H

//===- runtime/Scheduler.h - Cooperative serialized scheduler ---*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The active scheduler: real std::threads executing user code one at a
/// time, serialized by token passing at synchronization events. This is the
/// C++ analogue of how CalFuzzer serializes the JVM: at every Acquire /
/// Release / join / yield point the running thread publishes its pending
/// operation and hands control to the scheduling loop, which consults the
/// SchedulerStrategy to pick the next thread (Algorithms 2 and 3 of the
/// paper) and commits that thread's operation against the modeled lock
/// state. The handoff is direct: every managed thread parks on its own wake
/// word, and granting the token wakes exactly the chosen thread (CalFuzzer
/// parks each JVM thread on its own semaphore the same way). Only run
/// completion and teardown wake everyone.
///
/// Because lock state is modeled here rather than delegated to the OS, the
/// scheduler knows Enabled(s) exactly: it can detect a system stall
/// (Enabled empty, Alive non-empty), implement pausing without blocking OS
/// threads, run checkRealDeadlock on every acquire, and recover from a
/// created deadlock by aborting the run (all managed threads unwind with
/// ExecutionAborted at their next scheduling point).
///
/// Mechanics owned by the scheduler (the strategy only answers questions):
///  * the Paused set and thrash handling (Algorithm 3 lines 26-28),
///  * the livelock monitor (paper §5: "a monitor thread periodically
///    removes those threads from Paused that are paused for a long time" —
///    here measured in scheduler steps instead of wall-clock),
///  * the §4 yield mechanics (deprioritizing a yielding thread for a
///    bounded number of pick rounds),
///  * stall detection and run teardown.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_SCHEDULER_H
#define DLF_RUNTIME_SCHEDULER_H

#include "runtime/Options.h"
#include "runtime/Records.h"
#include "runtime/Result.h"
#include "runtime/Strategy.h"
#include "support/Rng.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

namespace dlf {

class Runtime;
class DependencyRecorder;

/// One instance drives one Active-mode execution; constructed by
/// Runtime::run and discarded afterwards.
class Scheduler {
public:
  Scheduler(Runtime &RT, const Options &Opts, SchedulerStrategy &Strat,
            DependencyRecorder *Recorder);

  // -- Thread lifecycle -----------------------------------------------------

  /// Marks \p Main (already registered with the runtime) as the running
  /// token holder. Called once before the entry function runs.
  void adoptMainThread(ThreadRecord &Main);

  /// First call of a freshly spawned managed thread: blocks until the
  /// scheduler commits its ThreadStart, then returns with the token held.
  /// Throws ExecutionAborted if the run was torn down first.
  void threadBodyBegin(ThreadRecord &Self);

  /// Last call of a managed thread (normal completion or abort unwinding):
  /// marks it finished and hands the token off if it held one.
  void threadBodyEnd(ThreadRecord &Self);

  /// Called by the main thread after the entry function returned (or
  /// unwound): finishes main, then waits until every managed thread has
  /// finished.
  void mainThreadDone(ThreadRecord &Main);

  // -- Scheduling points ------------------------------------------------------

  /// Full acquire protocol for `Site : Acquire(L)` by \p Self, including
  /// the re-entrancy fast path (footnote 2), announcing, pausing, blocking
  /// and completion. Returns once Self owns L. \p Mode distinguishes the
  /// rwlock read side (Shared acquires of the same lock coexist; an
  /// Exclusive acquire is disabled until every reader releases).
  void acquire(ThreadRecord &Self, LockRecord &L, Label Site,
               LockMode Mode = LockMode::Exclusive);

  /// Release protocol; the matching stack entry is popped and waiters
  /// become schedulable. Non-throwing during abort (so RAII guards can
  /// unwind safely). The released mode is taken from the stack entry, so
  /// read and write releases need no separate entry point.
  void release(ThreadRecord &Self, LockRecord &L, Label Site);

  /// Non-blocking acquire: takes \p L if it is available in \p Mode
  /// (recording the dependency event) and returns true; returns false when
  /// the probe fails (counted in ExecutionResult::TryProbes — a failed
  /// probe is never a wait-for edge and never pauses the thread). Not a
  /// scheduling point — the paper's model has no tryLock, so this is a
  /// conservative extension.
  bool tryAcquire(ThreadRecord &Self, LockRecord &L, Label Site,
                  LockMode Mode = LockMode::Exclusive);

  /// Managed join: Self is disabled until \p Target finishes.
  void join(ThreadRecord &Self, ThreadRecord &Target);

  /// Managed condition wait: atomically releases \p M (which Self must
  /// hold non-recursively) and blocks until a notify on \p CV, then
  /// re-acquires M. \p ReacquireSite labels the re-acquisition.
  void condWait(ThreadRecord &Self, CondRecord &CV, LockRecord &M,
                Label ReacquireSite);

  /// Managed notify: wakes one (or all) waiters of \p CV; they become
  /// schedulable once the associated lock is free.
  void condNotify(ThreadRecord &Self, CondRecord &CV, bool All);

  /// An explicit scheduling point with no state effect; lets the strategy
  /// preempt compute-only code regions.
  void yieldPoint(ThreadRecord &Self);

  // -- Results ----------------------------------------------------------------

  /// True once the run has been aborted (deadlock/stall/livelock).
  bool aborted() const;

  /// Moves the accumulated result out; valid after mainThreadDone.
  ExecutionResult takeResult() { return std::move(Result); }

private:
  /// Publishes \p Op for \p Self, runs the pick loop, and blocks until the
  /// scheduler hands the token back to Self (its op committed). With
  /// \p NoThrowOnAbort the call returns silently instead of throwing when
  /// the run is torn down (used on unwind paths).
  void announceAndWait(ThreadRecord &Self, PendingOp Op,
                       bool NoThrowOnAbort = false);

  /// The scheduling loop (runs under Mu in whichever thread gave up the
  /// token): repeatedly picks a schedulable thread and commits its pending
  /// operation until some thread receives the token, all threads finish, or
  /// the run aborts.
  void pickLoop();

  /// Commits \p T's pending operation. Returns true when the loop should
  /// stop (token granted or run ended), false to pick again.
  bool commitOp(ThreadRecord &T);

  /// Commits the acquire attempt of \p T (push, record, checkRealDeadlock,
  /// pause decision, ownership transfer / blocking).
  bool commitAcquireAttempt(ThreadRecord &T);

  /// True when \p T can be committed right now: announced and, for blocked
  /// operations, the resource condition holds (lock available in the
  /// pending mode / target finished).
  bool isSchedulable(const ThreadRecord &T) const;

  /// Active-mode lock availability: a Shared acquire only needs no
  /// exclusive owner (readers coexist); an Exclusive acquire additionally
  /// needs an empty reader set. Plain mutexes never have readers, so this
  /// degrades to the old "no owner" test.
  static bool lockAvailable(const LockRecord &L, LockMode Mode);

  /// Removes long-paused threads from the Paused set (the livelock
  /// monitor).
  void runLivelockMonitor();

  /// Grants the token to \p T and wakes it, and only it.
  void giveToken(ThreadRecord &T);

  /// Tears the run down: sets the abort flag and wakes everyone.
  void abortAll();

  /// The wake word thread \p Id parks on (under Mu) while it waits for the
  /// token or, for main, for the run to end. Created on first use.
  std::condition_variable &wakeOf(ThreadId Id);

  /// Wakes every parked thread: run completion and teardown.
  void wakeAll();

  /// Runs Algorithm 4 with \p Tentative substituted for \p For's stack
  /// (pass nullptr to use the recorded stacks everywhere).
  std::optional<DeadlockWitness>
  checkRealDeadlock(const ThreadRecord *For,
                    const std::vector<LockStackEntry> *Tentative);

  Runtime &RT;
  const Options &Opts;
  SchedulerStrategy &Strat;
  DependencyRecorder *Recorder;

  mutable std::mutex Mu;
  /// One wake word per managed thread, indexed by ThreadId (a deque keeps
  /// their addresses stable as threads register). They live here, not in
  /// ThreadRecord, because records are copied by value elsewhere.
  std::deque<std::condition_variable> Wakes;

  ThreadId RunningId; ///< current token holder; invalid inside pickLoop
  bool AbortFlag = false;
  bool Done = false;

  Rng Random;
  ExecutionResult Result;

  /// pickLoop's per-round working sets, cleared (not freed) every round so
  /// a pick round allocates nothing.
  std::vector<ThreadRecord *> Enabled, Candidates, Preferred;
  std::vector<const ThreadRecord *> PoolView;
};

} // namespace dlf

#endif // DLF_RUNTIME_SCHEDULER_H

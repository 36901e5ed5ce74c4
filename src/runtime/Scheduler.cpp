//===- runtime/Scheduler.cpp - Cooperative serialized scheduler ------------===//

#include "runtime/Scheduler.h"

#include "fuzzer/CycleSpec.h"
#include "fuzzer/RealDeadlockChecker.h"
#include "runtime/Abort.h"
#include "runtime/Recorder.h"
#include "runtime/Runtime.h"
#include "support/Debug.h"
#include "telemetry/Timeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace dlf;

namespace {

/// Timeline lane for a managed thread. Lane 0 is the scheduler itself, so
/// thread lanes are offset by one.
uint32_t timelineTid(const ThreadRecord &T) {
  return static_cast<uint32_t>(T.Id.Raw) + 1;
}

/// Emit the "paused" span that ends now for a thread being unpaused
/// (thrash or livelock monitor). The span start is reconstructed from the
/// scheduler's own PausedSinceWall stamp.
void timelinePausedSpan(telemetry::Timeline &TL, const ThreadRecord &T) {
  uint64_t EndUs = TL.nowUs();
  uint64_t PausedUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T.PausedSinceWall)
          .count());
  uint64_t StartUs = PausedUs < EndUs ? EndUs - PausedUs : 0;
  TL.complete("paused", timelineTid(T), StartUs, EndUs);
}

} // namespace

Scheduler::Scheduler(Runtime &RT, const Options &Opts, SchedulerStrategy &Strat,
                     DependencyRecorder *Recorder)
    : RT(RT), Opts(Opts), Strat(Strat), Recorder(Recorder),
      Random(Opts.Seed) {}

bool Scheduler::aborted() const {
  std::lock_guard<std::mutex> Guard(Mu);
  return AbortFlag;
}

void Scheduler::adoptMainThread(ThreadRecord &Main) {
  std::lock_guard<std::mutex> Guard(Mu);
  Main.State = ThreadState::Running;
  Main.Pending = PendingOp();
  RunningId = Main.Id;
}

void Scheduler::threadBodyBegin(ThreadRecord &Self) {
  std::unique_lock<std::mutex> Lk(Mu);
  wakeOf(Self.Id).wait(Lk,
                       [&] { return AbortFlag || RunningId == Self.Id; });
  if (AbortFlag)
    throw ExecutionAborted();
  assert(Self.State == ThreadState::Running && "token without Running state");
}

void Scheduler::threadBodyEnd(ThreadRecord &Self) {
  std::unique_lock<std::mutex> Lk(Mu);
  bool HadToken = (RunningId == Self.Id);
  Self.State = ThreadState::Finished;
  Self.Pending = PendingOp();
  Self.Paused = false;
  // A thread that unwound due to abort may still "hold" modeled locks whose
  // guards were skipped by the teardown; everyone is unwinding, so clearing
  // ownership is safe. On a normal exit the stack must already be empty.
  assert((AbortFlag || Self.LockStack.empty()) &&
         "thread finished while holding locks");
  for (const LockStackEntry &E : Self.LockStack) {
    LockRecord &L = RT.lockById(E.Lock);
    if (L.Owner == Self.Id) {
      L.Owner = ThreadId();
      L.Recursion = 0;
    }
    L.Readers.erase(std::remove(L.Readers.begin(), L.Readers.end(), Self.Id),
                    L.Readers.end());
  }
  Self.LockStack.clear();

  // Teardown needs no scheduling (abortAll already woke everyone). A
  // normal exit hands the token on; pickLoop wakes whoever gets it, or
  // everyone once no thread is left.
  if (!AbortFlag && HadToken) {
    RunningId = ThreadId();
    pickLoop();
  }
}

void Scheduler::mainThreadDone(ThreadRecord &Main) {
  threadBodyEnd(Main);
  std::unique_lock<std::mutex> Lk(Mu);
  // Main is finished, so it is never picked again: its wake word only
  // fires once the run completes or aborts.
  wakeOf(Main.Id).wait(Lk, [&] { return Done; });
  // All managed threads are finished (or unwinding past their last
  // scheduling point); OS-level joins happen in dlf::Thread.
}

bool Scheduler::lockAvailable(const LockRecord &L, LockMode Mode) {
  if (L.Owner.isValid())
    return false;
  return Mode == LockMode::Shared || L.Readers.empty();
}

namespace {
[[maybe_unused]] bool holdsShared(const LockRecord &L, ThreadId T) {
  return std::find(L.Readers.begin(), L.Readers.end(), T) != L.Readers.end();
}
} // namespace

void Scheduler::acquire(ThreadRecord &Self, LockRecord &L, Label Site,
                        LockMode Mode) {
  {
    std::lock_guard<std::mutex> Guard(Mu);
    if (AbortFlag)
      throw ExecutionAborted();
    assert(RunningId == Self.Id && "acquire outside of the thread's turn");
    // Re-entrant acquires are invisible to the analysis (footnote 2).
    // Only the exclusive side is re-entrant; recursive read acquires and
    // upgrades/downgrades are out of the model (pthread rwlocks make the
    // upgrade a real single-lock deadlock, which Algorithm 4's
    // distinct-locks cycles cannot represent).
    if (Mode == LockMode::Exclusive && L.Owner == Self.Id) {
      ++L.Recursion;
      return;
    }
    assert(!holdsShared(L, Self.Id) &&
           "recursive or upgrading rwlock acquire is unsupported");
    assert(!(Mode == LockMode::Shared && L.Owner == Self.Id) &&
           "rwlock downgrade (read acquire while write-held) is unsupported");
  }
  announceAndWait(Self, PendingOp::acquireAttempt(L.Id, Site, Mode));
  assert((Mode == LockMode::Shared ? holdsShared(L, Self.Id)
                                   : L.Owner == Self.Id) &&
         "acquire returned without ownership");
}

void Scheduler::release(ThreadRecord &Self, LockRecord &L, Label Site) {
  {
    std::lock_guard<std::mutex> Guard(Mu);
    if (AbortFlag)
      return; // silent: called from RAII guards during unwinding
    assert(RunningId == Self.Id && "release outside of the thread's turn");
    assert((L.Owner == Self.Id || holdsShared(L, Self.Id)) &&
           "releasing a lock we do not own");
    if (L.Owner == Self.Id && L.Recursion > 1) {
      --L.Recursion;
      return;
    }
  }
  announceAndWait(Self, PendingOp::release(L.Id, Site),
                  /*NoThrowOnAbort=*/true);
}

bool Scheduler::tryAcquire(ThreadRecord &Self, LockRecord &L, Label Site,
                           LockMode Mode) {
  std::lock_guard<std::mutex> Guard(Mu);
  if (AbortFlag)
    throw ExecutionAborted();
  assert(RunningId == Self.Id && "tryAcquire outside of the thread's turn");
  if (Mode == LockMode::Exclusive && L.Owner == Self.Id) {
    ++L.Recursion;
    return true;
  }
  assert(!holdsShared(L, Self.Id) &&
         "recursive or upgrading rwlock tryAcquire is unsupported");
  if (!lockAvailable(L, Mode)) {
    // A failed probe: the thread observed the lock busy and bails out. It
    // never blocks, so it must never appear as a wait-for edge or be
    // paused; the probe is only counted.
    ++Result.TryProbes;
    return false;
  }
  // A successful tryLock is an Acquire event like any other.
  if (Opts.HappensBefore == HbMode::FullSync) {
    vcJoin(Self.Clock, L.Clock);
    if (Mode == LockMode::Exclusive)
      vcJoin(Self.Clock, L.ReadersClock); // every read release precedes us
  }
  if (Opts.HappensBefore != HbMode::Off)
    vcTick(Self.Clock, Self.Id);
  if (Recorder) {
    Recorder->onAcquireExecuted(Self, L, Self.LockStack, Site, Mode);
    // A successful trylock is granted at the same instant it is attempted.
    Recorder->onLockGranted(Self, L, Site, Mode);
  }
  ++Result.AcquireEvents;
  Self.LockStack.push_back({L.Id, Site, Mode});
  if (Mode == LockMode::Shared) {
    L.Readers.push_back(Self.Id);
  } else {
    L.Owner = Self.Id;
    L.Recursion = 1;
    L.ReadersClock = VectorClock();
  }
  return true;
}

void Scheduler::condWait(ThreadRecord &Self, CondRecord &CV, LockRecord &M,
                         Label ReacquireSite) {
  {
    std::lock_guard<std::mutex> Guard(Mu);
    if (AbortFlag)
      throw ExecutionAborted();
    assert(M.Owner == Self.Id && "condition wait without holding the lock");
    assert(M.Recursion == 1 &&
           "condition wait on a recursively held lock is unsupported");
  }
  announceAndWait(Self, PendingOp::condWait(M.Id, ReacquireSite, CV.Id));
}

void Scheduler::condNotify(ThreadRecord &Self, CondRecord &CV, bool All) {
  announceAndWait(Self, PendingOp::notify(CV.Id, All));
}

void Scheduler::join(ThreadRecord &Self, ThreadRecord &Target) {
  {
    std::lock_guard<std::mutex> Guard(Mu);
    if (AbortFlag)
      throw ExecutionAborted();
    assert(&Self != &Target && "thread cannot join itself");
    if (Target.State == ThreadState::Finished)
      return;
  }
  announceAndWait(Self, PendingOp::join(Target.Id));
}

void Scheduler::yieldPoint(ThreadRecord &Self) {
  announceAndWait(Self, PendingOp::yieldPoint());
}

void Scheduler::announceAndWait(ThreadRecord &Self, PendingOp Op,
                                bool NoThrowOnAbort) {
  std::unique_lock<std::mutex> Lk(Mu);
  if (AbortFlag) {
    if (NoThrowOnAbort)
      return;
    throw ExecutionAborted();
  }
  assert(RunningId == Self.Id && "announcing without the token");
  Self.State = ThreadState::Announced;
  Self.Pending = Op;
  Self.YieldEval = -1;
  Self.YieldsRemaining = 0;
  RunningId = ThreadId();
  pickLoop();
  wakeOf(Self.Id).wait(Lk,
                       [&] { return AbortFlag || RunningId == Self.Id; });
  if (AbortFlag) {
    if (NoThrowOnAbort)
      return;
    throw ExecutionAborted();
  }
  assert(Self.State == ThreadState::Running && "token without Running state");
}

bool Scheduler::isSchedulable(const ThreadRecord &T) const {
  if (T.State == ThreadState::Finished)
    return false;
  assert(T.State != ThreadState::Running &&
         "a thread cannot run while the scheduler picks");
  switch (T.Pending.K) {
  case PendingOp::Kind::None:
  case PendingOp::Kind::CondBlocked:
    // CondBlocked threads become ReacquireAfterWait via a notify commit.
    return false;
  case PendingOp::Kind::CompleteAcquire:
  case PendingOp::Kind::ReacquireAfterWait:
    // Disabled while "waiting to acquire a lock already held by some other
    // thread" (paper §2.1) — in a conflicting mode: a paused or blocked
    // reader is enabled while only other readers hold the lock.
    return lockAvailable(RT.lockById(T.Pending.Lock), T.Pending.Mode);
  case PendingOp::Kind::Join:
    return RT.threadById(T.Pending.JoinTarget).State == ThreadState::Finished;
  case PendingOp::Kind::ThreadStart:
  case PendingOp::Kind::AcquireAttempt:
  case PendingOp::Kind::Release:
  case PendingOp::Kind::YieldPoint:
  case PendingOp::Kind::ThreadExit:
  case PendingOp::Kind::CondWait:
  case PendingOp::Kind::Notify:
    return true;
  }
  return false;
}

void Scheduler::runLivelockMonitor() {
  // The wall clock is only consulted when some thread is paused and the
  // fallback is enabled (steady_clock::now() per pick round would be pure
  // overhead on the hot path).
  std::chrono::steady_clock::time_point Now{};
  bool HaveNow = false;
  for (ThreadRecord &T : RT.threadRecords()) {
    if (!T.Paused)
      continue;
    bool StepsExceeded =
        Result.Steps - T.PausedSinceStep > Opts.MaxPausedSteps;
    bool WallExceeded = false;
    if (!StepsExceeded && Opts.MaxPausedWallMs) {
      // Wall-clock fallback (the paper's monitor thread measures real
      // time): a peer in long compute between scheduling points commits
      // no steps, so without this a paused thread would stay paused for
      // the whole compute stretch.
      if (!HaveNow) {
        Now = std::chrono::steady_clock::now();
        HaveNow = true;
      }
      WallExceeded = std::chrono::duration<double, std::milli>(
                         Now - T.PausedSinceWall)
                         .count() > static_cast<double>(Opts.MaxPausedWallMs);
    }
    if (!StepsExceeded && !WallExceeded)
      continue;
    T.Paused = false;
    T.HasPausedPending = false;
    T.ForceExecute = true;
    ++Result.ForcedUnpauses;
    {
      telemetry::Timeline &TL = telemetry::Timeline::global();
      if (TL.enabled()) {
        timelinePausedSpan(TL, T);
        TL.instant("unpause-forced", timelineTid(T));
      }
    }
    DLF_DEBUG_LOG("livelock monitor unpaused thread "
                  << T.Name << (WallExceeded ? " (wall-clock)" : ""));
  }
}

void Scheduler::giveToken(ThreadRecord &T) {
  T.State = ThreadState::Running;
  T.Pending = PendingOp();
  RunningId = T.Id;
  wakeOf(T.Id).notify_one();
}

void Scheduler::abortAll() {
  AbortFlag = true;
  Done = true;
  wakeAll();
}

std::condition_variable &Scheduler::wakeOf(ThreadId Id) {
  assert(Id.isValid() && "wake word of an invalid thread");
  while (Wakes.size() < Id.Raw)
    Wakes.emplace_back();
  return Wakes[Id.Raw - 1];
}

void Scheduler::wakeAll() {
  for (std::condition_variable &W : Wakes)
    W.notify_all();
}

std::optional<DeadlockWitness>
Scheduler::checkRealDeadlock(const ThreadRecord *For,
                             const std::vector<LockStackEntry> *Tentative) {
  std::vector<ThreadStackView> Views;
  // A notified waiter's reacquire has no LockStackEntry of its own; these
  // hold them (reserved up front, so the views' pointers stay valid).
  std::vector<LockStackEntry> Reacquires;
  Reacquires.reserve(RT.threadRecords().size());
  for (ThreadRecord &T : RT.threadRecords()) {
    if (T.State == ThreadState::Finished)
      continue;
    ThreadStackView View{&T, (&T == For && Tentative) ? Tentative
                                                      : &T.LockStack};
    if (&T != For && T.Paused && T.HasPausedPending) {
      // Paused threads are committed to their pending acquire: extend
      // their views with it so a cycle is confirmed as soon as it is
      // inevitable (matching the paper's zero-thrash reproductions).
      View.Pending = &T.PausedPending;
    } else if (&T != For &&
               T.Pending.K == PendingOp::Kind::ReacquireAfterWait) {
      // A notified waiter is committed to re-acquiring the condvar's lock,
      // but that lock was popped from its stack when the wait released it —
      // extend the view so the reacquire is a visible wait-for edge. (A
      // still-parked CondBlocked thread gets no edge: it waits for a
      // notify, not for the lock.)
      Reacquires.push_back(
          {T.Pending.Lock, T.Pending.Site, LockMode::Exclusive});
      View.Pending = &Reacquires.back();
    }
    if (View.size() == 0)
      continue;
    Views.push_back(View);
  }
  return findRealDeadlock(
      Views, [this](LockId Id) -> const LockRecord & { return RT.lockById(Id); });
}

void Scheduler::pickLoop() {
  // Invariant: called under Mu with no thread holding the token.
  assert(!RunningId.isValid() && "pick loop while a thread runs");
  // One pickLoop call is one scheduling decision: when the timeline is on,
  // it shows up as a "schedule" span on lane 0 (the scheduler lane).
  struct ScheduleSpan {
    telemetry::Timeline &TL = telemetry::Timeline::global();
    bool On = TL.enabled();
    uint64_t StartUs = On ? TL.nowUs() : 0;
    ~ScheduleSpan() {
      if (On)
        TL.complete("schedule", 0, StartUs, TL.nowUs());
    }
  } Span;
  (void)Span;
  uint64_t RoundsWithoutCommit = 0;
  for (;;) {
    if (AbortFlag || Done)
      return;
    runLivelockMonitor();

    Enabled.clear();
    bool AnyUnfinished = false;
    for (ThreadRecord &T : RT.threadRecords()) {
      if (T.State == ThreadState::Finished)
        continue;
      AnyUnfinished = true;
      if (isSchedulable(T))
        Enabled.push_back(&T);
    }

    if (!AnyUnfinished) {
      Result.Completed = true;
      Done = true;
      wakeAll();
      return;
    }

    if (Enabled.empty()) {
      // "System Stall!" (Algorithms 2 and 3): every live thread is waiting
      // on a lock, a join, or a condition. Reconstruct the wait-for cycle
      // for the report and classify communication deadlocks (threads
      // parked on never-notified conditions).
      Result.Stalled = true;
      {
        telemetry::Timeline &TL = telemetry::Timeline::global();
        if (TL.enabled())
          TL.instant("stall", 0);
      }
      for (ThreadRecord &T : RT.threadRecords())
        if (T.State != ThreadState::Finished &&
            T.Pending.K == PendingOp::Kind::CondBlocked)
          Result.CommunicationStall = true;
      if (!Result.Witness)
        Result.Witness = checkRealDeadlock(nullptr, nullptr);
      DLF_DEBUG_LOG("system stall after " << Result.Steps << " steps");
      abortAll();
      return;
    }

    // Candidates: Enabled \ Paused (Algorithm 3 line 6), minus threads the
    // avoidance extension is deferring.
    Candidates.clear();
    bool AnyDeferred = false;
    for (ThreadRecord *T : Enabled) {
      if (T->DeferredByAvoidance) {
        AnyDeferred = true;
        continue;
      }
      if (!T->Paused)
        Candidates.push_back(T);
    }

    if (Candidates.empty()) {
      // Thrashing (Algorithm 3 lines 26-28): every enabled thread is
      // paused (or avoidance-deferred behind a paused participant);
      // remove a random paused thread. It must then execute its pending
      // acquire rather than re-pause, matching the resumed-past-the-
      // instrumentation-point semantics of the Java implementation.
      std::vector<ThreadRecord *> PausedEnabled;
      for (ThreadRecord *T : Enabled)
        if (T->Paused)
          PausedEnabled.push_back(T);
      if (!PausedEnabled.empty()) {
        ThreadRecord *Victim =
            PausedEnabled[Random.nextIndex(PausedEnabled.size())];
        Victim->Paused = false;
        Victim->HasPausedPending = false;
        Victim->ForceExecute = true;
        ++Result.Thrashes;
        RoundsWithoutCommit = 0;
        {
          telemetry::Timeline &TL = telemetry::Timeline::global();
          if (TL.enabled()) {
            timelinePausedSpan(TL, *Victim);
            TL.instant("thrash", timelineTid(*Victim));
          }
        }
        DLF_DEBUG_LOG("thrash #" << Result.Thrashes << ": unpaused "
                                 << Victim->Name);
        continue;
      }
      assert(AnyDeferred && "empty candidates without paused or deferred");
      // Only avoidance deferrals remain: retry them (transient — the
      // in-progress participant is otherwise runnable, so this branch
      // cannot recur indefinitely).
      for (ThreadRecord &T : RT.threadRecords())
        T.DeferredByAvoidance = false;
      continue;
    }
    (void)AnyDeferred;

    // §4 yield filtering: threads entering a potential cycle defer to the
    // other candidates for a bounded number of rounds.
    Preferred.clear();
    if (Opts.UseYields) {
      for (ThreadRecord *T : Candidates) {
        if (T->Pending.K == PendingOp::Kind::AcquireAttempt &&
            T->YieldEval < 0) {
          bool Yields = Strat.shouldYield(*T, RT.lockById(T->Pending.Lock),
                                          T->Pending.Site);
          T->YieldEval = Yields ? 1 : 0;
          T->YieldsRemaining = Yields ? Opts.YieldBudget : 0;
          if (Yields)
            ++Result.Yields;
        }
        if (T->YieldsRemaining == 0)
          Preferred.push_back(T);
      }
    }
    std::vector<ThreadRecord *> &Pool =
        (!Opts.UseYields || Preferred.empty()) ? Candidates : Preferred;

    PoolView.assign(Pool.begin(), Pool.end());
    size_t Idx = Strat.pickIndex(PoolView, Random);
    assert(Idx < Pool.size() && "strategy picked out of range");
    ThreadRecord *Picked = Pool[Idx];

    // Consume one yield round from every deferring candidate we skipped.
    if (Opts.UseYields && &Pool == &Preferred)
      for (ThreadRecord *T : Candidates)
        if (T->YieldsRemaining > 0)
          --T->YieldsRemaining;

    if (++RoundsWithoutCommit > 16 * RT.threadRecords().size() + 64) {
      // Safety net: the pause/unpause dance must converge long before this.
      Result.LivelockAborted = true;
      abortAll();
      return;
    }
    if (commitOp(*Picked))
      return;
  }
}

bool Scheduler::commitOp(ThreadRecord &T) {
  switch (T.Pending.K) {
  case PendingOp::Kind::ThreadStart:
  case PendingOp::Kind::YieldPoint:
    ++Result.Steps;
    giveToken(T);
    return true;

  case PendingOp::Kind::AcquireAttempt:
    return commitAcquireAttempt(T);

  case PendingOp::Kind::CompleteAcquire: {
    ++Result.Steps;
    LockRecord &L = RT.lockById(T.Pending.Lock);
    assert(lockAvailable(L, T.Pending.Mode) &&
           "completing acquire of an unavailable lock");
    if (T.Pending.Mode == LockMode::Shared) {
      L.Readers.push_back(T.Id);
    } else {
      L.Owner = T.Id;
      L.Recursion = 1;
      L.ReadersClock = VectorClock();
    }
    // The attempt already fired onAcquireExecuted; the blocked thread now
    // actually holds the lock (trace capture is grant-ordered).
    if (Recorder)
      Recorder->onLockGranted(T, L, T.Pending.Site, T.Pending.Mode);
    giveToken(T);
    return true;
  }

  case PendingOp::Kind::Release: {
    ++Result.Steps;
    LockRecord &L = RT.lockById(T.Pending.Lock);
    assert((L.Owner == T.Id || holdsShared(L, T.Id)) &&
           "releasing an unowned lock");
    // Pop the topmost matching entry; supports non-nested release orders
    // (the paper's "can easily be extended" case). The entry's mode tells
    // us which side of a rwlock is being released.
    LockMode Mode = LockMode::Exclusive;
    for (size_t I = T.LockStack.size(); I-- > 0;) {
      if (T.LockStack[I].Lock == L.Id) {
        Mode = T.LockStack[I].Mode;
        T.LockStack.erase(T.LockStack.begin() + static_cast<long>(I));
        break;
      }
    }
    if (Mode == LockMode::Shared) {
      L.Readers.erase(std::remove(L.Readers.begin(), L.Readers.end(), T.Id),
                      L.Readers.end());
      if (Opts.HappensBefore == HbMode::FullSync) {
        // Read releases accumulate: the next *write* acquire orders after
        // every reader, but the next read acquire only after the last
        // writer (readers do not order among themselves).
        vcTick(T.Clock, T.Id);
        vcJoin(L.ReadersClock, T.Clock);
      }
    } else {
      L.Owner = ThreadId();
      L.Recursion = 0;
      if (Opts.HappensBefore == HbMode::FullSync) {
        vcTick(T.Clock, T.Id);
        L.Clock = T.Clock;
      }
    }
    if (Recorder)
      Recorder->onReleaseExecuted(T, L, Mode);
    // A release can clear avoidance conflicts: let deferred threads retry.
    for (ThreadRecord &U : RT.threadRecords())
      U.DeferredByAvoidance = false;
    giveToken(T);
    return true;
  }

  case PendingOp::Kind::Join:
    ++Result.Steps;
    assert(RT.threadById(T.Pending.JoinTarget).State ==
               ThreadState::Finished &&
           "join committed before target finished");
    if (Opts.HappensBefore != HbMode::Off)
      vcJoin(T.Clock, RT.threadById(T.Pending.JoinTarget).Clock);
    if (Recorder)
      Recorder->onJoinExecuted(T, RT.threadById(T.Pending.JoinTarget));
    giveToken(T);
    return true;

  case PendingOp::Kind::CondWait: {
    ++Result.Steps;
    LockRecord &L = RT.lockById(T.Pending.Lock);
    CondRecord &CV = RT.condById(T.Pending.Cond);
    assert(L.Owner == T.Id && "condition wait without the lock");
    // Atomically release the lock and park on the condition.
    for (size_t I = T.LockStack.size(); I-- > 0;) {
      if (T.LockStack[I].Lock == L.Id) {
        T.LockStack.erase(T.LockStack.begin() + static_cast<long>(I));
        break;
      }
    }
    L.Owner = ThreadId();
    L.Recursion = 0;
    if (Opts.HappensBefore == HbMode::FullSync) {
      vcTick(T.Clock, T.Id);
      L.Clock = T.Clock;
    }
    // wait() drops the mutex: an Exclusive release in the trace (the
    // reacquire after wakeup re-enters as a fresh acquire).
    if (Recorder)
      Recorder->onReleaseExecuted(T, L, LockMode::Exclusive);
    for (ThreadRecord &U : RT.threadRecords())
      U.DeferredByAvoidance = false;
    T.State = ThreadState::Blocked;
    T.Pending.K = PendingOp::Kind::CondBlocked;
    CV.Waiting.push_back(T.Id);
    return false;
  }

  case PendingOp::Kind::ReacquireAfterWait: {
    ++Result.Steps;
    LockRecord &L = RT.lockById(T.Pending.Lock);
    assert(!L.Owner.isValid() && "reacquire of a held lock");
    // The reacquire is pausable just like a plain acquire: a cycle whose
    // wait-for edge exists only through the wakeup path (waiter holds a
    // lock across wait, another thread takes the wait mutex and then wants
    // the held lock) is reproducible only if the scheduler can hold the
    // notified waiter right before it re-enters the lock.
    if (!T.ForceExecute) {
      std::vector<LockStackEntry> Tentative = T.LockStack;
      Tentative.push_back({L.Id, T.Pending.Site, LockMode::Exclusive});
      if (Strat.shouldPause(T, L, Tentative)) {
        T.Paused = true;
        ++T.TimesPaused;
        ++Result.Pauses;
        T.PausedSinceStep = Result.Steps;
        T.PausedSinceWall = std::chrono::steady_clock::now();
        T.HasPausedPending = true;
        T.PausedPending = Tentative.back();
        {
          telemetry::Timeline &TL = telemetry::Timeline::global();
          if (TL.enabled())
            TL.instant("pause:" + L.Name, timelineTid(T));
        }
        DLF_DEBUG_LOG("paused " << T.Name << " before reacquiring " << L.Name
                                << " after wait");
        return false;
      }
    }
    T.ForceExecute = false;
    // The re-acquisition is an Acquire event (the wait's monitorexit /
    // monitorenter pair in the Java model).
    if (Opts.HappensBefore == HbMode::FullSync)
      vcJoin(T.Clock, L.Clock);
    if (Opts.HappensBefore != HbMode::Off)
      vcTick(T.Clock, T.Id);
    if (Recorder) {
      Recorder->onAcquireExecuted(T, L, T.LockStack, T.Pending.Site,
                                  LockMode::Exclusive);
      Recorder->onLockGranted(T, L, T.Pending.Site, LockMode::Exclusive);
    }
    ++Result.AcquireEvents;
    T.LockStack.push_back({L.Id, T.Pending.Site, LockMode::Exclusive});
    L.Owner = T.Id;
    L.Recursion = 1;
    giveToken(T);
    return true;
  }

  case PendingOp::Kind::Notify: {
    ++Result.Steps;
    CondRecord &CV = RT.condById(T.Pending.Cond);
    size_t WakeCount = T.Pending.NotifyAll ? CV.Waiting.size()
                                           : std::min<size_t>(
                                                 1, CV.Waiting.size());
    // The wakeup is a synchronization edge: everything the notifier did
    // before signal() happens-before everything the waiter does after its
    // wait() returns (FullSync only — ForkJoin stays fork/join-edged).
    if (Opts.HappensBefore == HbMode::FullSync && WakeCount)
      vcTick(T.Clock, T.Id);
    if (Recorder)
      Recorder->onCondNotify(T, CV);
    for (size_t I = 0; I != WakeCount; ++I) {
      ThreadRecord &Waiter = RT.threadById(CV.Waiting[I]);
      assert(Waiter.Pending.K == PendingOp::Kind::CondBlocked &&
             "waiter not parked");
      Waiter.Pending.K = PendingOp::Kind::ReacquireAfterWait;
      if (Opts.HappensBefore == HbMode::FullSync)
        vcJoin(Waiter.Clock, T.Clock);
      if (Recorder)
        Recorder->onCondWake(Waiter, CV);
    }
    CV.Waiting.erase(CV.Waiting.begin(),
                     CV.Waiting.begin() + static_cast<long>(WakeCount));
    giveToken(T);
    return true;
  }

  case PendingOp::Kind::ThreadExit:
  case PendingOp::Kind::CondBlocked:
  case PendingOp::Kind::None:
    break;
  }
  assert(false && "unexpected pending operation");
  return true;
}

bool Scheduler::commitAcquireAttempt(ThreadRecord &T) {
  ++Result.Steps;
  if (Result.Steps > Opts.MaxSteps) {
    Result.LivelockAborted = true;
    abortAll();
    return true;
  }
  LockRecord &L = RT.lockById(T.Pending.Lock);
  Label Site = T.Pending.Site;
  LockMode Mode = T.Pending.Mode;

  // Algorithm 3 lines 9-11: push (tentatively), then checkRealDeadlock.
  std::vector<LockStackEntry> Tentative = T.LockStack;
  Tentative.push_back({L.Id, Site, Mode});
  if (Strat.wantsDeadlockCheck()) {
    if (auto Witness = checkRealDeadlock(&T, &Tentative)) {
      Result.DeadlockFound = true;
      Result.Witness = std::move(Witness);
      {
        telemetry::Timeline &TL = telemetry::Timeline::global();
        if (TL.enabled())
          TL.instant("deadlock-found", timelineTid(T));
      }
      DLF_DEBUG_LOG("real deadlock found:\n" << Result.Witness->toString());
      abortAll();
      return true;
    }
  }

  // Avoidance extension (Dimmunix-style immunity, see DESIGN.md): defer
  // this acquire when it closes in on a component of an avoided cycle
  // while another thread is already inside a different component of the
  // same cycle. Deferral re-arms at the next lock release.
  if (const std::vector<CycleSpec> *Avoid = RT.avoidSpecs()) {
    for (const CycleSpec &Spec : *Avoid) {
      size_t Mine = Spec.enteringComponentIndex(T.Abs, Tentative);
      if (Mine == static_cast<size_t>(-1))
        continue;
      for (ThreadRecord &U : RT.threadRecords()) {
        if (&U == &T || U.State == ThreadState::Finished)
          continue;
        if (Spec.otherComponentInProgress(Mine, U.Abs, U.LockStack)) {
          T.DeferredByAvoidance = true;
          DLF_DEBUG_LOG("avoidance deferred " << T.Name << " before "
                                              << L.Name);
          return false;
        }
      }
    }
  }

  // Algorithm 3 lines 12-18: pause if this acquire is a cycle component —
  // unless the thread was force-resumed by thrash handling or the livelock
  // monitor.
  if (!T.ForceExecute && Strat.shouldPause(T, L, Tentative)) {
    T.Paused = true;
    ++T.TimesPaused;
    ++Result.Pauses;
    T.PausedSinceStep = Result.Steps;
    T.PausedSinceWall = std::chrono::steady_clock::now();
    T.HasPausedPending = true;
    T.PausedPending = Tentative.back();
    {
      telemetry::Timeline &TL = telemetry::Timeline::global();
      if (TL.enabled())
        TL.instant("pause:" + L.Name, timelineTid(T));
    }
    DLF_DEBUG_LOG("paused " << T.Name << " before acquiring " << L.Name
                            << " at " << Site.text());
    return false;
  }
  T.ForceExecute = false;

  // Execute the acquire: this is the event Phase I records (Definition 1).
  if (Opts.HappensBefore == HbMode::FullSync) {
    vcJoin(T.Clock, L.Clock); // release -> acquire edge
    if (Mode == LockMode::Exclusive)
      vcJoin(T.Clock, L.ReadersClock); // every read release precedes a write
  }
  if (Opts.HappensBefore != HbMode::Off)
    vcTick(T.Clock, T.Id);
  if (Recorder)
    Recorder->onAcquireExecuted(T, L, T.LockStack, Site, Mode);
  ++Result.AcquireEvents;
  T.LockStack.push_back({L.Id, Site, Mode});

  if (lockAvailable(L, Mode)) {
    if (Mode == LockMode::Shared) {
      L.Readers.push_back(T.Id);
    } else {
      L.Owner = T.Id;
      L.Recursion = 1;
      L.ReadersClock = VectorClock();
    }
    // Immediate grant: attempt and grant coincide (the blocked path fires
    // onLockGranted later, at CompleteAcquire commit).
    if (Recorder)
      Recorder->onLockGranted(T, L, Site, Mode);
    giveToken(T);
    return true;
  }
  // The lock is unavailable: the thread is now disabled until the
  // conflicting holders release. Its pending lock stays in the stack, which
  // is what lets Algorithm 4 see the wait-for edge.
  T.State = ThreadState::Blocked;
  T.Pending =
      PendingOp{PendingOp::Kind::CompleteAcquire, L.Id, Site, {}, 0, false,
                Mode};
  return false;
}

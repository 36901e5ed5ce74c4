//===- runtime/Runtime.cpp - Managed execution façade ----------------------===//

#include "runtime/Runtime.h"

#include "runtime/Abort.h"
#include "runtime/Fiber.h"
#include "runtime/Recorder.h"
#include "runtime/Scheduler.h"
#include "runtime/Strategy.h"
#include "support/Affinity.h"
#include "support/Debug.h"
#include "telemetry/Metrics.h"
#include "telemetry/Timeline.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

using namespace dlf;

namespace {

/// The runtime installed by an in-flight run(); one at a time per process.
std::atomic<Runtime *> CurrentRuntime{nullptr};

/// Scheduler telemetry is recorded in bulk from the ExecutionResult at the
/// end of run() — zero cost on the scheduler hot path, and the counters
/// stay exactly the Result fields, so totals are jobs-deterministic.
struct SchedulerMetrics {
  telemetry::Counter Runs, Steps, Acquires, Pauses, UnpausesForced, Thrashes,
      Yields, DeadlocksFound, Stalls;
  telemetry::Histogram StepsPerRun;

  SchedulerMetrics() {
    telemetry::Registry &R = telemetry::Registry::global();
    Runs = R.counter("dlf_scheduler_runs_total");
    Steps = R.counter("dlf_scheduler_steps_total");
    Acquires = R.counter("dlf_scheduler_acquires_total");
    Pauses = R.counter("dlf_scheduler_pauses_total");
    UnpausesForced = R.counter("dlf_scheduler_unpauses_forced_total");
    Thrashes = R.counter("dlf_scheduler_thrashes_total");
    Yields = R.counter("dlf_scheduler_yields_total");
    DeadlocksFound = R.counter("dlf_scheduler_deadlocks_found_total");
    Stalls = R.counter("dlf_scheduler_stalls_total");
    StepsPerRun = R.histogram("dlf_scheduler_steps_per_run");
  }

  void record(const ExecutionResult &Result) {
    Runs.inc();
    Steps.inc(Result.Steps);
    Acquires.inc(Result.AcquireEvents);
    Pauses.inc(Result.Pauses);
    UnpausesForced.inc(Result.ForcedUnpauses);
    Thrashes.inc(Result.Thrashes);
    Yields.inc(Result.Yields);
    if (Result.DeadlockFound)
      DeadlocksFound.inc();
    if (Result.Stalled)
      Stalls.inc();
    StepsPerRun.observe(Result.Steps);
  }
};

/// RAII for CurrentRuntime installation.
class InstallGuard {
public:
  explicit InstallGuard(Runtime *RT) {
    Runtime *Expected = nullptr;
    bool Installed =
        CurrentRuntime.compare_exchange_strong(Expected, RT);
    assert(Installed && "another runtime is already running");
    (void)Installed;
  }
  ~InstallGuard() { CurrentRuntime.store(nullptr); }
};

} // namespace

Runtime::Runtime(Options Opts, SchedulerStrategy *Strat,
                 DependencyRecorder *Recorder,
                 const std::vector<CycleSpec> *Avoid)
    : Opts(Opts), Strat(Strat), Recorder(Recorder), Avoid(Avoid),
      Engine(Opts.KObjectDepth, Opts.IndexDepth) {
  assert((Opts.Mode != RunMode::Active || Strat) &&
         "active mode requires a scheduling strategy");
}

Runtime::~Runtime() = default;

Runtime *Runtime::current() { return CurrentRuntime.load(); }

ThreadRecord &Runtime::createThreadRecord(const std::string &Name,
                                          const void *Obj, const void *Parent,
                                          Label Site) {
  ThreadRecord *Creator = selfRecord();
  IndexingState &Index = Creator ? Creator->Index : BootstrapIndex;
  auto [ObjId, Abs] = Engine.registerCreation(Obj, Parent, Site, Index);
  (void)ObjId;

  std::lock_guard<std::mutex> Guard(RecordMu);
  Threads.emplace_back();
  ThreadRecord &Rec = Threads.back();
  Rec.Id = ThreadId(Threads.size());
  Rec.Name = Name;
  Rec.Abs = std::move(Abs);
  Rec.State = ThreadState::Announced;
  Rec.Pending = PendingOp::threadStart();
  if (Opts.HappensBefore != HbMode::Off) {
    // Fork edge: everything the creator did so far happens-before the
    // child's first event.
    if (Creator) {
      Rec.Clock = Creator->Clock;
      vcTick(Creator->Clock, Creator->Id);
    }
    vcTick(Rec.Clock, Rec.Id);
  }
  if (Recorder) {
    Recorder->onThreadCreated(Rec);
    if (Creator)
      Recorder->onForkEdge(*Creator, Rec);
  }
  if (Sched)
    Sched->threadCreated(Rec);
  return Rec;
}

LockRecord &Runtime::createLockRecord(const std::string &Name, const void *Obj,
                                      const void *Parent, Label Site) {
  ThreadRecord *Creator = selfRecord();
  IndexingState &Index = Creator ? Creator->Index : BootstrapIndex;
  auto [ObjId, Abs] = Engine.registerCreation(Obj, Parent, Site, Index);
  (void)ObjId;

  std::lock_guard<std::mutex> Guard(RecordMu);
  Locks.emplace_back();
  LockRecord &Rec = Locks.back();
  Rec.Id = LockId(Locks.size());
  Rec.Name = Name;
  Rec.Abs = std::move(Abs);
  if (Recorder)
    Recorder->onLockCreated(Rec);
  return Rec;
}

CondRecord &Runtime::createCondRecord(const std::string &Name) {
  std::lock_guard<std::mutex> Guard(RecordMu);
  Conds.emplace_back();
  CondRecord &Rec = Conds.back();
  Rec.Id = Conds.size();
  Rec.Name = Name;
  return Rec;
}

CondRecord &Runtime::condById(uint64_t Id) {
  assert(Id != 0 && Id <= Conds.size() && "bad condition id");
  return Conds[Id - 1];
}

ThreadRecord &Runtime::threadById(ThreadId Id) {
  assert(Id.isValid() && Id.Raw <= Threads.size() && "bad thread id");
  return Threads[Id.Raw - 1];
}

LockRecord &Runtime::lockById(LockId Id) {
  assert(Id.isValid() && Id.Raw <= Locks.size() && "bad lock id");
  return Locks[Id.Raw - 1];
}

const LockRecord &Runtime::lockById(LockId Id) const {
  assert(Id.isValid() && Id.Raw <= Locks.size() && "bad lock id");
  return Locks[Id.Raw - 1];
}

// -- Lock transitions ----------------------------------------------------------

void Runtime::acquireEvent(ThreadRecord &T, LockRecord &L, Label Site,
                           LockMode Mode) {
  if (Opts.HappensBefore == HbMode::FullSync) {
    vcJoin(T.Clock, L.Clock); // release -> acquire edge
    if (Mode == LockMode::Exclusive)
      vcJoin(T.Clock, L.ReadersClock); // every read release precedes a write
  }
  if (Opts.HappensBefore != HbMode::Off)
    vcTick(T.Clock, T.Id);
  if (Recorder)
    Recorder->onAcquireExecuted(T, L, T.LockStack, Site, Mode);
  T.LockStack.push_back({L.Id, Site, Mode});
  ++AcquireEvents;
}

void Runtime::grantLock(ThreadRecord &T, LockRecord &L, Label Site,
                        LockMode Mode) {
  // A thread that blocked at its acquire event now also orders after the
  // releases it waited for; when the grant follows the event at once, the
  // event already joined these clocks and the joins change nothing.
  bool FullSync = Opts.HappensBefore == HbMode::FullSync;
  if (FullSync)
    vcJoin(T.Clock, L.Clock);
  if (Mode == LockMode::Shared) {
    L.Readers.push_back(T.Id);
  } else {
    L.Owner = T.Id;
    L.Recursion = 1;
    if (FullSync)
      vcJoin(T.Clock, L.ReadersClock);
    L.ReadersClock = VectorClock();
  }
  if (Recorder)
    Recorder->onLockGranted(T, L, Site, Mode);
}

LockMode Runtime::releaseLock(ThreadRecord &T, LockRecord &L) {
  // Pop the topmost matching entry: release orders need not nest (the
  // paper's "can easily be extended" case), and the entry's mode tells
  // which side of a rwlock is being released.
  LockMode Mode = LockMode::Exclusive;
  for (size_t I = T.LockStack.size(); I-- > 0;) {
    if (T.LockStack[I].Lock == L.Id) {
      Mode = T.LockStack[I].Mode;
      T.LockStack.erase(T.LockStack.begin() + static_cast<long>(I));
      break;
    }
  }
  bool FullSync = Opts.HappensBefore == HbMode::FullSync;
  if (FullSync)
    vcTick(T.Clock, T.Id);
  if (Mode == LockMode::Shared) {
    L.Readers.erase(std::remove(L.Readers.begin(), L.Readers.end(), T.Id),
                    L.Readers.end());
    // Read releases accumulate: the next *write* acquire orders after every
    // reader, but the next read acquire only after the last writer (readers
    // do not order among themselves).
    if (FullSync)
      vcJoin(L.ReadersClock, T.Clock);
  } else {
    L.Owner = ThreadId();
    L.Recursion = 0;
    if (FullSync)
      L.Clock = T.Clock;
  }
  if (Recorder)
    Recorder->onReleaseExecuted(T, L, Mode);
  return Mode;
}

void Runtime::joinEdge(ThreadRecord &T, const ThreadRecord &Target) {
  if (Opts.HappensBefore != HbMode::Off)
    vcJoin(T.Clock, Target.Clock);
  if (Recorder)
    Recorder->onJoinExecuted(T, Target);
}

void Runtime::recordAcquire(LockRecord &L, Label Site, LockMode Mode) {
  ThreadRecord *Self = selfRecord();
  assert(Self && "unmanaged thread touched a record-mode lock");
  std::lock_guard<std::mutex> Guard(RecordMu);
  acquireEvent(*Self, L, Site, Mode);
  grantLock(*Self, L, Site, Mode);
}

LockMode Runtime::recordRelease(LockRecord &L) {
  ThreadRecord *Self = selfRecord();
  assert(Self && "unmanaged thread touched a record-mode lock");
  std::lock_guard<std::mutex> Guard(RecordMu);
  return releaseLock(*Self, L);
}

void Runtime::recordJoin(const ThreadRecord &Target) {
  if (ThreadRecord *Self = selfRecord()) {
    std::lock_guard<std::mutex> Guard(RecordMu);
    joinEdge(*Self, Target);
  }
}

ThreadRecord *Runtime::selfRecord() { return currentSelf(); }

void Runtime::setSelfRecord(ThreadRecord *Rec) { currentSelf() = Rec; }

void Runtime::onCall(Label Site) {
  if (Opts.Mode == RunMode::Passthrough)
    return;
  if (ThreadRecord *Self = selfRecord())
    Self->Index.onCall(Site);
}

void Runtime::onReturn() {
  if (Opts.Mode == RunMode::Passthrough)
    return;
  if (ThreadRecord *Self = selfRecord())
    Self->Index.onReturn();
}

void Runtime::registerObject(const void *Obj, const void *Parent, Label Site) {
  if (Opts.Mode == RunMode::Passthrough)
    return;
  ThreadRecord *Creator = selfRecord();
  IndexingState &Index = Creator ? Creator->Index : BootstrapIndex;
  Engine.registerCreation(Obj, Parent, Site, Index);
}

void Runtime::objectDestroyed(const void *Obj) {
  if (Opts.Mode == RunMode::Passthrough)
    return;
  Engine.forgetAddress(Obj);
}

ExecutionResult Runtime::run(const std::function<void()> &Entry) {
  assert(!Ran && "a Runtime instance drives exactly one execution");
  Ran = true;

  InstallGuard Install(this);
  auto Start = std::chrono::steady_clock::now();
  ExecutionResult Result;

  switch (Opts.Mode) {
  case RunMode::Passthrough:
    Entry();
    Result.Completed = true;
    break;

  case RunMode::Record: {
    ThreadRecord &Main = createThreadRecord(
        "main", this, nullptr, DLF_NAMED_SITE("dlf:main-thread"));
    setSelfRecord(&Main);
    Entry();
    Main.State = ThreadState::Finished;
    setSelfRecord(nullptr);
    Result.Completed = true;
    break;
  }

  case RunMode::Active: {
    // One managed thread runs at a time, each a fiber of this OS thread,
    // so the execution stays on the CPU it starts on. Record and
    // Passthrough stay unpinned because they claim real concurrency.
    CpuPin Pin;
    Scheduler S(*this, Opts, *Strat, Recorder);
    Sched = &S;
    ThreadRecord &Main = createThreadRecord(
        "main", this, nullptr, DLF_NAMED_SITE("dlf:main-thread"));
    setSelfRecord(&Main);
    S.adoptMainThread(Main);
    try {
      Entry();
    } catch (ExecutionAborted &) {
      // Normal teardown of an aborted run; the result records why.
    }
    S.mainThreadDone(Main);
    setSelfRecord(nullptr);
    Sched = nullptr;
    Result = S.takeResult();
    break;
  }
  }
  Result.AcquireEvents = AcquireEvents;

  Result.WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  if (telemetry::enabled()) {
    static SchedulerMetrics Metrics;
    Metrics.record(Result);
  }
  {
    telemetry::Timeline &TL = telemetry::Timeline::global();
    if (TL.enabled()) {
      TL.nameThread(0, "scheduler");
      for (const ThreadRecord &T : threadRecords())
        TL.nameThread(static_cast<uint32_t>(T.Id.Raw) + 1, T.Name);
    }
  }
  return Result;
}

// -- ScopeGuard / yieldNow ----------------------------------------------------

ScopeGuard::ScopeGuard(Label Site) : RT(Runtime::current()) {
  if (RT)
    RT->onCall(Site);
}

ScopeGuard::~ScopeGuard() {
  if (RT)
    RT->onReturn();
}

void dlf::yieldNow() {
  Runtime *RT = Runtime::current();
  if (RT && RT->mode() == RunMode::Active) {
    ThreadRecord *Self = RT->selfRecord();
    if (Self && RT->scheduler()) {
      RT->scheduler()->yieldPoint(*Self);
      return;
    }
  }
  std::this_thread::yield();
}

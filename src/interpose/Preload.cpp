//===- interpose/Preload.cpp - LD_PRELOAD pthread front end -----------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pthread interposition front end: run *unmodified* pthreads programs
// under the DeadlockFuzzer workflow.
//
//   Phase I:  LD_PRELOAD=libdlf_preload.so DLF_PRELOAD_TRACE=/tmp/t ./app
//             -> writes an event trace; analyze with `dlf-analyze /tmp/t`.
//   Phase II: LD_PRELOAD=libdlf_preload.so DLF_PRELOAD_CYCLE='<spec>' ./app
//             -> pauses threads before cycle-component acquires; when the
//             wait-for graph closes a cycle, prints the witness and exits
//             with code 42 *before* physically wedging the process.
//
// Unlike the managed runtime (src/runtime), this front end cannot serialize
// the schedule; it biases a real concurrent execution by sleeping matched
// threads, the closest LD_PRELOAD analogue of Algorithm 3's Paused set
// (pauses expire after DLF_PRELOAD_PAUSE_MS, playing the role of the
// thrash handler / livelock monitor). Interposed: pthread_mutex_lock /
// trylock / unlock / destroy, pthread_rwlock_rdlock / wrlock / tryrdlock /
// trywrlock / unlock / destroy, pthread_cond_wait / timedwait / signal /
// broadcast, and pthread_create.
//
// The synchronization alphabet is wider than mutexes: rwlock read-side
// holds carry a shared flag (read-read overlap is not a wait-for edge),
// condvar signal/broadcast and post-wait wakeups are recorded as N/V
// happens-before edges, and a failed trylock is a P probe line — the
// thread asked and bailed out, so it is never treated as blocked.
//
// This file is deliberately self-contained (no dependency on libdlf): a
// preload library must not drag in anything that might initialize before
// the dynamic linker is ready.
//
//===----------------------------------------------------------------------===//

#include "event/LockCycle.h" // header-only; keeps the no-libdlf constraint
#include "interpose/TraceFormat.h"
// The ring transport is standard-library + POSIX only; Ring.cpp is compiled
// directly into libdlf_preload.so (see src/CMakeLists.txt), so the
// no-libdlf constraint holds.
#include "ring/Ring.h"
#include "support/Env.h" // header-only; keeps the no-libdlf constraint
// Telemetry depends only on the standard library; its .cpp files are
// compiled directly into libdlf_preload.so (see src/CMakeLists.txt), so
// the no-libdlf constraint holds.
#include "telemetry/Metrics.h"
#include "telemetry/Sidecar.h"

#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

namespace {

using dlf::LockMode;

// -- Real function pointers ----------------------------------------------------

using MutexLockFn = int (*)(pthread_mutex_t *);
using MutexUnlockFn = int (*)(pthread_mutex_t *);
using MutexTrylockFn = int (*)(pthread_mutex_t *);
using MutexDestroyFn = int (*)(pthread_mutex_t *);
using CondWaitFn = int (*)(pthread_cond_t *, pthread_mutex_t *);
using CondTimedwaitFn = int (*)(pthread_cond_t *, pthread_mutex_t *,
                                const struct timespec *);
using CondNotifyFn = int (*)(pthread_cond_t *);
using RwlockOpFn = int (*)(pthread_rwlock_t *);
using CreateFn = int (*)(pthread_t *, const pthread_attr_t *,
                         void *(*)(void *), void *);
using JoinFn = int (*)(pthread_t, void **);

MutexLockFn RealLock;
MutexUnlockFn RealUnlock;
MutexTrylockFn RealTrylock;
MutexDestroyFn RealDestroy;
CondWaitFn RealCondWait;
CondTimedwaitFn RealCondTimedwait;
CondNotifyFn RealCondSignal;
CondNotifyFn RealCondBroadcast;
RwlockOpFn RealRdlock;
RwlockOpFn RealWrlock;
RwlockOpFn RealTryRdlock;
RwlockOpFn RealTryWrlock;
RwlockOpFn RealRwUnlock;
RwlockOpFn RealRwDestroy;
CreateFn RealCreate;
JoinFn RealJoin;

void resolveReals() {
  // Called from the library constructor; dlsym(RTLD_NEXT) is safe by then.
  RealLock = reinterpret_cast<MutexLockFn>(dlsym(RTLD_NEXT,
                                                 "pthread_mutex_lock"));
  RealUnlock = reinterpret_cast<MutexUnlockFn>(dlsym(RTLD_NEXT,
                                                     "pthread_mutex_unlock"));
  RealTrylock = reinterpret_cast<MutexTrylockFn>(
      dlsym(RTLD_NEXT, "pthread_mutex_trylock"));
  RealDestroy = reinterpret_cast<MutexDestroyFn>(
      dlsym(RTLD_NEXT, "pthread_mutex_destroy"));
  RealCondWait = reinterpret_cast<CondWaitFn>(dlsym(RTLD_NEXT,
                                                    "pthread_cond_wait"));
  RealCondTimedwait = reinterpret_cast<CondTimedwaitFn>(
      dlsym(RTLD_NEXT, "pthread_cond_timedwait"));
  RealCondSignal = reinterpret_cast<CondNotifyFn>(
      dlsym(RTLD_NEXT, "pthread_cond_signal"));
  RealCondBroadcast = reinterpret_cast<CondNotifyFn>(
      dlsym(RTLD_NEXT, "pthread_cond_broadcast"));
  RealRdlock = reinterpret_cast<RwlockOpFn>(
      dlsym(RTLD_NEXT, "pthread_rwlock_rdlock"));
  RealWrlock = reinterpret_cast<RwlockOpFn>(
      dlsym(RTLD_NEXT, "pthread_rwlock_wrlock"));
  RealTryRdlock = reinterpret_cast<RwlockOpFn>(
      dlsym(RTLD_NEXT, "pthread_rwlock_tryrdlock"));
  RealTryWrlock = reinterpret_cast<RwlockOpFn>(
      dlsym(RTLD_NEXT, "pthread_rwlock_trywrlock"));
  RealRwUnlock = reinterpret_cast<RwlockOpFn>(
      dlsym(RTLD_NEXT, "pthread_rwlock_unlock"));
  RealRwDestroy = reinterpret_cast<RwlockOpFn>(
      dlsym(RTLD_NEXT, "pthread_rwlock_destroy"));
  RealCreate = reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT, "pthread_create"));
  RealJoin = reinterpret_cast<JoinFn>(dlsym(RTLD_NEXT, "pthread_join"));
}

// -- Site resolution -------------------------------------------------------------

/// Resolves a return address to a stable "symbol+0xoff" site string.
std::string resolveSite(void *Address) {
  Dl_info Info;
  if (dladdr(Address, &Info) && Info.dli_sname) {
    char Buffer[256];
    snprintf(Buffer, sizeof(Buffer), "%s+0x%" PRIxPTR, Info.dli_sname,
             reinterpret_cast<uintptr_t>(Address) -
                 reinterpret_cast<uintptr_t>(Info.dli_saddr));
    return Buffer;
  }
  if (dladdr(Address, &Info) && Info.dli_fname) {
    char Buffer[512];
    snprintf(Buffer, sizeof(Buffer), "%s+0x%" PRIxPTR,
             strrchr(Info.dli_fname, '/') ? strrchr(Info.dli_fname, '/') + 1
                                          : Info.dli_fname,
             reinterpret_cast<uintptr_t>(Address) -
                 reinterpret_cast<uintptr_t>(Info.dli_fbase));
    return Buffer;
  }
  char Buffer[32];
  snprintf(Buffer, sizeof(Buffer), "addr:%p", Address);
  return Buffer;
}

// -- Shared state ------------------------------------------------------------------

constexpr unsigned MaxStackDepth = 64;

struct HeldEntry {
  uint64_t Lock = 0;
  std::string AcqSite;
  /// Shared for the read side of a rwlock: a shared hold only conflicts
  /// with exclusive waiters.
  LockMode Mode = LockMode::Exclusive;
};

LockMode modeOf(bool Shared) {
  return Shared ? LockMode::Shared : LockMode::Exclusive;
}

struct ThreadSlot {
  uint64_t Tid = 0;
  std::string Abs; ///< "<site>#<n>"
  bool Live = false;
  std::vector<HeldEntry> Stack;
  /// Lock this thread is blocked on / paused before; Lock 0 when none.
  HeldEntry Pending;

  // Field-wise, so the site string keeps its buffer across acquires.
  void setPending(uint64_t Lock, const std::string &Site, bool Shared) {
    Pending.Lock = Lock;
    Pending.AcqSite = Site;
    Pending.Mode = modeOf(Shared);
  }
  void clearPending() { setPending(0, std::string(), false); }
};

struct LockInfo {
  uint64_t Id = 0;
  std::string Abs; ///< "<site>#<n>"
  uint64_t OwnerTid = 0;
  unsigned Recursion = 0;
  /// Read-side holders (rwlocks only; empty for mutexes).
  std::vector<uint64_t> ReaderTids;
};

struct ObjectInfo {
  uint64_t Id = 0;
  std::string Abs; ///< "<first-access-site>#<n>"
};

/// All global state; created by the library constructor. Internal locking
/// uses RealLock directly, so the interposition never recurses.
struct GlobalState {
  pthread_mutex_t Mu = PTHREAD_MUTEX_INITIALIZER;
  FILE *Trace = nullptr;
  bool TraceAccesses = false;
  /// Shared-memory event transport (DLF_RING); null when not requested.
  dlf::ring::RingWriter *Ring = nullptr;
  /// Ring with neither text trace nor Phase II cycle: the hot path takes
  /// no lock and resolves no site — one ring write per event.
  bool RingOnly = false;
  std::vector<dlf::interpose::CycleSpecComponent> Cycle;
  unsigned PauseMs = 200;

  uint64_t NextTid = 1;
  uint64_t NextLockId = 1;
  uint64_t NextObjectId = 1;
  uint64_t NextCondId = 1;
  std::unordered_map<pthread_mutex_t *, LockInfo> Locks;
  /// Rwlocks share the id space (NextLockId) and LockInfo shape with
  /// mutexes; only the keying pointer type differs.
  std::unordered_map<pthread_rwlock_t *, LockInfo> RwLocks;
  std::unordered_map<pthread_cond_t *, uint64_t> Conds;
  std::unordered_map<const void *, ObjectInfo> Objects;
  std::vector<ThreadSlot *> Threads;
  /// pthread_create handle -> our tid, consumed by the pthread_join
  /// interposition to emit the J (join happens-before) edge.
  std::unordered_map<pthread_t, uint64_t> JoinHandles;
  std::unordered_map<std::string, uint64_t> SiteCounts;

  void lock() { RealLock(&Mu); }
  void unlock() { RealUnlock(&Mu); }
};

GlobalState *State;

/// Per-thread slot pointer; the main thread gets one lazily.
thread_local ThreadSlot *Self;

/// True while this thread is inside preload-internal code (telemetry) that
/// takes std::mutex locks. std::mutex::lock() lands on the interposed
/// pthread_mutex_lock, so without this flag the analysis would recurse into
/// itself through its own bookkeeping locks; the interposed entry points
/// route guarded calls straight to the real implementation instead.
thread_local bool InInternal = false;

struct InternalGuard {
  // Save/restore rather than set/clear: guarded regions nest (an internal
  // helper called from inside another guarded region must not drop the
  // outer region's protection on destruction).
  bool Prev;
  InternalGuard() : Prev(InInternal) { InInternal = true; }
  ~InternalGuard() { InInternal = Prev; }
};

// -- Ring transport ------------------------------------------------------------------

/// Per-thread SPSC shard; claimed lazily on first event, released when the
/// trampoline sees the thread routine return (the main thread never
/// releases — the ring outlives it anyway).
thread_local dlf::ring::ShardHandle RingShard;
thread_local bool RingShardClaimed = false;

dlf::ring::ShardHandle &ringShardHandle() {
  if (!RingShardClaimed) {
    // claimShard serializes on a std::mutex; guard so our own interposed
    // pthread_mutex_lock passes it through.
    InternalGuard G;
    RingShard = State->Ring->claimShard();
    RingShardClaimed = true;
  }
  return RingShard;
}

/// One fixed-size ring write; the entire per-event cost of the ring path.
/// Telemetry (occupancy histogram, drop counter) only runs when a sidecar
/// asked for metrics — the default hot path is the write alone.
void ringEmit(dlf::ring::RecordKind Kind, uint64_t Tid, uint64_t Addr,
              uint32_t Site) {
  bool WantStats = dlf::telemetry::enabled();
  uint64_t Occupancy = 0;
  bool Ok = State->Ring->write(ringShardHandle(), Kind,
                               static_cast<uint32_t>(Tid), Addr, Site,
                               WantStats ? &Occupancy : nullptr);
  if (WantStats) {
    InternalGuard G;
    // Registered once and cached: the name-lookup takes the registry lock,
    // and this path runs per event — sometimes from contexts (thread-exit
    // TLS destructors) where re-entering the registry is not safe.
    static dlf::telemetry::Counter Records =
        dlf::telemetry::Registry::global().counter("dlf_ring_records_total");
    static dlf::telemetry::Counter Dropped =
        dlf::telemetry::Registry::global().counter("dlf_ring_dropped_total");
    static dlf::telemetry::Histogram Occ =
        dlf::telemetry::Registry::global().histogram("dlf_ring_occupancy");
    Records.inc();
    if (!Ok)
      Dropped.inc();
    Occ.observe(Occupancy);
  }
}

/// Interns a site string into the ring's shared string table (slow, mutex
/// under the hood — callers cache).
uint32_t ringInternString(const std::string &Site) {
  InternalGuard G;
  return State->Ring->internSite(Site);
}

/// Return-address -> interned site id, cached per thread so the steady
/// state is one hash lookup — no dladdr, no snprintf, no intern mutex.
uint32_t ringSiteId(void *CallerAddr) {
  thread_local std::unordered_map<void *, uint32_t> Cache;
  auto It = Cache.find(CallerAddr);
  if (It != Cache.end())
    return It->second;
  uint32_t Id = ringInternString(resolveSite(CallerAddr));
  Cache.emplace(CallerAddr, Id);
  return Id;
}

/// No observation mode (text trace, Phase II cycle, ring) wants events:
/// pure passthrough.
bool analysisOff() {
  return !State->Trace && State->Cycle.empty() && !State->Ring;
}

/// Hand-off from the pthread_create interposition to the trampoline. The
/// slot is created (and its T/F trace lines written) in the *parent*, so
/// the fork edge is on file before any child event and the child's tid is
/// deterministic in program order, not in thread start-up order.
struct TrampolineArg {
  void *(*Routine)(void *);
  void *Arg;
  ThreadSlot *Slot;
};

std::string bumpSite(GlobalState &G, const std::string &Site) {
  uint64_t N = ++G.SiteCounts[Site];
  return Site + "#" + std::to_string(N);
}

ThreadSlot *selfSlot() {
  if (Self)
    return Self;
  // Unregistered thread (the main thread, or one created before we were
  // loaded): register with a synthetic site.
  State->lock();
  auto *Slot = new ThreadSlot();
  Slot->Tid = State->NextTid++;
  const char *Base = Slot->Tid == 1 ? "main" : "unknown-thread";
  Slot->Abs = bumpSite(*State, Base);
  Slot->Live = true;
  State->Threads.push_back(Slot);
  if (State->Trace)
    fprintf(State->Trace, "T %" PRIu64 " %s\n", Slot->Tid, Slot->Abs.c_str());
  // The ring carries the raw site; the observer replays the #n bumping
  // (same order: registration points are serialized by the state lock).
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::ThreadSelf, Slot->Tid, 0,
             ringInternString(Base));
  State->unlock();
  Self = Slot;
  return Slot;
}

LockInfo &lockInfoLocked(pthread_mutex_t *M, const std::string &Site) {
  auto It = State->Locks.find(M);
  if (It != State->Locks.end())
    return It->second;
  LockInfo Info;
  Info.Id = State->NextLockId++;
  Info.Abs = bumpSite(*State, Site);
  auto [NewIt, Inserted] = State->Locks.emplace(M, std::move(Info));
  if (State->Trace)
    fprintf(State->Trace, "M %" PRIu64 " %s\n", NewIt->second.Id,
            NewIt->second.Abs.c_str());
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::LockSeen, 0,
             reinterpret_cast<uintptr_t>(M), ringInternString(Site));
  return NewIt->second;
}

LockInfo &rwlockInfoLocked(pthread_rwlock_t *RW, const std::string &Site) {
  auto It = State->RwLocks.find(RW);
  if (It != State->RwLocks.end())
    return It->second;
  LockInfo Info;
  Info.Id = State->NextLockId++;
  Info.Abs = bumpSite(*State, Site);
  auto [NewIt, Inserted] = State->RwLocks.emplace(RW, std::move(Info));
  if (State->Trace)
    fprintf(State->Trace, "M %" PRIu64 " %s\n", NewIt->second.Id,
            NewIt->second.Abs.c_str());
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::LockSeen, 0,
             reinterpret_cast<uintptr_t>(RW), ringInternString(Site));
  return NewIt->second;
}

uint64_t condIdLocked(pthread_cond_t *C) {
  auto [It, Inserted] = State->Conds.try_emplace(C, State->NextCondId);
  if (Inserted) {
    ++State->NextCondId;
    // Mirror the id-assignment point so the observer numbers condvars in
    // the same order the in-process model does.
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::CondSeen, 0,
               reinterpret_cast<uintptr_t>(C), 0);
  }
  return It->second;
}

// -- Cycle matching (Phase II) -------------------------------------------------------

bool matchesComponent(const ThreadSlot &T, const LockInfo &L,
                      const std::string &PendingSite) {
  for (const dlf::interpose::CycleSpecComponent &C : State->Cycle) {
    if (C.ThreadAbs != T.Abs || C.LockAbs != L.Abs)
      continue;
    if (C.Context.size() != T.Stack.size() + 1)
      continue;
    bool Equal = true;
    for (size_t I = 0; I != T.Stack.size() && Equal; ++I)
      Equal = (T.Stack[I].AcqSite == C.Context[I]);
    if (Equal && C.Context.back() == PendingSite)
      return true;
  }
  return false;
}

/// Algorithm 4 (event/LockCycle.h) over the global registry: held stacks
/// plus pending locks. Caller holds the state lock.
bool findDeadlockLocked(std::string &Witness) {
  std::vector<dlf::HeldPendingView<HeldEntry, ThreadSlot>> Views;
  for (ThreadSlot *T : State->Threads)
    if (T->Live && (!T->Stack.empty() || T->Pending.Lock))
      Views.push_back({T, &T->Stack, T->Pending.Lock ? &T->Pending : nullptr});
  std::vector<dlf::LockCycleStep> Path;
  if (!dlf::findLockCycle(Views, Path))
    return false;

  Witness = "real deadlock cycle:";
  for (dlf::LockCycleStep Step : Path) {
    Witness += " [thread ";
    Witness += Views[Step.View].Thread->Abs;
    Witness += " waits at ";
    Witness += Views[Step.View][Step.Pos].AcqSite;
    Witness += "]";
  }
  return true;
}

void reportDeadlockAndExit(const std::string &Witness) {
  fprintf(stderr, "DLF-PRELOAD: %s\n", Witness.c_str());
  if (State && State->Ring)
    State->Ring->markDone(); // _exit skips the destructor
  if (State && State->Trace)
    fflush(State->Trace);
  if (dlf::telemetry::enabled()) {
    InternalGuard G;
    dlf::telemetry::Registry::global()
        .counter("dlf_preload_deadlocks_reported_total")
        .inc();
    // _exit skips the destructor, so the sidecar is written here.
    dlf::telemetry::flushChildTelemetry();
  }
  fflush(nullptr);
  _exit(dlf::interpose::DeadlockExitCode);
}

void sleepMs(unsigned Ms) {
  struct timespec Ts;
  Ts.tv_sec = Ms / 1000;
  Ts.tv_nsec = static_cast<long>(Ms % 1000) * 1000000L;
  nanosleep(&Ts, nullptr);
}

// -- Initialization -----------------------------------------------------------------

__attribute__((constructor)) void dlfPreloadInit() {
  resolveReals();
  State = new GlobalState();
  // A campaign (or operator) that wants metrics from the traced program
  // points DLF_METRICS_SIDECAR at a file; the shutdown hook dumps there.
  if (getenv(dlf::telemetry::SidecarEnvVar))
    dlf::telemetry::setEnabled(true);
  if (const char *Path = getenv(dlf::interpose::TraceEnvVar)) {
    State->Trace = fopen(Path, "w");
    if (State->Trace)
      fprintf(State->Trace, "# dlf-preload trace v1\n");
  }
  if (const char *Spec = getenv(dlf::ring::RingEnvVar)) {
    std::string Err;
    State->Ring = dlf::ring::RingWriter::openSpec(
        Spec, dlf::ring::shardsFromEnv(), dlf::ring::slotsFromEnv(), &Err);
    if (!State->Ring) {
      // Fail fast: silently recording nothing would make dlf-observe
      // report a clean run for an execution that was never observed.
      fprintf(stderr, "dlf-preload: %s: %s\n", dlf::ring::RingEnvVar,
              Err.c_str());
      _exit(2);
    }
  }
  State->TraceAccesses = (State->Trace || State->Ring) &&
                         getenv(dlf::interpose::AccessEnvVar) != nullptr;
  if (const char *Spec = getenv(dlf::interpose::CycleEnvVar)) {
    // A typo'd spec that matched nothing would silently disarm Phase II and
    // make the run look deadlock-free; refuse to start instead.
    std::string Err;
    if (!dlf::interpose::decodeCycleSpec(Spec, State->Cycle, &Err)) {
      fprintf(stderr, "dlf-preload: %s: %s\n", dlf::interpose::CycleEnvVar,
              Err.c_str());
      _exit(2);
    }
  }
  State->RingOnly =
      State->Ring && !State->Trace && State->Cycle.empty();
  if (const char *Ms = getenv(dlf::interpose::PauseMsEnvVar)) {
    // atoi would map a typo to PauseMs = 0, silently disarming the biased
    // scheduler; fail fast before the program under test starts instead.
    uint64_t N = 0;
    if (!dlf::parseUint64Strict(Ms, N)) {
      fprintf(stderr,
              "dlf-preload: %s expects a non-negative integer, got '%s'\n",
              dlf::interpose::PauseMsEnvVar, Ms);
      _exit(2);
    }
    State->PauseMs = static_cast<unsigned>(N);
  }
}

__attribute__((destructor)) void dlfPreloadShutdown() {
  if (State && State->Trace) {
    fflush(State->Trace);
    fclose(State->Trace);
    State->Trace = nullptr;
  }
  if (State && State->Ring)
    State->Ring->markDone(); // tells dlf-observe to finish draining
  InternalGuard G;
  dlf::telemetry::flushChildTelemetry();
}

// -- Event handlers ------------------------------------------------------------------

/// Algorithm 3's pause, shared by the mutex and rwlock acquire paths:
/// register the wait-for edge, then sleep in slices watching for the cycle
/// to physically form around us; give up after the budget (thrash /
/// livelock-monitor analogue).
void pauseAndWatch(ThreadSlot *T, uint64_t LockId, const std::string &Site,
                   bool Shared) {
  if (dlf::telemetry::enabled()) {
    InternalGuard G;
    dlf::telemetry::Registry::global()
        .counter("dlf_preload_pauses_total")
        .inc();
  }
  State->lock();
  T->setPending(LockId, Site, Shared);
  std::string Witness;
  bool Found = findDeadlockLocked(Witness);
  State->unlock();
  if (Found)
    reportDeadlockAndExit(Witness);

  unsigned Waited = 0;
  const unsigned Slice = 2;
  while (Waited < State->PauseMs) {
    sleepMs(Slice);
    Waited += Slice;
    State->lock();
    std::string SliceWitness;
    bool SliceFound = findDeadlockLocked(SliceWitness);
    State->unlock();
    if (SliceFound)
      reportDeadlockAndExit(SliceWitness);
  }
  State->lock();
  T->clearPending();
  State->unlock();
}

/// Register a blocking wait-for edge and check for a completed deadlock
/// (the last edge is ours) right before blocking for real.
void registerBlockedAndCheck(ThreadSlot *T, uint64_t LockId,
                             const std::string &Site, bool Shared) {
  std::string Witness;
  bool Found = false;
  {
    State->lock();
    T->setPending(LockId, Site, Shared);
    Found = findDeadlockLocked(Witness);
    State->unlock();
  }
  if (Found)
    reportDeadlockAndExit(Witness);
}

/// Core acquire protocol shared by lock and cond_wait re-acquire.
int acquireWithAnalysis(pthread_mutex_t *M, void *CallerAddr) {
  ThreadSlot *T = selfSlot();
  std::string Site = resolveSite(CallerAddr);
  if (dlf::telemetry::enabled()) {
    InternalGuard G;
    dlf::telemetry::Registry::global()
        .counter("dlf_preload_acquires_total")
        .inc();
  }

  bool Reentrant = false;
  bool ShouldPause = false;
  uint64_t LockId = 0;
  {
    State->lock();
    LockInfo &L = lockInfoLocked(M, Site);
    LockId = L.Id;
    if (L.OwnerTid == T->Tid) {
      ++L.Recursion;
      Reentrant = true; // invisible to the analysis (footnote 2)
    } else if (!State->Cycle.empty()) {
      ShouldPause = matchesComponent(*T, L, Site);
    }
    State->unlock();
  }
  if (Reentrant)
    return RealLock(M);

  if (ShouldPause)
    pauseAndWatch(T, LockId, Site, /*Shared=*/false);

  // Execute the acquire: try fast, else register the wait-for edge, check
  // for a completed deadlock (the last edge is ours), then block for real.
  if (RealTrylock(M) != 0) {
    registerBlockedAndCheck(T, LockId, Site, /*Shared=*/false);
    int Rc = RealLock(M);
    if (Rc != 0) {
      State->lock();
      T->clearPending();
      State->unlock();
      return Rc;
    }
  }

  State->lock();
  LockInfo &L = lockInfoLocked(M, Site);
  L.OwnerTid = T->Tid;
  L.Recursion = 1;
  T->clearPending();
  if (State->Trace)
    fprintf(State->Trace, "A %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
            Site.c_str());
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::Acquire, T->Tid,
             reinterpret_cast<uintptr_t>(M), ringInternString(Site));
  T->Stack.push_back({L.Id, Site});
  State->unlock();
  return 0;
}

/// Acquire protocol for the rwlock sides: same pause/edge/deadlock-check
/// shape as the mutex path, with the shared flag threaded through so the
/// wait-for search applies read-read non-exclusion.
int rwAcquireWithAnalysis(pthread_rwlock_t *RW, bool Shared,
                          void *CallerAddr) {
  ThreadSlot *T = selfSlot();
  std::string Site = resolveSite(CallerAddr);
  if (dlf::telemetry::enabled()) {
    InternalGuard G;
    dlf::telemetry::Registry::global()
        .counter("dlf_preload_acquires_total")
        .inc();
  }

  bool ShouldPause = false;
  uint64_t LockId = 0;
  {
    State->lock();
    LockInfo &L = rwlockInfoLocked(RW, Site);
    LockId = L.Id;
    if (!State->Cycle.empty())
      ShouldPause = matchesComponent(*T, L, Site);
    State->unlock();
  }

  if (ShouldPause)
    pauseAndWatch(T, LockId, Site, Shared);

  if ((Shared ? RealTryRdlock(RW) : RealTryWrlock(RW)) != 0) {
    registerBlockedAndCheck(T, LockId, Site, Shared);
    int Rc = Shared ? RealRdlock(RW) : RealWrlock(RW);
    if (Rc != 0) {
      State->lock();
      T->clearPending();
      State->unlock();
      return Rc;
    }
  }

  State->lock();
  LockInfo &L = rwlockInfoLocked(RW, Site);
  if (Shared)
    L.ReaderTids.push_back(T->Tid);
  else {
    L.OwnerTid = T->Tid;
    L.Recursion = 1;
  }
  T->clearPending();
  if (State->Trace)
    fprintf(State->Trace, "%c %" PRIu64 " %" PRIu64 " %s\n",
            Shared ? 'Q' : 'A', T->Tid, L.Id, Site.c_str());
  if (State->Ring)
    ringEmit(Shared ? dlf::ring::RecordKind::SharedAcquire
                    : dlf::ring::RecordKind::Acquire,
             T->Tid, reinterpret_cast<uintptr_t>(RW), ringInternString(Site));
  T->Stack.push_back({L.Id, Site, modeOf(Shared)});
  State->unlock();
  return 0;
}

/// Model-side release for one rwlock side; emits the matching R/U line.
/// The side is determined from the registry (pthread_rwlock_unlock does
/// not say which side it releases).
void rwReleaseWithAnalysis(pthread_rwlock_t *RW) {
  ThreadSlot *T = selfSlot();
  State->lock();
  auto It = State->RwLocks.find(RW);
  if (It == State->RwLocks.end()) {
    State->unlock();
    return; // never observed the acquire (pre-init lock) — pass through
  }
  LockInfo &L = It->second;
  bool Shared;
  if (L.OwnerTid == T->Tid) {
    Shared = false;
    L.OwnerTid = 0;
    L.Recursion = 0;
  } else {
    auto Rd = std::find(L.ReaderTids.begin(), L.ReaderTids.end(), T->Tid);
    if (Rd == L.ReaderTids.end()) {
      State->unlock();
      return;
    }
    Shared = true;
    L.ReaderTids.erase(Rd);
  }
  for (size_t I = T->Stack.size(); I-- > 0;) {
    if (T->Stack[I].Lock == L.Id) {
      T->Stack.erase(T->Stack.begin() + static_cast<long>(I));
      break;
    }
  }
  if (State->Trace)
    fprintf(State->Trace, "%c %" PRIu64 " %" PRIu64 "\n", Shared ? 'U' : 'R',
            T->Tid, L.Id);
  // The observer re-resolves the side from its own owner/reader registry,
  // which mirrors this one record for record.
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::RwUnlock, T->Tid,
             reinterpret_cast<uintptr_t>(RW), 0);
  State->unlock();
}

void releaseWithAnalysis(pthread_mutex_t *M, bool &Reentrant) {
  ThreadSlot *T = selfSlot();
  State->lock();
  auto It = State->Locks.find(M);
  if (It == State->Locks.end() || It->second.OwnerTid != T->Tid) {
    // Never observed the acquire (pre-init lock) — pass through.
    Reentrant = true;
    State->unlock();
    return;
  }
  LockInfo &L = It->second;
  if (L.Recursion > 1) {
    --L.Recursion;
    Reentrant = true;
    State->unlock();
    return;
  }
  Reentrant = false;
  L.OwnerTid = 0;
  L.Recursion = 0;
  for (size_t I = T->Stack.size(); I-- > 0;) {
    if (T->Stack[I].Lock == L.Id) {
      T->Stack.erase(T->Stack.begin() + static_cast<long>(I));
      break;
    }
  }
  if (State->Trace)
    fprintf(State->Trace, "R %" PRIu64 " %" PRIu64 "\n", T->Tid, L.Id);
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::Release, T->Tid,
             reinterpret_cast<uintptr_t>(M), 0);
  State->unlock();
}

/// Shared body of the cond-wait wrappers: cond_wait releases and
/// re-acquires the mutex, so the model releases first, runs the real wait,
/// then records the wakeup edge and the re-acquire. A timed-out wait
/// (ETIMEDOUT) still re-acquires the mutex — only the V wakeup edge is
/// conditional on a zero return. The re-acquire's site is the caller's
/// real wait site, not a synthetic constant, so Phase II contexts match.
template <typename RealWaitFn>
int condWaitWithAnalysis(pthread_cond_t *Cond, pthread_mutex_t *M,
                         void *CallerAddr, RealWaitFn RealWait) {
  ThreadSlot *T = selfSlot();
  std::string Site = resolveSite(CallerAddr);
  uint64_t CondId;
  {
    State->lock();
    CondId = condIdLocked(Cond);
    State->unlock();
  }
  bool Reentrant = false;
  releaseWithAnalysis(M, Reentrant);
  int Rc = RealWait();
  State->lock();
  if (Rc == 0) {
    if (State->Trace)
      fprintf(State->Trace, "V %" PRIu64 " %" PRIu64 "\n", T->Tid, CondId);
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::CondWake, T->Tid,
               reinterpret_cast<uintptr_t>(Cond), 0);
  }
  if (!Reentrant) {
    LockInfo &L = lockInfoLocked(M, Site);
    L.OwnerTid = T->Tid;
    L.Recursion = 1;
    if (State->Trace)
      fprintf(State->Trace, "A %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
              Site.c_str());
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::Acquire, T->Tid,
               reinterpret_cast<uintptr_t>(M), ringInternString(Site));
    T->Stack.push_back({L.Id, Site});
  }
  State->unlock();
  return Rc;
}

/// Records the N notify line for signal/broadcast. Written *before* the
/// real call so a woken waiter's V line can never precede its N source in
/// the trace.
void recordNotify(pthread_cond_t *Cond, ThreadSlot *T) {
  State->lock();
  uint64_t CondId = condIdLocked(Cond);
  if (State->Trace)
    fprintf(State->Trace, "N %" PRIu64 " %" PRIu64 "\n", T->Tid, CondId);
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::CondNotify, T->Tid,
             reinterpret_cast<uintptr_t>(Cond), 0);
  State->unlock();
}

void *threadTrampoline(void *Raw) {
  auto *Arg = static_cast<TrampolineArg *>(Raw);
  ThreadSlot *Slot = Arg->Slot;
  State->lock();
  Slot->Live = true;
  State->unlock();
  Self = Slot;

  void *Result = Arg->Routine(Arg->Arg);

  State->lock();
  Slot->Live = false;
  Slot->Stack.clear();
  Slot->clearPending();
  State->unlock();
  if (State->Ring && RingShardClaimed) {
    // Return the shard to the pool so later threads reuse it instead of
    // spilling into the shared overflow shard.
    State->Ring->releaseShard(RingShard);
    RingShardClaimed = false;
  }
  delete Arg;
  return Result;
}

/// Shared-access recording behind DLF_TRACE_ACCESSES (see TraceFormat.h).
/// \p Site may be null, in which case the caller's return address resolves
/// the site the same way acquires do.
void recordAccess(const void *Addr, const char *Site, bool IsWrite,
                  void *CallerAddr) {
  if (!State || !State->TraceAccesses || !Addr)
    return;
  ThreadSlot *T = selfSlot();
  if (State->RingOnly) {
    // One ring write; the observer assigns object ids and abstractions.
    uint32_t SiteId = Site && *Site ? ringInternString(Site)
                                    : ringSiteId(CallerAddr);
    ringEmit(IsWrite ? dlf::ring::RecordKind::AccessWrite
                     : dlf::ring::RecordKind::AccessRead,
             T->Tid, reinterpret_cast<uintptr_t>(Addr), SiteId);
    return;
  }
  std::string SiteText = Site && *Site ? Site : resolveSite(CallerAddr);
  State->lock();
  auto It = State->Objects.find(Addr);
  if (It == State->Objects.end()) {
    ObjectInfo Info;
    Info.Id = State->NextObjectId++;
    Info.Abs = bumpSite(*State, SiteText);
    It = State->Objects.emplace(Addr, std::move(Info)).first;
    if (State->Trace)
      fprintf(State->Trace, "O %" PRIu64 " %s\n", It->second.Id,
              It->second.Abs.c_str());
  }
  if (State->Trace)
    fprintf(State->Trace, "%c %" PRIu64 " %" PRIu64 " %s\n",
            IsWrite ? 'S' : 'L', T->Tid, It->second.Id, SiteText.c_str());
  if (State->Ring)
    ringEmit(IsWrite ? dlf::ring::RecordKind::AccessWrite
                     : dlf::ring::RecordKind::AccessRead,
             T->Tid, reinterpret_cast<uintptr_t>(Addr),
             ringInternString(SiteText));
  State->unlock();
}

} // namespace

// -- Interposed entry points ----------------------------------------------------------

extern "C" {

int pthread_mutex_lock(pthread_mutex_t *M) {
  if (!State || !RealLock) {
    // Called before our constructor (e.g. by the dynamic linker itself):
    // resolve lazily and pass through.
    if (!RealLock)
      RealLock = reinterpret_cast<MutexLockFn>(
          dlsym(RTLD_NEXT, "pthread_mutex_lock"));
    return RealLock(M);
  }
  if (InInternal)
    return RealLock(M); // our own telemetry locking: invisible to the analysis
  if (State->RingOnly) {
    // The hot path the ring exists for: no state lock, no site resolution
    // after the first call from a site — one fixed-size ring write.
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    int Rc = RealLock(M);
    if (Rc == 0)
      ringEmit(dlf::ring::RecordKind::Acquire, Tid,
               reinterpret_cast<uintptr_t>(M), SiteId);
    return Rc;
  }
  if (analysisOff())
    return RealLock(M); // neither phase requested: pure passthrough
  return acquireWithAnalysis(M, __builtin_return_address(0));
}

int pthread_mutex_trylock(pthread_mutex_t *M) {
  if (!RealTrylock)
    RealTrylock = reinterpret_cast<MutexTrylockFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_trylock"));
  if (!State || InInternal)
    return RealTrylock(M);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    int Rc = RealTrylock(M);
    ringEmit(Rc == 0 ? dlf::ring::RecordKind::Acquire
                     : dlf::ring::RecordKind::TryProbe,
             Tid, reinterpret_cast<uintptr_t>(M), SiteId);
    return Rc;
  }
  int Rc = RealTrylock(M);
  if (analysisOff())
    return Rc;
  if (Rc != 0) {
    // Failed probe: the thread asked and bailed out without blocking — no
    // wait-for edge, no pending registration, just a P line so offline
    // passes can see the attempt happened.
    if (State->Trace || State->Ring) {
      ThreadSlot *T = selfSlot();
      std::string Site = resolveSite(__builtin_return_address(0));
      State->lock();
      LockInfo &L = lockInfoLocked(M, Site);
      if (State->Trace)
        fprintf(State->Trace, "P %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
                Site.c_str());
      if (State->Ring)
        ringEmit(dlf::ring::RecordKind::TryProbe, T->Tid,
                 reinterpret_cast<uintptr_t>(M), ringInternString(Site));
      State->unlock();
    }
    return Rc;
  }
  // Successful trylock: record the acquire (same bookkeeping, no pause).
  ThreadSlot *T = selfSlot();
  std::string Site = resolveSite(__builtin_return_address(0));
  State->lock();
  LockInfo &L = lockInfoLocked(M, Site);
  if (L.OwnerTid == T->Tid) {
    ++L.Recursion;
  } else {
    L.OwnerTid = T->Tid;
    L.Recursion = 1;
    if (State->Trace)
      fprintf(State->Trace, "A %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
              Site.c_str());
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::Acquire, T->Tid,
               reinterpret_cast<uintptr_t>(M), ringInternString(Site));
    T->Stack.push_back({L.Id, Site});
  }
  State->unlock();
  return 0;
}

int pthread_mutex_unlock(pthread_mutex_t *M) {
  if (!State || !RealUnlock) {
    if (!RealUnlock)
      RealUnlock = reinterpret_cast<MutexUnlockFn>(
          dlsym(RTLD_NEXT, "pthread_mutex_unlock"));
    return RealUnlock(M);
  }
  if (InInternal)
    return RealUnlock(M);
  if (State->RingOnly) {
    // Source side: the record precedes the real unlock so a dependent
    // acquire can never be sequenced before its release.
    ringEmit(dlf::ring::RecordKind::Release, selfSlot()->Tid,
             reinterpret_cast<uintptr_t>(M), 0);
    return RealUnlock(M);
  }
  if (analysisOff())
    return RealUnlock(M);
  bool Reentrant = false;
  releaseWithAnalysis(M, Reentrant);
  (void)Reentrant;
  return RealUnlock(M);
}

int pthread_mutex_destroy(pthread_mutex_t *M) {
  if (!RealDestroy) {
    // Resolve lazily like every other wrapper: destroy can be reached
    // before our constructor runs (static destructor ordering, early
    // libc teardown paths), and returning success without destroying the
    // real mutex would leak its kernel state.
    RealDestroy = reinterpret_cast<MutexDestroyFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_destroy"));
  }
  if (State && !InInternal) {
    if (State->RingOnly) {
      ringEmit(dlf::ring::RecordKind::LockDestroy, 0,
               reinterpret_cast<uintptr_t>(M), 0);
    } else {
      State->lock();
      State->Locks.erase(M);
      if (State->Ring)
        ringEmit(dlf::ring::RecordKind::LockDestroy, 0,
                 reinterpret_cast<uintptr_t>(M), 0);
      State->unlock();
    }
  }
  return RealDestroy(M);
}

int pthread_cond_wait(pthread_cond_t *Cond, pthread_mutex_t *M) {
  if (!RealCondWait)
    RealCondWait = reinterpret_cast<CondWaitFn>(
        dlsym(RTLD_NEXT, "pthread_cond_wait"));
  if (!State || InInternal)
    return RealCondWait(Cond, M);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    ringEmit(dlf::ring::RecordKind::Release, Tid,
             reinterpret_cast<uintptr_t>(M), 0);
    int Rc = RealCondWait(Cond, M);
    if (Rc == 0)
      ringEmit(dlf::ring::RecordKind::CondWake, Tid,
               reinterpret_cast<uintptr_t>(Cond), 0);
    ringEmit(dlf::ring::RecordKind::Acquire, Tid,
             reinterpret_cast<uintptr_t>(M), SiteId);
    return Rc;
  }
  if (analysisOff())
    return RealCondWait(Cond, M);
  return condWaitWithAnalysis(Cond, M, __builtin_return_address(0),
                              [&] { return RealCondWait(Cond, M); });
}

int pthread_cond_timedwait(pthread_cond_t *Cond, pthread_mutex_t *M,
                           const struct timespec *Abstime) {
  if (!RealCondTimedwait)
    RealCondTimedwait = reinterpret_cast<CondTimedwaitFn>(
        dlsym(RTLD_NEXT, "pthread_cond_timedwait"));
  if (!State || InInternal)
    return RealCondTimedwait(Cond, M, Abstime);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    ringEmit(dlf::ring::RecordKind::Release, Tid,
             reinterpret_cast<uintptr_t>(M), 0);
    int Rc = RealCondTimedwait(Cond, M, Abstime);
    if (Rc == 0)
      ringEmit(dlf::ring::RecordKind::CondWake, Tid,
               reinterpret_cast<uintptr_t>(Cond), 0);
    ringEmit(dlf::ring::RecordKind::Acquire, Tid,
             reinterpret_cast<uintptr_t>(M), SiteId);
    return Rc;
  }
  if (analysisOff())
    return RealCondTimedwait(Cond, M, Abstime);
  return condWaitWithAnalysis(
      Cond, M, __builtin_return_address(0),
      [&] { return RealCondTimedwait(Cond, M, Abstime); });
}

int pthread_cond_signal(pthread_cond_t *Cond) {
  if (!RealCondSignal)
    RealCondSignal = reinterpret_cast<CondNotifyFn>(
        dlsym(RTLD_NEXT, "pthread_cond_signal"));
  if (State && !InInternal) {
    if (State->RingOnly)
      ringEmit(dlf::ring::RecordKind::CondNotify, selfSlot()->Tid,
               reinterpret_cast<uintptr_t>(Cond), 0);
    else if (State->Trace || State->Ring)
      recordNotify(Cond, selfSlot());
  }
  return RealCondSignal(Cond);
}

int pthread_cond_broadcast(pthread_cond_t *Cond) {
  if (!RealCondBroadcast)
    RealCondBroadcast = reinterpret_cast<CondNotifyFn>(
        dlsym(RTLD_NEXT, "pthread_cond_broadcast"));
  if (State && !InInternal) {
    if (State->RingOnly)
      ringEmit(dlf::ring::RecordKind::CondNotify, selfSlot()->Tid,
               reinterpret_cast<uintptr_t>(Cond), 0);
    else if (State->Trace || State->Ring)
      recordNotify(Cond, selfSlot());
  }
  return RealCondBroadcast(Cond);
}

int pthread_rwlock_rdlock(pthread_rwlock_t *RW) {
  if (!State || !RealRdlock) {
    if (!RealRdlock)
      RealRdlock = reinterpret_cast<RwlockOpFn>(
          dlsym(RTLD_NEXT, "pthread_rwlock_rdlock"));
    return RealRdlock(RW);
  }
  if (InInternal)
    return RealRdlock(RW);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    int Rc = RealRdlock(RW);
    if (Rc == 0)
      ringEmit(dlf::ring::RecordKind::SharedAcquire, Tid,
               reinterpret_cast<uintptr_t>(RW), SiteId);
    return Rc;
  }
  if (analysisOff())
    return RealRdlock(RW);
  return rwAcquireWithAnalysis(RW, /*Shared=*/true,
                               __builtin_return_address(0));
}

int pthread_rwlock_wrlock(pthread_rwlock_t *RW) {
  if (!State || !RealWrlock) {
    if (!RealWrlock)
      RealWrlock = reinterpret_cast<RwlockOpFn>(
          dlsym(RTLD_NEXT, "pthread_rwlock_wrlock"));
    return RealWrlock(RW);
  }
  if (InInternal)
    return RealWrlock(RW);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    int Rc = RealWrlock(RW);
    if (Rc == 0)
      ringEmit(dlf::ring::RecordKind::Acquire, Tid,
               reinterpret_cast<uintptr_t>(RW), SiteId);
    return Rc;
  }
  if (analysisOff())
    return RealWrlock(RW);
  return rwAcquireWithAnalysis(RW, /*Shared=*/false,
                               __builtin_return_address(0));
}

int pthread_rwlock_tryrdlock(pthread_rwlock_t *RW) {
  if (!RealTryRdlock)
    RealTryRdlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_tryrdlock"));
  if (!State || InInternal)
    return RealTryRdlock(RW);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    int Rc = RealTryRdlock(RW);
    ringEmit(Rc == 0 ? dlf::ring::RecordKind::SharedAcquire
                     : dlf::ring::RecordKind::TryProbe,
             Tid, reinterpret_cast<uintptr_t>(RW), SiteId);
    return Rc;
  }
  int Rc = RealTryRdlock(RW);
  if (analysisOff())
    return Rc;
  ThreadSlot *T = selfSlot();
  std::string Site = resolveSite(__builtin_return_address(0));
  State->lock();
  LockInfo &L = rwlockInfoLocked(RW, Site);
  if (Rc != 0) {
    if (State->Trace)
      fprintf(State->Trace, "P %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
              Site.c_str());
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::TryProbe, T->Tid,
               reinterpret_cast<uintptr_t>(RW), ringInternString(Site));
  } else {
    L.ReaderTids.push_back(T->Tid);
    if (State->Trace)
      fprintf(State->Trace, "Q %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
              Site.c_str());
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::SharedAcquire, T->Tid,
               reinterpret_cast<uintptr_t>(RW), ringInternString(Site));
    T->Stack.push_back({L.Id, Site, LockMode::Shared});
  }
  State->unlock();
  return Rc;
}

int pthread_rwlock_trywrlock(pthread_rwlock_t *RW) {
  if (!RealTryWrlock)
    RealTryWrlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_trywrlock"));
  if (!State || InInternal)
    return RealTryWrlock(RW);
  if (State->RingOnly) {
    uint64_t Tid = selfSlot()->Tid;
    uint32_t SiteId = ringSiteId(__builtin_return_address(0));
    int Rc = RealTryWrlock(RW);
    ringEmit(Rc == 0 ? dlf::ring::RecordKind::Acquire
                     : dlf::ring::RecordKind::TryProbe,
             Tid, reinterpret_cast<uintptr_t>(RW), SiteId);
    return Rc;
  }
  int Rc = RealTryWrlock(RW);
  if (analysisOff())
    return Rc;
  ThreadSlot *T = selfSlot();
  std::string Site = resolveSite(__builtin_return_address(0));
  State->lock();
  LockInfo &L = rwlockInfoLocked(RW, Site);
  if (Rc != 0) {
    if (State->Trace)
      fprintf(State->Trace, "P %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
              Site.c_str());
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::TryProbe, T->Tid,
               reinterpret_cast<uintptr_t>(RW), ringInternString(Site));
  } else {
    L.OwnerTid = T->Tid;
    L.Recursion = 1;
    if (State->Trace)
      fprintf(State->Trace, "A %" PRIu64 " %" PRIu64 " %s\n", T->Tid, L.Id,
              Site.c_str());
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::Acquire, T->Tid,
               reinterpret_cast<uintptr_t>(RW), ringInternString(Site));
    T->Stack.push_back({L.Id, Site, LockMode::Exclusive});
  }
  State->unlock();
  return Rc;
}

int pthread_rwlock_unlock(pthread_rwlock_t *RW) {
  if (!State || !RealRwUnlock) {
    if (!RealRwUnlock)
      RealRwUnlock = reinterpret_cast<RwlockOpFn>(
          dlsym(RTLD_NEXT, "pthread_rwlock_unlock"));
    return RealRwUnlock(RW);
  }
  if (InInternal)
    return RealRwUnlock(RW);
  if (State->RingOnly) {
    ringEmit(dlf::ring::RecordKind::RwUnlock, selfSlot()->Tid,
             reinterpret_cast<uintptr_t>(RW), 0);
    return RealRwUnlock(RW);
  }
  if (analysisOff())
    return RealRwUnlock(RW);
  rwReleaseWithAnalysis(RW);
  return RealRwUnlock(RW);
}

int pthread_rwlock_destroy(pthread_rwlock_t *RW) {
  if (!RealRwDestroy)
    RealRwDestroy = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_destroy"));
  if (State && !InInternal) {
    if (State->RingOnly) {
      ringEmit(dlf::ring::RecordKind::LockDestroy, 0,
               reinterpret_cast<uintptr_t>(RW), 0);
    } else {
      State->lock();
      State->RwLocks.erase(RW);
      if (State->Ring)
        ringEmit(dlf::ring::RecordKind::LockDestroy, 0,
                 reinterpret_cast<uintptr_t>(RW), 0);
      State->unlock();
    }
  }
  return RealRwDestroy(RW);
}

int pthread_create(pthread_t *Thread, const pthread_attr_t *Attr,
                   void *(*Routine)(void *), void *Arg) {
  if (!State || !RealCreate) {
    if (!RealCreate)
      RealCreate = reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT,
                                                    "pthread_create"));
    return RealCreate(Thread, Attr, Routine, Arg);
  }
  if (analysisOff())
    return RealCreate(Thread, Attr, Routine, Arg);

  // Even in ring-only mode thread creation goes through the registry: the
  // child's tid must be allocated centrally, and creates are rare enough
  // that the state lock does not matter here.
  ThreadSlot *Parent = selfSlot(); // register the creator (e.g. main)
  std::string Site = resolveSite(__builtin_return_address(0));
  State->lock();
  auto *Slot = new ThreadSlot();
  Slot->Tid = State->NextTid++;
  Slot->Abs = bumpSite(*State, Site);
  State->Threads.push_back(Slot);
  if (State->Trace) {
    fprintf(State->Trace, "T %" PRIu64 " %s\n", Slot->Tid, Slot->Abs.c_str());
    fprintf(State->Trace, "F %" PRIu64 " %" PRIu64 "\n", Parent->Tid,
            Slot->Tid);
  }
  // One record covers both lines: the observer expands it to T then F.
  if (State->Ring)
    ringEmit(dlf::ring::RecordKind::ThreadFork, Parent->Tid, Slot->Tid,
             ringInternString(Site));
  State->unlock();

  auto *Wrapped = new TrampolineArg{Routine, Arg, Slot};
  int Rc = RealCreate(Thread, Attr, threadTrampoline, Wrapped);
  if (Rc != 0) {
    // The slot stays registered (its tid and trace lines are already out);
    // it just never goes live.
    delete Wrapped;
  } else {
    // The handle is only meaningful to callers once we return, so binding
    // it after the real create cannot race a join on it.
    State->lock();
    State->JoinHandles[*Thread] = Slot->Tid;
    State->unlock();
  }
  return Rc;
}

int pthread_join(pthread_t Thread, void **Retval) {
  if (!RealJoin)
    RealJoin = reinterpret_cast<JoinFn>(dlsym(RTLD_NEXT, "pthread_join"));
  int Rc = RealJoin(Thread, Retval);
  if (Rc != 0 || !State || InInternal || analysisOff())
    return Rc;
  // A returned join is a happens-before edge: everything the joined thread
  // did is ordered before the joiner's next step. Without the J line the
  // race detector reports false positives on join-synchronized accesses.
  ThreadSlot *T = selfSlot();
  State->lock();
  auto It = State->JoinHandles.find(Thread);
  if (It != State->JoinHandles.end()) {
    uint64_t Child = It->second;
    State->JoinHandles.erase(It);
    if (State->Trace)
      fprintf(State->Trace, "J %" PRIu64 " %" PRIu64 "\n", T->Tid, Child);
    if (State->Ring)
      ringEmit(dlf::ring::RecordKind::Join, T->Tid, Child, 0);
  }
  State->unlock();
  return Rc;
}

// Shared-memory access hooks for the race detector. Programs (or test
// fixtures) declare these weak and call them around interesting accesses;
// without the preload library the weak reference is null and the calls are
// skipped, so instrumented code runs unmodified everywhere. No-ops unless
// both DLF_PRELOAD_TRACE and DLF_TRACE_ACCESSES are set.

void dlf_trace_read(const void *Addr, const char *Site) {
  recordAccess(Addr, Site, /*IsWrite=*/false, __builtin_return_address(0));
}

void dlf_trace_write(const void *Addr, const char *Site) {
  recordAccess(Addr, Site, /*IsWrite=*/true, __builtin_return_address(0));
}

} // extern "C"

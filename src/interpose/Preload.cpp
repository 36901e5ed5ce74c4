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
// Every wrapper describes its call as one raw capture op (ring::RecordKind:
// kind, thread, pthread object address, call site) and hands it to one
// capture point. Ring-only, that is one ring write with no lock. With a
// text trace or a Phase II cycle, the op runs through the one event model
// (interpose/EventModel.h) under the state lock: its events become the
// trace lines (interpose/TraceFormat.h) and the held stacks Phase II
// searches, and in combined mode the ring gets the same op in the same
// critical section. dlf-observe replays ring records through the same
// model, so every mode names threads and locks alike.
//
// This file is deliberately self-contained (no dependency on libdlf): a
// preload library must not drag in anything that might initialize before
// the dynamic linker is ready.
//
//===----------------------------------------------------------------------===//

#include "event/LockCycle.h" // header-only; keeps the no-libdlf constraint
// The event model and the trace codecs are standard-library only and
// compiled directly into libdlf_preload.so (see src/CMakeLists.txt).
#include "interpose/EventModel.h"
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

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

namespace {

using dlf::LockMode;
using dlf::interpose::EventModel;
using dlf::interpose::EventSink;
using dlf::interpose::TraceLine;
using dlf::ring::RecordKind;

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

// -- Shared state ------------------------------------------------------------------

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
  std::string Abs; ///< "<site>#<n>", named by the event model
  bool Live = false;
  /// Held locks, kept from the model's acquire/release events.
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

void onModelEvent(const TraceLine &E);

/// All global state; created by the library constructor. Internal locking
/// uses RealLock directly, so the interposition never recurses.
struct GlobalState {
  pthread_mutex_t Mu = PTHREAD_MUTEX_INITIALIZER;
  FILE *Trace = nullptr;
  bool TraceAccesses = false;
  /// Shared-memory event transport (DLF_RING); null when not requested.
  dlf::ring::RingWriter *Ring = nullptr;
  /// Ring with neither text trace nor Phase II cycle: the hot path takes
  /// no lock and runs no model — one ring write per event.
  bool RingOnly = false;
  std::vector<dlf::interpose::CycleSpecComponent> Cycle;
  unsigned PauseMs = 200;

  uint64_t NextTid = 1;
  /// Indexed by tid - 1: tids are handed out in registration order.
  std::vector<ThreadSlot *> Threads;
  /// pthread_create handle -> our tid, consumed by the pthread_join
  /// interposition to emit the J (join happens-before) edge.
  std::unordered_map<pthread_t, uint64_t> JoinHandles;

  /// The one event model; applied under Mu unless ring-only.
  EventModel Model;
  const EventSink Sink = onModelEvent;
  /// Reused for every trace line: the text path allocates nothing per line.
  std::string Line;

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

/// A wrapper captures when the library is initialized, the call is not
/// the preload's own internal locking, and some mode (text trace, Phase II
/// cycle, ring) wants events; otherwise it is a pure passthrough.
bool observing() {
  return State && !InInternal &&
         (State->Trace || !State->Cycle.empty() || State->Ring);
}

uint64_t addrOf(const void *P) { return reinterpret_cast<uintptr_t>(P); }

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
void ringEmit(RecordKind Kind, uint64_t Tid, uint64_t Addr, uint32_t Site) {
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
/// under the hood — callers cache); 0 without a ring.
uint32_t ringInternString(const char *Site) {
  if (!State->Ring)
    return 0;
  InternalGuard G;
  return State->Ring->internSite(Site);
}

// -- Sites ---------------------------------------------------------------------------

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

/// One call site: its text and its ring string id (0 without a ring).
struct SiteRef {
  std::string Text;
  uint32_t RingId = 0;
};

/// Per-thread return address -> site cache, shared by every mode: dladdr,
/// snprintf and interning run once per site and thread, and the steady
/// state is one hash lookup without a lock. A raw pointer, so no TLS
/// destructor can free it under a wrapper reached from a later thread-exit
/// destructor; the trampoline frees it when the thread routine returns.
thread_local std::unordered_map<void *, SiteRef> *Sites;

const SiteRef &siteOf(void *CallerAddr) {
  if (!Sites)
    Sites = new std::unordered_map<void *, SiteRef>();
  auto [It, Fresh] = Sites->try_emplace(CallerAddr);
  if (Fresh) {
    It->second.Text = resolveSite(CallerAddr);
    It->second.RingId = ringInternString(It->second.Text.c_str());
  }
  return It->second;
}

// -- The capture point ---------------------------------------------------------------

/// The model's sink (state lock held): the event's trace line, then its
/// effect on the thread registry — a new thread's name and the held
/// stacks that Phase II and the blocked-acquire check search.
void onModelEvent(const TraceLine &E) {
  using K = dlf::analysis::TraceEvent::Kind;
  if (State->Trace) {
    State->Line.clear();
    dlf::interpose::appendTraceLine(E, State->Line);
    fwrite(State->Line.data(), 1, State->Line.size(), State->Trace);
  }
  // Tids are dense from 1 in registration order (GlobalState::Threads).
  auto Slot = [&] { return State->Threads[E.A - 1]; };
  switch (E.K) {
  case K::ThreadNew:
    Slot()->Abs = E.Text;
    break;
  case K::Acquire:
  case K::SharedAcquire:
    Slot()->Stack.push_back(
        {E.B, std::string(E.Text), modeOf(E.K == K::SharedAcquire)});
    break;
  case K::Release:
  case K::SharedRelease: {
    std::vector<HeldEntry> &Stack = Slot()->Stack;
    for (size_t I = Stack.size(); I-- > 0;) {
      if (Stack[I].Lock == E.B) {
        Stack.erase(Stack.begin() + static_cast<long>(I));
        break;
      }
    }
    break;
  }
  default:
    break;
  }
}

/// The one emit point: every wrapper hands its raw op here (through
/// capture, or directly when it already holds the state lock).
///
/// Ring-only, the op is one ring write and nothing else — no lock, no
/// model; the first-sight ops are not written, so a ring-only capture sees
/// a lock first at its grant (TraceFormat.h). Otherwise the caller holds
/// the state lock and the op runs through the model, whose events become
/// trace lines and held-stack updates (onModelEvent); in combined mode the
/// ring gets the op in the same critical section, so replaying the ring
/// through the same model yields the text trace. Ops the model reports as
/// no-ops change nothing and are not written. Returns the model's verdict
/// (EventModel::apply); always true ring-only.
bool captureLocked(RecordKind Kind, uint64_t Tid, uint64_t Addr,
                   std::string_view Site = {}, uint32_t SiteId = 0) {
  if (State->RingOnly) {
    if (Kind != RecordKind::LockSeen && Kind != RecordKind::CondSeen)
      ringEmit(Kind, Tid, Addr, SiteId);
    return true;
  }
  bool Applied = State->Model.apply({Kind, Tid, Addr, Site}, State->Sink);
  if (Applied && State->Ring)
    ringEmit(Kind, Tid, Addr, SiteId);
  return Applied;
}

/// captureLocked, taking the state lock unless ring-only.
bool capture(RecordKind Kind, uint64_t Tid, uint64_t Addr,
             std::string_view Site = {}, uint32_t SiteId = 0) {
  if (State->RingOnly)
    return captureLocked(Kind, Tid, Addr, Site, SiteId);
  State->lock();
  bool Applied = captureLocked(Kind, Tid, Addr, Site, SiteId);
  State->unlock();
  return Applied;
}

ThreadSlot *selfSlot() {
  if (Self)
    return Self;
  // Unregistered thread (the main thread, or one created before we were
  // loaded): register with a synthetic site.
  State->lock();
  auto *Slot = new ThreadSlot();
  Slot->Tid = State->NextTid++;
  Slot->Live = true;
  State->Threads.push_back(Slot);
  const char *Base = Slot->Tid == 1 ? "main" : "unknown-thread";
  captureLocked(RecordKind::ThreadSelf, Slot->Tid, 0, Base,
                ringInternString(Base));
  State->unlock();
  Self = Slot;
  return Slot;
}

/// capture() of the calling thread's op on \p Obj at its call site.
void captureCall(RecordKind Kind, const void *Obj, void *CallerAddr) {
  uint64_t Tid = selfSlot()->Tid;
  const SiteRef &S = siteOf(CallerAddr);
  capture(Kind, Tid, addrOf(Obj), S.Text, S.RingId);
}

// -- Cycle matching (Phase II) -------------------------------------------------------

bool matchesComponent(const ThreadSlot &T, const std::string &LockAbs,
                      const std::string &PendingSite) {
  for (const dlf::interpose::CycleSpecComponent &C : State->Cycle) {
    if (C.ThreadAbs != T.Abs || C.LockAbs != LockAbs)
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
  // An operator that wants metrics from the traced program points
  // DLF_METRICS_SIDECAR at a file; the shutdown hook dumps there.
  if (getenv(dlf::telemetry::SidecarEnvVar))
    dlf::telemetry::setEnabled(true);
  if (const char *Path = getenv(dlf::interpose::TraceEnvVar)) {
    State->Trace = fopen(Path, "w");
    if (State->Trace)
      fputs(dlf::interpose::TraceHeader, State->Trace);
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

/// Algorithm 3's pause: register the wait-for edge, then sleep in slices
/// watching for the cycle to physically form around us; give up after the
/// budget (thrash / livelock-monitor analogue).
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

/// Acquire protocol of pthread_mutex_lock and the blocking rwlock sides.
/// Ring-only: block, then one ring write for the grant. Otherwise the lock
/// is seen at the attempt (LockSeen), Algorithm 3 pauses an attempt that
/// matches a cycle component, a busy lock registers the wait-for edge and
/// checks for a completed deadlock before blocking, and the grant is
/// captured last. A mutex the thread already owns (\p MayRecurse) is
/// re-entered without any of that: invisible to the analysis (footnote 2).
template <typename TryFn, typename BlockFn>
int acquireCaptured(RecordKind Kind, const void *Lock, bool MayRecurse,
                    void *CallerAddr, TryFn Try, BlockFn Block) {
  ThreadSlot *T = selfSlot();
  const SiteRef &Site = siteOf(CallerAddr);
  uint64_t Addr = addrOf(Lock);
  if (State->RingOnly) {
    int Rc = Block();
    if (Rc == 0)
      captureLocked(Kind, T->Tid, Addr, Site.Text, Site.RingId);
    return Rc;
  }
  if (dlf::telemetry::enabled()) {
    InternalGuard G;
    dlf::telemetry::Registry::global()
        .counter("dlf_preload_acquires_total")
        .inc();
  }

  bool Shared = Kind == RecordKind::SharedAcquire;
  uint64_t LockId;
  bool Reentrant, ShouldPause;
  {
    State->lock();
    captureLocked(RecordKind::LockSeen, 0, Addr, Site.Text, Site.RingId);
    const EventModel::Lock &L = *State->Model.lock(Addr);
    LockId = L.Id;
    Reentrant = MayRecurse && L.OwnerTid == T->Tid;
    ShouldPause = !Reentrant && !State->Cycle.empty() &&
                  matchesComponent(*T, L.Abs, Site.Text);
    State->unlock();
  }

  if (Reentrant) {
    if (int Rc = Block())
      return Rc;
  } else {
    if (ShouldPause)
      pauseAndWatch(T, LockId, Site.Text, Shared);
    if (Try() != 0) {
      registerBlockedAndCheck(T, LockId, Site.Text, Shared);
      if (int Rc = Block()) {
        State->lock();
        T->clearPending();
        State->unlock();
        return Rc;
      }
    }
  }

  State->lock();
  T->clearPending();
  captureLocked(Kind, T->Tid, Addr, Site.Text, Site.RingId);
  State->unlock();
  return 0;
}

/// Shared body of the cond-wait wrappers: cond_wait releases and
/// re-acquires the mutex, so the capture is the release, the real wait,
/// the wakeup edge, then the re-acquire. A timed-out wait (ETIMEDOUT)
/// still re-acquires the mutex — only the V wakeup edge is conditional on
/// a zero return; a mutex whose release the model dropped (never seen
/// acquired) is not re-acquired either. The re-acquire's site is the
/// caller's real wait site, not a synthetic constant, so Phase II contexts
/// match.
template <typename RealWaitFn>
int condWaitCaptured(pthread_cond_t *Cond, pthread_mutex_t *M,
                     void *CallerAddr, RealWaitFn RealWait) {
  uint64_t Tid = selfSlot()->Tid;
  const SiteRef &Site = siteOf(CallerAddr);
  capture(RecordKind::CondSeen, 0, addrOf(Cond));
  bool Held = capture(RecordKind::Release, Tid, addrOf(M));
  int Rc = RealWait();
  if (Rc == 0)
    capture(RecordKind::CondWake, Tid, addrOf(Cond));
  if (Held)
    capture(RecordKind::Acquire, Tid, addrOf(M), Site.Text, Site.RingId);
  return Rc;
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
  // A wrapper reached from a later thread-exit destructor builds a fresh
  // cache, which leaks; that is rare and small.
  delete Sites;
  Sites = nullptr;
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
  RecordKind Kind =
      IsWrite ? RecordKind::AccessWrite : RecordKind::AccessRead;
  if (Site && *Site)
    capture(Kind, selfSlot()->Tid, addrOf(Addr), Site,
            ringInternString(Site));
  else
    captureCall(Kind, Addr, CallerAddr);
}

} // namespace

// -- Interposed entry points ----------------------------------------------------------

// Each wrapper resolves its real function lazily (it can run before our
// constructor, e.g. from the dynamic linker itself) and passes straight
// through unless observing().

extern "C" {

int pthread_mutex_lock(pthread_mutex_t *M) {
  if (!RealLock)
    RealLock = reinterpret_cast<MutexLockFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_lock"));
  if (!observing())
    return RealLock(M);
  return acquireCaptured(
      RecordKind::Acquire, M, /*MayRecurse=*/true, __builtin_return_address(0),
      [M] { return RealTrylock(M); }, [M] { return RealLock(M); });
}

int pthread_mutex_trylock(pthread_mutex_t *M) {
  if (!RealTrylock)
    RealTrylock = reinterpret_cast<MutexTrylockFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_trylock"));
  int Rc = RealTrylock(M);
  // A failed probe: the thread asked and bailed out without blocking — no
  // wait-for edge, no pending registration, just a P line so offline
  // passes can see the attempt happened.
  if (observing())
    captureCall(Rc == 0 ? RecordKind::Acquire : RecordKind::TryProbe, M,
                __builtin_return_address(0));
  return Rc;
}

int pthread_mutex_unlock(pthread_mutex_t *M) {
  if (!RealUnlock)
    RealUnlock = reinterpret_cast<MutexUnlockFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_unlock"));
  // Source side: captured before the real unlock so a dependent acquire
  // can never be sequenced before its release.
  if (observing())
    capture(RecordKind::Release, selfSlot()->Tid, addrOf(M));
  return RealUnlock(M);
}

int pthread_mutex_destroy(pthread_mutex_t *M) {
  if (!RealDestroy)
    RealDestroy = reinterpret_cast<MutexDestroyFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_destroy"));
  if (observing())
    capture(RecordKind::LockDestroy, 0, addrOf(M));
  return RealDestroy(M);
}

int pthread_cond_wait(pthread_cond_t *Cond, pthread_mutex_t *M) {
  if (!RealCondWait)
    RealCondWait = reinterpret_cast<CondWaitFn>(
        dlsym(RTLD_NEXT, "pthread_cond_wait"));
  if (!observing())
    return RealCondWait(Cond, M);
  return condWaitCaptured(Cond, M, __builtin_return_address(0),
                          [&] { return RealCondWait(Cond, M); });
}

int pthread_cond_timedwait(pthread_cond_t *Cond, pthread_mutex_t *M,
                           const struct timespec *Abstime) {
  if (!RealCondTimedwait)
    RealCondTimedwait = reinterpret_cast<CondTimedwaitFn>(
        dlsym(RTLD_NEXT, "pthread_cond_timedwait"));
  if (!observing())
    return RealCondTimedwait(Cond, M, Abstime);
  return condWaitCaptured(
      Cond, M, __builtin_return_address(0),
      [&] { return RealCondTimedwait(Cond, M, Abstime); });
}

// Notifies are captured *before* the real call so a woken waiter's V line
// can never precede its N source.

int pthread_cond_signal(pthread_cond_t *Cond) {
  if (!RealCondSignal)
    RealCondSignal = reinterpret_cast<CondNotifyFn>(
        dlsym(RTLD_NEXT, "pthread_cond_signal"));
  if (observing())
    capture(RecordKind::CondNotify, selfSlot()->Tid, addrOf(Cond));
  return RealCondSignal(Cond);
}

int pthread_cond_broadcast(pthread_cond_t *Cond) {
  if (!RealCondBroadcast)
    RealCondBroadcast = reinterpret_cast<CondNotifyFn>(
        dlsym(RTLD_NEXT, "pthread_cond_broadcast"));
  if (observing())
    capture(RecordKind::CondNotify, selfSlot()->Tid, addrOf(Cond));
  return RealCondBroadcast(Cond);
}

int pthread_rwlock_rdlock(pthread_rwlock_t *RW) {
  if (!RealRdlock)
    RealRdlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_rdlock"));
  if (!observing())
    return RealRdlock(RW);
  return acquireCaptured(
      RecordKind::SharedAcquire, RW, /*MayRecurse=*/false,
      __builtin_return_address(0), [RW] { return RealTryRdlock(RW); },
      [RW] { return RealRdlock(RW); });
}

int pthread_rwlock_wrlock(pthread_rwlock_t *RW) {
  if (!RealWrlock)
    RealWrlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_wrlock"));
  if (!observing())
    return RealWrlock(RW);
  return acquireCaptured(
      RecordKind::Acquire, RW, /*MayRecurse=*/false,
      __builtin_return_address(0), [RW] { return RealTryWrlock(RW); },
      [RW] { return RealWrlock(RW); });
}

int pthread_rwlock_tryrdlock(pthread_rwlock_t *RW) {
  if (!RealTryRdlock)
    RealTryRdlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_tryrdlock"));
  int Rc = RealTryRdlock(RW);
  if (observing())
    captureCall(Rc == 0 ? RecordKind::SharedAcquire : RecordKind::TryProbe,
                RW, __builtin_return_address(0));
  return Rc;
}

int pthread_rwlock_trywrlock(pthread_rwlock_t *RW) {
  if (!RealTryWrlock)
    RealTryWrlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_trywrlock"));
  int Rc = RealTryWrlock(RW);
  if (observing())
    captureCall(Rc == 0 ? RecordKind::Acquire : RecordKind::TryProbe, RW,
                __builtin_return_address(0));
  return Rc;
}

int pthread_rwlock_unlock(pthread_rwlock_t *RW) {
  if (!RealRwUnlock)
    RealRwUnlock = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_unlock"));
  // The model resolves which side this releases.
  if (observing())
    capture(RecordKind::RwUnlock, selfSlot()->Tid, addrOf(RW));
  return RealRwUnlock(RW);
}

int pthread_rwlock_destroy(pthread_rwlock_t *RW) {
  if (!RealRwDestroy)
    RealRwDestroy = reinterpret_cast<RwlockOpFn>(
        dlsym(RTLD_NEXT, "pthread_rwlock_destroy"));
  if (observing())
    capture(RecordKind::LockDestroy, 0, addrOf(RW));
  return RealRwDestroy(RW);
}

int pthread_create(pthread_t *Thread, const pthread_attr_t *Attr,
                   void *(*Routine)(void *), void *Arg) {
  if (!RealCreate)
    RealCreate = reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT,
                                                  "pthread_create"));
  if (!observing())
    return RealCreate(Thread, Attr, Routine, Arg);

  // Even in ring-only mode thread creation takes the state lock: the
  // child's tid must be allocated centrally, and creates are rare enough
  // that the lock does not matter here.
  ThreadSlot *Parent = selfSlot(); // register the creator (e.g. main)
  const SiteRef &Site = siteOf(__builtin_return_address(0));
  State->lock();
  auto *Slot = new ThreadSlot();
  Slot->Tid = State->NextTid++;
  State->Threads.push_back(Slot);
  captureLocked(RecordKind::ThreadFork, Parent->Tid, Slot->Tid, Site.Text,
                Site.RingId);
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
  if (Rc != 0 || !observing())
    return Rc;
  // A returned join is a happens-before edge: everything the joined thread
  // did is ordered before the joiner's next step. Without the J line the
  // race detector reports false positives on join-synchronized accesses.
  ThreadSlot *T = selfSlot();
  State->lock();
  auto It = State->JoinHandles.find(Thread);
  if (It != State->JoinHandles.end()) {
    captureLocked(RecordKind::Join, T->Tid, It->second);
    State->JoinHandles.erase(It);
  }
  State->unlock();
  return Rc;
}

// Shared-memory access hooks for the race detector. Programs (or test
// fixtures) declare these weak and call them around interesting accesses;
// without the preload library the weak reference is null and the calls are
// skipped, so instrumented code runs unmodified everywhere. No-ops unless
// DLF_TRACE_ACCESSES is set alongside DLF_PRELOAD_TRACE or DLF_RING.

void dlf_trace_read(const void *Addr, const char *Site) {
  recordAccess(Addr, Site, /*IsWrite=*/false, __builtin_return_address(0));
}

void dlf_trace_write(const void *Addr, const char *Site) {
  recordAccess(Addr, Site, /*IsWrite=*/true, __builtin_return_address(0));
}

} // extern "C"

//===- analysis/Predict.cpp - Sync-preserving deadlock prediction -----------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two layers:
//
//  1. TraceIndex — the one walk over the trace (analysis/SyncWalker.h). Its
//     visitor feeds the lock dependency log through LogBuilder's hooks and
//     records, per thread, the ordered list of synchronization events
//     (acquires, releases, wakeups, joins, forks), per lock the
//     critical-section list in trace order, and per dependency entry the
//     first MaxOccurrences acquires that mapped to it, each with its
//     must-order clock at the request.
//
//  2. Per-cycle verdicts — components are matched to dependency entries by
//     the guard pruner's matcher (exact context preferred, loose fallback);
//     their occurrences are merged in trace order and capped. Assignments
//     are enumerated mixed-radix under a cap, and each assignment runs
//     pre-filters (wait-edge modes, then the pruner's common-guard and
//     ordered-pair tests) and then the sync-preserving closure: a fixpoint
//     over per-thread included-prefix lengths. Including an acquire whose
//     critical section conflicts with a later included acquire on the same
//     lock forces its release in; wakeups force their notify; joins force
//     the whole joined thread; any included event of a forked thread forces
//     the fork. Cycle threads' prefixes are fixed at their request event, so
//     a requirement landing past a fixed boundary fails the assignment.
//
// Soundness rests on a trace invariant: conflicting critical sections never
// overlap in the trace (acquire lines are written at grant, both by the
// preload and by the runtime trace recorder). Every closure constraint then
// points forward in trace order, so replaying the included set in trace
// order is a legal schedule ending in the deadlock state. A lock observed
// violating the invariant is marked irregular and conservatively fails any
// closure that touches it.
//
//===----------------------------------------------------------------------===//

#include "analysis/Predict.h"

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/SyncWalker.h"
#include "event/VectorClock.h"
#include "igoodlock/LockDependency.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

namespace dlf {
namespace analysis {

namespace {

constexpr uint32_t NoRelease = std::numeric_limits<uint32_t>::max();

/// Concrete acquires tried per cycle component: the first in trace order.
constexpr size_t MaxOccurrences = 8;

/// One per-thread synchronization event, in program order.
struct IndexedEvent {
  enum Kind : uint8_t {
    Acquire,   ///< Lock/Cs valid; mode lives on the critical section
    Release,   ///< Lock/Cs valid
    Wake,      ///< Src* = the notify this wakeup consumed (when recorded)
    JoinEdge,  ///< Src* = joined thread and its full event count
    Notify,    ///< occupies an ordinal so wakeups can require it; no action
    ForkChild, ///< occupies an ordinal so children can require it; no action
  };
  Kind K = Acquire;
  uint32_t Lock = 0;
  uint32_t Cs = 0;
  uint32_t SrcThread = 0;
  uint32_t SrcCount = 0; ///< required included-event count of SrcThread
  bool HasSrc = false;
};

/// One critical section of one lock.
struct CritSec {
  uint64_t AcqIdx = 0; ///< global trace position of the acquire (order key)
  uint32_t Thread = 0; ///< dense owner
  uint32_t AcqOrd = 0; ///< ordinal of the acquire in the owner's event list
  uint32_t RelOrd = NoRelease;
  LockMode Mode = LockMode::Exclusive;
};

/// One concrete acquire. Its mode, held set and context are its dependency
/// entry's: both are read off the walker before it applies the acquire,
/// and the entry's dedup key covers all three.
struct Occurrence {
  uint32_t Thread = 0; ///< dense
  uint32_t Ord = 0;    ///< ordinal of the acquire event (= the fixed prefix)
  uint64_t Pos = 0;    ///< global trace position (merge order)
  size_t Entry = 0;    ///< index into the dependency log's entries
  VectorClock Clock;   ///< must-order clock at the request
};

struct PerThread {
  std::vector<IndexedEvent> Evs;
  bool HasParent = false;
  uint32_t Parent = 0;
  uint32_t ParentCount = 0; ///< parent events up to and including the fork
};

struct PerLock {
  std::vector<CritSec> CSes; ///< in trace acquire order
  /// Conflicting critical sections overlapped in the trace (grant-order
  /// invariant violated): closures touching this lock fail conservatively.
  bool Irregular = false;
};

/// The walk output (layer 1). Threads and locks are indexed by the
/// walker's dense ids.
class TraceIndex {
public:
  explicit TraceIndex(const TraceFile &Trace);

  /// Clocks carry MUST-order edges only: fork, join, notify->wake. The
  /// observed release->acquire order is deliberately NOT joined — it is a
  /// schedule artifact that a sync-preserving reordering may undo whenever
  /// the consuming critical section is left out of the witness; the
  /// closure enforces lock ordering precisely where it is load-bearing.
  /// The dependency log, and so the guard pruner, reads the same clocks.
  SyncWalker Walk{SyncOrder::MustOrder};
  LockDependencyLog Log;
  std::vector<PerThread> Threads;
  std::vector<PerLock> Locks;
  /// Per dependency entry, its first MaxOccurrences acquires in trace
  /// order. The first MaxOccurrences of a union of entries are among
  /// these, so no component loses a candidate.
  std::vector<std::vector<Occurrence>> Occs;
};

/// Feeds the dependency log and builds the per-thread event lists,
/// critical sections and occurrences from the same walk; holds the
/// walk-only state discarded after construction.
struct IndexVisitor : LogVisitor {
  TraceIndex &Ix;
  // Per (thread, lock): open critical-section indices, innermost last.
  std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> OpenCs;
  // Per lock: currently open conflict state for the overlap check.
  std::vector<uint32_t> OpenExcl; // count of open exclusive CSes
  std::vector<uint32_t> OpenShared;
  /// Per condvar: the Wake event a wakeup records, naming the last notify.
  std::unordered_map<uint64_t, IndexedEvent> WakeByCond;

  explicit IndexVisitor(TraceIndex &Ix) : LogVisitor(Ix.Walk, Ix.Log), Ix(Ix) {}

  std::vector<IndexedEvent> &evs(uint32_t T) { return Ix.Threads[T].Evs; }

  void threadNew(uint32_t T) {
    LogVisitor::threadNew(T);
    if (Ix.Threads.size() <= T) {
      Ix.Threads.resize(T + 1);
      OpenCs.resize(T + 1);
    }
  }
  void lockNew(uint32_t L) {
    LogVisitor::lockNew(L);
    if (Ix.Locks.size() <= L) {
      Ix.Locks.resize(L + 1);
      OpenExcl.resize(L + 1, 0);
      OpenShared.resize(L + 1, 0);
    }
  }
  void fork(uint32_t P, uint32_t C) {
    evs(P).push_back({IndexedEvent::ForkChild, 0, 0, C});
    Ix.Threads[C].HasParent = true;
    Ix.Threads[C].Parent = P;
    Ix.Threads[C].ParentCount = static_cast<uint32_t>(evs(P).size());
  }
  void join(uint32_t J, uint32_t T) {
    auto Count = static_cast<uint32_t>(evs(T).size());
    evs(J).push_back({IndexedEvent::JoinEdge, 0, 0, T, Count, true});
  }
  void acquire(uint32_t T, uint32_t L, Label Site, LockMode Mode) {
    size_t Entry = LogVisitor::acquire(T, L, Site, Mode);
    bool Shared = Mode == LockMode::Shared;
    // Grant-order invariant check: a conflicting critical section open at
    // this acquire means the trace interleaves conflicting holds.
    if (OpenExcl[L] != 0 || (!Shared && OpenShared[L] != 0))
      Ix.Locks[L].Irregular = true;

    auto Ord = static_cast<uint32_t>(evs(T).size());
    if (Entry == Ix.Occs.size())
      Ix.Occs.emplace_back();
    std::vector<Occurrence> &Occs = Ix.Occs[Entry];
    if (Occs.size() < MaxOccurrences)
      Occs.push_back({T, Ord, W.eventsSeen(), Entry, W.thread(T).Clock});

    auto CsIdx = static_cast<uint32_t>(Ix.Locks[L].CSes.size());
    Ix.Locks[L].CSes.push_back({W.eventsSeen(), T, Ord, NoRelease, Mode});
    OpenCs[T][L].push_back(CsIdx);
    ++(Shared ? OpenShared[L] : OpenExcl[L]);

    evs(T).push_back({IndexedEvent::Acquire, L, CsIdx});
  }
  void release(uint32_t T, const TraceEvent &E, bool Held) {
    if (!Held)
      return; // release without a recorded acquire: ignore
    uint32_t L = W.findLock(E.B);
    std::vector<uint32_t> &Open = OpenCs[T][L];
    uint32_t CsIdx = Open.back();
    Open.pop_back();
    CritSec &Cs = Ix.Locks[L].CSes[CsIdx];
    Cs.RelOrd = static_cast<uint32_t>(evs(T).size());
    --(Cs.Mode == LockMode::Shared ? OpenShared[L] : OpenExcl[L]);
    evs(T).push_back({IndexedEvent::Release, L, CsIdx});
  }
  void notify(uint32_t T, uint64_t Cond) {
    evs(T).push_back({IndexedEvent::Notify});
    auto Count = static_cast<uint32_t>(evs(T).size());
    WakeByCond[Cond] = {IndexedEvent::Wake, 0, 0, T, Count, true};
  }
  void wake(uint32_t T, uint64_t Cond) {
    auto It = WakeByCond.find(Cond);
    evs(T).push_back(It != WakeByCond.end() ? It->second
                                             : IndexedEvent{IndexedEvent::Wake});
  }
};

TraceIndex::TraceIndex(const TraceFile &Trace) {
  IndexVisitor V(*this);
  for (const TraceEvent &E : Trace.Events)
    Walk.step(E, V);
}

/// The sync-preserving closure over one candidate assignment (layer 2).
/// Scratch buffers are reused across assignments and cycles.
class ClosureState {
public:
  explicit ClosureState(const TraceIndex &Ix) : Ix(Ix) {
    End.resize(Ix.Threads.size(), 0);
    Scanned.resize(Ix.Threads.size(), 0);
    Fixed.resize(Ix.Threads.size(), 0);
    InWork.resize(Ix.Threads.size(), 0);
    Sweeps.resize(Ix.Locks.size());
  }

  /// Runs the fixpoint for the cycle occurrences in \p Picks. On success
  /// returns true and sets \p WitnessEvents to the included-event count.
  bool run(const std::vector<const Occurrence *> &Picks,
           uint64_t &WitnessEvents) {
    reset();
    for (const Occurrence *O : Picks) {
      End[O->Thread] = O->Ord;
      Fixed[O->Thread] = 1;
    }
    for (const Occurrence *O : Picks) {
      push(O->Thread);
      requireExists(O->Thread);
    }
    while (!Work.empty() && !Failed) {
      uint32_t U = Work.back();
      Work.pop_back();
      InWork[U] = 0;
      scan(U);
    }
    if (Failed)
      return false;
    WitnessEvents = 0;
    for (uint32_t E : End)
      WitnessEvents += E;
    return true;
  }

private:
  struct Sweep {
    uint64_t MaxAll = 0;  ///< max AcqIdx over included acquires (any mode)
    uint64_t MaxExcl = 0; ///< max AcqIdx over included exclusive acquires
    uint32_t PAll = 0;    ///< sweep cursor under MaxExcl (closes any mode)
    uint32_t PExcl = 0;   ///< sweep cursor under MaxAll (closes exclusives)
    bool HasAll = false;
    bool HasExcl = false;
  };

  void reset() {
    Failed = false;
    for (uint32_t T : Touched) {
      End[T] = 0;
      Scanned[T] = 0;
      Fixed[T] = 0;
      InWork[T] = 0;
    }
    Touched.clear();
    for (uint32_t L : TouchedLocks)
      Sweeps[L] = Sweep();
    TouchedLocks.clear();
    Work.clear();
  }

  void push(uint32_t U) {
    touch(U);
    if (!InWork[U]) {
      InWork[U] = 1;
      Work.push_back(U);
    }
  }

  void touch(uint32_t U) {
    // Touched may hold duplicates; reset() clearing twice is harmless.
    Touched.push_back(U);
  }

  /// Demands that the first \p Count events of thread \p U be included.
  void require(uint32_t U, uint32_t Count) {
    touch(U);
    if (End[U] >= Count)
      return;
    if (Fixed[U]) {
      Failed = true;
      return;
    }
    bool WasEmpty = End[U] == 0;
    End[U] = Count;
    push(U);
    if (WasEmpty)
      requireExists(U);
  }

  /// A thread with included events (or a fixed cycle thread) must exist:
  /// its creating fork must be included in the parent.
  void requireExists(uint32_t U) {
    if (Ix.Threads[U].HasParent)
      require(Ix.Threads[U].Parent, Ix.Threads[U].ParentCount);
  }

  void requireClose(const CritSec &Cs) {
    if (Cs.RelOrd == NoRelease) {
      Failed = true; // never released in the trace: cannot be closed
      return;
    }
    require(Cs.Thread, Cs.RelOrd + 1);
  }

  bool included(const CritSec &Cs) const {
    return Cs.AcqOrd < End[Cs.Thread];
  }

  void scan(uint32_t U) {
    // End[U] can grow while scanning (a rule may require U's own release),
    // so the bound is re-read each step.
    while (Scanned[U] < End[U] && !Failed) {
      const IndexedEvent &Ev = Ix.Threads[U].Evs[Scanned[U]];
      ++Scanned[U];
      switch (Ev.K) {
      case IndexedEvent::Acquire:
        onAcquire(Ev);
        break;
      case IndexedEvent::Wake:
      case IndexedEvent::JoinEdge:
        if (Ev.HasSrc)
          require(Ev.SrcThread, Ev.SrcCount);
        break;
      case IndexedEvent::Release:
      case IndexedEvent::Notify:
      case IndexedEvent::ForkChild:
        break;
      }
    }
  }

  void onAcquire(const IndexedEvent &Ev) {
    const PerLock &PL = Ix.Locks[Ev.Lock];
    if (PL.Irregular) {
      Failed = true; // grant-order invariant broken; stay conservative
      return;
    }
    const CritSec &Cs = PL.CSes[Ev.Cs];
    Sweep &S = Sweeps[Ev.Lock];
    touchLock(Ev.Lock);
    // Rule 2: an already-included conflicting acquire later in the trace
    // means this critical section must close before it (trace order is the
    // witness order), so its release joins the witness.
    bool ConflictLater = Cs.Mode == LockMode::Exclusive
                             ? (S.HasAll && S.MaxAll > Cs.AcqIdx)
                             : (S.HasExcl && S.MaxExcl > Cs.AcqIdx);
    if (ConflictLater)
      requireClose(Cs);
    if (!S.HasAll || Cs.AcqIdx > S.MaxAll) {
      S.MaxAll = Cs.AcqIdx;
      S.HasAll = true;
    }
    if (Cs.Mode == LockMode::Exclusive &&
        (!S.HasExcl || Cs.AcqIdx > S.MaxExcl)) {
      S.MaxExcl = Cs.AcqIdx;
      S.HasExcl = true;
    }
    // Rule 1, as two monotone sweeps over the lock's trace-ordered CS list:
    // an included exclusive acquire closes every earlier included critical
    // section; an included acquire of any mode closes earlier included
    // exclusive ones. Sections not yet included when a cursor passes are
    // caught by rule 2 at their own inclusion.
    const std::vector<CritSec> &CSes = PL.CSes;
    if (S.HasExcl)
      while (S.PAll < CSes.size() && CSes[S.PAll].AcqIdx < S.MaxExcl) {
        if (included(CSes[S.PAll]))
          requireClose(CSes[S.PAll]);
        ++S.PAll;
      }
    while (S.PExcl < CSes.size() && CSes[S.PExcl].AcqIdx < S.MaxAll) {
      if (CSes[S.PExcl].Mode == LockMode::Exclusive &&
          included(CSes[S.PExcl]))
        requireClose(CSes[S.PExcl]);
      ++S.PExcl;
    }
  }

  void touchLock(uint32_t L) { TouchedLocks.push_back(L); }

  const TraceIndex &Ix;
  std::vector<uint32_t> End;
  std::vector<uint32_t> Scanned;
  std::vector<uint8_t> Fixed;
  std::vector<uint8_t> InWork;
  std::vector<uint32_t> Work;
  std::vector<Sweep> Sweeps;
  std::vector<uint32_t> Touched;
  std::vector<uint32_t> TouchedLocks;
  bool Failed = false;
};

/// The candidates for one component: the occurrences of the entries the
/// pruner's matcher picks, merged in trace order, first MaxOccurrences.
std::vector<const Occurrence *> candidates(const TraceIndex &Ix,
                                           const CycleComponent &Comp) {
  std::vector<const Occurrence *> Out;
  for (size_t E : matchComponent(Ix.Log.entries(), Comp))
    for (const Occurrence &O : Ix.Occs[E])
      Out.push_back(&O);
  std::sort(Out.begin(), Out.end(),
            [](const Occurrence *A, const Occurrence *B) {
              return A->Pos < B->Pos;
            });
  if (Out.size() > MaxOccurrences)
    Out.resize(MaxOccurrences);
  return Out;
}

CyclePrediction unconfirmed(std::string Reason) {
  CyclePrediction P;
  P.Verdict = PredictVerdict::Unconfirmed;
  P.Reason = std::move(Reason);
  return P;
}

/// Verdict for one cycle: a pure function of (index, cycle).
CyclePrediction evaluateOne(const TraceIndex &Ix, const AbstractCycle &Cycle,
                            ClosureState &Closure, uint64_t &AssignmentsTried) {
  const std::vector<CycleComponent> &Comps = Cycle.Components;
  const size_t M = Comps.size();
  if (M < 2)
    return unconfirmed("single-thread");
  {
    std::unordered_set<uint64_t> Distinct;
    for (const CycleComponent &C : Comps)
      if (!Distinct.insert(C.Thread.Raw).second)
        return unconfirmed("single-thread");
  }

  std::vector<std::vector<const Occurrence *>> PerComp;
  PerComp.reserve(M);
  for (const CycleComponent &C : Comps) {
    PerComp.push_back(candidates(Ix, C));
    if (PerComp.back().empty())
      return unconfirmed("no-witness");
  }

  // Mixed-radix assignment space, saturated at the cap.
  uint64_t Total = 1;
  bool Capped = false;
  for (const std::vector<const Occurrence *> &P : PerComp) {
    if (Total > AssignmentCap / P.size()) {
      Capped = true;
      Total = AssignmentCap;
      break;
    }
    Total *= P.size();
  }

  const std::vector<DependencyEntry> &Entries = Ix.Log.entries();
  bool SawGuard = false;
  std::string GuardName;
  bool SawOrdered = false;
  bool SawSyncViol = false;
  std::vector<const Occurrence *> Picks(M);
  std::vector<size_t> PickEntries(M);
  std::vector<const VectorClock *> Clocks(M);
  for (uint64_t A = 0; A != Total; ++A) {
    ++AssignmentsTried;
    uint64_t Rest = A;
    for (size_t I = 0; I != M; ++I) {
      Picks[I] = PerComp[I][Rest % PerComp[I].size()];
      PickEntries[I] = Picks[I]->Entry;
      Clocks[I] = &Picks[I]->Clock;
      Rest /= PerComp[I].size();
    }

    // Wait-edge check: component i's request must block on the next
    // component's hold of that lock, mode-aware.
    bool EdgesOk = true;
    for (size_t I = 0; I != M && EdgesOk; ++I) {
      const DependencyEntry &Next = Entries[PickEntries[(I + 1) % M]];
      LockMode Requested = Entries[PickEntries[I]].AcquiredMode;
      EdgesOk = false;
      for (size_t K = 0; K != Next.Held.size() && !EdgesOk; ++K)
        EdgesOk = Next.Held[K] == Comps[I].Lock &&
                  lockModesConflict(Requested, Next.HeldModes[K]);
    }
    if (!EdgesOk)
      continue;

    // The pruner's discharges, per assignment: the first guarded
    // assignment names the guard.
    LockId Guard;
    if (findCommonGuard(Entries, PickEntries, Guard)) {
      SawGuard = true;
      if (GuardName.empty())
        GuardName = Ix.Log.lockInfo(Guard).Name;
      continue;
    }
    if (hasOrderedPair(Clocks)) {
      SawOrdered = true;
      continue;
    }

    uint64_t WitnessEvents = 0;
    if (Closure.run(Picks, WitnessEvents)) {
      CyclePrediction P;
      P.Verdict = PredictVerdict::Sound;
      P.WitnessEvents = WitnessEvents;
      return P;
    }
    SawSyncViol = true;
  }

  if (SawGuard)
    return unconfirmed("guarded (guard lock: " + GuardName + ")");
  if (SawOrdered)
    return unconfirmed("hb-ordered");
  if (SawSyncViol)
    return unconfirmed("sync-order");
  if (Capped)
    return unconfirmed("assignment-cap");
  return unconfirmed("no-witness");
}

/// Grades \p Cycles over \p Ix; \p Start is when the caller's walk began.
std::vector<CyclePrediction>
gradeCycles(const TraceIndex &Ix, const std::vector<AbstractCycle> &Cycles,
            std::chrono::steady_clock::time_point Start, PredictStats *Stats) {
  const uint64_t EventsSeen = Ix.Walk.eventsSeen();
  std::vector<CyclePrediction> Out;
  Out.reserve(Cycles.size());
  ClosureState Closure(Ix);
  uint64_t Assignments = 0;
  for (const AbstractCycle &Cycle : Cycles)
    Out.push_back(evaluateOne(Ix, Cycle, Closure, Assignments));

  if (Stats) {
    Stats->EventsSeen = EventsSeen;
    Stats->AcquiresIndexed = Ix.Log.acquireEvents();
    Stats->AssignmentsTried = Assignments;
    Stats->ElapsedMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }
  if (telemetry::enabled()) {
    telemetry::Registry &R = telemetry::Registry::global();
    size_t Sound = 0;
    for (const CyclePrediction &P : Out)
      Sound += P.sound();
    R.counter("dlf_predict_cycles_total").inc(Out.size());
    R.counter("dlf_predict_sound_total").inc(Sound);
    R.counter("dlf_predict_unconfirmed_total").inc(Out.size() - Sound);
    R.counter("dlf_predict_assignments_total").inc(Assignments);
    R.counter("dlf_predict_trace_events_total").inc(EventsSeen);
  }
  return Out;
}

} // namespace

const char *predictVerdictName(PredictVerdict V) {
  return V == PredictVerdict::Sound ? "sound" : "unconfirmed";
}

bool predictVerdictFromName(const std::string &Name, PredictVerdict &Out) {
  if (Name == "sound") {
    Out = PredictVerdict::Sound;
    return true;
  }
  if (Name == "unconfirmed") {
    Out = PredictVerdict::Unconfirmed;
    return true;
  }
  return false;
}

std::string CyclePrediction::label() const {
  if (Verdict == PredictVerdict::Sound)
    return "PREDICTED-SOUND (witness: " + std::to_string(WitnessEvents) +
           " events)";
  return "UNCONFIRMED (" + (Reason.empty() ? "no-witness" : Reason) + ")";
}

std::vector<CyclePrediction>
evaluateCycles(const TraceFile &Trace, const std::vector<AbstractCycle> &Cycles,
               PredictStats *Stats) {
  auto Start = std::chrono::steady_clock::now();
  TraceIndex Ix(Trace);
  return gradeCycles(Ix, Cycles, Start, Stats);
}

size_t PredictAnalysis::soundCount() const {
  size_t N = 0;
  for (const CyclePrediction &P : Predictions)
    N += P.sound();
  return N;
}

namespace {

/// The --predict pipeline after the walk: iGoodlock over the walk's log,
/// then the verdicts.
PredictAnalysis predictOver(const TraceIndex &Ix,
                            const IGoodlockOptions &Closure,
                            std::chrono::steady_clock::time_point Start) {
  PredictAnalysis R;
  IGoodlockOptions ClosureOpts = Closure;
  // Keep guarded cycles: --predict grades every candidate, and UNCONFIRMED
  // (guarded) is exactly the pruner's discharge made visible.
  ClosureOpts.KeepGuardedCycles = true;
  R.Cycles = runIGoodlock(Ix.Log, ClosureOpts, &R.ClosureStats);
  R.DependencyEntries = Ix.Log.entries().size();
  R.AcquireEvents = Ix.Log.acquireEvents();
  R.Predictions = gradeCycles(Ix, R.Cycles, Start, &R.Stats);
  return R;
}

} // namespace

PredictAnalysis predictDeadlocks(const TraceFile &Trace,
                                 const IGoodlockOptions &Closure) {
  auto Start = std::chrono::steady_clock::now();
  TraceIndex Ix(Trace);
  return predictOver(Ix, Closure, Start);
}

PredictAnalysis predictDeadlocks(TraceFile &&Trace,
                                 const IGoodlockOptions &Closure) {
  auto Start = std::chrono::steady_clock::now();
  TraceIndex Ix(Trace);
  // The walk was the trace's last reader. The closure below is the
  // pipeline's memory peak, and the index must live through it, so the
  // events go first.
  std::vector<TraceEvent>().swap(Trace.Events);
  return predictOver(Ix, Closure, Start);
}

void printPredictReport(std::ostream &OS, const char *Tool,
                        const PredictAnalysis &R) {
  size_t Sound = R.soundCount();
  OS << Tool << ": " << R.DependencyEntries << " dependency entries, "
     << R.AcquireEvents << " acquire events, " << R.Cycles.size()
     << " potential deadlock cycle(s)\n";
  OS << "predict: " << Sound << " sound, "
     << (R.Cycles.size() - Sound) << " unconfirmed\n\n";
  for (size_t I = 0; I != R.Cycles.size(); ++I) {
    const AbstractCycle &Cycle = R.Cycles[I];
    OS << "#" << I << " " << Cycle.toString();
    OS << "prediction: " << R.Predictions[I].label() << "\n";
    OS << "cycle-spec: " << cycleSpecOf(Cycle) << "\n\n";
  }
}

} // namespace analysis
} // namespace dlf

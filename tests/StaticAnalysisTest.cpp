//===- tests/StaticAnalysisTest.cpp - Guard pruner + race detector ---------===//
//
// Unit tests for the offline static-analysis passes (src/analysis): cycle
// classification on hand-built dependency logs with hand-set vector
// clocks, the KeepGuardedCycles closure switch that feeds the pruner, and
// the lockset + happens-before race detector, and the one policy all
// three trace analyses share for events naming an undeclared thread.
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/Predict.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using namespace dlf;
using namespace dlf::analysis;

// -- Log construction helpers -------------------------------------------------

/// Hand-builds a LockDependencyLog the way the runtime would: threads and
/// locks registered up front, acquires fed with explicit held stacks and
/// (optionally) clocks.
class LogBuilder {
public:
  LogBuilder &thread(uint64_t Id, VectorClock Clock = {}) {
    ThreadRecord T;
    T.Id = ThreadId(Id);
    T.Name = "t" + std::to_string(Id);
    Clocks[Id] = std::move(Clock);
    Log.onThreadCreated(T);
    return *this;
  }

  LogBuilder &lock(uint64_t Id, const std::string &Name) {
    LockRecord L;
    L.Id = LockId(Id);
    L.Name = Name;
    Log.onLockCreated(L);
    return *this;
  }

  /// Thread \p Tid acquires \p Lid while holding \p Held (in order).
  LogBuilder &acquire(uint64_t Tid, uint64_t Lid,
                      std::vector<uint64_t> Held) {
    std::vector<std::pair<uint64_t, LockMode>> HeldModes;
    for (uint64_t H : Held)
      HeldModes.emplace_back(H, LockMode::Exclusive);
    return acquire(Tid, Lid, std::move(HeldModes), LockMode::Exclusive);
  }

  /// Mode-aware variant: each held entry carries its LockMode and the
  /// acquire itself has one (rwlock read sides record Shared).
  LogBuilder &acquire(uint64_t Tid, uint64_t Lid,
                      std::vector<std::pair<uint64_t, LockMode>> Held,
                      LockMode Mode) {
    ThreadRecord T;
    T.Id = ThreadId(Tid);
    T.Clock = Clocks[Tid];
    LockRecord L;
    L.Id = LockId(Lid);
    std::vector<LockStackEntry> Stack;
    for (const auto &[H, HMode] : Held)
      Stack.push_back({LockId(H), siteOf(Tid, H), HMode});
    Log.onAcquireExecuted(T, L, Stack, siteOf(Tid, Lid), Mode);
    return *this;
  }

  const LockDependencyLog &log() const { return Log; }

private:
  /// Stable, distinct acquire sites per (thread, lock).
  static Label siteOf(uint64_t Tid, uint64_t Lid) {
    return Label::intern("t" + std::to_string(Tid) + "/acq" +
                         std::to_string(Lid));
  }

  LockDependencyLog Log;
  std::unordered_map<uint64_t, VectorClock> Clocks;
};

std::vector<AbstractCycle> closure(const LockDependencyLog &Log,
                                   bool KeepGuarded) {
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = KeepGuarded;
  return runIGoodlock(Log, Opts);
}

/// The gate-lock pattern: t1 takes a->b, t2 takes b->a, both under g.
LogBuilder gatePattern() {
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(10, "gate").lock(11, "a").lock(12, "b");
  B.acquire(1, 11, {10}).acquire(1, 12, {10, 11});
  B.acquire(2, 12, {10}).acquire(2, 11, {10, 12});
  return B;
}

// -- Closure: KeepGuardedCycles ----------------------------------------------

TEST(KeepGuardedCycles, DefaultClosureDiscardsGuardedCycle) {
  LogBuilder B = gatePattern();
  EXPECT_EQ(closure(B.log(), false).size(), 0u)
      << "held-set disjointness must reject the gate-protected inversion";
}

TEST(KeepGuardedCycles, OptionSurfacesGuardedCycle) {
  LogBuilder B = gatePattern();
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Components.size(), 2u);
}

TEST(KeepGuardedCycles, UnguardedCyclesIdenticalEitherWay) {
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {11}).acquire(2, 11, {12});
  EXPECT_EQ(closure(B.log(), false).size(), 1u);
  EXPECT_EQ(closure(B.log(), true).size(), 1u);
}

// -- Closure: lock modes ------------------------------------------------------

constexpr LockMode S = LockMode::Shared;
constexpr LockMode X = LockMode::Exclusive;

/// The gate pattern with a chosen mode per hold: both threads hold the
/// gate in \p GateMode and their first table in \p TableMode when they
/// acquire the second table in \p AcqMode.
LogBuilder modedGatePattern(LockMode GateMode, LockMode TableMode,
                            LockMode AcqMode) {
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(10, "gate").lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {{10, GateMode}, {11, TableMode}}, AcqMode);
  B.acquire(2, 11, {{10, GateMode}, {12, TableMode}}, AcqMode);
  return B;
}

TEST(LockModes, SharedGateSurvivesDefaultClosure) {
  // Two read-holds of the gate exclude nothing, so the held-set check must
  // NOT discard the inversion — this is the rwlock-abba shape.
  LogBuilder B = modedGatePattern(S, S, X);
  std::vector<AbstractCycle> Cycles = closure(B.log(), false);
  ASSERT_EQ(Cycles.size(), 1u)
      << "a shared-shared gate overlap is not a guard";
  EXPECT_EQ(Cycles[0].Components.size(), 2u);
}

TEST(LockModes, ExclusiveGateStillDiscarded) {
  // Same shape with the gate held exclusively: the mutex-era guard rule
  // must keep working unchanged.
  LogBuilder B = modedGatePattern(X, S, X);
  EXPECT_EQ(closure(B.log(), false).size(), 0u);
}

TEST(LockModes, ReadReadWaitEdgesFormNoCycle) {
  // Waiting for the read side of a lock that is only read-held is not a
  // wait at all: no edges, no cycle, under either closure switch.
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {{11, S}}, S);
  B.acquire(2, 11, {{12, S}}, S);
  EXPECT_EQ(closure(B.log(), false).size(), 0u);
  EXPECT_EQ(closure(B.log(), true).size(), 0u);
}

TEST(LockModes, AllSharedCommonLockIsNotAGuardForPruner) {
  // The pruner's guard verdict needs mutual exclusion on the common lock;
  // read-holds on every entry provide none, so the cycle stays
  // schedulable.
  LogBuilder B = modedGatePattern(S, S, X);
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  ASSERT_EQ(Classes.size(), 1u);
  EXPECT_EQ(Classes[0].Class, CycleClass::Schedulable);
  EXPECT_TRUE(Classes[0].schedulable());
}

TEST(LockModes, OneExclusiveHoldRestoresTheGuard) {
  // Mixed modes on the common lock: one writer among the holders is
  // enough to serialize the windows, so the guard verdict returns.
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(10, "gate").lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {{10, S}, {11, X}}, X);
  B.acquire(2, 11, {{10, X}, {12, X}}, X);
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  ASSERT_EQ(Classes.size(), 1u);
  EXPECT_EQ(Classes[0].Class, CycleClass::Guarded);
  EXPECT_EQ(Classes[0].GuardLock, "gate");
}

// -- Guard pruner -------------------------------------------------------------

TEST(GuardPruner, GuardedCycleNamedWitness) {
  LogBuilder B = gatePattern();
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  ASSERT_EQ(Classes.size(), 1u);
  EXPECT_EQ(Classes[0].Class, CycleClass::Guarded);
  EXPECT_EQ(Classes[0].GuardLock, "gate");
  EXPECT_FALSE(Classes[0].schedulable());
  EXPECT_EQ(Classes[0].label(), "guarded (guard lock: gate)");
}

TEST(GuardPruner, PlainAbbaIsSchedulable) {
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(11, "a").lock(12, "b");
  B.acquire(1, 11, {}).acquire(1, 12, {11});
  B.acquire(2, 12, {}).acquire(2, 11, {12});
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  EXPECT_EQ(Classes[0].Class, CycleClass::Schedulable);
  EXPECT_TRUE(Classes[0].schedulable());
  EXPECT_EQ(Classes[0].label(), "schedulable");
}

TEST(GuardPruner, ForkOrderedCycleIsHBOrdered) {
  // t1's acquires all happen before t2 even exists (fork edge): clocks
  // built exactly as the analyzer builds them from a T..F..A trace.
  VectorClock C1, C2;
  vcTick(C1, ThreadId(1)); // t1 born
  vcJoin(C2, C1);          // t2 forked from t1 (post-acquire state)
  vcTick(C2, ThreadId(2));

  LogBuilder B;
  B.thread(1, C1).thread(2, C2);
  B.lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {11}); // t1: b while holding a, clock {t1:1}
  B.acquire(2, 11, {12}); // t2: a while holding b, clock {t1:1,t2:1}
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  EXPECT_EQ(Classes[0].Class, CycleClass::HBOrdered);
  EXPECT_FALSE(Classes[0].schedulable());
}

TEST(GuardPruner, GuardVerdictBeatsHBOrder) {
  // The same cycle is both gate-protected and fork-ordered; the pruner
  // must prefer the guard verdict — it names the lock to look at.
  VectorClock C1, C2;
  vcTick(C1, ThreadId(1));
  vcJoin(C2, C1);
  vcTick(C2, ThreadId(2));

  LogBuilder B;
  B.thread(1, C1).thread(2, C2);
  B.lock(10, "gate").lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {10, 11});
  B.acquire(2, 11, {10, 12});
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_EQ(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  EXPECT_EQ(Classes[0].Class, CycleClass::Guarded);
  EXPECT_EQ(Classes[0].GuardLock, "gate");
}

TEST(GuardPruner, SingleThreadCycleDetected) {
  // A hand-built degenerate cycle whose components share a thread (the
  // closure itself never produces one, but deserialized cycles can).
  LogBuilder B;
  B.thread(1);
  B.lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {11}).acquire(1, 11, {12});
  AbstractCycle Cycle;
  CycleComponent C1, C2;
  C1.Thread = ThreadId(1);
  C1.Lock = LockId(12);
  C2.Thread = ThreadId(1);
  C2.Lock = LockId(11);
  Cycle.Components = {C1, C2};
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), {Cycle});
  EXPECT_EQ(Classes[0].Class, CycleClass::SingleThread);
  EXPECT_FALSE(Classes[0].schedulable());
}

TEST(GuardPruner, UnmatchedComponentStaysSchedulable) {
  // A component with no witnessing entry proves nothing; the pruner must
  // fail open (schedulable) rather than discharge on missing evidence.
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(11, "a").lock(12, "b");
  B.acquire(1, 12, {11});
  AbstractCycle Cycle;
  CycleComponent C1, C2;
  C1.Thread = ThreadId(1);
  C1.Lock = LockId(12);
  C2.Thread = ThreadId(2);
  C2.Lock = LockId(99); // never acquired
  Cycle.Components = {C1, C2};
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), {Cycle});
  EXPECT_EQ(Classes[0].Class, CycleClass::Schedulable);
}

TEST(GuardPruner, MixedWitnessesStaySchedulable) {
  // One witnessing occurrence is guarded, another is not: some assignment
  // is schedulable, so the cycle must not be discharged.
  LogBuilder B;
  B.thread(1).thread(2);
  B.lock(10, "gate").lock(11, "a").lock(12, "b");
  // Guarded occurrences...
  B.acquire(1, 12, {10, 11});
  B.acquire(2, 11, {10, 12});
  // ...and bare re-occurrences of the same inversion at other sites.
  B.acquire(1, 12, {11});
  B.acquire(2, 11, {12});
  std::vector<AbstractCycle> Cycles = closure(B.log(), true);
  ASSERT_GE(Cycles.size(), 1u);
  std::vector<CycleClassification> Classes =
      classifyCycles(B.log(), Cycles);
  bool AnySchedulable = false;
  for (const CycleClassification &C : Classes)
    AnySchedulable = AnySchedulable || C.schedulable();
  EXPECT_TRUE(AnySchedulable)
      << "the unguarded occurrence pair must keep a cycle schedulable";
}

TEST(GuardPruner, ClassNamesRoundTrip) {
  for (CycleClass C :
       {CycleClass::Schedulable, CycleClass::Guarded, CycleClass::HBOrdered,
        CycleClass::SingleThread}) {
    CycleClass Back = CycleClass::Schedulable;
    ASSERT_TRUE(cycleClassFromName(cycleClassName(C), Back))
        << cycleClassName(C);
    EXPECT_EQ(Back, C);
  }
  CycleClass Out;
  EXPECT_FALSE(cycleClassFromName("bogus", Out));
  EXPECT_FALSE(cycleClassFromName("", Out));
}

// -- Race detector ------------------------------------------------------------

/// Builds trace events programmatically; mirrors interpose/TraceFormat.h.
struct TraceBuilder {
  TraceFile Trace;

  TraceBuilder &threadNew(uint64_t Tid) {
    add(TraceEvent::Kind::ThreadNew, Tid, 0, "thr#" + std::to_string(Tid));
    return *this;
  }
  TraceBuilder &fork(uint64_t Parent, uint64_t Child) {
    add(TraceEvent::Kind::Fork, Parent, Child, "");
    return *this;
  }
  TraceBuilder &lockNew(uint64_t Lid) {
    add(TraceEvent::Kind::LockNew, Lid, 0, "lock#" + std::to_string(Lid));
    return *this;
  }
  TraceBuilder &acquire(uint64_t Tid, uint64_t Lid) {
    add(TraceEvent::Kind::Acquire, Tid, Lid, "acq");
    return *this;
  }
  TraceBuilder &release(uint64_t Tid, uint64_t Lid) {
    add(TraceEvent::Kind::Release, Tid, Lid, "");
    return *this;
  }
  TraceBuilder &objectNew(uint64_t Oid) {
    add(TraceEvent::Kind::ObjectNew, Oid, 0, "obj#" + std::to_string(Oid));
    return *this;
  }
  TraceBuilder &read(uint64_t Tid, uint64_t Oid, const std::string &Site) {
    add(TraceEvent::Kind::Read, Tid, Oid, Site);
    return *this;
  }
  TraceBuilder &write(uint64_t Tid, uint64_t Oid, const std::string &Site) {
    add(TraceEvent::Kind::Write, Tid, Oid, Site);
    return *this;
  }
  TraceBuilder &notify(uint64_t Tid, uint64_t Cid) {
    add(TraceEvent::Kind::CondNotify, Tid, Cid, "");
    return *this;
  }
  TraceBuilder &wake(uint64_t Tid, uint64_t Cid) {
    add(TraceEvent::Kind::CondWake, Tid, Cid, "");
    return *this;
  }
  TraceBuilder &join(uint64_t Joiner, uint64_t Target) {
    add(TraceEvent::Kind::Join, Joiner, Target, "");
    return *this;
  }

private:
  void add(TraceEvent::Kind K, uint64_t A, uint64_t B, std::string Text) {
    TraceEvent E;
    E.K = K;
    E.A = A;
    E.B = B;
    E.Text = std::move(Text);
    Trace.Events.push_back(std::move(E));
  }
};

/// Two threads forked from a common parent, writing one object unlocked.
TraceBuilder racyPair() {
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  B.objectNew(100);
  B.write(2, 100, "w2::store");
  B.write(3, 100, "w3::store");
  return B;
}

TEST(RaceDetector, ConcurrentUnlockedWritesAreRacy) {
  TraceBuilder B = racyPair();
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.ObjectsSeen, 1u);
  EXPECT_EQ(R.AccessesSeen, 2u);
  ASSERT_EQ(R.RacyPairs, 1u);
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].Object, 100u);
  EXPECT_EQ(R.Races[0].First.Site, "w2::store");
  EXPECT_EQ(R.Races[0].Second.Site, "w3::store");
}

TEST(RaceDetector, CommonLockSuppressesRace) {
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  B.lockNew(50).objectNew(100);
  B.acquire(2, 50).write(2, 100, "w2::store").release(2, 50);
  B.acquire(3, 50).write(3, 100, "w3::store").release(3, 50);
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u);
}

TEST(RaceDetector, ReadReadIsNotARace) {
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  B.objectNew(100);
  B.read(2, 100, "w2::load").read(3, 100, "w3::load");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u);
}

TEST(RaceDetector, SameThreadAccessesAreNotARace) {
  TraceBuilder B;
  B.threadNew(1).objectNew(100);
  B.write(1, 100, "a").write(1, 100, "b");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u);
}

TEST(RaceDetector, ForkEdgeOrdersAccesses) {
  // Parent writes, then forks the child that writes: ordered, not racy.
  TraceBuilder B;
  B.threadNew(1).objectNew(100);
  B.write(1, 100, "parent::store");
  B.threadNew(2);
  B.fork(1, 2);
  B.write(2, 100, "child::store");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u);
}

TEST(RaceDetector, CondvarNotifyWakeOrdersHandoff) {
  // Writer publishes data before notifying; the reader touches it only
  // after waking from that notify. The N->V edge orders the pair.
  TraceBuilder B;
  B.threadNew(1).threadNew(2);
  B.fork(1, 2);
  B.objectNew(100).lockNew(50);
  B.write(1, 100, "writer::init");
  B.acquire(1, 50).notify(1, 7).release(1, 50);
  B.wake(2, 7);
  B.read(2, 100, "reader::consume");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u)
      << "notify->wake must establish happens-before for the handoff";

  // Same accesses with the condvar events removed race: the edge is what
  // suppresses the report, not a lockset accident.
  TraceBuilder NoCv;
  NoCv.threadNew(1).threadNew(2);
  NoCv.fork(1, 2);
  NoCv.objectNew(100);
  NoCv.write(1, 100, "writer::init");
  NoCv.read(2, 100, "reader::consume");
  EXPECT_EQ(detectRaces(NoCv.Trace).RacyPairs, 1u);
}

TEST(RaceDetector, PostNotifyWriteStillRacesWithWaiter) {
  // The clock stored at notify must exclude the notifier's later steps:
  // a write performed AFTER the notify is concurrent with the waker.
  TraceBuilder B;
  B.threadNew(1).threadNew(2);
  B.fork(1, 2);
  B.objectNew(100);
  B.notify(1, 7);
  B.write(1, 100, "writer::late-store");
  B.wake(2, 7);
  B.read(2, 100, "reader::consume");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 1u)
      << "store-then-tick: post-notify accesses stay concurrent";
}

TEST(RaceDetector, JoinEdgeOrdersPostJoinReads) {
  // Worker writes, main joins it, then reads: the J edge orders the pair.
  TraceBuilder B;
  B.threadNew(1).threadNew(2);
  B.fork(1, 2);
  B.objectNew(100);
  B.write(2, 100, "worker::result");
  B.join(1, 2);
  B.read(1, 100, "main::collect");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u)
      << "pthread_join must order the worker's writes before the joiner";

  TraceBuilder NoJoin;
  NoJoin.threadNew(1).threadNew(2);
  NoJoin.fork(1, 2);
  NoJoin.objectNew(100);
  NoJoin.write(2, 100, "worker::result");
  NoJoin.read(1, 100, "main::collect");
  EXPECT_EQ(detectRaces(NoJoin.Trace).RacyPairs, 1u);
}

TEST(RaceDetector, ReleaseAcquireOrdersHandoff) {
  // Lock-mediated handoff where only ONE side still holds the lock at
  // access time would fool a pure lockset check reversed; here both sides
  // lock, so both lockset and happens-before agree: no race.
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  B.lockNew(50).objectNew(100);
  B.acquire(2, 50).write(2, 100, "w2::store").release(2, 50);
  // w3 reads *outside* the lock but after acquiring/releasing it once: the
  // release->acquire edge orders the accesses, so HB suppresses what the
  // lockset alone would flag.
  B.acquire(3, 50).release(3, 50);
  B.read(3, 100, "w3::unlockedLoad");
  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.RacyPairs, 0u)
      << "release->acquire edge must order the unlocked read";
}

TEST(RaceDetector, WriteReadPairIsRacy) {
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  B.objectNew(100);
  B.write(2, 100, "w2::store");
  B.read(3, 100, "w3::load");
  RaceAnalysis R = detectRaces(B.Trace);
  ASSERT_EQ(R.RacyPairs, 1u);
  EXPECT_TRUE(R.Races[0].First.IsWrite);
  EXPECT_FALSE(R.Races[0].Second.IsWrite);
}

TEST(RaceDetector, ManyObjectsReportInFirstSeenOrder) {
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  for (uint64_t O = 0; O != 23; ++O) {
    B.objectNew(100 + O);
    B.write(2, 100 + O, "w2::store" + std::to_string(O));
    if (O % 3 != 0)
      B.write(3, 100 + O, "w3::store" + std::to_string(O));
  }
  RaceAnalysis R = detectRaces(B.Trace);
  ASSERT_EQ(R.RacyPairs, 15u);
  ASSERT_EQ(R.Races.size(), 15u);
  EXPECT_EQ(R.Races.front().Object, 101u);
  EXPECT_EQ(R.Races.back().Object, 122u);
  for (size_t I = 1; I != R.Races.size(); ++I)
    EXPECT_LT(R.Races[I - 1].Object, R.Races[I].Object);
}

TEST(RaceDetector, ReportCapCountsEverything) {
  TraceBuilder B;
  B.threadNew(1).threadNew(2).threadNew(3);
  B.fork(1, 2).fork(1, 3);
  for (uint64_t O = 0; O != 8; ++O) {
    B.objectNew(100 + O);
    B.write(2, 100 + O, "w2");
    B.write(3, 100 + O, "w3");
  }
  RaceDetectorOptions Opts;
  Opts.MaxReports = 3;
  RaceAnalysis R = detectRaces(B.Trace, Opts);
  EXPECT_EQ(R.RacyPairs, 8u);
  EXPECT_EQ(R.Races.size(), 3u);
}

TEST(SyncWalker, UndeclaredThreadIsDroppedByEveryAnalysis) {
  // Thread 9 and lock 12 never get a T/M line. Counted, thread 9's a->b
  // would close a cycle with t2's b->a and its write would race; every
  // analysis must drop those events instead, so the predictor and the race
  // detector see exactly the events the dependency log was built from.
  TraceBuilder B;
  B.threadNew(1).threadNew(2).fork(1, 2);
  B.lockNew(10).lockNew(11).objectNew(100);
  B.acquire(9, 10).acquire(9, 11).release(9, 11).release(9, 10);
  B.acquire(2, 11).acquire(2, 10).release(2, 10).release(2, 11);
  B.acquire(2, 12).release(2, 12);
  B.write(9, 100, "t9::store").write(2, 100, "t2::store");
  B.write(1, 100, "t1::store");
  B.fork(1, 9);

  std::ostringstream Warnings;
  IncrementalLogBuilder Builder(&Warnings);
  Builder.feed(B.Trace.Events);
  EXPECT_EQ(Builder.log().acquireEvents(), 2u);
  EXPECT_TRUE(runIGoodlock(Builder.log()).empty());
  EXPECT_NE(Warnings.str().find("event 7: acquire references unknown "
                                "thread/lock"),
            std::string::npos)
      << Warnings.str();
  EXPECT_NE(Warnings.str().find("event 15: acquire references unknown "
                                "thread/lock"),
            std::string::npos)
      << Warnings.str();
  EXPECT_NE(Warnings.str().find("event 20: fork references unknown thread"),
            std::string::npos)
      << Warnings.str();

  PredictAnalysis P = predictDeadlocks(B.Trace);
  EXPECT_TRUE(P.Cycles.empty());
  EXPECT_EQ(P.AcquireEvents, 2u);
  EXPECT_EQ(P.Stats.AcquiresIndexed, 2u)
      << "the predictor must index the log's acquires, and no others";

  RaceAnalysis R = detectRaces(B.Trace);
  EXPECT_EQ(R.AccessesSeen, 2u);
  ASSERT_EQ(R.RacyPairs, 1u);
  EXPECT_EQ(R.Races[0].First.Thread, 2u);
  EXPECT_EQ(R.Races[0].Second.Thread, 1u);
  bool Named = false;
  for (const std::string &W : R.Warnings)
    Named |= W.find("thread 9") != std::string::npos;
  EXPECT_TRUE(Named) << "dropped events must be reported";
}

TEST(RaceDetector, EmptyTraceIsClean) {
  TraceFile Trace;
  RaceAnalysis R = detectRaces(Trace);
  EXPECT_EQ(R.RacyPairs, 0u);
  EXPECT_EQ(R.ObjectsSeen, 0u);
  EXPECT_EQ(R.AccessesSeen, 0u);
}

} // namespace

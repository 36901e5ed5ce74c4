//===- tests/HappensBeforeTest.cpp - HB tracking & filter ---------------------===//
//
// The paper's §1 precision/predictive-power trade, as tests:
//
//  * fork/join tracking prunes the provably infeasible cycles (the §5.4
//    CachedThread class in the jigsaw substrate) while keeping every real
//    one;
//  * full-sync tracking additionally prunes real deadlocks whose critical
//    sections happened not to overlap in the observed run — "it fails to
//    report deadlocks that could happen in a significantly different
//    thread schedule".
//
//===----------------------------------------------------------------------===//

#include "event/VectorClock.h"
#include "fuzzer/ActiveTester.h"
#include "fuzzer/RandomStrategy.h"
#include "igoodlock/IGoodlock.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "substrates/BenchmarkRegistry.h"

#include <gtest/gtest.h>

namespace {

using namespace dlf;

// -- VectorClock unit behaviour -------------------------------------------------

TEST(VectorClock, TickAndCompare) {
  VectorClock A, B;
  vcTick(A, ThreadId(1));
  EXPECT_TRUE(vcLeq(B, A)) << "empty <= everything";
  vcTick(B, ThreadId(2));
  EXPECT_TRUE(vcConcurrent(A, B));
  vcJoin(B, A); // B saw A's event
  EXPECT_TRUE(vcLeq(A, B));
  EXPECT_FALSE(vcLeq(B, A));
  EXPECT_FALSE(vcConcurrent(A, B));
}

TEST(VectorClock, EmptyClocksAreConcurrent) {
  VectorClock Empty, Ticked;
  vcTick(Ticked, ThreadId(3));
  EXPECT_TRUE(vcConcurrent(Empty, Empty));
  EXPECT_TRUE(vcConcurrent(Empty, Ticked));
}

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock A, B;
  vcTick(A, ThreadId(1));
  vcTick(A, ThreadId(1));
  vcTick(B, ThreadId(1));
  vcTick(B, ThreadId(4));
  vcJoin(A, B);
  ASSERT_GE(A.size(), 4u);
  EXPECT_EQ(A[0], 2u);
  EXPECT_EQ(A[3], 1u);
}

// -- Recording --------------------------------------------------------------------

PhaseOneResult phaseOne(const Program &P, HbMode Mode, bool Filter) {
  ActiveTesterConfig Config;
  Config.Base.HappensBefore = Mode;
  Config.Goodlock.FilterByHappensBefore = Filter;
  ActiveTester Tester(P, Config);
  return Tester.runPhaseOne();
}

void figure1Like() {
  Mutex A("hb-a", DLF_SITE());
  Mutex B("hb-b", DLF_SITE());
  Thread T1([&] {
    for (int I = 0; I != 4; ++I)
      yieldNow();
    MutexGuard First(A, DLF_NAMED_SITE("hb:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("hb:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("hb:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("hb:t2a"));
  });
  T1.join();
  T2.join();
}

TEST(HappensBefore, ClocksRecordedWhenEnabled) {
  PhaseOneResult P1 = phaseOne(figure1Like, HbMode::ForkJoin, false);
  ASSERT_FALSE(P1.Log.entries().empty());
  for (const DependencyEntry &E : P1.Log.entries())
    EXPECT_FALSE(E.Clock.empty());
  PhaseOneResult Off = phaseOne(figure1Like, HbMode::Off, false);
  for (const DependencyEntry &E : Off.Log.entries())
    EXPECT_TRUE(E.Clock.empty());
}

TEST(HappensBefore, ForkJoinKeepsConcurrentCycles) {
  // The two workers are siblings: fork/join edges leave their acquires
  // concurrent, so the real cycle survives the filter.
  PhaseOneResult P1 = phaseOne(figure1Like, HbMode::ForkJoin, true);
  EXPECT_EQ(P1.Cycles.size(), 1u);
  EXPECT_EQ(P1.Stats.FilteredByHb, 0u);
}

TEST(HappensBefore, FullSyncPrunesNonOverlappingCycles) {
  // In the observed (non-deadlocking) execution the two critical sections
  // are ordered by the release->acquire edges, so full-sync tracking
  // orders the components and the filter drops the cycle: the predictive-
  // power loss the paper warns about.
  PhaseOneResult P1 = phaseOne(figure1Like, HbMode::FullSync, true);
  EXPECT_EQ(P1.Cycles.size(), 0u);
  EXPECT_GT(P1.Stats.FilteredByHb, 0u);
}

TEST(HappensBefore, ForkJoinPrunesSetupInversions) {
  // The §5.4 pattern in miniature: main's inverted acquisition happens
  // strictly before the worker starts.
  auto Program = [] {
    Mutex P("hb-p", DLF_SITE());
    Mutex Q("hb-q", DLF_SITE());
    {
      MutexGuard Outer(P, DLF_NAMED_SITE("hb:setupP"));
      MutexGuard Inner(Q, DLF_NAMED_SITE("hb:setupQ"));
    }
    Thread Worker([&] {
      MutexGuard Outer(Q, DLF_NAMED_SITE("hb:workQ"));
      MutexGuard Inner(P, DLF_NAMED_SITE("hb:workP"));
    });
    Worker.join();
  };

  PhaseOneResult Unfiltered = phaseOne(Program, HbMode::ForkJoin, false);
  ASSERT_EQ(Unfiltered.Cycles.size(), 1u)
      << "iGoodlock without the filter reports the infeasible cycle";

  PhaseOneResult Filtered = phaseOne(Program, HbMode::ForkJoin, true);
  EXPECT_EQ(Filtered.Cycles.size(), 0u)
      << "fork edges prove the cycle infeasible";
  EXPECT_EQ(Filtered.Stats.FilteredByHb, 1u);
}

TEST(HappensBefore, JigsawFalsePositivesPrunedRealCyclesKept) {
  const BenchmarkInfo *Info = findBenchmark("jigsaw");
  PhaseOneResult Plain = phaseOne(Info->Entry, HbMode::Off, false);
  PhaseOneResult Filtered = phaseOne(Info->Entry, HbMode::ForkJoin, true);

  auto IsCachedThreadCycle = [](const AbstractCycle &Cycle) {
    for (const CycleComponent &C : Cycle.Components)
      for (Label Site : C.Context)
        if (Site.text().find("CachedThread") != std::string::npos)
          return true;
    return false;
  };
  auto CachedThreadCycles = [&](const std::vector<AbstractCycle> &Cycles) {
    unsigned Count = 0;
    for (const AbstractCycle &Cycle : Cycles)
      if (IsCachedThreadCycle(Cycle))
        ++Count;
    return Count;
  };

  EXPECT_GT(CachedThreadCycles(Plain.Cycles), 0u)
      << "without the filter the §5.4 false positives are reported";
  EXPECT_EQ(CachedThreadCycles(Filtered.Cycles), 0u)
      << "fork/join filtering removes them";
  EXPECT_LT(Filtered.Cycles.size(), Plain.Cycles.size());
  EXPECT_GT(Filtered.Cycles.size(), 4u)
      << "the genuinely concurrent cycles must survive";
}

TEST(HappensBefore, BlockedGrantJoinsTheReleaseItWaitedFor) {
  // The waiter attempts M while main holds it, so it blocks; main's release
  // then grants M to it. Everything the waiter does next must order after
  // that release, as it does after a real lock in Record mode.
  Options Opts;
  Opts.Mode = RunMode::Active;
  Opts.HappensBefore = HbMode::FullSync;
  Opts.RecordDependencies = true;
  LockDependencyLog Log;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy, &Log);
  VectorClock ReleaseClock;
  LockId Next;
  ExecutionResult R = RT.run([&] {
    Mutex M("hb-held", DLF_SITE());
    Mutex N("hb-next", DLF_SITE());
    Next = N.record()->Id;
    M.lock(DLF_NAMED_SITE("hb:main-m"));
    Thread Waiter([&] {
      MutexGuard First(M, DLF_NAMED_SITE("hb:waiter-m"));
      MutexGuard Second(N, DLF_NAMED_SITE("hb:waiter-n"));
    });
    while (Waiter.record()->State != ThreadState::Blocked)
      yieldNow();
    M.unlock();
    ReleaseClock = M.record()->Clock;
    Waiter.join();
  });
  ASSERT_TRUE(R.Completed);
  ASSERT_FALSE(ReleaseClock.empty());
  const DependencyEntry *AfterGrant = nullptr;
  for (const DependencyEntry &E : Log.entries())
    if (E.Acquired == Next)
      AfterGrant = &E;
  ASSERT_NE(AfterGrant, nullptr);
  EXPECT_TRUE(vcLeq(ReleaseClock, AfterGrant->Clock))
      << "the acquire after a blocked grant is concurrent with the release "
         "that granted it";
}

TEST(HappensBefore, RecordModeTracksClocksToo) {
  ActiveTesterConfig Config;
  Config.PhaseOneMode = RunMode::Record;
  Config.Base.HappensBefore = HbMode::ForkJoin;
  Config.Goodlock.FilterByHappensBefore = true;
  ActiveTester Tester(findBenchmark("hedc")->Entry, Config);
  PhaseOneResult P1 = Tester.runPhaseOne();
  EXPECT_TRUE(P1.Exec.Completed);
  for (const DependencyEntry &E : P1.Log.entries())
    EXPECT_FALSE(E.Clock.empty());
}

} // namespace

//===- tests/SchedulerTest.cpp - Active scheduler behaviours -----------------===//
//
// Exercises the paper-specific scheduler mechanics: stall detection
// (Algorithm 2's "System Stall!"), checkRealDeadlock firing before the
// physical wedge (Algorithm 3), pausing/thrashing, the livelock monitor,
// and the §4 yield machinery.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "fuzzer/CycleSpec.h"
#include "fuzzer/DeadlockFuzzerStrategy.h"
#include "fuzzer/RandomStrategy.h"
#include "runtime/ConditionVariable.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/RwLock.h"
#include "runtime/Thread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace {

using namespace dlf;

/// A program that deadlocks under *every* schedule: the two threads
/// rendezvous via flags before taking their second locks.
void guaranteedDeadlock() {
  Mutex A("ga", DLF_SITE());
  Mutex B("gb", DLF_SITE());
  bool T1HasA = false, T2HasB = false;

  Thread T1([&] {
    MutexGuard First(A, DLF_NAMED_SITE("gd:t1a"));
    T1HasA = true;
    while (!T2HasB)
      yieldNow();
    MutexGuard Second(B, DLF_NAMED_SITE("gd:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("gd:t2b"));
    T2HasB = true;
    while (!T1HasA)
      yieldNow();
    MutexGuard Second(A, DLF_NAMED_SITE("gd:t2a"));
  });
  T1.join();
  T2.join();
}

TEST(SchedulerStall, SimpleRandomDetectsGuaranteedDeadlock) {
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = Seed;
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run(guaranteedDeadlock);
    EXPECT_FALSE(R.Completed);
    EXPECT_TRUE(R.Stalled) << "seed " << Seed;
    ASSERT_TRUE(R.Witness.has_value()) << "stall witness missing";
    EXPECT_EQ(R.Witness->Edges.size(), 2u);
  }
}

TEST(SchedulerStall, WitnessNamesTheRightLocks) {
  Options Opts;
  Opts.Mode = RunMode::Active;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  ExecutionResult R = RT.run(guaranteedDeadlock);
  ASSERT_TRUE(R.Witness.has_value());
  std::string Text = R.Witness->toString();
  EXPECT_NE(Text.find("ga"), std::string::npos) << Text;
  EXPECT_NE(Text.find("gb"), std::string::npos) << Text;
}

TEST(SchedulerStall, AbortUnwindsAllThreadsCleanly) {
  // After a stall abort, the runtime must still tear everything down: no
  // hangs, no leaked OS threads (the test would hang or crash otherwise).
  for (int Round = 0; Round != 10; ++Round) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = 100 + static_cast<uint64_t>(Round);
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run(guaranteedDeadlock);
    EXPECT_TRUE(R.Stalled);
  }
}

TEST(SchedulerLivelock, MaxStepsAborts) {
  Options Opts;
  Opts.Mode = RunMode::Active;
  Opts.MaxSteps = 500;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  ExecutionResult R = RT.run([] {
    Mutex M("spin", DLF_SITE());
    for (;;) {
      MutexGuard Guard(M, DLF_NAMED_SITE("spin:acq"));
      yieldNow();
    }
  });
  EXPECT_FALSE(R.Completed);
  EXPECT_TRUE(R.LivelockAborted);
}

TEST(SchedulerLivelock, LoneThreadAbortReturnsAtOnce) {
  // Main is the only thread, so no other thread ever creates or posts its
  // wake word: the abort path must see the flag before parking.
  Options Opts;
  Opts.Mode = RunMode::Active;
  Opts.MaxSteps = 50;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  ExecutionResult R = RT.run([] {
    Mutex M("lone", DLF_SITE());
    for (;;)
      MutexGuard Guard(M, DLF_NAMED_SITE("lone:acq"));
  });
  EXPECT_TRUE(R.LivelockAborted);
  EXPECT_LT(R.WallMs, 2000.0);
}

TEST(SchedulerLivelock, WallClockFallbackRescuesPausedThread) {
  // A peer spending real time between scheduling points commits no steps,
  // so the step-count bound alone (here effectively disabled) would leave
  // a paused thread paused for the whole compute stretch. The wall-clock
  // fallback must release it.
  std::atomic<bool> T1HoldsA{false};
  auto SlowPeerProgram = [&] {
    T1HoldsA = false;
    Mutex A("wa", DLF_SITE());
    Mutex B("wb", DLF_SITE());
    Thread T1([&] {
      MutexGuard First(A, DLF_NAMED_SITE("wall:t1a"));
      T1HoldsA = true;
      MutexGuard Second(B, DLF_NAMED_SITE("wall:t1b"));
    });
    Thread T2([&] {
      while (!T1HoldsA)
        yieldNow();
      // Long compute: real time passes, no scheduling points commit.
      for (int I = 0; I != 30; ++I) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        yieldNow();
      }
      MutexGuard First(B, DLF_NAMED_SITE("wall:t2b"));
      MutexGuard Second(A, DLF_NAMED_SITE("wall:t2a"));
    });
    T1.join();
    T2.join();
  };

  ActiveTesterConfig Config;
  Config.Base.MaxPausedSteps = 1'000'000'000; // step bound out of the picture
  Config.Base.MaxPausedWallMs = 40;
  ActiveTester Tester(SlowPeerProgram, Config);
  PhaseOneResult P1 = Tester.runPhaseOne();
  ASSERT_EQ(P1.Cycles.size(), 1u);

  // Phase 2: T1 pauses at its second acquire while T2 sits in the compute
  // loop; only the wall clock can notice the pause has gone stale.
  ExecutionResult R = Tester.runOnce(P1.Cycles[0], /*Seed=*/1);
  EXPECT_TRUE(R.Completed || R.DeadlockFound) << "stalled instead of rescued";
  EXPECT_GT(R.ForcedUnpauses, 0u);
}

// -- Algorithm 3 mechanics through the ActiveTester ----------------------------------

/// Figure 1-style ABBA with a stagger, as a reusable program.
void abbaProgram() {
  Mutex A("aa", DLF_SITE());
  Mutex B("ab", DLF_SITE());
  Thread T1([&] {
    for (int I = 0; I != 4; ++I)
      yieldNow();
    MutexGuard First(A, DLF_NAMED_SITE("abba:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("abba:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("abba:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("abba:t2a"));
  });
  T1.join();
  T2.join();
}

TEST(DeadlockFuzzer, ChecksFireBeforePhysicalWedge) {
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 10;
  ActiveTester Tester(abbaProgram, Config);
  PhaseOneResult P1 = Tester.runPhaseOne();
  ASSERT_EQ(P1.Cycles.size(), 1u);
  for (unsigned Rep = 0; Rep != 10; ++Rep) {
    ExecutionResult R = Tester.runOnce(P1.Cycles[0], 1000 + Rep);
    EXPECT_TRUE(R.DeadlockFound) << "rep " << Rep;
    EXPECT_FALSE(R.Stalled) << "checker must fire before the stall";
    ASSERT_TRUE(R.Witness.has_value());
    EXPECT_EQ(R.Witness->Edges.size(), 2u);
  }
}

TEST(DeadlockFuzzer, CleanReproductionNeedsNoThrashing) {
  // Once one participant is paused at its component, the other's acquire
  // closes the cycle in checkRealDeadlock (paused threads' pending locks
  // count as wait-for edges) — Table 1's logging/DBCP rows reproduce with
  // 0.00 average thrashes.
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 10;
  ActiveTester Tester(abbaProgram, Config);
  ActiveTesterReport Report = Tester.run();
  ASSERT_EQ(Report.PerCycle.size(), 1u);
  const CycleFuzzStats &Stats = Report.PerCycle[0];
  EXPECT_EQ(Stats.ReproducedTarget, Stats.Runs);
  EXPECT_EQ(Stats.TotalThrashes, 0u);
}

TEST(DeadlockFuzzer, PausedThreadsResumePastTheirAcquire) {
  // If the pause were re-evaluated after a thrash removal (instead of the
  // thread executing through), this would livelock; completion of every
  // rep proves force-execution works.
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 8;
  ActiveTester Tester(abbaProgram, Config);
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PerCycle[0].ReproducedTarget +
                Report.PerCycle[0].OtherDeadlocks +
                Report.PerCycle[0].Stalls + Report.PerCycle[0].CleanRuns,
            Report.PerCycle[0].Runs);
}

TEST(DeadlockFuzzer, NoFalseAlarmOnOrderedProgram) {
  // Fuzzing a cycle spec against a *fixed* program (consistent order)
  // must never report a deadlock: first find the cycle in the buggy
  // program, then run its spec against the fixed one.
  ActiveTesterConfig Config;
  ActiveTester Buggy(abbaProgram, Config);
  PhaseOneResult P1 = Buggy.runPhaseOne();
  ASSERT_EQ(P1.Cycles.size(), 1u);

  auto FixedProgram = [] {
    Mutex A("fa", DLF_SITE());
    Mutex B("fb", DLF_SITE());
    Thread T1([&] {
      MutexGuard First(A, DLF_NAMED_SITE("fixed:t1a"));
      MutexGuard Second(B, DLF_NAMED_SITE("fixed:t1b"));
    });
    Thread T2([&] {
      MutexGuard First(A, DLF_NAMED_SITE("fixed:t2a"));
      MutexGuard Second(B, DLF_NAMED_SITE("fixed:t2b"));
    });
    T1.join();
    T2.join();
  };
  ActiveTester Fixed(FixedProgram, Config);
  for (unsigned Rep = 0; Rep != 10; ++Rep) {
    ExecutionResult R = Fixed.runOnce(P1.Cycles[0], 2000 + Rep);
    EXPECT_TRUE(R.Completed);
    EXPECT_FALSE(R.DeadlockFound);
  }
}

TEST(DeadlockFuzzer, LivelockMonitorRescuesLonePausedThread) {
  // One thread matches a cycle component but its partner never shows up:
  // the pause must not hang the run (thrash handling / monitor releases
  // it) and no deadlock is reported.
  ActiveTesterConfig Config;
  ActiveTester Buggy(abbaProgram, Config);
  PhaseOneResult P1 = Buggy.runPhaseOne();
  ASSERT_EQ(P1.Cycles.size(), 1u);

  auto HalfProgram = [] {
    Mutex A("ha", DLF_SITE());
    Mutex B("hb", DLF_SITE());
    Thread T1([&] {
      for (int I = 0; I != 4; ++I)
        yieldNow();
      MutexGuard First(A, DLF_NAMED_SITE("abba:t1a"));
      MutexGuard Second(B, DLF_NAMED_SITE("abba:t1b"));
    });
    T1.join();
  };
  // Note: the half program's thread/lock abstractions differ from the
  // original (different creation paths), so the spec may not even match;
  // either way the run must complete.
  ActiveTester Half(HalfProgram, Config);
  ExecutionResult R = Half.runOnce(P1.Cycles[0], 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_FALSE(R.DeadlockFound);
}

// -- §4 yields -------------------------------------------------------------------------

/// The paper's §4 example: thread2 passes a gate on l1 before its own
/// inversion; pausing thread1 too early wedges the gate.
void gateProgram() {
  Mutex L1("gate-l1", DLF_SITE());
  Mutex L2("gate-l2", DLF_SITE());
  Thread T1([&] {
    MutexGuard Outer(L1, DLF_NAMED_SITE("gate:t1l1"));
    MutexGuard Inner(L2, DLF_NAMED_SITE("gate:t1l2"));
  });
  Thread T2([&] {
    {
      MutexGuard Gate(L1, DLF_NAMED_SITE("gate:t2gate"));
    }
    MutexGuard Outer(L2, DLF_NAMED_SITE("gate:t2l2"));
    MutexGuard Inner(L1, DLF_NAMED_SITE("gate:t2l1"));
  });
  T1.join();
  T2.join();
}

TEST(YieldOptimization, ImprovesGateProgramReproduction) {
  ActiveTesterConfig WithYields;
  WithYields.PhaseTwoReps = 30;
  WithYields.Base.UseYields = true;
  ActiveTester TesterYes(gateProgram, WithYields);
  ActiveTesterReport Yes = TesterYes.run();
  ASSERT_EQ(Yes.PerCycle.size(), 1u);

  ActiveTesterConfig NoYields = WithYields;
  NoYields.Base.UseYields = false;
  ActiveTester TesterNo(gateProgram, NoYields);
  ActiveTesterReport No = TesterNo.run();
  ASSERT_EQ(No.PerCycle.size(), 1u);

  // §4's claim: with yields the deadlock is created (probability ~1);
  // without them the gate wedges and the probability drops.
  EXPECT_GT(Yes.PerCycle[0].probability(), 0.9)
      << "yields: " << Yes.PerCycle[0].probability();
  EXPECT_LT(No.PerCycle[0].probability(),
            Yes.PerCycle[0].probability())
      << "no-yields should underperform";
}

// -- Widened alphabet: rwlocks, trylock probes, condvar wakeup edges -----------

TEST(WidenedAlphabet, ReadReadOverlapIsSchedulable) {
  // Two readers rendezvous *while both hold the shared side*: the program
  // only terminates if a paused/blocked reader stays enabled when the lock
  // is held by readers alone. A mutex-shaped model would stall here.
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = Seed;
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run([] {
      RwLock Table("table", DLF_SITE());
      bool R1In = false, R2In = false;
      Thread T1([&] {
        RwReadGuard G(Table, DLF_NAMED_SITE("rr:t1"));
        R1In = true;
        while (!R2In)
          yieldNow();
      });
      Thread T2([&] {
        RwReadGuard G(Table, DLF_NAMED_SITE("rr:t2"));
        R2In = true;
        while (!R1In)
          yieldNow();
      });
      T1.join();
      T2.join();
    });
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_FALSE(R.Stalled) << "seed " << Seed;
  }
}

TEST(WidenedAlphabet, ReaderHeldAbbaStallsWithWitness) {
  // Each thread holds one lock on the read side and wants the other on the
  // write side; the rendezvous flags make the inversion unconditional. The
  // stall detector must produce the two-edge wait-for witness even though
  // the held edges are shared-mode.
  Options Opts;
  Opts.Mode = RunMode::Active;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  ExecutionResult R = RT.run([] {
    RwLock A("rwa", DLF_SITE());
    RwLock B("rwb", DLF_SITE());
    bool T1HasA = false, T2HasB = false;
    Thread T1([&] {
      RwReadGuard First(A, DLF_NAMED_SITE("rwabba:t1a"));
      T1HasA = true;
      while (!T2HasB)
        yieldNow();
      RwWriteGuard Second(B, DLF_NAMED_SITE("rwabba:t1b"));
    });
    Thread T2([&] {
      RwReadGuard First(B, DLF_NAMED_SITE("rwabba:t2b"));
      T2HasB = true;
      while (!T1HasA)
        yieldNow();
      RwWriteGuard Second(A, DLF_NAMED_SITE("rwabba:t2a"));
    });
    T1.join();
    T2.join();
  });
  EXPECT_FALSE(R.Completed);
  EXPECT_TRUE(R.Stalled);
  ASSERT_TRUE(R.Witness.has_value());
  EXPECT_EQ(R.Witness->Edges.size(), 2u);
  std::string Text = R.Witness->toString();
  EXPECT_NE(Text.find("rwa"), std::string::npos) << Text;
  EXPECT_NE(Text.find("rwb"), std::string::npos) << Text;
}

TEST(WidenedAlphabet, FailedTryLockIsANonBlockingProbe) {
  // Probing a write-held lock from another thread must neither block nor
  // wedge the run; both the exclusive and the shared probe count.
  Options Opts;
  Opts.Mode = RunMode::Active;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  bool WriteProbeHit = false, ReadProbeHit = false;
  ExecutionResult R = RT.run([&] {
    RwLock L("probe", DLF_SITE());
    bool Held = false, Probed = false;
    Thread Holder([&] {
      RwWriteGuard G(L, DLF_NAMED_SITE("probe:holder"));
      Held = true;
      while (!Probed)
        yieldNow();
    });
    Thread Prober([&] {
      while (!Held)
        yieldNow();
      WriteProbeHit = L.tryLock(DLF_NAMED_SITE("probe:try-write"));
      if (WriteProbeHit)
        L.unlock();
      ReadProbeHit = L.tryLockShared(DLF_NAMED_SITE("probe:try-read"));
      if (ReadProbeHit)
        L.unlockShared();
      Probed = true;
    });
    Holder.join();
    Prober.join();
  });
  EXPECT_TRUE(R.Completed);
  EXPECT_FALSE(WriteProbeHit);
  EXPECT_FALSE(ReadProbeHit);
  EXPECT_GE(R.TryProbes, 2u);
}

TEST(WidenedAlphabet, UnnotifiedWaiterIsACommunicationStall) {
  // A waiter nobody signals leaves no runnable thread: the scheduler must
  // report a stall flagged as communication-induced, not a lock deadlock,
  // and must not hand the blocked thread a wait-for edge.
  Options Opts;
  Opts.Mode = RunMode::Active;
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  ExecutionResult R = RT.run([] {
    Mutex M("cm", DLF_SITE());
    ConditionVariable Never("never");
    Thread Waiter([&] {
      MutexGuard G(M, DLF_NAMED_SITE("cs:lock"));
      Never.wait(M, DLF_NAMED_SITE("cs:reacquire"));
    });
    Waiter.join();
  });
  EXPECT_FALSE(R.Completed);
  EXPECT_TRUE(R.Stalled);
  EXPECT_TRUE(R.CommunicationStall);
  EXPECT_FALSE(R.DeadlockFound);
}

/// Minimal cond-wait reacquire inversion (the condvar-hybrid shape): both
/// threads take state->journal in program order; the only inverted edge is
/// the wait's reacquire of the state lock with the journal held.
void condReacquireProgram() {
  Mutex State("crState", DLF_SITE());
  Mutex Journal("crJournal", DLF_SITE());
  ConditionVariable Drained("crDrained");
  bool Parked = false, DrainedFlag = false;

  Thread Flusher([&] {
    MutexGuard S(State, DLF_NAMED_SITE("cr:flusher-state"));
    MutexGuard J(Journal, DLF_NAMED_SITE("cr:flusher-journal"));
    Parked = true;
    Drained.waitUntil(State, [&] { return DrainedFlag; },
                      DLF_NAMED_SITE("cr:flusher-reacquire"));
  });
  Thread Producer([&] {
    for (;;) {
      bool SawParked;
      {
        MutexGuard S(State, DLF_NAMED_SITE("cr:producer-drain"));
        SawParked = Parked;
        if (SawParked) {
          DrainedFlag = true;
          Drained.notifyOne();
        }
      }
      if (SawParked)
        break;
      yieldNow();
    }
    for (int I = 0; I != 12; ++I)
      yieldNow();
    MutexGuard S(State, DLF_NAMED_SITE("cr:producer-state"));
    MutexGuard J(Journal, DLF_NAMED_SITE("cr:producer-journal"));
  });
  Flusher.join();
  Producer.join();
}

TEST(WidenedAlphabet, CondReacquireCycleIsFoundAndConfirmed) {
  // Phase I must record the reacquire as an acquire under the journal (the
  // only way the cycle enters the dependency relation), and Phase II must
  // be able to *pause* the notified waiter right before it re-enters the
  // state lock — the reacquire path goes through shouldPause like any
  // other acquire.
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 8;
  ActiveTester Tester(condReacquireProgram, Config);
  ActiveTesterReport Report = Tester.run();
  ASSERT_EQ(Report.PhaseOne.Cycles.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.confirmedCycles(), 1u) << Report.toString();
  EXPECT_EQ(Report.PerCycle[0].ReproducedTarget, Report.PerCycle[0].Runs)
      << Report.toString();
}

} // namespace

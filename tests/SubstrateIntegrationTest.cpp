//===- tests/SubstrateIntegrationTest.cpp - Two-phase pipeline per benchmark -===//
//
// Runs Phase I (iGoodlock) and Phase II (DeadlockFuzzer) on every benchmark
// substrate and checks the paper-level expectations: cycle counts, zero
// false alarms on deadlock-free workloads, confirmability of the real
// cycles, and the §5.4 false positives never confirming.
//
//===----------------------------------------------------------------------===//

#include "campaign/ProcessSandbox.h"
#include "fuzzer/ActiveTester.h"
#include "substrates/BenchmarkRegistry.h"
#include "support/Affinity.h"

#include <gtest/gtest.h>

#include <iostream>
#include <set>
#include <sstream>
#include <utility>

namespace {

using namespace dlf;

ActiveTesterConfig testConfig(unsigned Reps = 6) {
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = Reps;
  return Config;
}

const BenchmarkInfo &bench(const std::string &Name) {
  const BenchmarkInfo *Info = findBenchmark(Name);
  EXPECT_NE(Info, nullptr) << Name;
  return *Info;
}

// -- Deadlock-free workloads ---------------------------------------------------

class DeadlockFreeWorkloads : public ::testing::TestWithParam<const char *> {};

TEST_P(DeadlockFreeWorkloads, PhaseOneCompletesWithZeroCycles) {
  const BenchmarkInfo &Info = bench(GetParam());
  ActiveTester Tester(Info.Entry, testConfig());
  PhaseOneResult P1 = Tester.runPhaseOne();
  EXPECT_TRUE(P1.Exec.Completed);
  EXPECT_EQ(P1.Cycles.size(), 0u);
  EXPECT_GT(P1.Log.acquireEvents(), 0u) << "workload did no locking at all?";
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeadlockFreeWorkloads,
                         ::testing::Values("cache4j", "sor", "hedc",
                                           "jspider"));

// -- Deadlock-prone benchmarks ---------------------------------------------------

TEST(LoggingBenchmark, ThreeCyclesAllConfirmed) {
  const BenchmarkInfo &Info = bench("logging");
  ActiveTester Tester(Info.Entry, testConfig(8));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 3u) << Report.toString();
  EXPECT_EQ(Report.confirmedCycles(), 3u) << Report.toString();
}

TEST(DbcpBenchmark, TwoCyclesAllConfirmed) {
  const BenchmarkInfo &Info = bench("dbcp");
  ActiveTester Tester(Info.Entry, testConfig(8));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 2u) << Report.toString();
  EXPECT_EQ(Report.confirmedCycles(), 2u) << Report.toString();
}

TEST(SwingBenchmark, OneCycleConfirmed) {
  const BenchmarkInfo &Info = bench("swing");
  ActiveTester Tester(Info.Entry, testConfig(8));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.confirmedCycles(), 1u) << Report.toString();
}

TEST(RwlockAbbaBenchmark, OneCycleConfirmed) {
  // Exists only in the widened alphabet: the shared registry gate and the
  // read-side table holds would make a mutex-only closure discard the
  // inversion as guarded; with modes it survives and Phase II schedules it.
  const BenchmarkInfo &Info = bench("rwlock-abba");
  ActiveTester Tester(Info.Entry, testConfig(8));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.confirmedCycles(), 1u) << Report.toString();
}

TEST(CondvarHybridBenchmark, OneCycleConfirmed) {
  // Every plain acquisition is state->journal; the cycle exists only
  // through the cond-wait reacquire edge, and confirming it requires the
  // scheduler to pause the notified waiter before it re-enters the lock.
  const BenchmarkInfo &Info = bench("condvar-hybrid");
  ActiveTester Tester(Info.Entry, testConfig(8));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.confirmedCycles(), 1u) << Report.toString();
}

TEST(ListsBenchmark, TwentySevenCyclesHighProbability) {
  const BenchmarkInfo &Info = bench("collections-lists");
  ActiveTester Tester(Info.Entry, testConfig(4));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 27u) << Report.toString();
  // The paper reproduces 9+9+9 with probability 0.99; require every cycle
  // confirmed and a high aggregate rate.
  EXPECT_EQ(Report.confirmedCycles(), 27u) << Report.toString();
  unsigned Hits = 0, Runs = 0;
  for (const CycleFuzzStats &S : Report.PerCycle) {
    Hits += S.ReproducedTarget;
    Runs += S.Runs;
  }
  EXPECT_GE(static_cast<double>(Hits) / Runs, 0.9) << Report.toString();
}

TEST(MapsBenchmark, TwentyCyclesMixedProbability) {
  const BenchmarkInfo &Info = bench("collections-maps");
  ActiveTester Tester(Info.Entry, testConfig(6));
  ActiveTesterReport Report = Tester.run();
  EXPECT_EQ(Report.PhaseOne.Cycles.size(), 20u) << Report.toString();
  // Concurrent contention on the shared monitors means some runs create a
  // different deadlock than the target (paper: probability 0.52); require
  // most cycles confirmed and at least some off-target deadlocks observed.
  EXPECT_GE(Report.confirmedCycles(), 15u) << Report.toString();
  unsigned Other = 0;
  for (const CycleFuzzStats &S : Report.PerCycle)
    Other += S.OtherDeadlocks;
  EXPECT_GT(Other, 0u) << Report.toString();
}

TEST(JigsawBenchmark, ManyCyclesSomeConfirmedFalsePositivesNever) {
  const BenchmarkInfo &Info = bench("jigsaw");
  ActiveTester Tester(Info.Entry, testConfig(6));
  ActiveTesterReport Report = Tester.run();
  // Schedule-dependent, but the structure guarantees a cycle-rich report.
  EXPECT_GE(Report.PhaseOne.Cycles.size(), 8u) << Report.toString();
  EXPECT_GE(Report.confirmedCycles(), 4u) << Report.toString();
  EXPECT_LT(Report.confirmedCycles(), Report.PhaseOne.Cycles.size())
      << "expected at least the happens-before false positives to stay "
         "unconfirmed";

  // The CachedThread cycles (§5.4 false positives) must never confirm.
  for (const CycleFuzzStats &S : Report.PerCycle) {
    bool IsCachedThreadCycle = false;
    for (const CycleComponent &C : S.Cycle.Components)
      for (Label Site : C.Context)
        if (Site.text().find("CachedThread") != std::string::npos)
          IsCachedThreadCycle = true;
    if (IsCachedThreadCycle) {
      EXPECT_EQ(S.ReproducedTarget, 0u)
          << "happens-before-infeasible cycle confirmed?!\n"
          << S.Cycle.toString();
    }
  }
}

TEST(RecordPhaseOne, HedcObservedConcurrently) {
  // Phase I over a *real* concurrent execution (Record mode): the crawler
  // nests queue->task consistently, so the relation has two-lock entries
  // but no cycles.
  ActiveTesterConfig Config;
  Config.PhaseOneMode = RunMode::Record;
  ActiveTester Tester(bench("hedc").Entry, Config);
  PhaseOneResult P1 = Tester.runPhaseOne();
  EXPECT_TRUE(P1.Exec.Completed);
  EXPECT_EQ(P1.Cycles.size(), 0u);
  bool AnyNested = false;
  for (const DependencyEntry &E : P1.Log.entries())
    AnyNested = AnyNested || !E.Held.empty();
  EXPECT_TRUE(AnyNested) << "expected nested acquisitions in the log";
}

/// Record-mode Phase I cycle keys for \p Name, from a sandboxed child. A
/// genuinely concurrent run can deadlock for real on a multi-core host,
/// where the harness's stagger no longer separates the hazard windows, so
/// the child pins itself (and so every harness thread) to the CPU it
/// starts on: still a preemptive concurrent execution, paced as on the
/// single-core hosts the harness was tuned on. A run that still times out
/// counts as an uninstrumented deadlock and is retried (up to
/// \p MaxAttempts runs); a crash fails the test.
std::set<std::string> recordPhaseOneKeys(const std::string &Name,
                                         unsigned MaxAttempts,
                                         unsigned &Deadlocks) {
  campaign::SandboxLimits Limits;
  Limits.TimeoutMs = 3000;
  for (Deadlocks = 0; Deadlocks != MaxAttempts;) {
    std::string Reply;
    campaign::SandboxResult R = campaign::runInSandbox(
        [&Name](int PayloadFd) {
          CpuPin Pin;
          ActiveTesterConfig Config;
          Config.PhaseOneMode = RunMode::Record;
          ActiveTester Tester(bench(Name).Entry, Config);
          std::string Keys;
          for (const AbstractCycle &Cycle : Tester.runPhaseOne().Cycles)
            Keys += Cycle.key(AbstractionKind::ExecutionIndex, true) + "\n";
          return campaign::writeFrame(PayloadFd, Keys) ? 0 : 1;
        },
        Limits, [&](std::string Frame) { Reply = std::move(Frame); });
    if (R.Status == campaign::SandboxStatus::Hung) {
      ++Deadlocks;
      continue;
    }
    EXPECT_EQ(R.Status, campaign::SandboxStatus::Completed) << R.triage();
    std::set<std::string> Keys;
    std::istringstream In(Reply);
    for (std::string Line; std::getline(In, Line);)
      Keys.insert(Line);
    return Keys;
  }
  ADD_FAILURE() << Name << ": " << Deadlocks
                << " Record-mode runs in a row deadlocked";
  return {};
}

TEST(RecordPhaseOne, AgreesWithActivePhaseOneOnLists) {
  // The two observation modes must report the same abstract cycles, on the
  // lists bundle and on the rwlock and cond-wait reacquire workloads. Each
  // Record run is genuinely concurrent, so it runs sandboxed (see
  // recordPhaseOneKeys).
  const std::pair<const char *, size_t> Inputs[] = {
      {"collections-lists", 27}, {"condvar-hybrid", 1}, {"rwlock-abba", 1}};
  for (const auto &[Name, Cycles] : Inputs) {
    SCOPED_TRACE(Name);
    ActiveTesterConfig ActiveConfig;
    ActiveTester ActiveTesterInst(bench(Name).Entry, ActiveConfig);
    PhaseOneResult ActiveP1 = ActiveTesterInst.runPhaseOne();

    // Cycle keys carry interned label ids; the Active run interned every
    // site first, and the forked Record child inherits that table.
    unsigned Deadlocks = 0;
    std::set<std::string> RecordKeys = recordPhaseOneKeys(Name, 5, Deadlocks);
    if (Deadlocks)
      std::cout << Name << ": " << Deadlocks
                << " Record-mode deadlock(s) before a clean run\n";

    std::set<std::string> ActiveKeys;
    for (const AbstractCycle &Cycle : ActiveP1.Cycles)
      ActiveKeys.insert(Cycle.key(AbstractionKind::ExecutionIndex, true));
    EXPECT_EQ(RecordKeys, ActiveKeys);
    EXPECT_EQ(RecordKeys.size(), Cycles);
  }
}

} // namespace

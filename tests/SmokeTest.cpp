//===- tests/SmokeTest.cpp - End-to-end smoke of the two-phase pipeline ----===//
//
// Runs the paper's Figure 1 example program through Phase I (iGoodlock) and
// Phase II (DeadlockFuzzer) and checks the headline behaviour: one potential
// cycle reported, reproduced with probability 1.
//
//===----------------------------------------------------------------------===//

#include "campaign/ProcessSandbox.h"
#include "fuzzer/ActiveTester.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "support/Affinity.h"

#include <gtest/gtest.h>

#include <memory>

namespace {

using namespace dlf;

/// The paper's Figure 1: two threads acquiring two locks in opposite
/// orders; the first thread runs "long running methods" first, so the
/// deadlock rarely happens under normal schedules.
class MyThread {
public:
  MyThread(Mutex &L1, Mutex &L2, bool Flag) : L1(L1), L2(L2), Flag(Flag) {}

  void run() {
    DLF_SCOPE("MyThread::run");
    if (Flag) {
      // Long-running methods f1..f4 (just scheduling points here).
      for (int I = 0; I != 4; ++I)
        yieldNow();
    }
    MutexGuard Outer(L1, DLF_NAMED_SITE("fig1:15"));
    MutexGuard Inner(L2, DLF_NAMED_SITE("fig1:16"));
  }

private:
  Mutex &L1;
  Mutex &L2;
  bool Flag;
};

void figure1Program() {
  Mutex O1("o1", DLF_NAMED_SITE("fig1:22"), nullptr);
  Mutex O2("o2", DLF_NAMED_SITE("fig1:23"), nullptr);
  MyThread Body1(O1, O2, /*Flag=*/true);
  MyThread Body2(O2, O1, /*Flag=*/false);
  Thread T1([&] { Body1.run(); }, "thread1", DLF_NAMED_SITE("fig1:25"));
  Thread T2([&] { Body2.run(); }, "thread2", DLF_NAMED_SITE("fig1:26"));
  T1.join();
  T2.join();
}

TEST(Smoke, Figure1PhaseOneFindsTheCycle) {
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 10;
  ActiveTester Tester(figure1Program, Config);
  PhaseOneResult P1 = Tester.runPhaseOne();
  EXPECT_TRUE(P1.Exec.Completed);
  ASSERT_EQ(P1.Cycles.size(), 1u);
  EXPECT_EQ(P1.Cycles[0].Components.size(), 2u);
}

TEST(Smoke, Figure1PhaseTwoReproducesWithProbabilityOne) {
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 10;
  ActiveTester Tester(figure1Program, Config);
  ActiveTesterReport Report = Tester.run();
  ASSERT_EQ(Report.PerCycle.size(), 1u);
  EXPECT_EQ(Report.PerCycle[0].ReproducedTarget, Report.PerCycle[0].Runs)
      << Report.toString();
}

TEST(Smoke, Figure1PassthroughNeverDeadlocks) {
  // "Rarely happens" is a single-CPU claim: there thread1's long-running
  // methods keep the two lock windows apart. On several cores the windows
  // can overlap and a plain run can deadlock for real (it hung this test
  // 2 times in 20 loaded ctest runs on a 4-core host). So each run is a
  // sandboxed child pinned to the CPU it starts on, under a watchdog: a
  // deadlock fails the test instead of hanging the suite.
  ActiveTesterConfig Config;
  ActiveTester Tester(figure1Program, Config);
  campaign::SandboxLimits Limits;
  Limits.TimeoutMs = 3000;
  for (int I = 0; I != 5; ++I) {
    campaign::SandboxResult R = campaign::runInSandbox(
        [&Tester](int) {
          CpuPin Pin;
          return Tester.runPassthrough().Completed ? 0 : 1;
        },
        Limits);
    EXPECT_EQ(R.Status, campaign::SandboxStatus::Completed) << R.triage();
  }
}

} // namespace

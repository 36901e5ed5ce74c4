//===- bench/Fig1Example.cpp - Reproduces the Figure 1 / §3 discussion ------===//
//
// The paper's worked example: the Figure 1 two-thread program deadlocks
// with probability ~1 under DeadlockFuzzer; the three-thread variant
// (lines 24/27 uncommented) still deadlocks with probability ~1 *with*
// thread/object abstractions, but drops to ~0.75 without them (the paper's
// §3 analysis: the third thread is paused by mistake with probability 0.5
// and the run then recovers only half the time). Also prints the control:
// uninstrumented runs never deadlock.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "support/Env.h"
#include "support/Table.h"

#include <iostream>

using namespace dlf;

namespace {

/// Figure 1 with an optional third thread (lines 24 and 27).
void figure1Program(bool WithThirdThread) {
  DLF_SCOPE("fig1::main");
  Mutex O1("o1", DLF_NAMED_SITE("fig1:22"), nullptr);
  Mutex O2("o2", DLF_NAMED_SITE("fig1:23"), nullptr);
  Mutex O3("o3", DLF_NAMED_SITE("fig1:24"), nullptr);

  auto RunBody = [](Mutex &L1, Mutex &L2, bool Flag) {
    DLF_SCOPE("MyThread::run");
    if (Flag)
      for (int I = 0; I != 4; ++I)
        yieldNow(); // f1()..f4()
    MutexGuard Outer(L1, DLF_NAMED_SITE("fig1:15"));
    MutexGuard Inner(L2, DLF_NAMED_SITE("fig1:16"));
  };

  Thread T1([&] { RunBody(O1, O2, true); }, "thread1",
            DLF_NAMED_SITE("fig1:25"));
  Thread T2([&] { RunBody(O2, O1, false); }, "thread2",
            DLF_NAMED_SITE("fig1:26"));
  if (WithThirdThread) {
    Thread T3([&] { RunBody(O2, O3, false); }, "thread3",
              DLF_NAMED_SITE("fig1:27"));
    T3.join();
  }
  T1.join();
  T2.join();
}

double reproductionProbability(bool WithThirdThread, AbstractionKind Kind,
                               unsigned Reps) {
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = Reps;
  Config.Base.Kind = Kind;
  ActiveTester Tester([WithThirdThread] { figure1Program(WithThirdThread); },
                      Config);
  ActiveTesterReport Report = Tester.run();
  if (Report.PerCycle.empty())
    return 0.0;
  // Figure 1 has exactly one potential cycle (o1/o2).
  return Report.PerCycle.front().probability();
}

} // namespace

int main() {
  const unsigned Reps = static_cast<unsigned>(envUInt("DLF_BENCH_REPS", 40));
  std::cout << "Figure 1 / §3 worked example (reps=" << Reps << ")\n\n";

  Table Out({"Program", "Abstraction", "Probability"});
  Out.addRow({"two threads", "exec-index",
              Table::fmt(reproductionProbability(false,
                                                 AbstractionKind::ExecutionIndex,
                                                 Reps),
                         2)});
  Out.addRow({"two threads", "trivial",
              Table::fmt(reproductionProbability(false,
                                                 AbstractionKind::Trivial,
                                                 Reps),
                         2)});
  Out.addRow({"three threads", "exec-index",
              Table::fmt(reproductionProbability(true,
                                                 AbstractionKind::ExecutionIndex,
                                                 Reps),
                         2)});
  Out.addRow({"three threads", "trivial",
              Table::fmt(reproductionProbability(true,
                                                 AbstractionKind::Trivial,
                                                 Reps),
                         2)});
  Out.print(std::cout);

  constexpr unsigned ControlRuns = 50;
  const unsigned Hung = runForkedRuns([] { figure1Program(false); },
                                      ControlRuns, /*TimeoutMs=*/2000)
                            .Hung;
  std::cout << "\ncontrol: uninstrumented deadlocks " << Hung << "/"
            << ControlRuns << "\n";
  std::cout << "\nPaper reference (§3): with abstractions the deadlock is "
               "created with probability 1; without them the third thread "
               "is paused by mistake and the probability drops to ~0.75.\n";
  return 0;
}

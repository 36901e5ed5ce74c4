//===- examples/quickstart.cpp - Figure 1, end to end ----------------------===//
//
// The paper's Figure 1 program: two threads acquire two locks in opposite
// orders, but the deadlock almost never happens under normal schedules
// because the first thread runs long methods first. This example runs the
// full DeadlockFuzzer pipeline on it:
//
//   1. Phase I  — observe one execution, run iGoodlock, print the abstract
//                 potential deadlock cycle;
//   2. Phase II — bias the random scheduler toward that cycle and create
//                 the real deadlock with probability ~1.
//
// Build & run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"

#include <iostream>

using namespace dlf;

namespace {

/// Figure 1's MyThread: runs long methods if flagged, then acquires its two
/// locks in order.
class MyThread {
public:
  MyThread(Mutex &L1, Mutex &L2, bool Flag) : L1(L1), L2(L2), Flag(Flag) {}

  void run() {
    DLF_SCOPE("MyThread::run");
    if (Flag) {
      f1();
      f2();
      f3();
      f4();
    }
    MutexGuard Outer(L1, DLF_NAMED_SITE("fig1:line15"));
    MutexGuard Inner(L2, DLF_NAMED_SITE("fig1:line16"));
  }

private:
  // "Some long running methods": scheduling points under instrumentation,
  // plain work otherwise.
  void f1() { DLF_SCOPE("MyThread::f1"); yieldNow(); }
  void f2() { DLF_SCOPE("MyThread::f2"); yieldNow(); }
  void f3() { DLF_SCOPE("MyThread::f3"); yieldNow(); }
  void f4() { DLF_SCOPE("MyThread::f4"); yieldNow(); }

  Mutex &L1;
  Mutex &L2;
  bool Flag;
};

void figure1Program() {
  Mutex O1("o1", DLF_NAMED_SITE("fig1:line22"), nullptr);
  Mutex O2("o2", DLF_NAMED_SITE("fig1:line23"), nullptr);
  MyThread Body1(O1, O2, /*Flag=*/true);
  MyThread Body2(O2, O1, /*Flag=*/false);
  Thread T1([&] { Body1.run(); }, "thread1", DLF_NAMED_SITE("fig1:line25"));
  Thread T2([&] { Body2.run(); }, "thread2", DLF_NAMED_SITE("fig1:line26"));
  T1.join();
  T2.join();
}

} // namespace

int main() {
  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 20;
  ActiveTester Tester(figure1Program, Config);

  std::cout << "== Phase I: observe + iGoodlock ==\n";
  PhaseOneResult P1 = Tester.runPhaseOne();
  std::cout << "dependency entries: " << P1.Log.entries().size() << "\n";
  for (const AbstractCycle &Cycle : P1.Cycles)
    std::cout << Cycle.toString();

  std::cout << "\n== Phase II: active random deadlock creation ==\n";
  for (const AbstractCycle &Cycle : P1.Cycles) {
    CycleFuzzStats Stats = Tester.fuzzCycle(Cycle);
    std::cout << "reproduced " << Stats.ReproducedTarget << "/" << Stats.Runs
              << " (probability " << Stats.probability() << ", avg thrashes "
              << Stats.avgThrashes() << ")\n";
  }

  std::cout << "\n== Control: 20 uninstrumented runs ==\n";
  const unsigned Hangs =
      runForkedRuns(figure1Program, 20, /*TimeoutMs=*/2000).Hung;
  std::cout << "deadlocks under normal testing: " << Hangs << "/20\n";
  return 0;
}

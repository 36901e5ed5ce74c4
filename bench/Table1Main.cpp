//===- bench/Table1Main.cpp - Reproduces the paper's Table 1 ---------------===//
//
// For every benchmark row: average uninstrumented runtime, Phase I
// (iGoodlock) runtime, average Phase II (DeadlockFuzzer) runtime, the
// number of potential cycles reported by iGoodlock, the number confirmed
// real by DeadlockFuzzer, the empirical reproduction probability, and the
// average number of thrashings per run — the paper's columns. A final
// control column runs each deadlock-prone benchmark uninstrumented N times
// under a watchdog and counts deadlocks (the paper observed zero).
//
// The uninstrumented baseline runs also go through the watchdog:
// unpinned, a deadlock-prone benchmark can deadlock for real even
// uninstrumented. They run back to back in one forked child (a fresh one
// only after a hung or crashed run), each timed inside the child, so the
// fork is billed to none of them and only the first pays the child's cold
// start. A hung baseline run counts as one more deadlock in the row's
// control column (which then covers the baseline runs too) and is left
// out of the Normal ms average.
//
// Knobs: DLF_BENCH_REPS (Phase II repetitions per cycle; paper used 100,
// default 20), DLF_BENCH_NORMAL_RUNS (control runs, default 20). The
// baseline and control runs each get a 5000 ms watchdog.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "substrates/BenchmarkRegistry.h"
#include "support/Env.h"
#include "support/Table.h"

#include <iostream>

using namespace dlf;

int main() {
  const unsigned Reps =
      static_cast<unsigned>(envUInt("DLF_BENCH_REPS", 20));
  const unsigned NormalRuns =
      static_cast<unsigned>(envUInt("DLF_BENCH_NORMAL_RUNS", 20));
  constexpr uint64_t TimeoutMs = 5000;

  std::cout << "Table 1: two-phase results per benchmark (reps=" << Reps
            << ", control runs=" << NormalRuns << ")\n\n";

  Table Out({"Benchmark", "Normal ms", "Phase1 ms", "Phase2 ms",
             "iGoodlock", "Confirmed", "Probability", "Avg thrashes",
             "Normal deadlocks"});

  for (const BenchmarkInfo &Info : allBenchmarks()) {
    if (Info.Name == "collections")
      continue; // Figure 2 bundle; Table 1 reports lists and maps rows

    ActiveTesterConfig Config;
    Config.PhaseTwoReps = Reps;
    ActiveTester Tester(Info.Entry, Config);

    // Baseline: average of the uninstrumented runs that completed.
    constexpr unsigned BaselineRuns = 5;
    ForkedRuns Baseline = runForkedRuns(Info.Entry, BaselineRuns, TimeoutMs);
    double NormalMs = 0;
    for (double Ms : Baseline.WallMs)
      NormalMs += Ms;
    const size_t NormalDone = Baseline.WallMs.size();
    unsigned Hung = Baseline.Hung;

    // Phase I.
    PhaseOneResult P1 = Tester.runPhaseOne();
    double Phase1Ms = P1.Exec.WallMs;

    // Phase II over every cycle.
    unsigned Confirmed = 0;
    unsigned Hits = 0, Runs = 0;
    uint64_t Thrashes = 0;
    double Phase2Ms = 0;
    for (const AbstractCycle &Cycle : P1.Cycles) {
      CycleFuzzStats Stats = Tester.fuzzCycle(Cycle);
      if (Stats.ReproducedTarget > 0)
        ++Confirmed;
      Hits += Stats.ReproducedTarget;
      Runs += Stats.Runs;
      Thrashes += Stats.TotalThrashes + Stats.TotalForcedUnpauses;
      Phase2Ms += Stats.TotalWallMs;
    }

    // Control: uninstrumented runs under a watchdog, counted together with
    // the baseline runs.
    unsigned UninstrumentedRuns = BaselineRuns;
    if (!Info.DeadlockFree) {
      UninstrumentedRuns += NormalRuns;
      Hung += runForkedRuns(Info.Entry, NormalRuns, TimeoutMs).Hung;
    }

    Out.addRow({Info.Name,
                NormalDone ? Table::fmt(NormalMs / NormalDone, 2) : "-",
                Table::fmt(Phase1Ms, 2),
                Runs ? Table::fmt(Phase2Ms / Runs, 2) : "-",
                Table::fmt(static_cast<uint64_t>(P1.Cycles.size())),
                Table::fmt(static_cast<uint64_t>(Confirmed)),
                Runs ? Table::fmt(static_cast<double>(Hits) / Runs, 3) : "-",
                Runs ? Table::fmt(static_cast<double>(Thrashes) / Runs, 2)
                     : "-",
                Info.DeadlockFree && Hung == 0
                    ? "-"
                    : Table::fmt(static_cast<uint64_t>(Hung)) + "/" +
                          Table::fmt(
                              static_cast<uint64_t>(UninstrumentedRuns))});
  }

  Out.print(std::cout);
  std::cout << "\nPaper reference (Table 1): deadlock-free rows report 0 "
               "cycles; logging 3/3 at p=1.00; swing 1/1 at p=1.00; dbcp 2/2 "
               "at p=1.00; lists 27/27 at p=0.99; maps 20/20 at p=0.52; "
               "jigsaw confirms a minority of reported cycles (29/283 at "
               "p=0.214) — shapes, not absolute numbers, are the claim.\n";
  return 0;
}

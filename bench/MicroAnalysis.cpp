//===- bench/MicroAnalysis.cpp - Offline-analysis micro-benchmarks ---------===//
//
// Measures the two trace-analysis passes added with the static-analysis
// suite: the guard-lock cycle pruner (cost vs. number of witnessing
// assignments it has to enumerate) and the lockset + vector-clock race
// detector (cost vs. trace size, and the scaling of its sharded
// pair-checking pass across worker counts).
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "runtime/Records.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace dlf;
using namespace dlf::analysis;

namespace {

void addThread(LockDependencyLog &Log, uint64_t Tid) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  T.Name = "t" + std::to_string(Tid);
  Log.onThreadCreated(T);
}

void addLock(LockDependencyLog &Log, uint64_t Lid) {
  LockRecord L;
  L.Id = LockId(Lid);
  L.Name = "l" + std::to_string(Lid);
  Log.onLockCreated(L);
}

void addEntry(LockDependencyLog &Log, uint64_t Tid,
              const std::vector<uint64_t> &Held, uint64_t Acq,
              const std::string &SiteTag) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  LockRecord L;
  L.Id = LockId(Acq);
  std::vector<LockStackEntry> Stack;
  for (uint64_t H : Held)
    Stack.push_back({LockId(H), Label::intern("site:" + SiteTag + ":" +
                                              std::to_string(H))});
  Log.onAcquireExecuted(
      T, L, Stack,
      Label::intern("site:" + SiteTag + ":" + std::to_string(Acq)),
      LockMode::Exclusive);
}

/// A gate-guarded inversion whose components re-occur at \p Occurrences
/// distinct sites each: the pruner enumerates Occurrences^2 assignments
/// per cycle, all guarded.
void buildGuardedLog(LockDependencyLog &Log, std::vector<AbstractCycle> &Cycles,
                     uint64_t Occurrences) {
  addThread(Log, 1);
  addThread(Log, 2);
  addLock(Log, 10);
  addLock(Log, 11);
  addLock(Log, 12);
  for (uint64_t O = 0; O != Occurrences; ++O) {
    std::string Tag = std::to_string(O);
    addEntry(Log, 1, {10, 11}, 12, "a" + Tag);
    addEntry(Log, 2, {10, 12}, 11, "b" + Tag);
  }
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = true;
  Cycles = runIGoodlock(Log, Opts);
}

void BM_GuardPrune(benchmark::State &State) {
  LockDependencyLog Log;
  std::vector<AbstractCycle> Cycles;
  buildGuardedLog(Log, Cycles, static_cast<uint64_t>(State.range(0)));
  uint64_t Guarded = 0;
  for (auto _ : State) {
    std::vector<CycleClassification> Classes = classifyCycles(Log, Cycles);
    for (const CycleClassification &C : Classes)
      Guarded += C.Class == CycleClass::Guarded;
    benchmark::DoNotOptimize(Classes);
  }
  State.counters["cycles"] = static_cast<double>(Cycles.size());
  State.counters["guarded"] =
      static_cast<double>(Guarded) / State.iterations();
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Cycles.size()));
}
BENCHMARK(BM_GuardPrune)->Arg(1)->Arg(4)->Arg(16);

/// A synthetic access trace: \p Objects shared objects, each touched by
/// two forked threads at several sites, half the objects lock-protected
/// (no race) and half bare (racy).
TraceFile buildAccessTrace(uint64_t Objects) {
  TraceFile Trace;
  auto Add = [&Trace](TraceEvent::Kind K, uint64_t A, uint64_t B,
                      std::string Text) {
    TraceEvent E;
    E.K = K;
    E.A = A;
    E.B = B;
    E.Text = std::move(Text);
    Trace.Events.push_back(std::move(E));
  };
  Add(TraceEvent::Kind::ThreadNew, 1, 0, "main");
  Add(TraceEvent::Kind::ThreadNew, 2, 0, "w2");
  Add(TraceEvent::Kind::ThreadNew, 3, 0, "w3");
  Add(TraceEvent::Kind::Fork, 1, 2, "");
  Add(TraceEvent::Kind::Fork, 1, 3, "");
  Add(TraceEvent::Kind::LockNew, 50, 0, "lock");
  for (uint64_t O = 0; O != Objects; ++O) {
    uint64_t Oid = 100 + O;
    Add(TraceEvent::Kind::ObjectNew, Oid, 0, "obj#" + std::to_string(O));
    bool Protected = (O % 2) == 0;
    for (uint64_t Tid : {uint64_t(2), uint64_t(3)}) {
      if (Protected)
        Add(TraceEvent::Kind::Acquire, Tid, 50, "acq");
      Add(TraceEvent::Kind::Write, Tid, Oid,
          "store" + std::to_string(Tid) + "." + std::to_string(O));
      Add(TraceEvent::Kind::Read, Tid, Oid,
          "load" + std::to_string(Tid) + "." + std::to_string(O));
      if (Protected)
        Add(TraceEvent::Kind::Release, Tid, 50, "");
    }
  }
  return Trace;
}

void BM_RacePass(benchmark::State &State) {
  TraceFile Trace = buildAccessTrace(static_cast<uint64_t>(State.range(0)));
  uint64_t Pairs = 0;
  for (auto _ : State) {
    RaceAnalysis R = detectRaces(Trace);
    Pairs += R.RacyPairs;
    benchmark::DoNotOptimize(R);
  }
  State.counters["racy_pairs"] =
      static_cast<double>(Pairs) / State.iterations();
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Trace.Events.size()));
}
BENCHMARK(BM_RacePass)->Arg(64)->Arg(512)->Arg(4096);

} // namespace

BENCHMARK_MAIN();

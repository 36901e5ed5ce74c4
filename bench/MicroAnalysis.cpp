//===- bench/MicroAnalysis.cpp - Offline-analysis micro-benchmarks ---------===//
//
// Measures the trace reader in front of every offline analysis (events/s
// over a storm-shaped trace file, the shape of e2ebench's
// preload-lockstorm capture), the same read streamed into the dependency
// log as dlf-analyze does it, and the two trace-analysis passes added with
// the static-analysis suite: the guard-lock cycle pruner (cost vs. number
// of witnessing assignments it has to enumerate) and the lockset +
// vector-clock race detector (cost vs. trace size).
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "interpose/TraceFormat.h"
#include "runtime/Records.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

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

/// Writes a lock-storm trace to a fresh file and returns its path: main
/// names eight pool locks, then two workers take \p Pairs nested pairs
/// between them (A/A/R/R lines; the acquire sites are mangled
/// "symbol+offset" strings, past std::string's inline capacity, as the
/// preload records them).
std::string writeStormTrace(uint64_t Pairs) {
  using K = TraceEvent::Kind;
  const std::string Outer =
      "_ZN12_GLOBAL__N_110nestedPairEP15pthread_mutex_tS1_+0x1c";
  const std::string Inner =
      "_ZN12_GLOBAL__N_110nestedPairEP15pthread_mutex_tS1_+0x28";
  std::string Text = interpose::TraceHeader;
  auto Add = [&Text](K Kind, uint64_t A, uint64_t B, std::string_view Site) {
    interpose::appendTraceLine({Kind, A, B, Site}, Text);
  };
  Add(K::ThreadNew, 1, 0, "main#1");
  for (uint64_t L = 1; L <= 8; ++L)
    Add(K::LockNew, L, 0, "_ZN12_GLOBAL__N_15touchEP15pthread_mutex_t+0x12#" +
                              std::to_string(L));
  for (uint64_t T : {uint64_t(2), uint64_t(3)}) {
    Add(K::ThreadNew, T, 0, "main+0x1a2#" + std::to_string(T - 1));
    Add(K::Fork, 1, T, "");
  }
  for (uint64_t I = 0; I != Pairs; ++I) {
    uint64_t T = 2 + I % 2;
    uint64_t A = 1 + (I * 7) % 7;
    uint64_t B = A + 1 + (I * 3) % (8 - A);
    Add(K::Acquire, T, A, Outer);
    Add(K::Acquire, T, B, Inner);
    Add(K::Release, T, B, "");
    Add(K::Release, T, A, "");
  }
  std::string Path = (std::filesystem::temp_directory_path() /
                      ("dlf_bm_read_trace." + std::to_string(getpid()) + "." +
                       std::to_string(Pairs)))
                         .string();
  std::ofstream(Path, std::ios::binary) << Text;
  return Path;
}

void BM_ReadTrace(benchmark::State &State) {
  std::string Path = writeStormTrace(static_cast<uint64_t>(State.range(0)));
  size_t Events = 0;
  for (auto _ : State) {
    TraceFile Trace;
    std::string Error;
    if (readTrace(Path, Trace, &Error) != TraceReadStatus::Ok) {
      State.SkipWithError(Error.c_str());
      break;
    }
    Events = Trace.Events.size();
    benchmark::DoNotOptimize(Trace);
  }
  std::remove(Path.c_str());
  State.counters["events"] = static_cast<double>(Events);
  State.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(Events) * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReadTrace)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

/// dlf-analyze's default walk over the same file: each event goes from the
/// reader straight into the dependency log, with no event vector between.
void BM_AnalyzeStream(benchmark::State &State) {
  std::string Path = writeStormTrace(static_cast<uint64_t>(State.range(0)));
  uint64_t Events = 0;
  for (auto _ : State) {
    IncrementalLogBuilder Builder;
    std::string Error;
    if (streamTrace(
            Path, [&Builder](const TraceEvent &E) { Builder.feed(E); },
            &Error) != TraceReadStatus::Ok) {
      State.SkipWithError(Error.c_str());
      break;
    }
    Events = Builder.eventsSeen();
    benchmark::DoNotOptimize(Builder.log().entries().size());
  }
  std::remove(Path.c_str());
  State.counters["events"] = static_cast<double>(Events);
  State.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(Events) * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyzeStream)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

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

//===- bench/MicroIGoodlock.cpp - iGoodlock closure micro-benchmarks -------===//
//
// Measures the iterative transitive closure (Algorithm 1) on synthetic
// lock dependency relations: cost vs. relation size, and cost vs. cycle
// length (iterative deepening). This is the ablation for DESIGN.md's
// decision 5 (closure instead of the classical Goodlock DFS lock graph:
// more memory, better runtime).
//
//===----------------------------------------------------------------------===//

#include "igoodlock/ClassicGoodlock.h"
#include "igoodlock/IGoodlock.h"
#include "runtime/Records.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace dlf;

namespace {

/// Fabricates one dependency event: thread Tid acquires lock Acq while
/// holding Held.
void addEntry(LockDependencyLog &Log, uint64_t Tid,
              const std::vector<uint64_t> &Held, uint64_t Acq) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  T.Name = "t" + std::to_string(Tid);
  Log.onThreadCreated(T);

  LockRecord L;
  L.Id = LockId(Acq);
  L.Name = "l" + std::to_string(Acq);
  Log.onLockCreated(L);

  std::vector<LockStackEntry> Stack;
  for (uint64_t H : Held) {
    LockRecord HeldLock;
    HeldLock.Id = LockId(H);
    HeldLock.Name = "l" + std::to_string(H);
    Log.onLockCreated(HeldLock);
    Stack.push_back(
        {LockId(H), Label::intern("site:" + std::to_string(H))});
  }
  Log.onAcquireExecuted(T, L, Stack,
                        Label::intern("site:" + std::to_string(Acq)),
                        LockMode::Exclusive);
}

/// T threads, each acquiring a private inner lock while holding a shared
/// outer lock plus pairwise inversions, sized by the benchmark argument.
/// The ordered pairs lie on no lock-graph cycle, so the closure prunes
/// them and chains only the inversion ring.
void buildScaledRelation(LockDependencyLog &Log, uint64_t Threads) {
  for (uint64_t T = 1; T <= Threads; ++T) {
    // Ordered (benign) pairs.
    addEntry(Log, T, {100 + T}, 200 + T);
    addEntry(Log, T, {100 + T, 200 + T}, 300 + T);
    // One inversion pair per adjacent thread: a cycle between T and T+1.
    addEntry(Log, T, {10 + T}, 10 + T + 1);
  }
  // Close the ring.
  addEntry(Log, Threads + 1, {10 + Threads + 1}, 11);
}

/// A dense single-cluster relation: every thread records an (held {l_i},
/// acquire l_j) edge for every ordered lock pair, so the closure's levels
/// fan out combinatorially — the chain-bound workload that the parallel
/// engine shards and the held-set bitmasks accelerate.
void buildDenseRelation(LockDependencyLog &Log, uint64_t Threads,
                        uint64_t Locks) {
  for (uint64_t T = 1; T <= Threads; ++T)
    for (uint64_t I = 1; I <= Locks; ++I)
      for (uint64_t J = 1; J <= Locks; ++J)
        if (I != J)
          addEntry(Log, T, {500 + I}, 500 + J);
}

void BM_ClosureScaling(benchmark::State &State) {
  LockDependencyLog Log;
  buildScaledRelation(Log, static_cast<uint64_t>(State.range(0)));
  for (auto _ : State) {
    IGoodlockStats Stats;
    auto Cycles = runIGoodlock(Log, {}, &Stats);
    benchmark::DoNotOptimize(Cycles);
  }
  State.SetLabel(std::to_string(Log.entries().size()) + " entries");
}
BENCHMARK(BM_ClosureScaling)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

/// The closure-bound case: dense relations where levels hold thousands of
/// chains. Arg0 scales the thread count, Arg1 is AnalysisJobs (1 = serial
/// baseline). Results are identical for every job count — only wall time
/// may differ (and only on multi-core hosts).
void BM_ClosureParallelJobs(benchmark::State &State) {
  LockDependencyLog Log;
  buildDenseRelation(Log, static_cast<uint64_t>(State.range(0)),
                     /*Locks=*/6);
  IGoodlockOptions Opts;
  Opts.MaxCycleLength = 4;
  Opts.AnalysisJobs = static_cast<unsigned>(State.range(1));
  uint64_t Chains = 0;
  for (auto _ : State) {
    IGoodlockStats Stats;
    auto Cycles = runIGoodlock(Log, Opts, &Stats);
    benchmark::DoNotOptimize(Cycles);
    Chains = Stats.ChainsExplored;
  }
  State.SetLabel(std::to_string(Log.entries().size()) + " entries, " +
                 std::to_string(Chains) + " chains");
}
BENCHMARK(BM_ClosureParallelJobs)
    ->Args({6, 1})
    ->Args({6, 2})
    ->Args({6, 4})
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({10, 4});

/// The >64-distinct-locks fallback: wide held sets force the sorted-vector
/// disjointness path instead of the one-AND bitmask path. Pairs with
/// BM_ClosureParallelJobs to measure the cost of losing the mask.
void BM_ClosureWideHeldSets(benchmark::State &State) {
  const uint64_t Threads = static_cast<uint64_t>(State.range(0));
  LockDependencyLog Log;
  // Each thread holds a private 20-lock prefix (disjoint across threads,
  // ids spread past 64) while acquiring its inversion lock.
  for (uint64_t T = 1; T <= Threads; ++T) {
    std::vector<uint64_t> Held;
    for (uint64_t I = 0; I != 20; ++I)
      Held.push_back(1000 + T * 20 + I);
    Held.push_back(10 + T);
    addEntry(Log, T, Held, 10 + (T % Threads) + 1);
  }
  for (auto _ : State) {
    auto Cycles = runIGoodlock(Log);
    benchmark::DoNotOptimize(Cycles);
  }
  State.SetLabel(std::to_string(Log.entries().size()) + " entries");
}
BENCHMARK(BM_ClosureWideHeldSets)->Arg(8)->Arg(32);

/// Mode-aware variant of addEntry: held entries carry their LockMode and
/// the acquire itself has one (rwlock read sides record Shared).
void addModedEntry(LockDependencyLog &Log, uint64_t Tid,
                   const std::vector<std::pair<uint64_t, LockMode>> &Held,
                   uint64_t Acq, LockMode Mode) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  T.Name = "t" + std::to_string(Tid);
  Log.onThreadCreated(T);

  LockRecord L;
  L.Id = LockId(Acq);
  L.Name = "l" + std::to_string(Acq);
  Log.onLockCreated(L);

  std::vector<LockStackEntry> Stack;
  for (const auto &[H, HMode] : Held) {
    LockRecord HeldLock;
    HeldLock.Id = LockId(H);
    HeldLock.Name = "l" + std::to_string(H);
    Log.onLockCreated(HeldLock);
    Stack.push_back(
        {LockId(H), Label::intern("site:" + std::to_string(H)), HMode});
  }
  Log.onAcquireExecuted(T, L, Stack,
                        Label::intern("site:" + std::to_string(Acq)), Mode);
}

/// The widened-alphabet closure case: N pairwise inversions that all
/// read-hold one global registry (mutex semantics would prune every one
/// as gate-guarded; shared-shared holds keep them all), plus per-thread
/// read-side traffic whose candidate pairs the mode conflict rule must
/// reject one by one. Pairs with BM_ClosureScaling to price the
/// per-extension mode checks.
void BM_ClosureMixedModes(benchmark::State &State) {
  const uint64_t Threads = static_cast<uint64_t>(State.range(0));
  LockDependencyLog Log;
  for (uint64_t T = 1; T <= Threads; ++T) {
    // Inversion pair between threads T and Threads+T, under the shared
    // registry (lock 1): one kept cycle each.
    addModedEntry(Log, T,
                  {{1, LockMode::Shared}, {10 + T, LockMode::Exclusive}},
                  10000 + T, LockMode::Exclusive);
    addModedEntry(Log, Threads + T,
                  {{1, LockMode::Shared}, {10000 + T, LockMode::Exclusive}},
                  10 + T, LockMode::Exclusive);
    // Read-read chains: shared waits against shared holds produce
    // candidate pairs but never edges.
    addModedEntry(Log, T, {{1, LockMode::Shared}}, 500 + T,
                  LockMode::Shared);
    addModedEntry(Log, T,
                  {{1, LockMode::Shared}, {500 + T, LockMode::Shared}},
                  500 + T + 1, LockMode::Shared);
  }
  uint64_t Found = 0;
  for (auto _ : State) {
    auto Cycles = runIGoodlock(Log);
    benchmark::DoNotOptimize(Cycles);
    Found = Cycles.size();
  }
  State.SetLabel(std::to_string(Log.entries().size()) + " entries, " +
                 std::to_string(Found) + " cycles kept");
}
BENCHMARK(BM_ClosureMixedModes)->Arg(8)->Arg(32)->Arg(128);

/// A single ring of N threads (one cycle of length N): the closure must
/// iterate to depth N, measuring the cost of deepening.
void BM_RingDeepening(benchmark::State &State) {
  const uint64_t N = static_cast<uint64_t>(State.range(0));
  LockDependencyLog Log;
  for (uint64_t T = 1; T <= N; ++T)
    addEntry(Log, T, {T}, (T % N) + 1);
  IGoodlockOptions Opts;
  Opts.MaxCycleLength = static_cast<unsigned>(N) + 1;
  for (auto _ : State) {
    auto Cycles = runIGoodlock(Log, Opts);
    benchmark::DoNotOptimize(Cycles);
  }
}
BENCHMARK(BM_RingDeepening)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

/// Duplicate-heavy input: the same acquisition pattern repeated (a loop),
/// measuring the dedup path of the recorder.
void BM_RecorderDedup(benchmark::State &State) {
  ThreadRecord T;
  T.Id = ThreadId(1);
  LockRecord L;
  L.Id = LockId(7);
  std::vector<LockStackEntry> Stack = {{LockId(3), Label::intern("s3")}};
  Label Site = Label::intern("s7");
  for (auto _ : State) {
    LockDependencyLog Log;
    Log.onThreadCreated(T);
    Log.onLockCreated(L);
    for (int I = 0; I != State.range(0); ++I)
      Log.onAcquireExecuted(T, L, Stack, Site, LockMode::Exclusive);
    benchmark::DoNotOptimize(Log.entries().size());
  }
}
BENCHMARK(BM_RecorderDedup)->Arg(100)->Arg(1000);

/// The paper's §2.2 trade, measured: the classical DFS Goodlock on the
/// same relations as BM_ClosureScaling (compare wall time; the DFS's peak
/// memory is a single chain while the closure materializes levels).
void BM_ClassicGoodlockScaling(benchmark::State &State) {
  LockDependencyLog Log;
  buildScaledRelation(Log, static_cast<uint64_t>(State.range(0)));
  ClassicGoodlockStats Stats;
  for (auto _ : State) {
    auto Cycles = runClassicGoodlock(Log, {}, &Stats);
    benchmark::DoNotOptimize(Cycles);
  }
  State.SetLabel("peak depth " + std::to_string(Stats.PeakDepth));
}
BENCHMARK(BM_ClassicGoodlockScaling)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_ClassicGoodlockRing(benchmark::State &State) {
  const uint64_t N = static_cast<uint64_t>(State.range(0));
  LockDependencyLog Log;
  for (uint64_t T = 1; T <= N; ++T)
    addEntry(Log, T, {T}, (T % N) + 1);
  IGoodlockOptions Opts;
  Opts.MaxCycleLength = static_cast<unsigned>(N) + 1;
  for (auto _ : State) {
    auto Cycles = runClassicGoodlock(Log, Opts);
    benchmark::DoNotOptimize(Cycles);
  }
}
BENCHMARK(BM_ClassicGoodlockRing)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

} // namespace

BENCHMARK_MAIN();

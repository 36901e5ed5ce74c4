//===- bench/MicroPredict.cpp - Sync-preserving prediction benchmarks ------===//
//
// Measures the --predict engine (analysis/Predict): verdict cost as the
// recorded trace grows with the cycle count held fixed (the engine's
// near-linear contract — indexing walks the trace once and the witness
// fixpoint touches each included event a bounded number of times).
//
//===----------------------------------------------------------------------===//

#include "analysis/Predict.h"
#include "analysis/Trace.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace dlf;
using namespace dlf::analysis;

namespace {

void add(TraceFile &Trace, TraceEvent::Kind K, uint64_t A, uint64_t B,
         std::string Text = "") {
  TraceEvent E;
  E.K = K;
  E.A = A;
  E.B = B;
  E.Text = std::move(Text);
  Trace.Events.push_back(std::move(E));
}

void acq(TraceFile &T, uint64_t Tid, uint64_t Lid) {
  add(T, TraceEvent::Kind::Acquire, Tid, Lid,
      "t" + std::to_string(Tid) + "/acq" + std::to_string(Lid));
}

void rel(TraceFile &T, uint64_t Tid, uint64_t Lid) {
  add(T, TraceEvent::Kind::Release, Tid, Lid);
}

/// One sequential ABBA inversion between \p T1 and \p T2 on \p La / \p Lb:
/// exactly one realizable cycle per call.
void abbaPair(TraceFile &T, uint64_t T1, uint64_t T2, uint64_t La,
              uint64_t Lb) {
  acq(T, T1, La);
  acq(T, T1, Lb);
  rel(T, T1, Lb);
  rel(T, T1, La);
  acq(T, T2, Lb);
  acq(T, T2, La);
  rel(T, T2, La);
  rel(T, T2, Lb);
}

/// Fixed cycle structure (Pairs ABBA inversions) padded with \p Filler
/// closed critical sections on the cycle locks from dedicated threads —
/// the trace the indexer and the witness closure must walk past.
TraceFile paddedTrace(unsigned Pairs, uint64_t Filler) {
  TraceFile T;
  const uint64_t Workers = 2 * Pairs;
  const uint64_t FillerThreads = Pairs;
  add(T, TraceEvent::Kind::ThreadNew, 1, 0, "thr#1");
  for (uint64_t W = 2; W < 2 + Workers + FillerThreads; ++W) {
    add(T, TraceEvent::Kind::ThreadNew, W, 0, "thr#" + std::to_string(W));
    add(T, TraceEvent::Kind::Fork, 1, W);
  }
  for (unsigned P = 0; P != Pairs; ++P) {
    add(T, TraceEvent::Kind::LockNew, 10 + 2 * P, 0,
        "a" + std::to_string(P));
    add(T, TraceEvent::Kind::LockNew, 11 + 2 * P, 0,
        "b" + std::to_string(P));
  }
  // Filler first: the prefix the request-side walk has to skip or close.
  for (uint64_t F = 0; F != Filler; ++F) {
    uint64_t Tid = 2 + Workers + (F % FillerThreads);
    uint64_t Lid = 10 + (F % (2 * Pairs));
    acq(T, Tid, Lid);
    rel(T, Tid, Lid);
  }
  for (unsigned P = 0; P != Pairs; ++P)
    abbaPair(T, 2 + 2 * P, 3 + 2 * P, 10 + 2 * P, 11 + 2 * P);
  return T;
}

/// Trace length sweep at a fixed cycle count: verdict cost must track the
/// event count near-linearly (the ISSUE's BM_PredictLinear acceptance).
void BM_PredictLinear(benchmark::State &State) {
  const uint64_t Filler = static_cast<uint64_t>(State.range(0));
  TraceFile Trace = paddedTrace(/*Pairs=*/2, Filler);
  PredictAnalysis Probe = predictDeadlocks(Trace);
  if (Probe.soundCount() != Probe.Cycles.size() || Probe.Cycles.size() != 2)
    State.SkipWithError("unexpected cycle structure");
  for (auto _ : State) {
    PredictAnalysis R = predictDeadlocks(Trace);
    benchmark::DoNotOptimize(R.Predictions.data());
  }
  State.SetComplexityN(static_cast<int64_t>(Trace.Events.size()));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Trace.Events.size()));
}
BENCHMARK(BM_PredictLinear)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 14)
    ->Complexity(benchmark::oN);

} // namespace

BENCHMARK_MAIN();

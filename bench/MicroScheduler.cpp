//===- bench/MicroScheduler.cpp - Runtime mode overhead ---------------------===//
//
// Measures the cost of one execution of a lock-heavy workload under the
// three runtime modes: Passthrough (plain mutexes), Record (real
// concurrency + dependency recording) and Active (serialized token-passing
// scheduler). The Active/Passthrough ratio is the instrumentation overhead
// the paper reports as "within a factor of six" in Table 1's runtime
// columns; serialization makes ours workload-dependent, which the bench
// makes visible.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "fuzzer/RandomStrategy.h"
#include "igoodlock/LockDependency.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "telemetry/Metrics.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace dlf;

namespace {

/// T threads x E critical sections over a handful of shared locks, always
/// in a consistent order (no deadlocks; pure scheduling overhead).
void lockHeavyWorkload(unsigned Threads, unsigned Events) {
  DLF_SCOPE("micro::lockHeavy");
  Mutex A("a", DLF_SITE(), nullptr);
  Mutex B("b", DLF_SITE(), nullptr);
  std::vector<Thread> Workers;
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back(Thread(
        [&A, &B, Events] {
          DLF_SCOPE("micro::worker");
          for (unsigned E = 0; E != Events; ++E) {
            MutexGuard Outer(A, DLF_NAMED_SITE("micro/outer"));
            MutexGuard Inner(B, DLF_NAMED_SITE("micro/inner"));
          }
        },
        "w" + std::to_string(T), DLF_SITE()));
  }
  for (Thread &W : Workers)
    W.join();
}

void BM_ModePassthrough(benchmark::State &State) {
  for (auto _ : State) {
    Options Opts;
    Opts.Mode = RunMode::Passthrough;
    Runtime RT(Opts);
    RT.run([&] {
      lockHeavyWorkload(static_cast<unsigned>(State.range(0)), 64);
    });
  }
}
BENCHMARK(BM_ModePassthrough)->Arg(2)->Arg(4);

void BM_ModeRecord(benchmark::State &State) {
  for (auto _ : State) {
    Options Opts;
    Opts.Mode = RunMode::Record;
    LockDependencyLog Log;
    Runtime RT(Opts, nullptr, &Log);
    RT.run([&] {
      lockHeavyWorkload(static_cast<unsigned>(State.range(0)), 64);
    });
    benchmark::DoNotOptimize(Log.entries().size());
  }
}
BENCHMARK(BM_ModeRecord)->Arg(2)->Arg(4);

void BM_ModeActive(benchmark::State &State) {
  for (auto _ : State) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = 42;
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run([&] {
      lockHeavyWorkload(static_cast<unsigned>(State.range(0)), 64);
    });
    benchmark::DoNotOptimize(R.Steps);
  }
}
BENCHMARK(BM_ModeActive)->Arg(2)->Arg(4);

/// One Active run in which main spawns and joins N managed threads one after
/// another, each taking one lock: the per-thread spawn, start handoff and
/// join cost that BM_ModeActive mixes into its lock traffic.
void BM_ManagedThreadSpawnJoin(benchmark::State &State) {
  const auto Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = 42;
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run([Threads] {
      Mutex M("spawn", DLF_SITE(), nullptr);
      for (unsigned T = 0; T != Threads; ++T) {
        Thread Worker(
            [&M] { MutexGuard Guard(M, DLF_NAMED_SITE("micro/spawn")); },
            "s", DLF_SITE());
        Worker.join();
      }
    });
    benchmark::DoNotOptimize(R.Steps);
  }
  State.SetItemsProcessed(State.iterations() * Threads);
}
BENCHMARK(BM_ManagedThreadSpawnJoin)->Arg(8)->Arg(32);

/// Active mode with the metrics registry armed: bounds the telemetry cost
/// (bulk end-of-run recording — the hot path itself only ever pays one
/// relaxed load, in the disabled case too). Compare against BM_ModeActive;
/// the gap is the overhead budget DESIGN.md §10 claims is negligible.
void BM_ModeActiveTelemetry(benchmark::State &State) {
  telemetry::setEnabled(true);
  for (auto _ : State) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = 42;
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run([&] {
      lockHeavyWorkload(static_cast<unsigned>(State.range(0)), 64);
    });
    benchmark::DoNotOptimize(R.Steps);
  }
  telemetry::setEnabled(false);
  telemetry::Registry::global().reset();
}
BENCHMARK(BM_ModeActiveTelemetry)->Arg(2)->Arg(4);

/// The avoidance (immunity) extension's overhead: the same lock-heavy
/// workload with an unrelated cycle spec armed — every acquire pays the
/// component-matching check without ever matching.
void BM_ModeActiveWithImmunity(benchmark::State &State) {
  // Build a spec from a tiny unrelated ABBA program once.
  static const std::vector<CycleSpec> Immunity = [] {
    auto Abba = [] {
      Mutex A("imm-a", DLF_SITE());
      Mutex B("imm-b", DLF_SITE());
      Thread T1([&] {
        MutexGuard F(A, DLF_NAMED_SITE("immb:t1a"));
        MutexGuard S(B, DLF_NAMED_SITE("immb:t1b"));
      });
      Thread T2([&] {
        MutexGuard F(B, DLF_NAMED_SITE("immb:t2b"));
        MutexGuard S(A, DLF_NAMED_SITE("immb:t2a"));
      });
      T1.join();
      T2.join();
    };
    ActiveTesterConfig Config;
    Config.PhaseTwoReps = 3;
    ActiveTester Tester(Abba, Config);
    return ActiveTester::buildImmunity(Tester.run());
  }();

  for (auto _ : State) {
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = 42;
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy, nullptr, &Immunity);
    ExecutionResult R = RT.run([&] {
      lockHeavyWorkload(static_cast<unsigned>(State.range(0)), 64);
    });
    benchmark::DoNotOptimize(R.Steps);
  }
}
BENCHMARK(BM_ModeActiveWithImmunity)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();

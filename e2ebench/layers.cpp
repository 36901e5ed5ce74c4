//===- e2ebench/layers.cpp - Traced per-layer runner ------------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// dlf-layers: the traced half of the end-to-end benchmark. It links libdlf
// and times the public entry point of each layer with steady_clock spans
// recorded from outside the library, so the library itself carries no
// tracing. One invocation runs one layer group and prints a single JSON
// object on stdout:
//
//   {"spans": [{"name": N, "parent": P, "s": seconds, "cpu_s": seconds}, ...],
//    "counts": {"name": value, ...}}
//
// Usage:
//   dlf-layers fuzzer   <benchmark> <seed> <seeds-per-cycle>
//       ActiveTester::runPhaseOne, then runOnce(cycle, seed) for every
//       cycle over the first seeds a campaign would use.
//   dlf-layers campaign <benchmark> <seed> <reps> <jobs> <journal>
//       CampaignRunner::run, as dlf-run --campaign does.
//   dlf-layers analysis <trace> <predict: 0|1>
//       analysis::readTrace, IncrementalLogBuilder::feed, runIGoodlock at
//       1 and 3 jobs, classifyCycles and, with predict, predictDeadlocks at
//       1 and 3 jobs.
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/Predict.h"
#include "analysis/Trace.h"
#include "campaign/CampaignRunner.h"
#include "fuzzer/ActiveTester.h"
#include "igoodlock/IGoodlock.h"
#include "substrates/BenchmarkRegistry.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

using namespace dlf;

namespace {

struct Span {
  std::string Name;
  std::string Parent;
  double Seconds = 0;
  double CpuSeconds = 0;
};

std::vector<Span> Spans;
std::vector<std::pair<std::string, double>> Counts;

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

/// Times \p Body as span \p Name under \p Parent and returns its result.
template <typename F>
auto timed(const char *Name, const char *Parent, F &&Body) {
  using Clock = std::chrono::steady_clock;
  double Cpu0 = processCpuSeconds();
  auto T0 = Clock::now();
  auto Finish = [&] {
    double Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
    Spans.push_back({Name, Parent, Seconds, processCpuSeconds() - Cpu0});
  };
  if constexpr (std::is_void_v<decltype(Body())>) {
    Body();
    Finish();
  } else {
    auto R = Body();
    Finish();
    return R;
  }
}

void count(const char *Name, double Value) {
  Counts.emplace_back(Name, Value);
}

void printJson() {
  std::printf("{\"spans\": [");
  for (size_t I = 0; I != Spans.size(); ++I)
    std::printf("%s{\"name\": \"%s\", \"parent\": \"%s\", \"s\": %.9f, "
                "\"cpu_s\": %.9f}",
                I ? ", " : "", Spans[I].Name.c_str(), Spans[I].Parent.c_str(),
                Spans[I].Seconds, Spans[I].CpuSeconds);
  std::printf("], \"counts\": {");
  for (size_t I = 0; I != Counts.size(); ++I)
    std::printf("%s\"%s\": %.17g", I ? ", " : "", Counts[I].first.c_str(),
                Counts[I].second);
  std::printf("}}\n");
}

const BenchmarkInfo &benchmark(const char *Name) {
  const BenchmarkInfo *B = findBenchmark(Name);
  if (!B) {
    std::fprintf(stderr, "dlf-layers: unknown benchmark '%s'\n", Name);
    std::exit(2);
  }
  return *B;
}

/// The tester configuration dlf-run builds for `--seed Seed --reps Reps`.
ActiveTesterConfig testerConfig(uint64_t Seed, unsigned Reps) {
  ActiveTesterConfig C;
  C.PhaseTwoReps = Reps;
  C.PhaseOneSeed = Seed;
  C.PhaseTwoSeedBase = Seed * 1000;
  return C;
}

int runFuzzer(const BenchmarkInfo &Bench, uint64_t Seed,
              unsigned SeedsPerCycle) {
  ActiveTester Tester(Bench.Entry, testerConfig(Seed, SeedsPerCycle));
  PhaseOneResult P1 =
      timed("fuzzer.phase1", "fuzzer", [&] { return Tester.runPhaseOne(); });
  count("fuzzer.phase1_cycles", static_cast<double>(P1.Cycles.size()));
  uint64_t Reps = 0, Reproduced = 0, Thrashes = 0, Steps = 0, Pauses = 0;
  for (const AbstractCycle &Cycle : P1.Cycles)
    for (unsigned R = 0; R != SeedsPerCycle; ++R) {
      ExecutionResult E = timed("fuzzer.rep", "fuzzer", [&] {
        return Tester.runOnce(Cycle, Tester.config().PhaseTwoSeedBase + R);
      });
      ++Reps;
      Thrashes += E.Thrashes;
      Steps += E.Steps;
      Pauses += E.Pauses;
      if (E.DeadlockFound && E.Witness &&
          ActiveTester::witnessMatchesCycle(*E.Witness, Cycle,
                                            Tester.config().Base.Kind,
                                            Tester.config().Base.UseContext))
        ++Reproduced;
    }
  count("fuzzer.reps", static_cast<double>(Reps));
  count("fuzzer.reproduced", static_cast<double>(Reproduced));
  count("fuzzer.thrashes", static_cast<double>(Thrashes));
  count("runtime.steps", static_cast<double>(Steps));
  count("runtime.pauses", static_cast<double>(Pauses));
  return P1.RetriesExhausted ? 1 : 0;
}

int runCampaign(const BenchmarkInfo &Bench, uint64_t Seed, unsigned Reps,
                unsigned Jobs, const std::string &Journal) {
  campaign::CampaignConfig CC;
  CC.BenchmarkName = Bench.Name;
  CC.Entry = Bench.Entry;
  CC.Tester = testerConfig(Seed, Reps);
  CC.Jobs = Jobs;
  CC.JournalPath = Journal;
  campaign::CampaignRunner Runner(std::move(CC));
  campaign::CampaignReport R =
      timed("campaign.run", "campaign", [&] { return Runner.run(); });
  if (!R.Error.empty()) {
    std::fprintf(stderr, "dlf-layers: campaign: %s\n", R.Error.c_str());
    return 1;
  }
  double RepWallMs = 0;
  unsigned Retries = 0, Failed = 0, Confirmed = 0;
  for (const campaign::CycleCampaignStats &S : R.PerCycle) {
    RepWallMs += S.TotalWallMs;
    Retries += S.RetriesSpent;
    Failed += S.Hung + S.CrashedSignal + S.CrashedExit + S.Oom;
    Confirmed += S.Reproduced > 0;
  }
  count("campaign.cycles", static_cast<double>(R.Cycles.size()));
  count("campaign.confirmed", Confirmed);
  count("campaign.reps", R.RepsExecuted);
  count("campaign.retries", Retries);
  count("campaign.failed_reps", Failed);
  count("campaign.phase2_s", R.PhaseTwoWallMs / 1000.0);
  count("campaign.child_cpu_s", R.ChildCpuMs / 1000.0);
  count("campaign.jobs", R.JobsUsed);
  count("campaign.rep_wall_s", RepWallMs / 1000.0);
  return R.CampaignComplete ? 0 : 1;
}

int runAnalysis(const std::string &Path, bool Predict) {
  analysis::TraceFile Trace;
  std::string Error;
  analysis::TraceReadStatus St = timed("analysis.read_trace", "analysis", [&] {
    return analysis::readTrace(Path, Trace, &Error);
  });
  if (St != analysis::TraceReadStatus::Ok) {
    std::fprintf(stderr, "dlf-layers: %s: %s\n", Path.c_str(), Error.c_str());
    return 2;
  }
  count("analysis.events", static_cast<double>(Trace.Events.size()));

  analysis::IncrementalLogBuilder Builder(nullptr);
  timed("analysis.logbuilder", "analysis",
        [&] { Builder.feed(Trace.Events); });
  count("igoodlock.entries",
        static_cast<double>(Builder.log().entries().size()));

  // dlf-analyze keeps guarded cycles in both modes.
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = true;
  IGoodlockStats Stats;
  std::vector<AbstractCycle> Cycles = timed("igoodlock.closure", "analysis",
                                            [&] {
    return runIGoodlock(Builder.log(), Opts, &Stats);
  });
  count("igoodlock.chains", static_cast<double>(Stats.ChainsExplored));
  count("igoodlock.cycles", static_cast<double>(Cycles.size()));
  count("igoodlock.truncated", Stats.Truncated ? 1 : 0);
  Opts.AnalysisJobs = 3;
  IGoodlockStats Stats3;
  size_t Cycles3 = timed("igoodlock.closure_j3", "analysis", [&] {
    return runIGoodlock(Builder.log(), Opts, &Stats3).size();
  });
  count("igoodlock.cycles_j3", static_cast<double>(Cycles3));

  std::vector<analysis::CycleClassification> Classes =
      timed("analysis.prune", "analysis", [&] {
        return analysis::classifyCycles(Builder.log(), Cycles);
      });
  size_t Schedulable = 0;
  for (const analysis::CycleClassification &C : Classes)
    Schedulable += C.schedulable();
  count("analysis.schedulable", static_cast<double>(Schedulable));

  if (Predict) {
    analysis::PredictAnalysis P = timed("analysis.predict", "analysis", [&] {
      return analysis::predictDeadlocks(Trace);
    });
    count("analysis.predict_cycles", static_cast<double>(P.Cycles.size()));
    count("analysis.sound", static_cast<double>(P.soundCount()));
    IGoodlockOptions Jobs3;
    Jobs3.AnalysisJobs = 3;
    size_t Sound3 = timed("analysis.predict_j3", "analysis", [&] {
      return analysis::predictDeadlocks(Trace, Jobs3).soundCount();
    });
    count("analysis.sound_j3", static_cast<double>(Sound3));
  }
  return 0;
}

bool parseU64(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return End && End != Text && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Mode = Argc > 1 ? Argv[1] : "";
  uint64_t A = 0, B = 0, C = 0;
  int Rc = 1;
  if (Mode == "fuzzer" && Argc == 5 && parseU64(Argv[3], A) &&
      parseU64(Argv[4], B)) {
    Rc = runFuzzer(benchmark(Argv[2]), A, static_cast<unsigned>(B));
  } else if (Mode == "campaign" && Argc == 7 && parseU64(Argv[3], A) &&
             parseU64(Argv[4], B) && parseU64(Argv[5], C)) {
    Rc = runCampaign(benchmark(Argv[2]), A, static_cast<unsigned>(B),
                     static_cast<unsigned>(C), Argv[6]);
  } else if (Mode == "analysis" && Argc == 4 && parseU64(Argv[3], A)) {
    Rc = runAnalysis(Argv[2], A != 0);
  } else {
    std::fprintf(stderr,
                 "usage: dlf-layers fuzzer <benchmark> <seed> "
                 "<seeds-per-cycle>\n"
                 "       dlf-layers campaign <benchmark> <seed> <reps> <jobs> "
                 "<journal>\n"
                 "       dlf-layers analysis <trace> <predict: 0|1>\n");
    return 1;
  }
  printJson();
  return Rc;
}

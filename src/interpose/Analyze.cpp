//===- interpose/Analyze.cpp - Offline analysis for preload traces ----------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// dlf-analyze: reads a trace written by libdlf_preload.so (Phase I of the
// LD_PRELOAD workflow) and runs the offline analysis passes over it. Every
// mode streams the trace: its walk takes each event as the reader decodes
// it, so the trace is never held in memory.
//
// Default mode rebuilds the lock dependency relation, runs iGoodlock with
// guarded cycles kept, classifies every cycle through the guard-lock pruner
// (analysis/GuardPruner.h), and prints each potential deadlock cycle both
// human-readably and as a machine spec line
//
//   cycle-spec: <threadAbs>|<lockAbs>|<ctx,...>;<component>;...
//
// suitable for DLF_PRELOAD_CYCLE in Phase II.
//
// --races runs the lockset + vector-clock race detector instead
// (analysis/RaceDetector.h) over the opt-in O/L/S access events. The race
// pass is a single serial walk, so --analysis-jobs does not apply to it.
//
// --predict runs the sound sync-preserving deadlock predictor instead
// (analysis/Predict.h): the same iGoodlock enumeration, but every cycle
// gets a PREDICTED-SOUND / UNCONFIRMED verdict backed by a witness search
// over the trace. Verdicts are graded serially.
//
// --analysis-jobs shards the iGoodlock closure (default and --predict);
// stdout is byte-identical for every value.
//
// Mode flags are mutually exclusive: --predict --races has no defined merge
// semantics and is a usage error (exit 1), as is --races --analysis-jobs.
//
// Usage: dlf-analyze <trace-file> [--max-cycle-length N]
//                    [--analysis-jobs N] [--races | --predict]
//
// Exit codes (all modes, --predict included): 0 analysis ran; 1 usage
// error; 2 unreadable/corrupt trace; 3 trace carries no events (see
// analysis/Trace.h for the rationale). A PREDICTED-SOUND cycle does not
// change the exit code — verdicts are report content, not process status.
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/Predict.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "runtime/Records.h"
#include "serve/StatusServer.h"
#include "support/Env.h"
#include "telemetry/Metrics.h"

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace dlf;

namespace {

constexpr int ExitUsage = 1;
constexpr int ExitCorruptTrace = 2;
constexpr int ExitNoEvents = 3;

/// Streams the trace at \p Path through \p Walk, one event at a time as the
/// reader decodes it: no mode holds the whole trace. Returns 0 when the
/// trace was read; otherwise prints the one error line and returns the
/// exit code.
template <typename Walk> int streamInto(const char *Path, Walk &W) {
  std::string Error;
  analysis::TraceReadStatus St = analysis::streamTrace(
      Path, [&W](const analysis::TraceEvent &E) { W.feed(E); }, &Error);
  if (St == analysis::TraceReadStatus::Ok)
    return 0;
  std::cerr << "error: " << Error << "\n";
  return St == analysis::TraceReadStatus::NoEvents ? ExitNoEvents
                                                    : ExitCorruptTrace;
}

int runDeadlockAnalysis(const char *Path, IGoodlockOptions Opts) {
  // The dependency-log construction and the report format live in
  // analysis/LogBuilder.{h,cpp}, shared with dlf-observe. The walker warns
  // as it goes, but a corrupt trace must leave stderr with its one error
  // line, so the warnings wait until the read succeeds.
  std::ostringstream Warnings;
  analysis::IncrementalLogBuilder Builder(&Warnings);
  if (int Rc = streamInto(Path, Builder))
    return Rc;
  std::cerr << Warnings.str();

  // Keep guarded cycles in the closure so the pruner can classify and name
  // them; dlf-analyze is a reporting tool, Phase II budget is not at stake.
  Opts.KeepGuardedCycles = true;

  IGoodlockStats Stats;
  std::vector<AbstractCycle> Cycles = runIGoodlock(Builder.log(), Opts,
                                                   &Stats);
  std::vector<analysis::CycleClassification> Classes =
      analysis::classifyCycles(Builder.log(), Cycles);
  analysis::printCycleReport(std::cout, "dlf-analyze", Builder.log(), Cycles,
                             Classes, Stats);
  return 0;
}

int runPredictAnalysis(const char *Path, const IGoodlockOptions &Opts) {
  analysis::IncrementalPredictor Predictor;
  if (int Rc = streamInto(Path, Predictor))
    return Rc;
  analysis::PredictAnalysis R = Predictor.finish(Opts);

  // Run-dependent chatter (timing, assignment counts) stays on stderr:
  // stdout is byte-identical for every --analysis-jobs value.
  std::cerr << "dlf-analyze: predict pass over " << R.Stats.EventsSeen
            << " events, " << R.Stats.AcquiresIndexed << " acquires, "
            << R.Stats.AssignmentsTried << " assignments, "
            << R.Stats.ElapsedMicros << " us\n";

  analysis::printPredictReport(std::cout, "dlf-analyze", R);
  return 0;
}

int runRaceAnalysis(const char *Path) {
  analysis::IncrementalRaceDetector Detector;
  if (int Rc = streamInto(Path, Detector))
    return Rc;
  analysis::RaceAnalysis Result = Detector.finish();

  std::cerr << "dlf-analyze: race pass over " << Detector.eventsSeen()
            << " events\n";
  for (const std::string &W : Result.Warnings)
    std::cerr << "warning: " << W << "\n";

  analysis::printRaceReport(std::cout, "dlf-analyze", Result);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Usage = "usage: dlf-analyze <trace-file> "
                      "[--max-cycle-length N] [--analysis-jobs N]\n"
                      "                   [--races | --predict] "
                      "[--metrics-out FILE]\n"
                      "                   [--metrics-format json|prom] "
                      "[--status-addr ADDR]\n"
                      "--analysis-jobs does not apply to --races\n";
  if (Argc < 2) {
    std::cerr << Usage;
    return ExitUsage;
  }
  IGoodlockOptions Opts;
  bool Races = false;
  bool Predict = false;
  bool JobsGiven = false;
  std::string MetricsOut;
  bool MetricsProm = false;
  bool MetricsFormatGiven = false;
  std::string StatusAddr;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--races") {
      Races = true;
      continue;
    }
    if (Arg == "--predict") {
      Predict = true;
      continue;
    }
    if (Arg == "--metrics-out") {
      if (I + 1 >= Argc) {
        std::cerr << "error: --metrics-out expects a value\n" << Usage;
        return ExitUsage;
      }
      MetricsOut = Argv[++I];
      continue;
    }
    if (Arg == "--status-addr") {
      if (I + 1 >= Argc) {
        std::cerr << "error: --status-addr expects a value\n" << Usage;
        return ExitUsage;
      }
      StatusAddr = Argv[++I];
      continue;
    }
    if (Arg == "--metrics-format") {
      if (I + 1 >= Argc) {
        std::cerr << "error: --metrics-format expects a value\n" << Usage;
        return ExitUsage;
      }
      MetricsFormatGiven = true;
      std::string Fmt = Argv[++I];
      if (Fmt == "json") {
        MetricsProm = false;
      } else if (Fmt == "prom") {
        MetricsProm = true;
      } else {
        std::cerr << "error: --metrics-format must be json|prom\n" << Usage;
        return ExitUsage;
      }
      continue;
    }
    if (Arg != "--max-cycle-length" && Arg != "--analysis-jobs") {
      std::cerr << "error: unknown option '" << Arg << "'\n" << Usage;
      return ExitUsage;
    }
    if (I + 1 >= Argc) {
      std::cerr << "error: " << Arg << " expects a value\n" << Usage;
      return ExitUsage;
    }
    // atoi would turn garbage into 0 and silently disable cycle search;
    // malformed operands are a usage error instead.
    uint64_t N = 0;
    if (!parseUint64Strict(Argv[I + 1], N)) {
      std::cerr << "error: " << Arg << " expects a non-negative integer, got '"
                << Argv[I + 1] << "'\n"
                << Usage;
      return ExitUsage;
    }
    if (Arg == "--max-cycle-length") {
      Opts.MaxCycleLength = static_cast<unsigned>(N);
    } else {
      Opts.AnalysisJobs = static_cast<unsigned>(N);
      JobsGiven = true;
    }
    ++I;
  }
  if (Races && Predict) {
    // Contradictory mode flags: the passes print different report formats
    // and there is no defined merge; refuse rather than silently pick one.
    std::cerr << "error: --predict and --races are mutually exclusive\n"
              << Usage;
    return ExitUsage;
  }
  if (Races && JobsGiven) {
    // The race pass is one serial walk; accepting a job count it ignores
    // would suggest a parallelism that is not there.
    std::cerr << "error: --analysis-jobs does not apply to --races\n"
              << Usage;
    return ExitUsage;
  }
  if (MetricsFormatGiven && MetricsOut.empty()) {
    std::cerr << "error: --metrics-format only applies to --metrics-out\n"
              << Usage;
    return ExitUsage;
  }
  // Enable before the passes run so the closure/pruner/race counters
  // (dlf_igoodlock_*, dlf_analysis_*) are recorded.
  if (!MetricsOut.empty() || !StatusAddr.empty())
    telemetry::setEnabled(true);

  std::unique_ptr<serve::StatusServer> Server;
  if (!StatusAddr.empty()) {
    serve::ServerOptions SO;
    SO.Addr = StatusAddr;
    SO.Tool = "dlf-analyze";
    SO.BuildInfo["trace"] = Argv[1];
    std::string SErr;
    Server = serve::StatusServer::start(std::move(SO), &SErr);
    if (!Server) {
      std::cerr << "error: " << SErr << "\n";
      return ExitUsage;
    }
    // The port echo is the contract for --status-addr 127.0.0.1:0:
    // scripts parse this stderr line to find the ephemeral port.
    std::cerr << "status server listening on http://" << Server->address()
              << " (/metrics /status /events /healthz /buildinfo)\n";
  }
  auto PublishPhase = [&](const char *Phase, bool Complete) {
    if (!Server)
      return;
    serve::CampaignStatus St;
    St.Tool = "dlf-analyze";
    St.Benchmark = Argv[1];
    St.Phase = Phase;
    St.Complete = Complete;
    Server->publishStatus(St);
    Server->publishMetrics(telemetry::Registry::global().snapshot());
  };
  PublishPhase("analyzing", false);

  int Rc = Races     ? runRaceAnalysis(Argv[1])
           : Predict ? runPredictAnalysis(Argv[1], Opts)
                     : runDeadlockAnalysis(Argv[1], Opts);
  if (Rc != 0)
    return Rc; // the trace was unreadable or carried no events
  PublishPhase("done", true);
  if (!MetricsOut.empty()) {
    telemetry::MetricsSnapshot Snap =
        telemetry::Registry::global().snapshot();
    std::ofstream OS(MetricsOut, std::ios::binary | std::ios::trunc);
    OS << (MetricsProm ? Snap.toPrometheus() : Snap.toJson());
    OS.flush();
    if (!OS) {
      std::cerr << "error: cannot write " << MetricsOut << "\n";
      return ExitUsage;
    }
    std::cerr << "metrics written to " << MetricsOut << "\n";
  }
  return 0;
}

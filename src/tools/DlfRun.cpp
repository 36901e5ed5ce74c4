//===- tools/DlfRun.cpp - Command-line driver --------------------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// dlf-run: run any registered benchmark under the DeadlockFuzzer workflow
// from the command line.
//
//   dlf-run --list
//   dlf-run --help                      # or -h: the usage, exit 0
//   dlf-run logging                     # phase 1 + phase 2 over all cycles
//   dlf-run logging --phase1-only
//   dlf-run logging --variant 5 --reps 50
//   dlf-run logging --cycle 2 --seed 7  # fuzz one cycle once, verbose
//   dlf-run swing --normal 100          # uninstrumented control runs
//   dlf-run hedc --record-phase1        # observe a real concurrent run
//
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"
#include "faultinject/FaultInject.h"
#include "serve/StatusServer.h"
#include "fuzzer/ActiveTester.h"
#include "igoodlock/Serialize.h"
#include "substrates/BenchmarkRegistry.h"
#include "support/Env.h"
#include "support/Table.h"
#include "telemetry/Metrics.h"
#include "telemetry/Timeline.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

using namespace dlf;

namespace {

void printUsage() {
  std::cout
      << "usage: dlf-run <benchmark> [options]\n"
         "       dlf-run --list\n"
         "       dlf-run --help\n\n"
         "options:\n"
         "  --phase1-only          stop after iGoodlock\n"
         "  --record-phase1        observe a real concurrent execution\n"
         "                         (default: serialized random execution)\n"
         "  --variant N            1=k-object 2=exec-index (default)\n"
         "                         3=no abstraction 4=no context 5=no yields\n"
         "  --reps N               phase 2 repetitions per cycle (default 20)\n"
         "  --seed N               base seed (default 1)\n"
         "  --cycle N              fuzz only cycle #N\n"
         "  --max-cycle-length N   iGoodlock iteration bound (default 6)\n"
         "  --analysis-jobs N      iGoodlock closure worker threads\n"
         "                         (default 1 = serial; 0 = hardware\n"
         "                         concurrency); cycles and stats are\n"
         "                         identical for every N\n"
         "  --normal N             run uninstrumented N times under a\n"
         "                         watchdog and count deadlocks\n"
         "  --save-cycles FILE     write the phase 1 report to FILE\n"
         "  --cycles FILE          skip phase 1; fuzz cycles loaded from\n"
         "                         FILE (written by --save-cycles)\n"
         "  --hb MODE              happens-before filter for phase 1:\n"
         "                         off (default) | fork-join | full-sync\n"
         "  --heal N               after phase 2, arm immunity with the\n"
         "                         confirmed cycles and run N random\n"
         "                         executions (all should complete)\n"
         "  --campaign             fault-isolated campaign: phase 1 and\n"
         "                         batches of repetitions in watchdog-\n"
         "                         guarded child processes, journaled for\n"
         "                         resume\n"
         "  --resume FILE          resume an interrupted campaign from its\n"
         "                         journal (implies --campaign)\n"
         "  --journal FILE         campaign journal path (default\n"
         "                         <benchmark>.campaign.jsonl)\n"
         "  --run-timeout-ms N     per-repetition watchdog (default 10000)\n"
         "  --budget-s N           wall-clock budget; on exhaustion the\n"
         "                         campaign checkpoints and exits\n"
         "  --max-retries N        retries per repetition for hung or\n"
         "                         crashed children (default 3)\n"
         "  --jobs N               campaign child processes in flight at\n"
         "                         once (default 1 = serial; 0 = hardware\n"
         "                         concurrency); classification counts are\n"
         "                         identical for every N, and journals\n"
         "                         resume across --jobs values\n"
         "  --include-guarded      spend phase 2 repetitions on cycles the\n"
         "                         guard-lock pruner statically discharged\n"
         "                         (by default they are reported with their\n"
         "                         classification but consume no budget)\n"
         "  --phase1 ENGINE        campaign phase 1 grading engine:\n"
         "                         igoodlock (default) | predict (sound\n"
         "                         sync-preserving prediction; only\n"
         "                         PREDICTED-SOUND cycles get phase 2\n"
         "                         budget, sound-first) | both (verdicts\n"
         "                         reported and sound cycles scheduled\n"
         "                         first, nothing skipped)\n"
         "  --faults PLAN          inject deterministic faults into the\n"
         "                         campaign runtime; PLAN is a `;`-separated\n"
         "                         list of site[:action]@trigger clauses,\n"
         "                         e.g. 'journal.fsync:enospc@3;\n"
         "                         child.crash@rep=7' (see also DLF_FAULTS)\n"
         "  --chaos SEED           generate a randomized fault plan from\n"
         "                         SEED (child crashes/hangs, spawn\n"
         "                         failures, sidecar loss, journal errors)\n"
         "                         and run the campaign under it; combine\n"
         "                         with --faults to add explicit clauses\n"
         "  --metrics-out FILE     enable telemetry and export the metrics\n"
         "                         registry to FILE at exit (campaign mode\n"
         "                         exports the cross-process aggregate,\n"
         "                         identical for every --jobs value)\n"
         "  --metrics-format FMT   json (default) | prom (Prometheus text\n"
         "                         exposition)\n"
         "  --timeline-out FILE    write a Chrome trace-event timeline to\n"
         "                         FILE (open in Perfetto or\n"
         "                         about://tracing)\n"
         "  --status-addr ADDR     campaign mode: serve live observability\n"
         "                         over HTTP on ADDR (loopback only, e.g.\n"
         "                         127.0.0.1:0 for an ephemeral port echoed\n"
         "                         on stderr): GET /metrics (Prometheus),\n"
         "                         /status (JSON progress), /events (SSE),\n"
         "                         /healthz, /buildinfo; implies telemetry\n";
}

/// CLI telemetry export options (--metrics-out / --timeline-out).
struct TelemetryCli {
  std::string MetricsOut;
  std::string TimelineOut;
  bool Prom = false;

  bool any() const { return !MetricsOut.empty() || !TimelineOut.empty(); }
};

bool writeTextFile(const std::string &Path, const std::string &Body) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Body;
  OS.flush();
  return static_cast<bool>(OS);
}

/// Writes the requested export files from an already-assembled snapshot
/// and event list. Returns false (after reporting to stderr) on I/O error.
bool exportTelemetry(const TelemetryCli &Cli,
                     const telemetry::MetricsSnapshot &Snap,
                     const std::vector<telemetry::TraceEvent> &Events,
                     const std::map<uint32_t, std::string> &ProcessNames,
                     const std::map<uint64_t, std::string> &ThreadNames) {
  bool Ok = true;
  if (!Cli.MetricsOut.empty()) {
    if (!writeTextFile(Cli.MetricsOut,
                       Cli.Prom ? Snap.toPrometheus() : Snap.toJson())) {
      std::cerr << "error: cannot write " << Cli.MetricsOut << "\n";
      Ok = false;
    } else {
      std::cout << "metrics written to " << Cli.MetricsOut << "\n";
    }
  }
  if (!Cli.TimelineOut.empty()) {
    std::string Err;
    if (!telemetry::Timeline::writeChromeTrace(Cli.TimelineOut, Events,
                                               ProcessNames, ThreadNames,
                                               Err)) {
      std::cerr << "error: " << Err << "\n";
      Ok = false;
    } else {
      std::cout << "timeline written to " << Cli.TimelineOut
                << " (load in Perfetto or about://tracing)\n";
    }
  }
  return Ok;
}

/// Exports the in-process telemetry (global registry plus the pid-0
/// timeline lane) for non-campaign runs.
bool exportLocalTelemetry(const TelemetryCli &Cli) {
  if (!Cli.any())
    return true;
  telemetry::MetricsSnapshot Snap = telemetry::Registry::global().snapshot();
  std::vector<telemetry::TraceEvent> Events;
  std::map<uint32_t, std::string> LocalThreads;
  telemetry::Timeline::global().take(Events, LocalThreads);
  std::map<uint32_t, std::string> ProcessNames{{0, "dlf-run"}};
  std::map<uint64_t, std::string> ThreadNames;
  for (const auto &KV : LocalThreads)
    ThreadNames.emplace(uint64_t(KV.first), KV.second);
  return exportTelemetry(Cli, Snap, Events, ProcessNames, ThreadNames);
}

/// Runs the fault-isolated campaign and prints its report. Returns the
/// process exit code: 0 for a completed or cleanly-interrupted (resumable)
/// campaign, 1 for configuration or journal errors.
int runCampaign(const BenchmarkInfo &Bench, campaign::CampaignConfig Config,
                bool Resume, const TelemetryCli &Telemetry) {
  campaign::CampaignRunner::installSigintHandler();
  campaign::CampaignRunner Runner(std::move(Config));
  campaign::CampaignReport Report = Runner.run(Resume);
  std::string Text =
      Report.toString(Bench.Name, Runner.config().JournalPath);
  if (!Report.Error.empty()) {
    std::cerr << Text;
    return 1;
  }
  std::cout << Text;

  if (Telemetry.any()) {
    // The campaign aggregate lives in the report; the parent's global
    // registry and timeline (normally empty in campaign mode — all
    // scheduling happens in children) are merged in as pid 0 so nothing
    // recorded parent-side is lost.
    telemetry::MetricsSnapshot Snap = Report.Metrics;
    Snap.merge(telemetry::Registry::global().snapshot());
    std::vector<telemetry::TraceEvent> Events;
    std::map<uint32_t, std::string> ParentThreads;
    telemetry::Timeline::global().take(Events, ParentThreads);
    Events.insert(Events.end(), Report.Timeline.begin(),
                  Report.Timeline.end());
    std::map<uint32_t, std::string> ProcessNames =
        Report.TimelineProcessNames;
    ProcessNames.emplace(0, "dlf-run");
    std::map<uint64_t, std::string> ThreadNames = Report.TimelineThreadNames;
    for (const auto &KV : ParentThreads)
      ThreadNames.emplace(uint64_t(KV.first), KV.second);
    if (!exportTelemetry(Telemetry, Snap, Events, ProcessNames, ThreadNames))
      return 1;
  }
  return 0;
}

bool applyVariant(ActiveTesterConfig &Config, int Variant) {
  switch (Variant) {
  case 1:
    Config.Base.Kind = AbstractionKind::KObjectSensitive;
    return true;
  case 2:
    Config.Base.Kind = AbstractionKind::ExecutionIndex;
    return true;
  case 3:
    Config.Base.Kind = AbstractionKind::Trivial;
    return true;
  case 4:
    Config.Base.UseContext = false;
    return true;
  case 5:
    Config.Base.UseYields = false;
    return true;
  default:
    return false;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage();
    return 1;
  }
  if (std::strcmp(Argv[1], "--help") == 0 || std::strcmp(Argv[1], "-h") == 0) {
    printUsage();
    return 0;
  }
  if (std::strcmp(Argv[1], "--list") == 0) {
    Table T({"Benchmark", "Description"});
    for (const BenchmarkInfo &Info : allBenchmarks())
      T.addRow({Info.Name, Info.Description});
    T.print(std::cout);
    return 0;
  }

  const BenchmarkInfo *Bench = findBenchmark(Argv[1]);
  if (!Bench) {
    std::cerr << "error: unknown benchmark '" << Argv[1]
              << "' (try --list)\n";
    return 1;
  }

  ActiveTesterConfig Config;
  bool Phase1Only = false;
  int OnlyCycle = -1;
  int NormalRuns = 0;
  int HealRuns = 0;
  std::string SaveCyclesPath, LoadCyclesPath;
  bool Campaign = false;
  bool Resume = false;
  bool JournalFlagGiven = false;
  bool JobsGiven = false;
  bool IncludeGuarded = false;
  bool Phase1Given = false;
  campaign::Phase1Engine Phase1 = campaign::Phase1Engine::IGoodlock;
  bool MetricsFormatGiven = false;
  TelemetryCli Telemetry;
  std::string JournalPath;
  uint64_t RunTimeoutMs = 0;
  uint64_t BudgetS = 0;
  uint64_t Jobs = 1;
  int MaxRetries = -1;
  std::string FaultsSpec;
  bool ChaosGiven = false;
  uint64_t ChaosSeed = 0;
  std::string StatusAddr;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Every numeric option is validated strictly: a missing, negative,
    // non-numeric, or out-of-range operand is a usage error, never a
    // silent zero (the atoi failure mode).
    auto NextUint = [&](uint64_t &Out) {
      const char *Text = I + 1 < Argc ? Argv[I + 1] : nullptr;
      if (!Text || !parseUint64Strict(Text, Out)) {
        std::cerr << "error: " << Arg
                  << " expects a non-negative integer, got '"
                  << (Text ? Text : "") << "'\n";
        return false;
      }
      ++I;
      return true;
    };
    uint64_t N = 0;
    if (Arg == "--phase1-only") {
      Phase1Only = true;
    } else if (Arg == "--record-phase1") {
      Config.PhaseOneMode = RunMode::Record;
    } else if (Arg == "--variant") {
      if (!NextUint(N))
        return 1;
      if (!applyVariant(Config, static_cast<int>(N))) {
        std::cerr << "error: variant must be 1..5\n";
        return 1;
      }
    } else if (Arg == "--reps") {
      if (!NextUint(N))
        return 1;
      Config.PhaseTwoReps = static_cast<unsigned>(N);
    } else if (Arg == "--seed") {
      if (!NextUint(N))
        return 1;
      Config.PhaseOneSeed = N;
      Config.PhaseTwoSeedBase = N * 1000;
    } else if (Arg == "--cycle") {
      if (!NextUint(N))
        return 1;
      OnlyCycle = static_cast<int>(N);
    } else if (Arg == "--max-cycle-length") {
      if (!NextUint(N))
        return 1;
      Config.Goodlock.MaxCycleLength = static_cast<unsigned>(N);
    } else if (Arg == "--analysis-jobs") {
      if (!NextUint(N))
        return 1;
      Config.Goodlock.AnalysisJobs = static_cast<unsigned>(N);
    } else if (Arg == "--normal") {
      if (!NextUint(N))
        return 1;
      NormalRuns = static_cast<int>(N);
    } else if (Arg == "--save-cycles") {
      if (I + 1 < Argc)
        SaveCyclesPath = Argv[++I];
    } else if (Arg == "--cycles") {
      if (I + 1 < Argc)
        LoadCyclesPath = Argv[++I];
    } else if (Arg == "--hb") {
      std::string Mode = I + 1 < Argc ? Argv[++I] : "off";
      if (Mode == "off") {
        Config.Base.HappensBefore = HbMode::Off;
      } else if (Mode == "fork-join") {
        Config.Base.HappensBefore = HbMode::ForkJoin;
        Config.Goodlock.FilterByHappensBefore = true;
      } else if (Mode == "full-sync") {
        Config.Base.HappensBefore = HbMode::FullSync;
        Config.Goodlock.FilterByHappensBefore = true;
      } else {
        std::cerr << "error: --hb must be off|fork-join|full-sync\n";
        return 1;
      }
    } else if (Arg == "--heal") {
      if (!NextUint(N))
        return 1;
      HealRuns = static_cast<int>(N);
    } else if (Arg == "--campaign") {
      Campaign = true;
    } else if (Arg == "--resume") {
      Campaign = true;
      Resume = true;
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        JournalPath = Argv[++I];
    } else if (Arg == "--journal") {
      JournalFlagGiven = true;
      if (I + 1 < Argc)
        JournalPath = Argv[++I];
    } else if (Arg == "--run-timeout-ms") {
      if (!NextUint(N))
        return 1;
      RunTimeoutMs = N;
    } else if (Arg == "--budget-s") {
      if (!NextUint(N))
        return 1;
      BudgetS = N;
    } else if (Arg == "--max-retries") {
      if (!NextUint(N))
        return 1;
      MaxRetries = static_cast<int>(N);
    } else if (Arg == "--jobs") {
      if (!NextUint(N))
        return 1;
      Jobs = N;
      JobsGiven = true;
    } else if (Arg == "--include-guarded") {
      IncludeGuarded = true;
    } else if (Arg == "--phase1") {
      std::string Engine = I + 1 < Argc ? Argv[++I] : "";
      if (!campaign::phase1EngineFromName(Engine, Phase1)) {
        std::cerr << "error: --phase1 must be igoodlock|predict|both\n";
        return 1;
      }
      Phase1Given = true;
    } else if (Arg == "--faults") {
      if (I + 1 >= Argc) {
        std::cerr << "error: --faults expects a plan "
                     "(site[:action]@trigger;...)\n";
        return 1;
      }
      if (!FaultsSpec.empty())
        FaultsSpec += ";";
      FaultsSpec += Argv[++I];
    } else if (Arg == "--chaos") {
      if (!NextUint(N))
        return 1;
      ChaosGiven = true;
      ChaosSeed = N;
    } else if (Arg == "--metrics-out") {
      if (I + 1 < Argc)
        Telemetry.MetricsOut = Argv[++I];
    } else if (Arg == "--metrics-format") {
      MetricsFormatGiven = true;
      std::string Fmt = I + 1 < Argc ? Argv[++I] : "";
      if (Fmt == "json") {
        Telemetry.Prom = false;
      } else if (Fmt == "prom") {
        Telemetry.Prom = true;
      } else {
        std::cerr << "error: --metrics-format must be json|prom\n";
        return 1;
      }
    } else if (Arg == "--timeline-out") {
      if (I + 1 < Argc)
        Telemetry.TimelineOut = Argv[++I];
    } else if (Arg == "--status-addr") {
      if (I + 1 >= Argc) {
        std::cerr << "error: --status-addr expects an address "
                     "(e.g. 127.0.0.1:0)\n";
        return 1;
      }
      StatusAddr = Argv[++I];
    } else {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      printUsage();
      return 1;
    }
  }

  if (JobsGiven && !Campaign) {
    std::cerr << "error: --jobs only applies to --campaign (or --resume)\n";
    return 1;
  }
  if (IncludeGuarded && !Campaign) {
    std::cerr << "error: --include-guarded only applies to --campaign "
                 "(or --resume)\n";
    return 1;
  }
  if (Phase1Given && !Campaign) {
    std::cerr << "error: --phase1 only applies to --campaign (or --resume)\n";
    return 1;
  }
  if ((!FaultsSpec.empty() || ChaosGiven) && !Campaign) {
    std::cerr << "error: --faults/--chaos only apply to --campaign "
                 "(or --resume)\n";
    return 1;
  }
  if (Resume && JournalFlagGiven) {
    std::cerr << "error: --resume FILE already names the journal; "
                 "--journal conflicts with it\n";
    return 1;
  }
  if (MetricsFormatGiven && Telemetry.MetricsOut.empty()) {
    std::cerr << "error: --metrics-format only applies to --metrics-out\n";
    return 1;
  }
  if (!StatusAddr.empty() && !Campaign) {
    std::cerr << "error: --status-addr only applies to --campaign "
                 "(or --resume)\n";
    return 1;
  }

  if (Telemetry.any())
    telemetry::setEnabled(true);
  if (!Telemetry.TimelineOut.empty())
    telemetry::Timeline::global().setEnabled(true);

  if (Campaign) {
    // Arm the fault plan before the campaign starts so every injection
    // site (including the journal open) sees it. Chaos clauses come first;
    // explicit --faults clauses extend them.
    faultinject::FaultPlan Plan;
    if (ChaosGiven)
      Plan = faultinject::FaultPlan::chaos(ChaosSeed);
    if (!FaultsSpec.empty()) {
      std::string Error;
      if (!Plan.parse(FaultsSpec, &Error)) {
        std::cerr << "error: " << Error << "\n";
        return 1;
      }
    }
    if (!Plan.empty()) {
      if (ChaosGiven)
        std::cout << "chaos plan (seed " << ChaosSeed
                  << "): " << Plan.describe() << "\n";
      else
        std::cout << "fault plan: " << Plan.describe() << "\n";
      faultinject::setPlan(std::move(Plan));
    }

    campaign::CampaignConfig CC;
    CC.BenchmarkName = Bench->Name;
    CC.Entry = Bench->Entry;
    CC.Tester = Config;
    CC.RunTimeoutMs = RunTimeoutMs;
    CC.BudgetS = BudgetS;
    CC.Jobs = static_cast<unsigned>(Jobs);
    CC.IncludeGuarded = IncludeGuarded;
    CC.Phase1 = Phase1;
    if (MaxRetries >= 0)
      CC.MaxRetries = static_cast<unsigned>(MaxRetries);
    CC.JournalPath = JournalPath.empty()
                         ? std::string(Bench->Name) + ".campaign.jsonl"
                         : JournalPath;
    CC.Telemetry = Telemetry.any();

    std::unique_ptr<serve::StatusServer> Server;
    if (!StatusAddr.empty()) {
      serve::ServerOptions SO;
      SO.Addr = StatusAddr;
      SO.Tool = "dlf-run";
      SO.BuildInfo["benchmark"] = Bench->Name;
      std::string Err;
      Server = serve::StatusServer::start(std::move(SO), &Err);
      if (!Server) {
        std::cerr << "error: " << Err << "\n";
        return 1;
      }
      // The port echo is the contract for --status-addr 127.0.0.1:0:
      // scripts parse this stderr line to find the ephemeral port.
      std::cerr << "status server listening on http://" << Server->address()
                << " (/metrics /status /events /healthz /buildinfo)\n";
      CC.Status = Server.get();
      // /metrics serves the frontier-merged campaign aggregate; that
      // aggregate only exists when campaign telemetry is on.
      CC.Telemetry = true;
      telemetry::setEnabled(true);
    }
    return runCampaign(*Bench, std::move(CC), Resume, Telemetry);
  }

  if (NormalRuns > 0) {
    ForkedRuns Normal = runForkedRuns(
        Bench->Entry, static_cast<unsigned>(NormalRuns), /*TimeoutMs=*/5000);
    std::cout << "uninstrumented runs: " << NormalRuns << ", deadlocked: "
              << Normal.Hung << "\n";
    return exportLocalTelemetry(Telemetry) ? 0 : 1;
  }

  ActiveTester Tester(Bench->Entry, Config);
  PhaseOneResult P1;
  if (!LoadCyclesPath.empty()) {
    std::string ParseError;
    if (!loadCyclesFromFile(LoadCyclesPath, P1.Cycles, &ParseError)) {
      std::cerr << "error: cannot load cycles: " << ParseError << "\n";
      return 1;
    }
    std::cout << "loaded " << P1.Cycles.size() << " cycle(s) from "
              << LoadCyclesPath << "\n\n";
  } else {
    P1 = Tester.runPhaseOne();
    std::cout << "phase 1 (" << runModeName(Config.PhaseOneMode)
              << "): " << P1.Log.entries().size() << " dependency entries, "
              << P1.Cycles.size() << " potential cycle(s)"
              << (P1.Exec.Completed ? "" : " [observation stalled]")
              << "\n";
    std::cout << "closure: " << P1.Stats.ChainsExplored << " chains in "
              << Table::fmt(P1.Stats.ElapsedMicros / 1000.0, 2) << " ms ("
              << Table::fmt(P1.Stats.entriesPerSecond(), 0) << " entries/s, "
              << Table::fmt(P1.Stats.chainsPerSecond(), 0)
              << " chains/s, jobs " << P1.Stats.JobsUsed << ")\n\n";
    if (P1.RetriesExhausted)
      std::cerr << "warning: " << P1.Error << "\n";
    for (size_t I = 0; I != P1.Cycles.size(); ++I)
      std::cout << "#" << I << " " << P1.Cycles[I].toString() << "\n";
    if (!SaveCyclesPath.empty()) {
      if (!saveCyclesToFile(SaveCyclesPath, P1.Cycles)) {
        std::cerr << "error: cannot write " << SaveCyclesPath << "\n";
        return 1;
      }
      std::cout << "saved report to " << SaveCyclesPath << "\n";
    }
  }
  if (Phase1Only || P1.Cycles.empty())
    return exportLocalTelemetry(Telemetry) ? 0 : 1;

  Table T({"Cycle", "Reproduced", "Other", "Stalls", "Clean", "Probability",
           "Avg thrashes"});
  // Phase II results by cycle; a cycle --cycle leaves out stays unfuzzed
  // unless --heal needs it.
  auto LeftOut = [&](size_t I) {
    return OnlyCycle >= 0 && static_cast<size_t>(OnlyCycle) != I;
  };
  std::vector<CycleFuzzStats> PerCycle(P1.Cycles.size());
  for (size_t I = 0; I != P1.Cycles.size(); ++I) {
    if (LeftOut(I))
      continue;
    PerCycle[I] = Tester.fuzzCycle(P1.Cycles[I]);
    const CycleFuzzStats &Stats = PerCycle[I];
    T.addRow({"#" + std::to_string(I),
              Table::fmt(static_cast<uint64_t>(Stats.ReproducedTarget)) +
                  "/" + Table::fmt(static_cast<uint64_t>(Stats.Runs)),
              Table::fmt(static_cast<uint64_t>(Stats.OtherDeadlocks)),
              Table::fmt(static_cast<uint64_t>(Stats.Stalls)),
              Table::fmt(static_cast<uint64_t>(Stats.CleanRuns)),
              Table::fmt(Stats.probability(), 2),
              Table::fmt(Stats.avgBadPauses(), 2)});
  }
  std::cout << "phase 2 (" << abstractionKindName(Config.Base.Kind)
            << (Config.Base.UseContext ? ", context" : ", no-context")
            << (Config.Base.UseYields ? ", yields" : ", no-yields")
            << "):\n";
  T.print(std::cout);

  if (HealRuns > 0) {
    // Healing demo: fuzz every cycle the table left out, arm immunity with
    // the confirmed cycles, and show the random scheduler can no longer
    // create them.
    ActiveTesterReport Report;
    Report.PhaseOne = P1;
    for (size_t I = 0; I != P1.Cycles.size(); ++I)
      if (LeftOut(I))
        PerCycle[I] = Tester.fuzzCycle(P1.Cycles[I]);
    Report.PerCycle = std::move(PerCycle);
    std::vector<CycleSpec> Immunity = ActiveTester::buildImmunity(Report);
    unsigned Completed = 0;
    for (int I = 0; I != HealRuns; ++I)
      if (Tester.runWithImmunity(Immunity, 7000 + static_cast<uint64_t>(I))
              .Completed)
        ++Completed;
    std::cout << "\nhealing: immunity against " << Immunity.size()
              << " confirmed cycle(s); " << Completed << "/" << HealRuns
              << " random executions completed\n";
  }
  return exportLocalTelemetry(Telemetry) ? 0 : 1;
}

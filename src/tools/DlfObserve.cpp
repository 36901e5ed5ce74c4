//===- tools/DlfObserve.cpp - Out-of-process ring observer ------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// dlf-observe: the sidecar half of the shared-memory event ring (src/ring).
// The preloaded target pays one fixed-size ring write per sync event; this
// tool maps the same ring, merges the per-thread shards by global sequence
// number, rebuilds the analysis::Trace event stream (ring/Assemble.h), and
// feeds the iGoodlock dependency log incrementally in epochs — the closure
// runs out-of-process, off the target's critical path.
//
// Two ways to connect:
//
//   attach:  dlf-observe /tmp/app.ring [options]
//            (the target was started with DLF_RING=/tmp/app.ring; attaching
//            mid-run picks up from whatever was already consumed)
//   launch:  dlf-observe [options] -- ./app args...
//            (creates an anonymous memfd ring, forks, and hands it to the
//            child as DLF_RING=fd:<n>; --preload LIB sets LD_PRELOAD in the
//            child only, so the observer itself is never interposed)
//
// Per epoch (default 50 ms) the observer drains every shard, feeds the new
// events to the dependency log, reruns the closure over the accumulated
// log, and reports progress on stderr. stdout carries only the final
// report, printed through the same analysis/LogBuilder.h printer as
// dlf-analyze — equivalent cycles for the same execution, diffable by CI.
//
// Exit codes mirror dlf-analyze: 0 analysis ran; 1 usage error; 2 the ring
// is missing/not a ring; 3 the ring carries no events.
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "campaign/Json.h"
#include "igoodlock/IGoodlock.h"
#include "ring/Assemble.h"
#include "ring/Ring.h"
#include "serve/StatusServer.h"
#include "support/Env.h"
#include "telemetry/Metrics.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

using namespace dlf;

namespace {

constexpr int ExitUsage = 1;
constexpr int ExitCorruptRing = 2;
constexpr int ExitNoEvents = 3;

const char *Usage =
    "usage: dlf-observe <ring-file> [options]\n"
    "       dlf-observe [options] -- <command> [args...]\n"
    "options: [--max-cycle-length N] [--analysis-jobs N] [--races]\n"
    "         [--metrics-out FILE] [--metrics-format json|prom]\n"
    "         [--epoch-ms N] [--preload LIB (launch mode)]\n"
    "         [--status-addr ADDR (loopback HTTP: /metrics /status /events)]\n";

struct Options {
  std::string RingPath;          // attach mode
  std::vector<std::string> Cmd;  // launch mode
  std::string Preload;           // LD_PRELOAD for the child (launch mode)
  IGoodlockOptions IG;
  bool Races = false;
  std::string MetricsOut;
  bool MetricsProm = false;
  std::string StatusAddr;
  unsigned EpochMs = 50;
};

void sleepMs(unsigned Ms) {
  struct timespec Ts;
  Ts.tv_sec = Ms / 1000;
  Ts.tv_nsec = static_cast<long>(Ms % 1000) * 1000000L;
  nanosleep(&Ts, nullptr);
}

bool processAlive(uint32_t Pid) {
  if (Pid == 0)
    return false;
  // Signal 0 probes existence; EPERM still means the process is there.
  return kill(static_cast<pid_t>(Pid), 0) == 0 || errno != ESRCH;
}

/// Ring counters as a standalone snapshot of *absolute* totals taken from
/// reader state. Never routed through Registry::inc — the export runs once
/// per epoch now, and incrementing interned counters each epoch would
/// compound the totals.
telemetry::MetricsSnapshot ringMetricsSnapshot(const ring::RingReader &Reader,
                                               const ring::Assembler &Asm) {
  telemetry::MetricsSnapshot M;
  const ring::DrainStats &S = Reader.stats();
  M.Counters["dlf_ring_drained_total"] = S.Drained;
  M.Counters["dlf_ring_torn_total"] = S.Torn;
  M.Counters["dlf_ring_corrupt_total"] = S.Corrupt;
  M.Counters["dlf_ring_half_written_total"] = S.HalfWritten;
  M.Counters["dlf_ring_dropped_total"] = Reader.dropsTotal();
  M.Counters["dlf_ring_drain_passes_total"] = S.Passes;
  M.Counters["dlf_ring_stalled_passes_total"] = S.StalledPasses;
  M.Counters["dlf_ring_unknown_kind_total"] = Asm.unknownKindRecords();
  M.Gauges["dlf_ring_occupancy"] = static_cast<int64_t>(Reader.occupancy());
  return M;
}

/// Everything a scrape or a --metrics-out reader should see: the live
/// registry (closure/assembler counters) merged over the ring totals.
telemetry::MetricsSnapshot observerMetrics(const ring::RingReader &Reader,
                                           const ring::Assembler &Asm) {
  telemetry::MetricsSnapshot Snap = ringMetricsSnapshot(Reader, Asm);
  Snap.merge(telemetry::Registry::global().snapshot());
  return Snap;
}

/// Write-temp + rename so a concurrent reader (or a post-mortem after the
/// observer dies mid-epoch) always sees a complete document, never a
/// truncated one.
bool writeMetricsAtomic(const std::string &Path, bool Prom,
                        const telemetry::MetricsSnapshot &Snap) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    OS << (Prom ? Snap.toPrometheus() : Snap.toJson());
    OS.flush();
    if (!OS)
      return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

/// The observation loop shared by both modes: drain epochs until the
/// writer marks the ring done or disappears, feeding the builder as
/// events arrive. \p ChildPid is the launched target (0 in attach mode),
/// reaped here so a wedged child cannot wedge the observer's exit.
/// \p Status (may be null) receives a snapshot, an "epoch" event, and the
/// ring metrics once per progress epoch, from this thread only.
void observe(ring::RingReader &Reader, pid_t ChildPid, const Options &Opts,
             ring::Assembler &Asm, analysis::IncrementalLogBuilder &Builder,
             std::vector<analysis::TraceEvent> &AllEvents,
             serve::StatusSink *Status, const std::string &Target) {
  const auto Start = std::chrono::steady_clock::now();
  std::vector<ring::Record> Batch;
  std::vector<analysis::TraceEvent> Events;
  uint64_t Epoch = 0;
  unsigned IdleMs = 0;
  // Give a writer that never appears (nobody ran with DLF_RING) a bounded
  // wait instead of spinning forever.
  const unsigned NoWriterBudgetMs = 10000;
  bool SawWriter = false;
  bool ChildExited = false;

  while (true) {
    ++Epoch;
    Batch.clear();
    Events.clear();
    bool Progress = Reader.drainPass(Batch);
    if (!Batch.empty()) {
      Asm.feed(Batch, Events);
      Builder.feed(Events);
      AllEvents.insert(AllEvents.end(), Events.begin(), Events.end());
    }

    if (Progress) {
      IdleMs = 0;
      // The incremental epoch analysis the ring exists for: rerun the
      // closure over the accumulated log while the target keeps running.
      IGoodlockOptions EpochOpts = Opts.IG;
      EpochOpts.KeepGuardedCycles = true;
      IGoodlockStats Stats;
      std::vector<AbstractCycle> Cycles =
          runIGoodlock(Builder.log(), EpochOpts, &Stats);
      std::cerr << "dlf-observe: epoch " << Epoch << ": +" << Batch.size()
                << " record(s), " << Builder.eventsSeen() << " event(s), "
                << Cycles.size() << " cycle(s), "
                << Reader.stats().HeldBack << " held back\n";
      if (Status) {
        serve::CampaignStatus St;
        St.Tool = "dlf-observe";
        St.Benchmark = Target;
        St.Phase = "observing";
        St.Epoch = Epoch;
        St.EventsSeen = Builder.eventsSeen();
        St.CyclesFound = static_cast<unsigned>(Cycles.size());
        St.WallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
        Status->publishStatus(St);
        campaign::JsonValue Ev = campaign::JsonValue::object();
        Ev.set("epoch", Epoch);
        Ev.set("records", static_cast<uint64_t>(Batch.size()));
        Ev.set("events", static_cast<uint64_t>(Builder.eventsSeen()));
        Ev.set("cycles", static_cast<uint64_t>(Cycles.size()));
        Status->publishEvent("epoch", Ev.dump());
        Status->publishMetrics(ringMetricsSnapshot(Reader, Asm));
      }
      // Epoch-granular rewrite: the file stays complete and current at
      // every instant, so an external scraper can tail a live observation
      // instead of waiting for exit.
      if (!Opts.MetricsOut.empty())
        writeMetricsAtomic(Opts.MetricsOut, Opts.MetricsProm,
                           observerMetrics(Reader, Asm));
    }

    if (Reader.writerDone())
      break;

    if (ChildPid > 0 && !ChildExited) {
      int Status = 0;
      pid_t W = waitpid(ChildPid, &Status, WNOHANG);
      if (W == ChildPid) {
        ChildExited = true;
        if (WIFEXITED(Status))
          std::cerr << "dlf-observe: target exited with code "
                    << WEXITSTATUS(Status) << "\n";
        else if (WIFSIGNALED(Status))
          std::cerr << "dlf-observe: target killed by signal "
                    << WTERMSIG(Status) << "\n";
      }
    }

    uint32_t Pid = Reader.writerPid();
    if (Pid != 0)
      SawWriter = true;
    if (SawWriter) {
      if (ChildExited || !processAlive(Pid)) {
        // Writer gone without marking done: a crash. finishDrain will
        // classify any slot it abandoned mid-write.
        std::cerr << "dlf-observe: writer (pid " << Pid
                  << ") exited without marking the ring done\n";
        break;
      }
    } else {
      IdleMs += Opts.EpochMs;
      if (IdleMs >= NoWriterBudgetMs) {
        std::cerr << "dlf-observe: no writer attached after " << IdleMs
                  << " ms; giving up\n";
        break;
      }
    }
    sleepMs(Opts.EpochMs);
  }

  // Final drain: release the hold-back buffer and account for any
  // half-written slot a crashed writer left behind.
  Batch.clear();
  Events.clear();
  Reader.finishDrain(Batch);
  if (!Batch.empty()) {
    Asm.feed(Batch, Events);
    Builder.feed(Events);
    AllEvents.insert(AllEvents.end(), Events.begin(), Events.end());
  }

  if (ChildPid > 0 && !ChildExited)
    waitpid(ChildPid, nullptr, 0);
}

int parseArgs(int Argc, char **Argv, Options &Opts) {
  bool MetricsFormatGiven = false;
  int I = 1;
  for (; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--") {
      for (++I; I < Argc; ++I)
        Opts.Cmd.push_back(Argv[I]);
      break;
    }
    if (Arg == "--races") {
      Opts.Races = true;
      continue;
    }
    if (Arg == "--metrics-out" || Arg == "--metrics-format" ||
        Arg == "--preload" || Arg == "--max-cycle-length" ||
        Arg == "--analysis-jobs" || Arg == "--epoch-ms" ||
        Arg == "--status-addr") {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << Arg << " expects a value\n" << Usage;
        return ExitUsage;
      }
      std::string Val = Argv[++I];
      if (Arg == "--metrics-out") {
        Opts.MetricsOut = Val;
      } else if (Arg == "--preload") {
        Opts.Preload = Val;
      } else if (Arg == "--status-addr") {
        Opts.StatusAddr = Val;
      } else if (Arg == "--metrics-format") {
        MetricsFormatGiven = true;
        if (Val == "json") {
          Opts.MetricsProm = false;
        } else if (Val == "prom") {
          Opts.MetricsProm = true;
        } else {
          std::cerr << "error: --metrics-format must be json|prom\n" << Usage;
          return ExitUsage;
        }
      } else {
        uint64_t N = 0;
        if (!parseUint64Strict(Val.c_str(), N)) {
          std::cerr << "error: " << Arg
                    << " expects a non-negative integer, got '" << Val
                    << "'\n"
                    << Usage;
          return ExitUsage;
        }
        if (Arg == "--max-cycle-length")
          Opts.IG.MaxCycleLength = static_cast<unsigned>(N);
        else if (Arg == "--analysis-jobs")
          Opts.IG.AnalysisJobs = static_cast<unsigned>(N);
        else
          Opts.EpochMs = N ? static_cast<unsigned>(N) : 1;
      }
      continue;
    }
    if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "error: unknown option '" << Arg << "'\n" << Usage;
      return ExitUsage;
    }
    if (!Opts.RingPath.empty()) {
      std::cerr << "error: more than one ring file\n" << Usage;
      return ExitUsage;
    }
    Opts.RingPath = Arg;
  }
  if (Opts.RingPath.empty() == Opts.Cmd.empty()) {
    std::cerr << (Opts.RingPath.empty()
                      ? "error: need a ring file or a -- command\n"
                      : "error: a ring file and a -- command are exclusive\n")
              << Usage;
    return ExitUsage;
  }
  if (MetricsFormatGiven && Opts.MetricsOut.empty()) {
    std::cerr << "error: --metrics-format only applies to --metrics-out\n"
              << Usage;
    return ExitUsage;
  }
  if (!Opts.Preload.empty() && Opts.Cmd.empty()) {
    std::cerr << "error: --preload only applies to launch mode\n" << Usage;
    return ExitUsage;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::cerr << Usage;
    return ExitUsage;
  }
  Options Opts;
  if (int Rc = parseArgs(Argc, Argv, Opts))
    return Rc;
  if (!Opts.MetricsOut.empty() || !Opts.StatusAddr.empty())
    telemetry::setEnabled(true);

  std::unique_ptr<ring::RingReader> Reader;
  pid_t ChildPid = 0;
  std::string Err;

  if (!Opts.Cmd.empty()) {
    // Launch mode: anonymous memfd ring, inherited through fork+exec (the
    // fd is deliberately created without CLOEXEC).
    int RingFd = -1;
    Reader.reset(ring::RingReader::createMemfd(
        ring::shardsFromEnv(), ring::slotsFromEnv(), &RingFd, &Err));
    if (!Reader) {
      std::cerr << "error: " << Err << "\n";
      return ExitCorruptRing;
    }
    ChildPid = fork();
    if (ChildPid < 0) {
      std::cerr << "error: fork: " << std::strerror(errno) << "\n";
      return ExitCorruptRing;
    }
    if (ChildPid == 0) {
      std::string Spec = "fd:" + std::to_string(RingFd);
      setenv(ring::RingEnvVar, Spec.c_str(), 1);
      if (!Opts.Preload.empty())
        setenv("LD_PRELOAD", Opts.Preload.c_str(), 1);
      std::vector<char *> ExecArgs;
      for (const std::string &A : Opts.Cmd)
        ExecArgs.push_back(const_cast<char *>(A.c_str()));
      ExecArgs.push_back(nullptr);
      execvp(ExecArgs[0], ExecArgs.data());
      std::cerr << "error: exec " << Opts.Cmd[0] << ": "
                << std::strerror(errno) << "\n";
      _exit(127);
    }
  } else {
    Reader.reset(ring::RingReader::attach(Opts.RingPath, &Err));
    if (!Reader) {
      std::cerr << "error: " << Err << "\n";
      return ExitCorruptRing;
    }
  }

  // Start the status server only after the fork above: it owns a thread,
  // and forking a multithreaded process risks the child inheriting a
  // locked allocator when it still has setenv calls before exec.
  const std::string Target =
      Opts.RingPath.empty() ? Opts.Cmd[0] : Opts.RingPath;
  std::unique_ptr<serve::StatusServer> Server;
  if (!Opts.StatusAddr.empty()) {
    serve::ServerOptions SO;
    SO.Addr = Opts.StatusAddr;
    SO.Tool = "dlf-observe";
    SO.BuildInfo["target"] = Target;
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

  ring::Assembler Asm(*Reader);
  analysis::IncrementalLogBuilder Builder(&std::cerr);
  std::vector<analysis::TraceEvent> AllEvents;
  observe(*Reader, ChildPid, Opts, Asm, Builder, AllEvents, Server.get(),
          Target);

  const ring::DrainStats &S = Reader->stats();
  std::cerr << "dlf-observe: drained " << S.Drained << " record(s) in "
            << S.Passes << " pass(es), " << Reader->dropsTotal()
            << " dropped, " << S.Torn << " torn, " << S.Corrupt
            << " corrupt, " << S.HalfWritten << " half-written\n";

  if (AllEvents.empty()) {
    std::cerr << "error: ring carries no events\n";
    return ExitNoEvents;
  }

  int Rc = 0;
  unsigned FinalCycles = 0;
  if (Opts.Races) {
    analysis::TraceFile Trace;
    Trace.Events = AllEvents;
    analysis::RaceAnalysis Result = analysis::detectRaces(Trace);
    std::cerr << "dlf-observe: race pass over " << Trace.Events.size()
              << " events\n";
    for (const std::string &W : Result.Warnings)
      std::cerr << "warning: " << W << "\n";
    analysis::printRaceReport(std::cout, "dlf-observe", Result);
  } else {
    IGoodlockOptions FinalOpts = Opts.IG;
    FinalOpts.KeepGuardedCycles = true;
    IGoodlockStats Stats;
    std::vector<AbstractCycle> Cycles =
        runIGoodlock(Builder.log(), FinalOpts, &Stats);
    std::vector<analysis::CycleClassification> Classes =
        analysis::classifyCycles(Builder.log(), Cycles);
    analysis::printCycleReport(std::cout, "dlf-observe", Builder.log(),
                               Cycles, Classes, Stats);
    FinalCycles = static_cast<unsigned>(Cycles.size());
  }

  if (Server) {
    serve::CampaignStatus St;
    St.Tool = "dlf-observe";
    St.Benchmark = Target;
    St.Phase = "done";
    St.EventsSeen = Builder.eventsSeen();
    St.CyclesFound = FinalCycles;
    St.Complete = true;
    Server->publishStatus(St);
    Server->publishMetrics(ringMetricsSnapshot(*Reader, Asm));
  }

  if (Rc == 0 && !Opts.MetricsOut.empty()) {
    if (!writeMetricsAtomic(Opts.MetricsOut, Opts.MetricsProm,
                            observerMetrics(*Reader, Asm))) {
      std::cerr << "error: cannot write " << Opts.MetricsOut << "\n";
      return ExitUsage;
    }
    std::cerr << "metrics written to " << Opts.MetricsOut << "\n";
  }
  return Rc;
}

//===- campaign/CampaignRunner.cpp - Resumable two-phase campaigns ----------===//

#include "campaign/CampaignRunner.h"

#include "faultinject/FaultInject.h"
#include "igoodlock/Serialize.h"
#include "serve/CampaignStatus.h"
#include "support/Affinity.h"
#include "support/Debug.h"
#include "support/Fs.h"
#include "support/Retry.h"
#include "support/Table.h"
#include "telemetry/Sidecar.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <optional>
#include <sstream>

#include <csignal>
#include <sys/stat.h>
#include <unistd.h>

using namespace dlf;
using namespace dlf::campaign;

const char *dlf::campaign::runClassName(RunClass C) {
  switch (C) {
  case RunClass::Completed:
    return "completed";
  case RunClass::Reproduced:
    return "reproduced";
  case RunClass::OtherDeadlock:
    return "other-deadlock";
  case RunClass::Stalled:
    return "stalled";
  case RunClass::Hung:
    return "hung";
  case RunClass::CrashedSignal:
    return "crashed-signal";
  case RunClass::CrashedExit:
    return "crashed-exit";
  case RunClass::OutOfMemory:
    return "oom";
  }
  return "unknown";
}

bool dlf::campaign::runClassFromName(const std::string &Name, RunClass &Out) {
  for (RunClass C :
       {RunClass::Completed, RunClass::Reproduced, RunClass::OtherDeadlock,
        RunClass::Stalled, RunClass::Hung, RunClass::CrashedSignal,
        RunClass::CrashedExit, RunClass::OutOfMemory}) {
    if (Name == runClassName(C)) {
      Out = C;
      return true;
    }
  }
  return false;
}

bool dlf::campaign::runClassIsTransient(RunClass C) {
  switch (C) {
  case RunClass::Hung:
  case RunClass::CrashedSignal:
  case RunClass::CrashedExit:
  case RunClass::OutOfMemory:
    return true;
  case RunClass::Completed:
  case RunClass::Reproduced:
  case RunClass::OtherDeadlock:
  case RunClass::Stalled:
    return false;
  }
  return false;
}

const char *dlf::campaign::phase1EngineName(Phase1Engine E) {
  switch (E) {
  case Phase1Engine::IGoodlock:
    return "igoodlock";
  case Phase1Engine::Predict:
    return "predict";
  case Phase1Engine::Both:
    return "both";
  }
  return "unknown";
}

bool dlf::campaign::phase1EngineFromName(const std::string &Name,
                                         Phase1Engine &Out) {
  for (Phase1Engine E : {Phase1Engine::IGoodlock, Phase1Engine::Predict,
                         Phase1Engine::Both}) {
    if (Name == phase1EngineName(E)) {
      Out = E;
      return true;
    }
  }
  return false;
}

std::string CycleCampaignStats::countsKey() const {
  std::ostringstream OS;
  OS << "reps=" << Reps << " repro=" << Reproduced << " other="
     << OtherDeadlocks << " stall=" << Stalls << " clean=" << CleanRuns
     << " hung=" << Hung << " csig=" << CrashedSignal << " cexit="
     << CrashedExit << " oom=" << Oom << " retries=" << RetriesSpent
     << " quarantined=" << (Quarantined ? 1 : 0);
  return OS.str();
}

std::string CampaignReport::toString(const std::string &Benchmark,
                                     const std::string &JournalPath) const {
  std::ostringstream OS;
  if (!Error.empty()) {
    OS << "error: " << Error << "\n";
    return OS.str();
  }
  OS << "campaign (" << Benchmark << "): phase 1 "
     << (PhaseOneCompleted ? "completed" : "partial") << " in "
     << PhaseOneAttempts << " sandboxed attempt(s), " << Cycles.size()
     << " potential cycle(s)\n\n";
  Table T({"Cycle", "Reproduced", "Other", "Stalls", "Clean", "Hung",
           "Crashed", "OOM", "Retries", "Probability", "Note"});
  for (size_t I = 0; I != PerCycle.size(); ++I) {
    const CycleCampaignStats &S = PerCycle[I];
    T.addRow({"#" + std::to_string(I),
              Table::fmt(static_cast<uint64_t>(S.Reproduced)) + "/" +
                  Table::fmt(static_cast<uint64_t>(S.Reps)),
              Table::fmt(static_cast<uint64_t>(S.OtherDeadlocks)),
              Table::fmt(static_cast<uint64_t>(S.Stalls)),
              Table::fmt(static_cast<uint64_t>(S.CleanRuns)),
              Table::fmt(static_cast<uint64_t>(S.Hung)),
              Table::fmt(
                  static_cast<uint64_t>(S.CrashedSignal + S.CrashedExit)),
              Table::fmt(static_cast<uint64_t>(S.Oom)),
              Table::fmt(static_cast<uint64_t>(S.RetriesSpent)),
              Table::fmt(S.probability(), 2),
              S.Quarantined ? "QUARANTINED"
                            : (S.Skipped ? "SKIPPED" : "")});
  }
  T.print(OS);
  for (size_t I = 0; I != PerCycle.size(); ++I)
    if (PerCycle[I].Quarantined)
      OS << "cycle #" << I << " quarantined: " << PerCycle[I].QuarantineReason
         << "\n";
  for (size_t I = 0; I != PerCycle.size(); ++I)
    if (!PerCycle[I].Prediction.empty())
      OS << "cycle #" << I << " prediction: " << PerCycle[I].Prediction
         << "\n";
  for (size_t I = 0; I != PerCycle.size(); ++I)
    if (PerCycle[I].Skipped) {
      // Name whichever engine discharged the cycle: the pruner verdict when
      // it is non-schedulable, the prediction verdict otherwise (a cycle
      // the pruner could not discharge but the predictor left UNCONFIRMED).
      const CycleCampaignStats &S = PerCycle[I];
      bool PrunerDischarged =
          !S.Classification.empty() && S.Classification != "schedulable";
      OS << "cycle #" << I << " statically discharged as "
         << (PrunerDischarged ? S.Classification : S.Prediction)
         << "; rerun with --include-guarded to spend reps on it\n";
    }
  OS << "reps executed " << RepsExecuted << ", replayed from journal "
     << RepsReplayed << "\n";
  if (RepsExecuted)
    OS << "throughput: " << Table::fmt(repsPerSecond(), 2) << " reps/s (wall "
       << Table::fmt(PhaseTwoWallMs / 1000.0, 2) << " s, child cpu "
       << Table::fmt(ChildCpuMs / 1000.0, 2) << " s), " << PhaseTwoChildren
       << " child(ren) for " << RepsExecuted << " reps, peak "
       << PeakConcurrency << " concurrent, jobs " << JobsUsed << "\n";
  if (JournalTailDropped)
    OS << "journal salvage: dropped " << JournalTailDropped
       << " torn/corrupt line(s); the tail was quarantined to " << JournalPath
       << ".corrupt\n";
  if (JournalDegraded)
    OS << "journal degraded (" << JournalError
       << "); results were computed in-memory and the unusable "
       << "journal was moved to " << JournalPath << ".broken\n";
  // The journal fingerprint covers seeds, reps, and abstraction settings,
  // so the resume invocation must repeat this one's options. A degraded
  // journal cannot seed a resume: suppress the advice rather than point the
  // user at a known-incomplete record stream.
  if (BudgetExhausted || Interrupted) {
    const char *Why =
        BudgetExhausted ? "wall-clock budget exhausted" : "interrupted";
    if (JournalDegraded)
      OS << Why << "; the journal is degraded, so this campaign "
         << "cannot be resumed — rerun it from scratch\n";
    else
      OS << Why << "; resume with the same options plus: --resume "
         << JournalPath << "\n";
  } else {
    OS << "campaign complete\n";
  }
  return OS.str();
}

// -- Signal handling ---------------------------------------------------------

namespace {
volatile sig_atomic_t GInterruptRequested = 0;
void onSigint(int) { GInterruptRequested = 1; }
} // namespace

void CampaignRunner::installSigintHandler() {
  GInterruptRequested = 0;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSigint;
  // No SA_RESTART: in-flight waits return EINTR, which every wait loop in
  // the sandbox handles, so the stop request is observed promptly.
  sigaction(SIGINT, &SA, nullptr);
}

bool CampaignRunner::interruptRequested() { return GInterruptRequested != 0; }

// -- Helpers -----------------------------------------------------------------

namespace {

/// A campaign child's reply for one run: \p Rec (the journal record's own
/// schema) on one line, then — with campaign telemetry on — the child's
/// telemetry section for that run. The record goes first, so a cut at the
/// payload cap can only ever hit telemetry.
std::string childReply(const JsonValue &Rec, bool Telemetry) {
  std::string Out = Rec.dump();
  Out += '\n';
  if (Telemetry)
    Out += telemetry::takeChildTelemetry();
  return Out;
}

/// CPU time this process has used so far (every thread, live or exited).
double processCpuMs() {
  struct timespec TS;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS) != 0)
    return 0.0;
  return static_cast<double>(TS.tv_sec) * 1000.0 +
         static_cast<double>(TS.tv_nsec) / 1e6;
}

/// Splits a child's payload back into its record line and the telemetry
/// section that follows it.
std::pair<std::string, std::string> splitPayload(const std::string &Payload) {
  size_t Nl = Payload.find('\n');
  if (Nl == std::string::npos)
    return {Payload, std::string()};
  return {Payload.substr(0, Nl), Payload.substr(Nl + 1)};
}

/// Witness lock names travel in one ';'/'|'-delimited record field;
/// collapse any delimiter (or whitespace) bytes they contain.
std::string sanitizeWitness(std::string Name) {
  for (char &C : Name)
    if (C == ';' || C == '|' || C == ' ' || C == '\t' || C == '\n' ||
        C == '\r')
      C = '_';
  return Name;
}

/// ';'-joined "<class>|<witness>" list, parallel to the cycle list — the
/// phase1 record's "prune" field.
std::string serializePrune(
    const std::vector<analysis::CycleClassification> &Classes) {
  std::string Out;
  for (size_t I = 0; I != Classes.size(); ++I) {
    if (I)
      Out += ';';
    Out += analysis::cycleClassName(Classes[I].Class);
    Out += '|';
    Out += sanitizeWitness(Classes[I].GuardLock);
  }
  return Out;
}

/// Parses serializePrune output. Anything unparseable (old journal, count
/// mismatch, unknown class name) yields all-Schedulable: the conservative
/// reading that never skips a repetition it should have run.
std::vector<analysis::CycleClassification> parsePrune(const std::string &Text,
                                                      size_t NumCycles) {
  std::vector<analysis::CycleClassification> Out(NumCycles);
  if (Text.empty())
    return Out;
  std::vector<analysis::CycleClassification> Parsed;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find(';', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Item = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Bar = Item.find('|');
    analysis::CycleClassification C;
    if (!analysis::cycleClassFromName(Item.substr(0, Bar), C.Class))
      return Out;
    if (Bar != std::string::npos)
      C.GuardLock = Item.substr(Bar + 1);
    Parsed.push_back(std::move(C));
    if (End == Text.size())
      break;
  }
  if (Parsed.size() != NumCycles)
    return Out;
  return Parsed;
}

/// Prediction reasons embed lock names and travel in one ';'-delimited
/// record field; collapse the structural delimiters only (spaces are legal
/// inside an item, unlike in a witness).
std::string sanitizeReason(std::string S) {
  for (char &C : S)
    if (C == ';' || C == '|' || C == '\n' || C == '\r')
      C = '_';
  return S;
}

/// ';'-joined "<verdict>|<witness-events>|<reason>" list, parallel to the
/// cycle list — the phase1 record's "predict" field.
std::string
serializePredict(const std::vector<analysis::CyclePrediction> &Preds) {
  std::string Out;
  for (size_t I = 0; I != Preds.size(); ++I) {
    if (I)
      Out += ';';
    Out += analysis::predictVerdictName(Preds[I].Verdict);
    Out += '|';
    Out += std::to_string(Preds[I].WitnessEvents);
    Out += '|';
    Out += sanitizeReason(Preds[I].Reason);
  }
  return Out;
}

/// Parses serializePredict output. Anything unparseable (old journal,
/// count mismatch, unknown verdict) yields an empty vector: with no
/// verdicts the campaign neither reorders nor skips — the conservative
/// reading that never drops a repetition it should have run.
std::vector<analysis::CyclePrediction> parsePredict(const std::string &Text,
                                                    size_t NumCycles) {
  std::vector<analysis::CyclePrediction> Parsed;
  if (Text.empty())
    return Parsed;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find(';', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Item = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Bar1 = Item.find('|');
    analysis::CyclePrediction P;
    if (!analysis::predictVerdictFromName(Item.substr(0, Bar1), P.Verdict))
      return {};
    if (Bar1 != std::string::npos) {
      size_t Bar2 = Item.find('|', Bar1 + 1);
      P.WitnessEvents =
          std::strtoull(Item.c_str() + Bar1 + 1, nullptr, 10);
      if (Bar2 != std::string::npos)
        P.Reason = Item.substr(Bar2 + 1);
    }
    Parsed.push_back(std::move(P));
    if (End == Text.size())
      break;
  }
  if (Parsed.size() != NumCycles)
    return {};
  return Parsed;
}

/// Decodes a phase1 record — a fresh child's or a journaled one — into
/// \p Report's Phase I fields. Garbled verdicts degrade to none (nothing
/// skipped or reordered); garbled cycles fail with \p Error set.
bool decodePhaseOne(const JsonValue &Rec, CampaignReport &Report,
                    std::string *Error) {
  Report.PhaseOneCompleted = Rec["completed"].asBool();
  if (!deserializeCycles(Rec["cycles"].asString(), Report.Cycles, Error))
    return false;
  Report.Classifications =
      parsePrune(Rec["prune"].asString(), Report.Cycles.size());
  Report.Predictions =
      parsePredict(Rec["predict"].asString(), Report.Cycles.size());
  return true;
}

/// Decodes a rep record — a fresh child's or a journaled one — into \p O.
/// Returns false for an unknown class, which reads as crashed-exit.
bool decodeRep(const JsonValue &Rec, RepOutcome &O) {
  O.CycleIdx = static_cast<unsigned>(Rec["cycle"].asUInt());
  O.Rep = static_cast<unsigned>(Rec["rep"].asUInt());
  O.Attempts = static_cast<unsigned>(Rec["attempts"].asUInt(1));
  O.Seed = Rec["seed"].asUInt();
  O.Thrashes = Rec["thrashes"].asUInt();
  O.ForcedUnpauses = Rec["unpauses"].asUInt();
  O.WallMs = Rec["wall_ms"].asNumber();
  O.CpuMs = Rec["cpu_ms"].asNumber();
  O.Diagnostic = Rec["diag"].asString();
  if (runClassFromName(Rec["class"].asString(), O.Class))
    return true;
  O.Class = RunClass::CrashedExit;
  return false;
}

/// Merges one committed child's telemetry section into the report: metrics
/// summed, timeline events moved to process \p Pid and rebased by the
/// child's launch offset \p LaunchUs, thread names kept. A section without
/// its "end" marker (crash, injected truncation or loss, the payload cap)
/// merges as far as it goes and is counted, never failed.
void mergeChildTelemetry(CampaignReport &Report, const std::string &Section,
                         uint32_t Pid, uint64_t LaunchUs,
                         std::string ProcessName) {
  telemetry::MetricsSnapshot Snap;
  std::vector<telemetry::TraceEvent> Events;
  std::map<uint32_t, std::string> Threads;
  bool Complete = false;
  telemetry::decodeSidecar(Section, Snap, Events, Threads, &Complete);
  Report.Metrics.merge(Snap);
  if (!Events.empty())
    Report.TimelineProcessNames[Pid] = std::move(ProcessName);
  for (telemetry::TraceEvent &E : Events) {
    E.Pid = Pid;
    E.TsUs += LaunchUs;
    Report.Timeline.push_back(std::move(E));
  }
  for (const auto &KV : Threads)
    Report.TimelineThreadNames[(uint64_t(Pid) << 32) | KV.first] = KV.second;
  if (!Complete)
    ++Report.Metrics.Counters["dlf_campaign_sidecars_missing_total"];
}

/// Campaign-level counters for one committed repetition, recorded at the
/// in-order commit frontier so totals are identical for every Jobs value.
/// (Wall/cpu histograms are informational — wall-clock is never claimed
/// deterministic.)
void recordRepMetrics(telemetry::MetricsSnapshot &M, const RepOutcome &O) {
  ++M.Counters["dlf_campaign_reps_total"];
  std::string Cls = runClassName(O.Class);
  for (char &Ch : Cls)
    if (Ch == '-')
      Ch = '_';
  ++M.Counters["dlf_campaign_reps_" + Cls + "_total"];
  if (O.Attempts > 1)
    M.Counters["dlf_campaign_retries_total"] += O.Attempts - 1;
  M.Histograms["dlf_campaign_rep_wall_ms"].observe(
      static_cast<uint64_t>(O.WallMs));
  M.Histograms["dlf_campaign_rep_cpu_ms"].observe(
      static_cast<uint64_t>(O.CpuMs));
}

uint64_t backoffDelayMs(unsigned Attempt, uint64_t BaseMs, uint64_t CapMs) {
  uint64_t Ms = BaseMs ? BaseMs << std::min<unsigned>(Attempt, 20) : 0;
  return std::min(Ms, CapMs);
}

void backoffSleep(unsigned Attempt, uint64_t BaseMs, uint64_t CapMs) {
  uint64_t Ms = backoffDelayMs(Attempt, BaseMs, CapMs);
  if (Ms)
    usleep(static_cast<useconds_t>(Ms * 1000));
}

} // namespace

// -- CampaignRunner ----------------------------------------------------------

CampaignRunner::CampaignRunner(CampaignConfig Config)
    : Config(std::move(Config)) {}

uint64_t CampaignRunner::runTimeoutMs() const {
  return Config.RunTimeoutMs ? Config.RunTimeoutMs : SandboxLimits{}.TimeoutMs;
}

uint64_t CampaignRunner::graceMs() const {
  return Config.GraceMs ? Config.GraceMs : SandboxLimits{}.GraceMs;
}

SandboxLimits CampaignRunner::childLimits() const {
  SandboxLimits L;
  L.TimeoutMs = runTimeoutMs();
  L.GraceMs = graceMs();
  L.CaptureStderr = true;
  return L;
}

JsonValue CampaignRunner::headerRecord() const {
  // Deliberately excludes Jobs: parallelism changes scheduling of the
  // host processes, not the seed-deterministic outcome of any repetition,
  // so journals resume interchangeably across --jobs values.
  JsonValue H = JsonValue::object();
  H.set("dlf_campaign", 1);
  H.set("benchmark", Config.BenchmarkName);
  H.set("p1mode", runModeName(Config.Tester.PhaseOneMode));
  H.set("kind", abstractionKindName(Config.Tester.Base.Kind));
  H.set("context", Config.Tester.Base.UseContext);
  H.set("yields", Config.Tester.Base.UseYields);
  H.set("p1seed", Config.Tester.PhaseOneSeed);
  H.set("p2base", Config.Tester.PhaseTwoSeedBase);
  H.set("reps", Config.Tester.PhaseTwoReps);
  H.set("timeout_ms", runTimeoutMs());
  H.set("max_retries", Config.MaxRetries);
  H.set("quarantine", Config.QuarantineThreshold);
  // IncludeGuarded changes which repetitions exist at all (skipped cycles
  // have none), so unlike Jobs it MUST fence journals apart.
  H.set("include_guarded", Config.IncludeGuarded);
  // The Phase I engine changes the cycle order (sound-first reorder) and,
  // in predict mode, which repetitions exist — it must fence too.
  H.set("phase1", phase1EngineName(Config.Phase1));
  return H;
}

bool CampaignRunner::headerMatches(const JsonValue &Header,
                                   std::string *Why) const {
  std::string Expected = headerRecord().dump();
  std::string Got = Header.dump();
  if (Expected == Got)
    return true;
  if (Why)
    *Why = "journal header " + Got + " does not match configuration " +
           Expected;
  return false;
}

void CampaignRunner::journalAppend(const JsonValue &Record) {
  if (!Writer.isOpen() || JournalDegraded)
    return; // journal-less campaigns are legal; degraded ones run in memory
  if (Writer.append(Record))
    ++JournalRecords;
  else
    degradeJournal(Writer.lastError());
}

void CampaignRunner::journalSync() {
  if (Writer.isOpen() && !JournalDegraded && !Writer.sync())
    degradeJournal(Writer.lastError());
}

void CampaignRunner::degradeJournal(const std::string &Why) {
  // Persistent journal failure (ENOSPC, EIO, ...): self-heal by finishing
  // the campaign in memory. The prefix already on disk is still valid, but
  // it no longer reflects the work this process goes on to do, so the
  // epilogue renames it aside to make it non-resumable.
  JournalDegraded = true;
  JournalDegradedWhy = Why;
  Writer.close();
  std::fprintf(stderr,
               "dlf-campaign: journal append failed (%s); continuing "
               "in-memory — results will be complete but the journal is no "
               "longer resumable\n",
               Why.c_str());
}

bool CampaignRunner::runPhaseOneSandboxed(CampaignReport &Report,
                                          JsonValue &Record) {
  std::string LastTriage = "never ran";
  // ActiveTester consumes PhaseOneRetries+1 consecutive seeds internally; a
  // sandbox-level retry after the child actually ran (hung, crashed, broke
  // the protocol) steps past that range so every observation uses a fresh
  // seed. A spawn failure (fork EAGAIN — the child never ran) restarts with
  // the SAME seed, so transient resource pressure cannot change which
  // cycles phase 1 observes.
  unsigned SeedSteps = 0;
  for (unsigned Attempt = 0; Attempt <= Config.MaxRetries; ++Attempt) {
    uint64_t Seed = Config.Tester.PhaseOneSeed +
                    SeedSteps * (Config.Tester.PhaseOneRetries + 1);
    Report.PhaseOneSeeds.push_back(Seed);
    ++Report.PhaseOneAttempts;

    ActiveTesterConfig TC = Config.Tester;
    TC.PhaseOneSeed = Seed;
    // The closure keeps guard-lock cycles so the pruner can see, classify,
    // and *name* them; whether Phase II spends budget on them is the
    // IncludeGuarded policy decision, applied at dispatch time.
    TC.Goodlock.KeepGuardedCycles = true;
    // Prediction needs the observation as an event trace, not just the
    // dependency log.
    TC.RecordTrace = Config.Phase1 != Phase1Engine::IGoodlock;
    uint64_t LaunchUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - TelemetryEpoch)
            .count());
    // An injected spawn failure behaves exactly like a failed fork: the
    // result stays ForkFailed and the retry keeps the seed.
    SandboxResult SR;
    std::string Reply;
    if (!faultinject::spawnFailErrno(faultinject::PhaseOneLaunch, 0, Attempt))
      SR = runInSandbox(
          [&](int Fd) {
            if (Config.Telemetry)
              telemetry::beginChildTelemetry();
            ActiveTester T(Config.Entry, TC);
            PhaseOneResult P1 = T.runPhaseOne();
            JsonValue Rec = JsonValue::object();
            Rec.set("completed", P1.Exec.Completed);
            Rec.set("cycles", serializeCycles(P1.Cycles));
            Rec.set("prune", serializePrune(
                                 analysis::classifyCycles(P1.Log, P1.Cycles)));
            std::vector<analysis::CyclePrediction> Preds;
            if (TC.RecordTrace) {
              // Sync-preserving verdicts over the captured trace; the walk
              // builds its own dependency log, whose held sets they read.
              analysis::TraceFile Trace;
              Trace.Events = std::move(P1.Trace);
              Preds = analysis::evaluateCycles(Trace, P1.Cycles);
            }
            Rec.set("predict", serializePredict(Preds));
            // Best-effort: if the parent vanished there is nothing sensible
            // left to do in the child.
            (void)writeFrame(Fd, childReply(Rec, Config.Telemetry));
            return 0;
          },
          childLimits(), [&](std::string Frame) { Reply = std::move(Frame); });

    if (Config.Telemetry)
      ++Report.Metrics.Counters["dlf_campaign_phase1_attempts_total"];

    if (SR.Status == SandboxStatus::Completed) {
      auto [Line, Section] = splitPayload(Reply);
      JsonValue Rec;
      std::string ParseError;
      if (!parseJson(Line, Rec, &ParseError) || !Rec.has("completed") ||
          !decodePhaseOne(Rec, Report, &ParseError)) {
        LastTriage = "phase 1 result protocol violation: " + ParseError;
        ++SeedSteps; // the child ran; take a fresh observation seed
        if (Attempt < Config.MaxRetries) {
          if (Config.Telemetry)
            ++Report.Metrics.Counters["dlf_campaign_worker_restarts_total"];
          backoffSleep(Attempt, Config.BackoffBaseMs, Config.BackoffCapMs);
        }
        continue;
      }
      // Sound-first stable reorder (predict/both): Phase II budget reaches
      // the realizable cycles before any UNCONFIRMED one, and in predict
      // mode the skipped suffix is contiguous. Applied BEFORE the journal
      // record is built, so cycle indices mean the same thing on resume.
      if (Config.Phase1 != Phase1Engine::IGoodlock &&
          Report.Predictions.size() == Report.Cycles.size()) {
        std::vector<size_t> Order(Report.Cycles.size());
        for (size_t I = 0; I != Order.size(); ++I)
          Order[I] = I;
        std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
          return Report.Predictions[A].sound() > Report.Predictions[B].sound();
        });
        std::vector<AbstractCycle> Cycles;
        std::vector<analysis::CycleClassification> Classes;
        std::vector<analysis::CyclePrediction> Preds;
        for (size_t I : Order) {
          Cycles.push_back(std::move(Report.Cycles[I]));
          if (I < Report.Classifications.size())
            Classes.push_back(std::move(Report.Classifications[I]));
          Preds.push_back(std::move(Report.Predictions[I]));
        }
        Report.Cycles = std::move(Cycles);
        Report.Classifications = std::move(Classes);
        Report.Predictions = std::move(Preds);
      }
      // Only the attempt that definitively succeeds merges its telemetry,
      // so a retried attempt never double-counts.
      if (Config.Telemetry)
        mergeChildTelemetry(Report, Section, 2, LaunchUs, "phase 1");

      // The child's record, completed by what only the parent knows and
      // re-encoded in the (possibly reordered) journal order.
      Rec.set("event", "phase1");
      Rec.set("attempts", Report.PhaseOneAttempts);
      JsonValue Seeds = JsonValue::array();
      for (uint64_t S : Report.PhaseOneSeeds)
        Seeds.push(JsonValue(S));
      Rec.set("seeds", std::move(Seeds));
      Rec.set("cycles", serializeCycles(Report.Cycles));
      Rec.set("prune", serializePrune(Report.Classifications));
      Rec.set("predict", serializePredict(Report.Predictions));
      Record = std::move(Rec);
      return true;
    }

    LastTriage = SR.triage();
    if (SR.Status != SandboxStatus::ForkFailed)
      ++SeedSteps; // the child ran; take a fresh observation seed
    DLF_DEBUG_LOG("phase 1 sandboxed attempt " << Attempt
                                               << " failed: " << LastTriage);
    if (Attempt < Config.MaxRetries) {
      if (Config.Telemetry)
        ++Report.Metrics.Counters["dlf_campaign_worker_restarts_total"];
      backoffSleep(Attempt, Config.BackoffBaseMs, Config.BackoffCapMs);
    }
  }
  Report.Error = "phase 1 failed after " +
                 std::to_string(Config.MaxRetries + 1) +
                 " sandboxed attempts; last: " + LastTriage;
  return false;
}

void CampaignRunner::accumulate(CycleCampaignStats &S, const RepOutcome &O) {
  ++S.Reps;
  S.RetriesSpent += O.Attempts - 1;
  S.TotalThrashes += O.Thrashes;
  S.TotalForcedUnpauses += O.ForcedUnpauses;
  S.TotalWallMs += O.WallMs;
  switch (O.Class) {
  case RunClass::Completed:
    ++S.CleanRuns;
    break;
  case RunClass::Reproduced:
    ++S.Reproduced;
    break;
  case RunClass::OtherDeadlock:
    ++S.OtherDeadlocks;
    break;
  case RunClass::Stalled:
    ++S.Stalls;
    break;
  case RunClass::Hung:
    ++S.Hung;
    break;
  case RunClass::CrashedSignal:
    ++S.CrashedSignal;
    break;
  case RunClass::CrashedExit:
    ++S.CrashedExit;
    break;
  case RunClass::OutOfMemory:
    ++S.Oom;
    break;
  }
}

// -- Phase II dispatcher -----------------------------------------------------

namespace {

/// Per-cycle dispatch/commit bookkeeping.
struct CycleProgress {
  unsigned Frontier = 0;            ///< next rep index to commit, in order
  unsigned NextDispatch = 0;        ///< next rep index to launch fresh
  unsigned ConsecutiveFailures = 0; ///< transient classes at the frontier
  bool Quarantined = false;
  /// Fresh reps handed back when their batch's child died before reaching
  /// them, keyed by their first rep: each is dispatched again as one
  /// batch, before NextDispatch. Batches are never merged, so what every
  /// child runs (and every fault keyed by it) is the same however the
  /// lanes' timing falls.
  std::map<unsigned, std::vector<unsigned>> Returned;
};

/// A batch a lane runs: reps of one cycle, in order.
struct FlightInfo {
  unsigned Cycle = 0;
  std::vector<unsigned> Reps;
  /// Reps whose frame is in; Reps[Framed] is the one running.
  size_t Framed = 0;
  /// Attempt index of every rep in the batch (a retry runs one rep).
  unsigned Attempt = 0;
  /// When Reps[Framed] started, in µs since the campaign telemetry epoch:
  /// the batch's command, then the arrival of the previous rep's frame.
  uint64_t RepStartUs = 0;
};

/// One worker lane: its sandboxed child, kept from batch to batch, and
/// the batch that child is running. Lane k's child runs on the k-th CPU
/// the runner may use; the lane index is also its timeline tid and its
/// slot in the status plane's worker view.
struct Lane {
  /// Pool ticket of the lane's child; 0 while the lane has none.
  uint64_t Ticket = 0;
  /// Child CPU time the child's frames reported, over all its batches.
  double FramedCpuMs = 0.0;
  /// The batch in flight; empty while the child waits for a command.
  std::optional<FlightInfo> Batch;
};

/// A repetition waiting out its retry backoff before relaunch.
struct RetryItem {
  unsigned Cycle = 0;
  unsigned Rep = 0;
  unsigned Attempt = 0; ///< attempt index to run next
  std::chrono::steady_clock::time_point NotBefore;
};

/// A finalized outcome waiting for the in-order commit to reach it.
/// The final attempt's telemetry section rides along so it is only merged
/// if — and when — the outcome commits at the frontier.
struct PendingOutcome {
  RepOutcome O;
  bool Replayed = false;
  std::string Telemetry;
  uint64_t StartUs = 0;
  uint64_t EndUs = 0;
  uint32_t Lane = 0;
};

/// The command that hands a lane's child a batch: the cycle, the attempt,
/// the reps in order, and the child-site faults the parent (which owns
/// the fault plan's counters) decided for each rep, listed by position
/// for the reps that have any.
std::string batchCommand(const FlightInfo &FI,
                         const std::vector<faultinject::ChildFaults> &Faults) {
  JsonValue Cmd = JsonValue::object();
  Cmd.set("cycle", FI.Cycle);
  Cmd.set("attempt", FI.Attempt);
  JsonValue Reps = JsonValue::array();
  for (unsigned R : FI.Reps)
    Reps.push(JsonValue(R));
  Cmd.set("reps", std::move(Reps));
  JsonValue Fs = JsonValue::array();
  for (size_t I = 0; I != Faults.size(); ++I) {
    const faultinject::ChildFaults &CF = Faults[I];
    if (!CF.any())
      continue;
    JsonValue F = JsonValue::object();
    F.set("at", static_cast<uint64_t>(I));
    F.set("crash", CF.CrashAction);
    F.set("hang", CF.Hang);
    F.set("truncate", CF.SidecarTruncate);
    F.set("missing", CF.SidecarMissing);
    Fs.push(std::move(F));
  }
  Cmd.set("faults", std::move(Fs));
  return Cmd.dump();
}

/// Decodes batchCommand's text in the child. Returns false for anything
/// else.
bool decodeBatchCommand(const std::string &Text, FlightInfo &FI,
                        std::vector<faultinject::ChildFaults> &Faults) {
  JsonValue Cmd;
  if (!parseJson(Text, Cmd) || !Cmd.isObject())
    return false;
  FI.Cycle = static_cast<unsigned>(Cmd["cycle"].asUInt());
  FI.Attempt = static_cast<unsigned>(Cmd["attempt"].asUInt());
  FI.Reps.clear();
  for (const JsonValue &R : Cmd["reps"].items())
    FI.Reps.push_back(static_cast<unsigned>(R.asUInt()));
  Faults.assign(FI.Reps.size(), faultinject::ChildFaults());
  for (const JsonValue &F : Cmd["faults"].items()) {
    uint64_t At = F["at"].asUInt();
    if (At >= Faults.size())
      return false;
    Faults[At].CrashAction = F["crash"].asString();
    Faults[At].Hang = F["hang"].asBool();
    Faults[At].SidecarTruncate = F["truncate"].asBool();
    Faults[At].SidecarMissing = F["missing"].asBool();
  }
  return !FI.Reps.empty();
}

/// Fills \p O for the rep a batch child was running when it ended without
/// that rep's frame.
void classifyUnframed(const SandboxResult &SR, RepOutcome &O) {
  switch (SR.Status) {
  case SandboxStatus::Completed:
    // Exited 0 without the record: the child broke the protocol (e.g.
    // crashed inside the serializer); retried like any process failure.
    O.Class = RunClass::CrashedExit;
    O.Diagnostic = "result protocol violation: the child exited without "
                   "the repetition's record";
    return;
  case SandboxStatus::Hung:
    O.Class = RunClass::Hung;
    break;
  case SandboxStatus::Signaled:
    O.Class = RunClass::CrashedSignal;
    break;
  case SandboxStatus::OutOfMemory:
    O.Class = RunClass::OutOfMemory;
    break;
  case SandboxStatus::Exited:
  case SandboxStatus::ForkFailed:
    O.Class = RunClass::CrashedExit;
    break;
  }
  O.Diagnostic = SR.triage();
}

} // namespace

void CampaignRunner::runPhaseTwo(
    CampaignReport &Report,
    std::map<std::pair<unsigned, unsigned>, RepOutcome> &Replay,
    std::map<unsigned, std::string> &JournaledQuarantines, bool HaveDone) {
  using Clock = std::chrono::steady_clock;
  const unsigned NumCycles = static_cast<unsigned>(Report.Cycles.size());
  const unsigned Reps = Config.Tester.PhaseTwoReps;

  const Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = Clock::time_point::max();
  if (Config.BudgetS)
    Deadline = Start + std::chrono::seconds(Config.BudgetS);

  WorkerPool Pool(WorkerPool::resolveJobs(Config.Jobs));
  Report.JobsUsed = Pool.jobs();
  // A batch is up to ceil(Reps / Jobs) fresh reps of one cycle, so each
  // cycle's reps are spread over every lane.
  const unsigned BatchSize =
      std::max(1u, (Reps + Pool.jobs() - 1) / Pool.jobs());

  std::vector<CycleProgress> Progress(NumCycles);
  // Statically discharged cycles consume no repetition budget unless
  // IncludeGuarded overrides: their frontier starts fully committed, so the
  // commit walk, journal, and resume all agree the cycle has nothing to do.
  // Under --phase1 predict, an UNCONFIRMED verdict discharges the same way
  // (the engine is sound: a cycle with no witness in the observation gets
  // no budget); --phase1 both keeps iGoodlock's budget policy and uses
  // verdicts for ordering/reporting only.
  for (unsigned C = 0; C != NumCycles; ++C) {
    bool PrunerSkip = C < Report.Classifications.size() &&
                      !Report.Classifications[C].schedulable();
    bool PredictSkip = Config.Phase1 == Phase1Engine::Predict &&
                       C < Report.Predictions.size() &&
                       !Report.Predictions[C].sound();
    if (!Config.IncludeGuarded && (PrunerSkip || PredictSkip)) {
      Progress[C].Frontier = Reps;
      Progress[C].NextDispatch = Reps;
      Report.PerCycle[C].Skipped = true;
    }
  }
  // Journaled outcomes enter the commit queue up front; fresh results join
  // them as frames arrive (possibly out of order across lanes).
  std::map<std::pair<unsigned, unsigned>, PendingOutcome> Pending;
  for (auto &KV : Replay) {
    PendingOutcome &PO = Pending[KV.first];
    PO.O = KV.second;
    PO.Replayed = true;
  }

  std::vector<RetryItem> Retries;
  unsigned CommitCycle = 0;

  // Worker lanes: lane k's child runs on the k-th CPU this process may use
  // (wrapping when lanes outnumber CPUs), so concurrent serialized
  // children never share a core while there are cores to spare. A lane
  // forks its child for its first batch and feeds it every later batch as
  // a command; it forks again only after its child crashed, hung or was
  // ended. The timeline shows pool occupancy by lane, and the status
  // plane's worker view is indexed by it.
  const std::vector<int> LaneCpus = allowedCpus();
  std::vector<Lane> Lanes(Pool.jobs());
  bool StatusDirty = Config.Status != nullptr;
  auto ElapsedUs = [&]() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - TelemetryEpoch)
            .count());
  };
  if (Config.Telemetry)
    Report.TimelineProcessNames[1] = "campaign workers";

  enum class StopReason { None, Sigint, Hook, Budget };
  StopReason Stop = StopReason::None;

  // Every attempt of a repetition runs the SAME seed: a supervised restart
  // after a transient failure must converge to the classification a
  // fault-free run would have produced, otherwise environmental crashes
  // (and injected chaos) would perturb the campaign's committed counts.
  auto SeedFor = [&](unsigned Rep) {
    return Config.Tester.PhaseTwoSeedBase + Rep;
  };

  // The stop and budget gates sit where the serial loop had them: before
  // each fresh repetition. A batch's first rep passes them at dispatch and
  // each later one when the frame before it arrives; retries are not
  // re-gated.
  auto Admit = [&]() {
    if (Stop != StopReason::None)
      return false;
    if (Config.ShouldStop && Config.ShouldStop()) {
      Stop = StopReason::Hook;
      return false;
    }
    if (Clock::now() >= Deadline) {
      Stop = StopReason::Budget;
      return false;
    }
    return true;
  };

  // Fills in the parent-owned fields of the outcome of \p FI's running rep
  // on lane \p L and queues it for the in-order commit.
  auto QueueOutcome = [&](uint32_t L, const FlightInfo &FI, RepOutcome O,
                          std::string Telemetry) {
    const unsigned R = FI.Reps[FI.Framed];
    O.CycleIdx = FI.Cycle;
    O.Rep = R;
    O.Attempts = FI.Attempt + 1;
    O.Seed = SeedFor(R);
    PendingOutcome PO;
    PO.O = std::move(O);
    PO.Telemetry = std::move(Telemetry);
    PO.StartUs = FI.RepStartUs;
    PO.EndUs = ElapsedUs();
    PO.Lane = L;
    Pending[{FI.Cycle, R}] = std::move(PO);
  };

  // The batch's running rep ended without its frame (the child crashed,
  // hung, ran out of memory or broke the protocol): that rep alone is
  // retried with its seed, or committed as failed once its attempts are
  // spent, and the reps after it return to the dispatch queue at attempt
  // 0. While draining, nothing is retried or handed back: those reps are
  // dropped un-journaled, and resume re-runs them from attempt 0 with the
  // same seeds, reaching the same classifications.
  auto FailRunningRep = [&](uint32_t L, const FlightInfo &FI, RepOutcome O) {
    const bool Draining = Stop != StopReason::None;
    const unsigned R = FI.Reps[FI.Framed];
    if (!Draining && FI.Framed + 1 < FI.Reps.size())
      Progress[FI.Cycle].Returned[FI.Reps[FI.Framed + 1]].assign(
          FI.Reps.begin() + FI.Framed + 1, FI.Reps.end());
    if (FI.Attempt < Config.MaxRetries) {
      if (Draining)
        return;
      DLF_DEBUG_LOG("rep " << FI.Cycle << "/" << R << " attempt "
                           << FI.Attempt << " " << runClassName(O.Class)
                           << "; restarting with the same seed");
      // Counted live at restart-scheduling time, so an operator watching
      // the metrics sees supervision working as it happens. Unlike
      // dlf_campaign_retries_total (counted at the commit frontier) this
      // includes restarts of work a drain later drops, so it is
      // operational — not jobs-deterministic.
      if (Config.Telemetry)
        ++Report.Metrics.Counters["dlf_campaign_worker_restarts_total"];
      uint64_t DelayMs = backoffDelayMs(FI.Attempt, Config.BackoffBaseMs,
                                        Config.BackoffCapMs);
      Retries.push_back({FI.Cycle, R, FI.Attempt + 1,
                         Clock::now() + std::chrono::milliseconds(DelayMs)});
      return;
    }
    QueueOutcome(L, FI, std::move(O), std::string());
  };

  // A lane's child: it reads one batch command at a time, builds the
  // tester, and runs the batch, one frame per rep, until the parent ends
  // it. It runs in launch()'s fork, so it may read these locals; Cpu is
  // its own copy.
  auto LaneChild = [&](int Cpu) {
    return [&, Cpu](int CommandFd, int Fd) {
      pinCallingThread(Cpu);
      std::string Command;
      FlightInfo B;
      std::vector<faultinject::ChildFaults> Faults;
      while (readFrame(CommandFd, Command)) {
        if (!decodeBatchCommand(Command, B, Faults) || B.Cycle >= NumCycles)
          return 1;
        const AbstractCycle &Cycle = Report.Cycles[B.Cycle];
        ActiveTester T(Config.Entry, Config.Tester);
        for (size_t I = 0; I != B.Reps.size(); ++I) {
          const Clock::time_point RepStart = Clock::now();
          const double CpuStart = processCpuMs();
          if (Config.Telemetry)
            telemetry::beginChildTelemetry();
          // Unconditional: also marks this process as a campaign child
          // so the inherited global plan cannot double-fire sidecar
          // faults.
          faultinject::applyChildFaults(Faults[I]);
          if (Config.ChildFaultHook)
            Config.ChildFaultHook(B.Cycle, B.Reps[I], B.Attempt);
          ExecutionResult E = T.runOnce(Cycle, SeedFor(B.Reps[I]));
          JsonValue Rec = JsonValue::object();
          Rec.set("class", repClassName(T.classify(E, Cycle)));
          Rec.set("thrashes", E.Thrashes);
          Rec.set("unpauses", E.ForcedUnpauses);
          Rec.set("wall_ms", std::chrono::duration<double, std::milli>(
                                 Clock::now() - RepStart)
                                 .count());
          Rec.set("cpu_ms", processCpuMs() - CpuStart);
          // Best-effort: if the parent vanished there is nothing
          // sensible left to do in the child.
          if (!writeFrame(Fd, childReply(Rec, Config.Telemetry)))
            return 0;
        }
      }
      return 0;
    };
  };

  auto ForkLane = [&](uint32_t L) {
    Lanes[L].Ticket =
        Pool.launch(LaneChild(laneCpu(LaneCpus, L)), childLimits());
    Lanes[L].FramedCpuMs = 0.0;
    ++Report.PhaseTwoChildren;
    // Counted at the fork: operational, like worker restarts — not
    // jobs-deterministic, since the lanes follow --jobs.
    if (Config.Telemetry)
      ++Report.Metrics.Counters["dlf_campaign_children_total"];
  };

  // Ends lane \p L's child, if it has one, and drops its batch.
  auto KillLane = [&](uint32_t L) {
    if (Lanes[L].Ticket)
      Report.ChildCpuMs += Pool.cancel(Lanes[L].Ticket);
    Lanes[L].Ticket = 0;
    Lanes[L].Batch.reset();
    StatusDirty = true;
  };

  // Hands a batch to free lane \p L: the command goes to the lane's child,
  // forked first if the lane has none.
  auto LaunchBatch = [&](uint32_t L, unsigned C, std::vector<unsigned> Batch,
                         unsigned Attempt) {
    FlightInfo FI;
    FI.Cycle = C;
    FI.Reps = std::move(Batch);
    FI.Attempt = Attempt;
    FI.RepStartUs = ElapsedUs();
    if (faultinject::spawnFailErrno(C, FI.Reps[0], Attempt)) {
      // An injected spawn failure behaves exactly like a failed fork: the
      // batch's first rep fails without running.
      RepOutcome O;
      classifyUnframed(SandboxResult(), O);
      FailRunningRep(L, FI, std::move(O));
      return;
    }
    // Child-site faults are decided here, in the parent, where the plan's
    // counters live: one verdict per (cycle, rep, attempt), which the
    // child applies before that rep only.
    std::vector<faultinject::ChildFaults> Faults(FI.Reps.size());
    if (faultinject::enabled())
      for (size_t I = 0; I != FI.Reps.size(); ++I)
        Faults[I] = faultinject::plan().childFaults(C, FI.Reps[I], Attempt);
    if (!Lanes[L].Ticket)
      ForkLane(L);
    // A child that cannot take the command (its fork failed, or it died)
    // is reaped by the pool, and its completion fails the batch's first
    // rep like any crash.
    Pool.send(Lanes[L].Ticket, batchCommand(FI, Faults), FI.Reps.size());
    Lanes[L].Batch = std::move(FI);
    StatusDirty = true;
  };

  // One rep's frame from lane \p L: queue its outcome for commit. After
  // the batch's last frame the lane is free and its child waits for the
  // next command; otherwise the batch's next rep passes the stop gates or
  // the lane ends here.
  auto HandleFrame = [&](uint32_t L, const std::string &Frame) {
    FlightInfo &FI = *Lanes[L].Batch;
    auto [Line, Section] = splitPayload(Frame);
    JsonValue Rec;
    RepOutcome O;
    if (!parseJson(Line, Rec) || !decodeRep(Rec, O)) {
      RepOutcome Bad;
      Bad.Class = RunClass::CrashedExit;
      Bad.Diagnostic =
          "result protocol violation; payload: " + Frame.substr(0, 120);
      Bad.WallMs = static_cast<double>(ElapsedUs() - FI.RepStartUs) / 1000.0;
      FailRunningRep(L, FI, std::move(Bad));
      KillLane(L);
      return;
    }
    Lanes[L].FramedCpuMs += O.CpuMs;
    QueueOutcome(L, FI, std::move(O),
                 Config.Telemetry ? std::move(Section) : std::string());
    ++FI.Framed;
    FI.RepStartUs = ElapsedUs();
    StatusDirty = true;
    if (FI.Framed == FI.Reps.size()) {
      Lanes[L].Batch.reset();
      return;
    }
    // The child is already running the next rep; if that rep may not run,
    // the lane ends now and the rep is left for resume.
    if (!Admit())
      KillLane(L);
  };

  // Lane \p L's child was reaped: a batch it was running fails its
  // running rep.
  auto HandleFinished = [&](uint32_t L, const SandboxResult &SR) {
    Report.ChildCpuMs += SR.CpuMs;
    if (Lanes[L].Batch) {
      RepOutcome O;
      classifyUnframed(SR, O);
      O.WallMs =
          static_cast<double>(ElapsedUs() - Lanes[L].Batch->RepStartUs) /
          1000.0;
      O.CpuMs = std::max(0.0, SR.CpuMs - Lanes[L].FramedCpuMs);
      FailRunningRep(L, *Lanes[L].Batch, std::move(O));
    }
    Lanes[L].Ticket = 0;
    Lanes[L].Batch.reset();
    StatusDirty = true;
  };

  // Takes one poll's news from the pool. Returns whether there was any.
  auto Collect = [&](int WaitMs) {
    std::vector<PoolCompletion> Done = Pool.poll(WaitMs);
    for (PoolCompletion &PC : Done) {
      auto Owner = std::find_if(Lanes.begin(), Lanes.end(), [&](const Lane &Ln) {
        return Ln.Ticket == PC.Ticket;
      });
      if (Owner == Lanes.end())
        continue;
      const uint32_t L = static_cast<uint32_t>(Owner - Lanes.begin());
      // Frames after a lane ended, or while its child has no batch, are
      // ignored.
      for (const std::string &Frame : PC.Frames) {
        if (Lanes[L].Ticket != PC.Ticket || !Lanes[L].Batch)
          break;
        HandleFrame(L, Frame);
      }
      if (!PC.Finished)
        continue;
      if (Lanes[L].Ticket == PC.Ticket)
        HandleFinished(L, PC.Result);
      else // a frame ended the lane; the child was already reaped
        Report.ChildCpuMs += PC.Result.CpuMs;
    }
    return !Done.empty();
  };

  // Quarantine kills the lanes running the cycle, drops its retries and
  // uncommitted outcomes so nothing past the quarantine point is ever
  // journaled — exactly the records a serial campaign writes.
  auto CancelCycle = [&](unsigned C) {
    for (uint32_t L = 0; L != Lanes.size(); ++L)
      if (Lanes[L].Batch && Lanes[L].Batch->Cycle == C)
        KillLane(L);
    Retries.erase(std::remove_if(Retries.begin(), Retries.end(),
                                 [C](const RetryItem &RI) {
                                   return RI.Cycle == C;
                                 }),
                  Retries.end());
    for (auto It = Pending.lower_bound({C, 0});
         It != Pending.end() && It->first.first == C;)
      It = Pending.erase(It);
    Progress[C].Returned.clear();
    Progress[C].NextDispatch = Reps;
  };

  // The /events stream mirrors the journal, but hears of this round's
  // records only once EndRound made them durable.
  std::vector<std::pair<const char *, std::string>> RoundEvents;

  // Commits queued outcomes strictly in (cycle, rep) order: journal (fresh
  // ones only), accumulate, and apply the quarantine policy at the commit
  // frontier — identical to the serial walk whatever order children finish.
  // Each call starts a commit round: its records are written and flushed as
  // they commit, and EndRound makes them durable.
  auto CommitReady = [&]() {
    while (CommitCycle < NumCycles) {
      CycleProgress &P = Progress[CommitCycle];
      CycleCampaignStats &S = Report.PerCycle[CommitCycle];
      if (P.Quarantined || P.Frontier == Reps) {
        ++CommitCycle;
        continue;
      }
      auto It = Pending.find({CommitCycle, P.Frontier});
      if (It == Pending.end())
        break;
      PendingOutcome PO = std::move(It->second);
      Pending.erase(It);
      ++P.Frontier;
      StatusDirty = true;

      const RepOutcome &O = PO.O;
      if (PO.Replayed) {
        ++Report.RepsReplayed;
      } else {
        ++Report.RepsExecuted;
        JsonValue Rec = JsonValue::object();
        Rec.set("event", "rep");
        Rec.set("cycle", O.CycleIdx);
        Rec.set("rep", O.Rep);
        Rec.set("class", runClassName(O.Class));
        Rec.set("attempts", O.Attempts);
        Rec.set("seed", O.Seed);
        Rec.set("thrashes", O.Thrashes);
        Rec.set("unpauses", O.ForcedUnpauses);
        Rec.set("wall_ms", O.WallMs);
        Rec.set("cpu_ms", O.CpuMs);
        if (!O.Diagnostic.empty())
          Rec.set("diag", O.Diagnostic);
        journalAppend(Rec);
        if (faultinject::fires("runner.kill")) {
          // Chaos: abrupt runner death right after this record was made
          // durable. PDEATHSIG takes the children down with us; resume
          // must pick up from exactly this point.
          journalSync();
          Writer.close();
          ::raise(SIGKILL);
        }
        // The /events stream mirrors the journal: one "commit" per fresh
        // frontier record, in the exact order the journal receives them.
        if (Config.Status)
          RoundEvents.emplace_back("commit", Rec.dump());
      }

      accumulate(S, O);
      if (Config.Telemetry) {
        recordRepMetrics(Report.Metrics, O);
        if (!PO.Replayed) {
          // The frontier is the one place child telemetry enters the
          // report: canceled speculation and non-final attempts never get
          // here, so merged counter totals match the serial campaign.
          Report.Timeline.push_back(telemetry::TraceEvent{
              'X', 1, PO.Lane, PO.StartUs, PO.EndUs - PO.StartUs,
              "c" + std::to_string(O.CycleIdx) + "/r" +
                  std::to_string(O.Rep) + ":" + runClassName(O.Class)});
          Report.TimelineThreadNames[(uint64_t(1) << 32) | PO.Lane] =
              "worker " + std::to_string(PO.Lane);
          mergeChildTelemetry(Report, PO.Telemetry,
                              10 + O.CycleIdx * Reps + O.Rep, PO.StartUs,
                              "cycle " + std::to_string(O.CycleIdx) +
                                  " rep " + std::to_string(O.Rep));
        }
      }
      if (runClassIsTransient(O.Class))
        ++P.ConsecutiveFailures;
      else
        P.ConsecutiveFailures = 0;

      if (Config.QuarantineThreshold &&
          P.ConsecutiveFailures >= Config.QuarantineThreshold) {
        P.Quarantined = true;
        S.Quarantined = true;
        std::ostringstream Reason;
        Reason << P.ConsecutiveFailures
               << " consecutive failed repetitions (last: "
               << runClassName(O.Class)
               << (O.Diagnostic.empty() ? "" : "; " + O.Diagnostic) << ")";
        S.QuarantineReason = Reason.str();
        if (Config.Telemetry)
          ++Report.Metrics.Counters["dlf_campaign_quarantines_total"];
        CancelCycle(CommitCycle);
        if (Config.Status) {
          JsonValue Ev = JsonValue::object();
          Ev.set("cycle", CommitCycle);
          Ev.set("reason", S.QuarantineReason);
          RoundEvents.emplace_back("quarantine", Ev.dump());
        }
        if (!JournaledQuarantines.count(CommitCycle)) {
          JsonValue Rec = JsonValue::object();
          Rec.set("event", "quarantine");
          Rec.set("cycle", CommitCycle);
          Rec.set("reason", S.QuarantineReason);
          journalAppend(Rec);
        }
      }
    }
  };

  // Ends a commit round: one fsync for all of its records, then their
  // events, so every commit a scraper sees is durable. The loop ends a
  // round after dispatching, so a lane that finished its batch gets its
  // next one without waiting for the fsync.
  auto EndRound = [&]() {
    journalSync();
    for (const auto &[Kind, Data] : RoundEvents)
      Config.Status->publishEvent(Kind, Data);
    RoundEvents.clear();
  };

  // The cycle whose fresh (attempt 0) reps are next in dispatch order, if
  // any. Replayed repetitions are skipped: their outcome is queued.
  auto PeekFresh = [&]() -> std::optional<unsigned> {
    for (unsigned C = CommitCycle; C < NumCycles; ++C) {
      CycleProgress &P = Progress[C];
      if (P.Quarantined)
        continue;
      while (P.NextDispatch < Reps && Replay.count({C, P.NextDispatch}))
        ++P.NextDispatch;
      if (!P.Returned.empty() || P.NextDispatch < Reps)
        return C;
    }
    return std::nullopt;
  };

  // The next batch of cycle \p C: the lowest handed-back one (it holds
  // the commit frontier back), else the next BatchSize fresh reps.
  auto TakeBatch = [&](unsigned C) {
    CycleProgress &P = Progress[C];
    std::vector<unsigned> Batch;
    if (!P.Returned.empty()) {
      Batch = std::move(P.Returned.begin()->second);
      P.Returned.erase(P.Returned.begin());
      return Batch;
    }
    for (; P.NextDispatch < Reps && Batch.size() < BatchSize; ++P.NextDispatch)
      if (!Replay.count({C, P.NextDispatch}))
        Batch.push_back(P.NextDispatch);
    return Batch;
  };

  // A lane free for the next batch: one whose child waits for a command
  // (no fork needed) before the lowest-numbered one without a child.
  auto FreeLane = [&]() -> std::optional<uint32_t> {
    std::optional<uint32_t> Childless;
    for (uint32_t L = 0; L != Lanes.size(); ++L) {
      if (Lanes[L].Batch)
        continue;
      if (Lanes[L].Ticket)
        return L;
      if (!Childless)
        Childless = L;
    }
    return Childless;
  };

  auto Dispatch = [&]() {
    while (Stop == StopReason::None) {
      std::optional<uint32_t> L = FreeLane();
      if (!L)
        return;
      // Ripe retries first: they hold the commit frontier back.
      auto Now = Clock::now();
      auto Ripe = std::find_if(Retries.begin(), Retries.end(),
                               [&](const RetryItem &RI) {
                                 return RI.NotBefore <= Now;
                               });
      if (Ripe != Retries.end()) {
        RetryItem RI = *Ripe;
        Retries.erase(Ripe);
        LaunchBatch(*L, RI.Cycle, {RI.Rep}, RI.Attempt);
        continue;
      }
      std::optional<unsigned> Fresh = PeekFresh();
      if (!Fresh || !Admit())
        return;
      LaunchBatch(*L, *Fresh, TakeBatch(*Fresh), /*Attempt=*/0);
    }
  };

  // A lane with nothing left to run ends its child: once the campaign
  // stops, or when no batch is queued and no retry waits out its backoff
  // (a waiting retry will want a lane soon).
  auto EndIdleLanes = [&]() {
    if (Stop == StopReason::None && (!Retries.empty() || PeekFresh()))
      return;
    for (uint32_t L = 0; L != Lanes.size(); ++L)
      if (Lanes[L].Ticket && !Lanes[L].Batch)
        KillLane(L);
  };

  auto AllCommitted = [&]() {
    for (unsigned C = 0; C != NumCycles; ++C)
      if (!Progress[C].Quarantined && Progress[C].Frontier != Reps)
        return false;
    return true;
  };

  // Builds the /status snapshot. Every count is read at the commit
  // frontier, so the snapshot a scraper sees at a given frontier position
  // is byte-identical across --jobs values; worker occupancy and the
  // throughput block describe this process only.
  auto BuildStatus = [&](const char *Phase) {
    serve::CampaignStatus St;
    St.Tool = "dlf-run";
    St.Benchmark = Config.BenchmarkName;
    St.Phase = Phase;
    St.Jobs = Report.JobsUsed;
    St.CyclesFound = NumCycles;
    St.RepsExecuted = Report.RepsExecuted;
    St.RepsReplayed = Report.RepsReplayed;
    St.JournalRecords = JournalRecords;
    unsigned Remaining = 0;
    for (unsigned C = 0; C != NumCycles; ++C) {
      const CycleCampaignStats &S = Report.PerCycle[C];
      serve::CycleStatus CS;
      CS.Index = C;
      CS.RepsTotal = S.Skipped ? 0 : Reps;
      CS.RepsDone = S.Skipped ? 0 : Progress[C].Frontier;
      CS.Reproduced = S.Reproduced;
      CS.OtherDeadlocks = S.OtherDeadlocks;
      CS.Stalls = S.Stalls;
      CS.CleanRuns = S.CleanRuns;
      CS.Hung = S.Hung;
      CS.Crashed = S.CrashedSignal + S.CrashedExit;
      CS.Oom = S.Oom;
      CS.Retries = S.RetriesSpent;
      CS.Quarantined = S.Quarantined;
      CS.Skipped = S.Skipped;
      CS.Classification = S.Classification;
      CS.Prediction = S.Prediction;
      St.RepsTotal += CS.RepsTotal;
      St.RepsCommitted += CS.RepsDone;
      St.RetriesSpent += S.RetriesSpent;
      if (S.Quarantined)
        ++St.Quarantines;
      else
        Remaining += CS.RepsTotal - CS.RepsDone;
      St.PerCycle.push_back(std::move(CS));
    }
    St.Workers.resize(Lanes.size());
    for (uint32_t L = 0; L != Lanes.size(); ++L) {
      serve::WorkerStatus &W = St.Workers[L];
      W.Lane = L;
      W.Busy = Lanes[L].Batch.has_value();
      if (const std::optional<FlightInfo> &FI = Lanes[L].Batch) {
        W.Cycle = FI->Cycle;
        W.Rep = FI->Reps[FI->Framed];
        W.Attempt = FI->Attempt;
      }
    }
    St.WallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - Start)
            .count();
    St.RepsPerSecond = St.WallMs > 0.0
                           ? Report.RepsExecuted / (St.WallMs / 1000.0)
                           : 0.0;
    if (St.RepsPerSecond > 0.0)
      St.EtaSeconds = Remaining / St.RepsPerSecond;
    St.Complete = Report.CampaignComplete;
    St.Interrupted = Report.Interrupted;
    return St;
  };

  // -- Dispatch/collect loop.
  for (;;) {
    CommitReady();
    if (Stop != StopReason::None)
      break;
    // The interrupt check precedes the completion check: a SIGINT that
    // lands while the final repetitions commit is still honored (and its
    // pending flag consumed) rather than lost to a completion race.
    if (interruptRequested()) {
      GInterruptRequested = 0; // the request is being honored; consume it
      Stop = StopReason::Sigint;
      break;
    }
    if (AllCommitted())
      break;
    Dispatch();
    if (Stop != StopReason::None)
      break;
    EndIdleLanes();
    EndRound();

    bool News = Collect(/*WaitMs=*/1);

    // Publish at most once per loop iteration, and only when something
    // changed: the sink copies under its own mutex and never does network
    // I/O here, so the analysis loop cannot block on a slow scraper.
    if (Config.Status && StatusDirty) {
      StatusDirty = false;
      Config.Status->publishStatus(BuildStatus("phase2"));
      if (Config.Telemetry)
        Config.Status->publishMetrics(Report.Metrics);
    }

    // No batch in flight and only unripe retries left: sleep toward the
    // earliest backoff expiry instead of spinning (SIGINT still wakes us
    // via EINTR).
    const bool Running =
        std::any_of(Lanes.begin(), Lanes.end(),
                    [](const Lane &Ln) { return Ln.Batch.has_value(); });
    if (!Running && !News && !Retries.empty()) {
      auto Next = std::min_element(Retries.begin(), Retries.end(),
                                   [](const RetryItem &A, const RetryItem &B) {
                                     return A.NotBefore < B.NotBefore;
                                   })
                      ->NotBefore;
      auto Now = Clock::now();
      if (Next > Now) {
        auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Next - Now)
                      .count();
        usleep(static_cast<useconds_t>(
            std::min<long long>(std::max<long long>(Us, 1000), 50'000)));
      }
    }
  }

  // -- Drain: stop dispatching, and let each lane's running rep finish
  // (its watchdog bounds the wait); the gate then ends the lane at that
  // rep's frame. Commit the in-order prefix of what came in. Outcomes past
  // the first gap are dropped un-journaled; resume re-executes them
  // deterministically. A completed campaign passes through here too, to
  // end the lanes' idle children: no child outlives the campaign. A
  // stop's drain can last a watchdog window, so the round the loop left
  // open ends first.
  if (Stop != StopReason::None)
    EndRound();
  EndIdleLanes();
  while (Pool.inFlight() != 0) {
    Collect(/*WaitMs=*/2);
    EndIdleLanes();
  }
  if (Stop != StopReason::None)
    CommitReady();

  switch (Stop) {
  case StopReason::None:
    Report.CampaignComplete = true;
    if (!HaveDone) {
      JsonValue Rec = JsonValue::object();
      Rec.set("event", "done");
      journalAppend(Rec);
    }
    break;
  case StopReason::Sigint:
  case StopReason::Hook:
  case StopReason::Budget: {
    JsonValue Rec = JsonValue::object();
    Rec.set("event", "interrupted");
    Rec.set("reason", Stop == StopReason::Sigint  ? "sigint"
                      : Stop == StopReason::Hook  ? "stop"
                                                  : "budget");
    journalAppend(Rec);
    Report.Interrupted = true;
    if (Stop == StopReason::Budget)
      Report.BudgetExhausted = true;
    break;
  }
  }

  // The last round: whatever the loop committed before it ended, the
  // drain's commits, and the closing record.
  EndRound();

  Report.PeakConcurrency = Pool.peakConcurrency();
  Report.PhaseTwoWallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  if (Config.Telemetry) {
    // Watermark gauges (max-merged, explicitly not jobs-deterministic).
    int64_t Peak = static_cast<int64_t>(Report.PeakConcurrency);
    int64_t &G = Report.Metrics.Gauges["dlf_campaign_pool_peak_in_flight"];
    G = std::max(G, Peak);
    int64_t &J = Report.Metrics.Gauges["dlf_campaign_jobs"];
    J = std::max(J, static_cast<int64_t>(Report.JobsUsed));
  }

  if (Config.Status) {
    Config.Status->publishStatus(BuildStatus(
        Report.Interrupted ? "interrupted"
                           : (Report.CampaignComplete ? "done" : "phase2")));
    if (Config.Telemetry)
      Config.Status->publishMetrics(Report.Metrics);
    JsonValue Ev = JsonValue::object();
    Ev.set("complete", Report.CampaignComplete);
    Ev.set("interrupted", Report.Interrupted);
    Ev.set("reps_executed", Report.RepsExecuted);
    Ev.set("reps_replayed", Report.RepsReplayed);
    Config.Status->publishEvent("campaign", Ev.dump());
  }
}

CampaignReport CampaignRunner::run(bool Resume) {
  CampaignReport Report;
  TelemetryEpoch = std::chrono::steady_clock::now();

  std::map<std::pair<unsigned, unsigned>, RepOutcome> Replay;
  std::map<unsigned, std::string> JournaledQuarantines;
  bool HavePhase1 = false;
  bool HaveDone = false;
  JsonValue Phase1Rec;

  if (Resume) {
    if (Config.JournalPath.empty()) {
      Report.Error = "resume requires a journal path";
      return Report;
    }
    JournalContents JC;
    JournalSalvage Salvage;
    std::string Err;
    if (!loadJournal(Config.JournalPath, JC, &Err, &Salvage)) {
      Report.Error = "cannot load journal: " + Err;
      return Report;
    }
    std::string Why;
    if (!headerMatches(JC.Header, &Why)) {
      Report.Error = Why;
      return Report;
    }
    if (!Salvage.clean()) {
      // Torn or corrupt tail (power loss mid-append, bit rot): quarantine
      // it to <journal>.corrupt and truncate back to the valid prefix so
      // our appends extend a fully valid file — then say so, loudly enough
      // to be seen but without failing a resume that is fine to continue.
      std::string QErr;
      if (!quarantineJournalTail(Config.JournalPath, Salvage, &QErr)) {
        Report.Error = "cannot quarantine corrupt journal tail: " + QErr;
        return Report;
      }
      std::fprintf(stderr,
                   "dlf-campaign: journal %s: salvaged %u intact record(s); "
                   "dropped %u torn/corrupt line(s) to %s.corrupt\n",
                   Config.JournalPath.c_str(), Salvage.Records,
                   Salvage.DroppedLines, Config.JournalPath.c_str());
      Report.JournalTailDropped = Salvage.DroppedLines;
      Report.Metrics.Counters["dlf_journal_torn_tail_total"] +=
          Salvage.DroppedLines;
    }
    for (JsonValue &Rec : JC.Records) {
      const std::string &Event = Rec["event"].asString();
      if (Event == "phase1") {
        HavePhase1 = true;
        Phase1Rec = std::move(Rec);
      } else if (Event == "rep") {
        RepOutcome O;
        decodeRep(Rec, O); // an unknown class reads as crashed-exit
        Replay[{O.CycleIdx, O.Rep}] = std::move(O);
      } else if (Event == "quarantine") {
        JournaledQuarantines[static_cast<unsigned>(Rec["cycle"].asUInt())] =
            Rec["reason"].asString();
      } else if (Event == "done") {
        HaveDone = true;
      }
      // "interrupted" records are informational only.
    }
    if (!Writer.open(Config.JournalPath, /*Truncate=*/false)) {
      Report.Error = "cannot reopen journal for append: " +
                     Writer.lastError();
      return Report;
    }
  } else if (!Config.JournalPath.empty()) {
    std::string Dir = parentDir(Config.JournalPath);
    std::string MkErr;
    if (!Dir.empty() && !makeDirs(Dir, &MkErr)) {
      Report.Error = "cannot create journal directory: " + MkErr;
      return Report;
    }
    if (!Writer.open(Config.JournalPath, /*Truncate=*/true)) {
      Report.Error = "cannot create journal: " + Writer.lastError();
      return Report;
    }
    journalAppend(headerRecord()); // a failure here degrades, like any other
    journalSync();
  }

  // -- Phase I ---------------------------------------------------------------
  if (Config.Status) {
    serve::CampaignStatus St;
    St.Tool = "dlf-run";
    St.Benchmark = Config.BenchmarkName;
    St.Phase = "phase1";
    Config.Status->publishStatus(St);
  }
  if (HavePhase1) {
    Report.PhaseOneAttempts =
        static_cast<unsigned>(Phase1Rec["attempts"].asUInt());
    for (const JsonValue &S : Phase1Rec["seeds"].items())
      Report.PhaseOneSeeds.push_back(S.asUInt());
    // Journaled cycles are already in sound-first order.
    std::string ParseError;
    if (!decodePhaseOne(Phase1Rec, Report, &ParseError)) {
      Report.Error = "journal phase-1 cycles are corrupt: " + ParseError;
      return Report;
    }
  } else {
    JsonValue Record;
    if (!runPhaseOneSandboxed(Report, Record))
      return Report; // Error is set; nothing journaled, resume retries.
    journalAppend(Record);
    journalSync();
  }

  if (Config.Status) {
    JsonValue Ev = JsonValue::object();
    Ev.set("cycles", static_cast<unsigned>(Report.Cycles.size()));
    Ev.set("completed", Report.PhaseOneCompleted);
    Ev.set("replayed", HavePhase1);
    Config.Status->publishEvent("phase1", Ev.dump());
  }

  // -- Phase II --------------------------------------------------------------
  if (Report.Classifications.size() != Report.Cycles.size())
    Report.Classifications.assign(Report.Cycles.size(), {});
  Report.PerCycle.resize(Report.Cycles.size());
  for (size_t I = 0; I != Report.Cycles.size(); ++I) {
    Report.PerCycle[I].Cycle = Report.Cycles[I];
    Report.PerCycle[I].Classification = Report.Classifications[I].label();
    if (I < Report.Predictions.size())
      Report.PerCycle[I].Prediction = Report.Predictions[I].label();
  }

  runPhaseTwo(Report, Replay, JournaledQuarantines, HaveDone);

  if (JournalDegraded) {
    Report.JournalDegraded = true;
    Report.JournalError = JournalDegradedWhy;
    if (Config.Telemetry)
      ++Report.Metrics.Counters["dlf_campaign_journal_degraded_total"];
    // Mark the journal non-resumable: its prefix no longer reflects the
    // work this process went on to do in memory. Renamed (best-effort, and
    // only if it is a regular file — never a device node someone pointed
    // the journal at) rather than deleted, for post-mortems.
    struct stat St = {};
    if (!Config.JournalPath.empty() &&
        ::stat(Config.JournalPath.c_str(), &St) == 0 && S_ISREG(St.st_mode))
      ::rename(Config.JournalPath.c_str(),
               (Config.JournalPath + ".broken").c_str());
  }
  return Report;
}

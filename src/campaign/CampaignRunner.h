//===- campaign/CampaignRunner.h - Resumable two-phase campaigns -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-isolated campaign layer over ActiveTester. The paper's
/// Phase II protocol re-executes the program under test hundreds of times
/// (100 reps x N cycles for Table 1 / Figure 2) against a workload that is
/// deadlock-prone by construction; in-process execution means one hung or
/// crashed repetition destroys the whole campaign. The CampaignRunner
/// executes Phase I in a ProcessSandbox child, and Phase II on Jobs lanes,
/// each with one sandboxed child kept for the whole phase: the parent
/// feeds it one *batch* at a time as a command frame (up to
/// ceil(Reps / Jobs) consecutive fresh repetitions of one cycle, their
/// attempt and their fault verdicts), and the child runs the batch in
/// process, one repetition after the other, then waits for the next
/// command. After each repetition the child writes one frame on the sandbox
/// pipe: a JSON line in the journal record's own schema (with that
/// repetition's own in-child wall and CPU time), then, with telemetry on,
/// that repetition's telemetry section. The parent decodes each frame as
/// it arrives with the same function journal replay uses. The sandbox
/// watchdog restarts at every frame and every command, and rests while a
/// child waits for its next batch, so the run timeout bounds one
/// repetition, not a batch or a lane. The runner classifies each run (completed /
/// reproduced / other-deadlock / stalled / hung / crashed-signal /
/// crashed-exit / oom) and supervises transient failures with bounded
/// same-seed restarts under capped exponential backoff. A crash, hang or
/// OOM costs only the repetition whose frame had not arrived and that
/// lane's child: the repetition is restarted alone, with its original
/// seed, the rest of its batch returns to the dispatch queue as fresh
/// work, and the lane forks a fresh child for its next batch. So a crash
/// that was environmental — OOM kill, injected fault, machine pressure —
/// converges to the fault-free classification and committed counts stay
/// byte-identical to an undisturbed run. Progress is journaled as each
/// repetition commits, and made durable by one fsync per commit round, so
/// an interrupted campaign resumes exactly where it left off. A cycle whose repetitions keep failing is quarantined with a
/// diagnostic record instead of aborting the campaign; a journal whose
/// writes start failing (ENOSPC, EIO) degrades the campaign to in-memory
/// results instead of aborting it.
///
/// Phase II is sharded over a WorkerPool of up to Jobs concurrent
/// children. Results complete out of order but are committed — journaled
/// and accumulated — strictly in (cycle, rep) order, so the journal a
/// parallel campaign writes is record-for-record what the serial campaign
/// writes, classification counts are byte-identical across any Jobs
/// value, and journals resume interchangeably between modes. A stop
/// (SIGINT, the budget, ShouldStop) lets each lane finish the repetition
/// it is running and ends the lane at that repetition's frame; the
/// repetitions no frame reported are left un-journaled for resume.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_CAMPAIGN_CAMPAIGNRUNNER_H
#define DLF_CAMPAIGN_CAMPAIGNRUNNER_H

#include "analysis/GuardPruner.h"
#include "analysis/Predict.h"
#include "campaign/Journal.h"
#include "campaign/ProcessSandbox.h"
#include "campaign/WorkerPool.h"
#include "fuzzer/ActiveTester.h"
#include "telemetry/Metrics.h"
#include "telemetry/Timeline.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace dlf {

namespace serve {
class StatusSink;
} // namespace serve

namespace campaign {

/// Final classification of one repetition (after retries).
enum class RunClass {
  Completed,     ///< child completed; execution ran clean (no deadlock)
  Reproduced,    ///< child completed; the target cycle was re-created
  OtherDeadlock, ///< child completed; a different real deadlock confirmed
  Stalled,       ///< child completed; uncontrolled stall / livelock abort
  Hung,          ///< watchdog expired (even after retries)
  CrashedSignal, ///< child died on a signal
  CrashedExit,   ///< child exited nonzero or broke the result protocol
  OutOfMemory,   ///< std::bad_alloc escaped the child
};

/// Returns a stable short name ("reproduced", "crashed-signal", ...) used
/// in the journal and reports.
const char *runClassName(RunClass C);

/// Parses a runClassName back; returns false for unknown names.
bool runClassFromName(const std::string &Name, RunClass &Out);

/// True for process-level failures worth retrying with a fresh seed
/// (hung / crashed / oom); false for in-protocol results.
bool runClassIsTransient(RunClass C);

/// Which engine grades Phase I's cycle candidates before Phase II spends
/// repetitions on them.
enum class Phase1Engine {
  /// iGoodlock alone (the paper's Phase I): every enumerated cycle that the
  /// guard pruner cannot discharge gets Phase II budget.
  IGoodlock,
  /// Sync-preserving prediction: the Phase I child also captures the
  /// observation as an event trace and computes a sound verdict per cycle.
  /// Phase II runs only PREDICTED-SOUND cycles (plus whatever
  /// --include-guarded re-admits), sound-first.
  Predict,
  /// Both: verdicts are computed and reported, and sound cycles are
  /// scheduled first, but no cycle is skipped on prediction grounds —
  /// iGoodlock's budget policy with prediction's prioritization.
  Both,
};

/// Stable short name ("igoodlock" / "predict" / "both") for the journal
/// header and --phase1.
const char *phase1EngineName(Phase1Engine E);

/// Parses a phase1EngineName back; returns false for unknown names.
bool phase1EngineFromName(const std::string &Name, Phase1Engine &Out);

/// Campaign configuration. A 0 watchdog or grace takes SandboxLimits{}'s
/// default (10 000 / 500 ms).
struct CampaignConfig {
  /// Registry name of the workload; part of the journal fingerprint so a
  /// journal cannot silently resume a different campaign.
  std::string BenchmarkName;

  Program Entry;
  ActiveTesterConfig Tester;

  /// Wall-clock watchdog per repetition (0: SandboxLimits{}.TimeoutMs).
  /// A batch child's watchdog restarts at every repetition's frame.
  uint64_t RunTimeoutMs = 0;

  /// SIGTERM -> SIGKILL grace (0: SandboxLimits{}.GraceMs).
  uint64_t GraceMs = 0;

  /// Supervised restarts per repetition for transient failures (hung /
  /// crashed / oom children). Every restart re-runs the SAME seed: per-seed
  /// determinism means a deterministic workload failure keeps failing (and
  /// eventually quarantines the cycle, which is the honest answer), while
  /// an environmental failure converges to the classification a fault-free
  /// run would have produced.
  unsigned MaxRetries = 3;

  /// Exponential backoff between retries: min(Base << attempt, Cap).
  uint64_t BackoffBaseMs = 10;
  uint64_t BackoffCapMs = 2000;

  /// Wall-clock budget for this invocation in seconds; 0 = unlimited.
  /// Exhaustion journals an interruption record and returns a partial
  /// (resumable) report.
  uint64_t BudgetS = 0;

  /// Consecutive failed repetitions (after retries) that quarantine a
  /// cycle instead of aborting the campaign.
  unsigned QuarantineThreshold = 5;

  /// Phase II worker processes kept in flight at once. 1 (the default)
  /// is the serial campaign; 0 means hardware concurrency. Because every
  /// repetition's classification is deterministic per seed and results
  /// are committed to the journal in (cycle, rep) order regardless of
  /// completion order, the per-cycle classification counts are identical
  /// for every value of Jobs, and Jobs is deliberately NOT part of the
  /// journal fingerprint: a serial journal resumes in parallel and vice
  /// versa.
  unsigned Jobs = 1;

  /// Spend Phase II repetitions on cycles the guard-lock pruner statically
  /// discharged (guarded / hb-ordered / single-thread). Off by default:
  /// discharged cycles are reported with their classification but consume
  /// no repetition budget. Part of the journal fingerprint — skipping
  /// changes which repetitions exist.
  bool IncludeGuarded = false;

  /// Phase I grading engine (--phase1). Predict/Both reorder the cycle
  /// list sound-first and Predict skips UNCONFIRMED cycles, so the engine
  /// is part of the journal fingerprint: it changes both the meaning of
  /// cycle indices and which repetitions exist.
  Phase1Engine Phase1 = Phase1Engine::IGoodlock;

  /// Campaign-wide telemetry (off by default; flipped on by --metrics-out
  /// / --timeline-out). Children append each repetition's metrics +
  /// timeline section to its frame after the record, and the parent
  /// merges it — only the final attempt of each *committed* repetition,
  /// at the in-order commit frontier, so merged counter totals are
  /// identical for every Jobs value. A missing or cut section (crashed child) is
  /// counted, never a campaign failure.
  bool Telemetry = false;

  /// Checkpoint file (JSON Lines). Empty runs without a journal (no
  /// resume, but still fault-isolated).
  std::string JournalPath;

  /// Optional live observability sink (serve::StatusServer), non-owning.
  /// Snapshots are built at the in-order commit frontier — the one point
  /// where counts are jobs-deterministic — and events mirror the journal
  /// records. Null (the default) costs one pointer test per publish site,
  /// so the no-server hot path is unchanged.
  serve::StatusSink *Status = nullptr;

  /// Test hook: runs *in the child* before each Phase II repetition of its
  /// batch, so tests can inject hangs/crashes/allocation storms
  /// deterministically.
  std::function<void(unsigned Cycle, unsigned Rep, unsigned Attempt)>
      ChildFaultHook;

  /// Test hook: checked in the parent before each fresh repetition — at
  /// dispatch for a batch's first repetition, and for each later one when
  /// the frame before it arrives. Returning true stops the campaign as if
  /// interrupted (journaled, resumable).
  std::function<bool()> ShouldStop;
};

/// Outcome of one repetition (final, after retries).
struct RepOutcome {
  unsigned CycleIdx = 0;
  unsigned Rep = 0;
  RunClass Class = RunClass::Completed;
  /// Child runs consumed: 1 + retries.
  unsigned Attempts = 1;
  /// Seed of the final attempt.
  uint64_t Seed = 0;
  uint64_t Thrashes = 0;
  uint64_t ForcedUnpauses = 0;
  /// Wall and CPU time of the final attempt, measured in the child around
  /// the repetition (no fork or exit). For a repetition that ended without
  /// its frame, the parent's view: time since it started, and the child's
  /// CPU time not reported by earlier frames.
  double WallMs = 0.0;
  double CpuMs = 0.0;
  /// Crash triage for failed runs: sandbox classification + stderr tail.
  std::string Diagnostic;
};

/// Aggregated per-cycle campaign statistics. The deterministic fields
/// (every count) are reproducible across interrupt/resume given the same
/// seeds; wall-clock totals are informational.
struct CycleCampaignStats {
  AbstractCycle Cycle;
  unsigned Reps = 0;
  unsigned Reproduced = 0;
  unsigned OtherDeadlocks = 0;
  unsigned Stalls = 0;
  unsigned CleanRuns = 0;
  unsigned Hung = 0;
  unsigned CrashedSignal = 0;
  unsigned CrashedExit = 0;
  unsigned Oom = 0;
  unsigned RetriesSpent = 0;
  uint64_t TotalThrashes = 0;
  uint64_t TotalForcedUnpauses = 0;
  double TotalWallMs = 0.0;
  bool Quarantined = false;
  std::string QuarantineReason;
  /// Pruner verdict for this cycle ("schedulable", "guarded (guard lock:
  /// m)", ...); empty for journals/campaigns that predate the pruner.
  std::string Classification;
  /// Prediction label ("PREDICTED-SOUND (witness: N events)" /
  /// "UNCONFIRMED (<reason>)"); empty unless the campaign ran with
  /// --phase1 predict or both.
  std::string Prediction;
  /// True when Phase II spent no budget on this cycle because the pruner
  /// discharged it (and IncludeGuarded was off) — or, under --phase1
  /// predict, because the prediction engine left it UNCONFIRMED.
  bool Skipped = false;

  double probability() const {
    return Reps ? static_cast<double>(Reproduced) / Reps : 0.0;
  }
  /// The deterministic classification counts as a comparable string (used
  /// by the resume-equivalence tests).
  std::string countsKey() const;
};

/// Full campaign report.
struct CampaignReport {
  bool PhaseOneCompleted = false;
  unsigned PhaseOneAttempts = 0;
  std::vector<uint64_t> PhaseOneSeeds;
  std::vector<AbstractCycle> Cycles;
  /// Guard-lock pruner verdict per cycle, parallel to Cycles (computed in
  /// the Phase I child, journaled, restored on resume).
  std::vector<analysis::CycleClassification> Classifications;
  /// Sync-preserving prediction verdict per cycle, parallel to Cycles
  /// (Phase1Engine::Predict / Both; empty otherwise, or when the wire /
  /// journal form failed to parse — then nothing is skipped or reordered,
  /// the conservative reading).
  std::vector<analysis::CyclePrediction> Predictions;
  std::vector<CycleCampaignStats> PerCycle;

  /// Fresh repetitions executed (and committed) by this invocation.
  unsigned RepsExecuted = 0;
  /// Repetitions restored from the journal instead of re-run.
  unsigned RepsReplayed = 0;

  // -- Throughput observability (this invocation's Phase II only).
  /// Wall-clock time Phase II took, in milliseconds.
  double PhaseTwoWallMs = 0.0;
  /// Cumulative CPU time of every reaped Phase II child (including retried
  /// attempts and each child's fork and exit); under parallel execution
  /// this exceeds the wall clock.
  double ChildCpuMs = 0.0;
  /// Phase II children forked: one per lane, plus one each time a lane
  /// needed a child after its last one crashed, hung or was ended.
  unsigned PhaseTwoChildren = 0;
  /// Most sandboxed children simultaneously in flight.
  unsigned PeakConcurrency = 0;
  /// Worker count the campaign ran with (after resolving Jobs = 0).
  unsigned JobsUsed = 1;

  /// Fresh repetitions per wall-clock second (0 when none ran).
  double repsPerSecond() const {
    return PhaseTwoWallMs > 0.0 ? RepsExecuted / (PhaseTwoWallMs / 1000.0)
                                : 0.0;
  }

  /// Campaign-wide merged telemetry (populated when Config.Telemetry):
  /// campaign-level counters plus every committed child's telemetry
  /// snapshot. Counter totals are deterministic across Jobs; gauges and
  /// wall-clock histograms are informational.
  telemetry::MetricsSnapshot Metrics;
  /// Merged timeline: campaign worker-lane spans (pid 1, one tid per
  /// worker slot) plus committed children's scheduler events rebased into
  /// the campaign clock (one pid per repetition).
  std::vector<telemetry::TraceEvent> Timeline;
  /// Display names for the timeline, keyed by pid and (pid<<32|tid).
  std::map<uint32_t, std::string> TimelineProcessNames;
  std::map<uint64_t, std::string> TimelineThreadNames;

  bool BudgetExhausted = false;
  bool Interrupted = false;
  /// Every cycle reached its repetition count (or was quarantined).
  bool CampaignComplete = false;
  /// Journal writes started failing persistently (ENOSPC, EIO): the
  /// campaign finished in memory, the results above are complete, and the
  /// on-disk journal was renamed to "<path>.broken" (non-resumable).
  bool JournalDegraded = false;
  /// The append failure that triggered the degradation.
  std::string JournalError;
  /// Corrupt/torn trailing journal lines dropped by the salvage pass on
  /// resume (also counted as dlf_journal_torn_tail_total).
  unsigned JournalTailDropped = 0;
  /// Set on configuration/journal errors; the report is then empty.
  std::string Error;

  /// The campaign report as dlf-run prints it (the per-cycle table, notes,
  /// throughput and the resume advice); an error report renders as its
  /// "error: " line. \p Benchmark heads the report and \p JournalPath
  /// names the journal in the advice.
  std::string toString(const std::string &Benchmark,
                       const std::string &JournalPath) const;
};

/// Drives one campaign: Phase I in a sandboxed child and Phase II in
/// batches of repetitions fed to one long-lived sandboxed child per lane,
/// journaled and resumable.
class CampaignRunner {
public:
  explicit CampaignRunner(CampaignConfig Config);

  /// Runs the campaign. With \p Resume, the journal at JournalPath is
  /// loaded first: its fingerprint is validated, journaled repetitions
  /// are replayed into the statistics, and execution continues with the
  /// first missing repetition.
  CampaignReport run(bool Resume = false);

  /// Arms a SIGINT handler that requests a graceful stop (clearing any
  /// pending request first): new work stops being dispatched, each lane
  /// finishes the repetition it is running (bounded by its watchdog) and
  /// ends there, the in-order results are journaled, then the campaign
  /// returns a resumable partial report.
  static void installSigintHandler();
  static bool interruptRequested();

  const CampaignConfig &config() const { return Config; }

private:
  uint64_t runTimeoutMs() const;
  uint64_t graceMs() const;
  SandboxLimits childLimits() const;
  JsonValue headerRecord() const;
  bool headerMatches(const JsonValue &Header, std::string *Why) const;

  bool runPhaseOneSandboxed(CampaignReport &Report, JsonValue &Record);
  /// The sharded Phase II dispatcher/collector; Jobs = 1 is the serial
  /// campaign through the same code path.
  void runPhaseTwo(CampaignReport &Report,
                   std::map<std::pair<unsigned, unsigned>, RepOutcome> &Replay,
                   std::map<unsigned, std::string> &JournaledQuarantines,
                   bool HaveDone);
  static void accumulate(CycleCampaignStats &S, const RepOutcome &O);
  /// Appends \p Record if a journal is open and healthy. An append failure
  /// degrades the journal (once) instead of stopping the campaign: the
  /// campaign keeps running in memory and the epilogue marks the journal
  /// non-resumable. The record is durable only after the next
  /// journalSync.
  void journalAppend(const JsonValue &Record);
  /// Makes every record appended so far durable (one fsync, skipped when
  /// nothing is pending); a failure degrades the journal like an append's.
  void journalSync();
  /// Switches to in-memory mode after a persistent journal write failure.
  void degradeJournal(const std::string &Why);

  CampaignConfig Config;
  JournalWriter Writer;
  /// Records successfully appended by this invocation (status reporting).
  uint64_t JournalRecords = 0;
  bool JournalDegraded = false;
  std::string JournalDegradedWhy;
  /// Zero point of the merged timeline (run() entry); child events are
  /// rebased onto it via their launch offset.
  std::chrono::steady_clock::time_point TelemetryEpoch;
};

} // namespace campaign
} // namespace dlf

#endif // DLF_CAMPAIGN_CAMPAIGNRUNNER_H

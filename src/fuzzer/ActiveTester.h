//===- fuzzer/ActiveTester.h - Two-phase driver ------------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end DEADLOCKFUZZER driver: Phase I observes an execution and
/// runs iGoodlock; Phase II re-executes the program once per repetition and
/// per reported cycle under the biased random scheduler and counts how
/// often each cycle is re-created. This is the workflow behind Table 1 and
/// Figure 2 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_FUZZER_ACTIVETESTER_H
#define DLF_FUZZER_ACTIVETESTER_H

#include "analysis/Trace.h"
#include "fuzzer/CycleSpec.h"
#include "igoodlock/IGoodlock.h"
#include "igoodlock/LockDependency.h"
#include "runtime/Options.h"
#include "runtime/Result.h"

#include <functional>
#include <string>
#include <vector>

namespace dlf {

/// A program under test: any callable that runs the workload to completion
/// using the dlf primitives. Invoked once per execution on a fresh Runtime.
using Program = std::function<void()>;

/// Tester configuration.
struct ActiveTesterConfig {
  /// Base options for every execution: abstraction kind, context use,
  /// yields, depths, safety limits. Mode/Seed/RecordDependencies are set
  /// per phase by the tester.
  Options Base;

  /// Phase II repetitions per cycle (the paper uses 100).
  unsigned PhaseTwoReps = 20;

  /// How Phase I observes the program: Active (a serialized random
  /// execution — deterministic, stall-recoverable; the default) or Record
  /// (a genuinely concurrent execution with real locks — the paper's
  /// lowest-perturbation observation; a run that truly deadlocks will
  /// block, so use this only on staggered workloads or under an external
  /// watchdog).
  RunMode PhaseOneMode = RunMode::Active;

  /// Seed of the Phase I observation run; retried with consecutive seeds
  /// if the random execution happens to deadlock.
  uint64_t PhaseOneSeed = 1;
  unsigned PhaseOneRetries = 5;

  /// Base seed for Phase II; repetition r uses PhaseTwoSeedBase + r.
  uint64_t PhaseTwoSeedBase = 1000;

  /// Capture the Phase I observation as an in-memory event trace
  /// (PhaseOneResult::Trace) alongside the dependency log. Required for
  /// sync-preserving prediction (--phase1 predict); off by default because
  /// most callers only need the iGoodlock log.
  bool RecordTrace = false;

  IGoodlockOptions Goodlock;
};

/// Outcome of Phase I.
struct PhaseOneResult {
  LockDependencyLog Log;
  ExecutionResult Exec;
  std::vector<AbstractCycle> Cycles;
  IGoodlockStats Stats;

  /// The observation as a grant-ordered event trace (empty unless
  /// ActiveTesterConfig::RecordTrace). For a completed observation this is
  /// that execution's trace; when every attempt stalled it is the first
  /// attempt's partial trace.
  std::vector<analysis::TraceEvent> Trace;

  /// The consecutive seeds the observation consumed, in order (one per
  /// attempt; more than one means earlier attempts deadlocked/stalled).
  std::vector<uint64_t> SeedsTried;

  /// True when every attempt stalled: the retry budget is exhausted and
  /// Cycles is only the union of partial observations, not the report of a
  /// complete execution. Distinguishes "no cycles because the program is
  /// clean" from "no cycles because observation kept deadlocking".
  bool RetriesExhausted = false;

  /// Structured diagnostic when RetriesExhausted is set.
  std::string Error;
};

/// How one Phase II repetition ended, judged from its ExecutionResult.
enum class RepClass {
  Completed,     ///< ran clean: no deadlock, no stall
  Reproduced,    ///< confirmed a deadlock matching the target cycle
  OtherDeadlock, ///< confirmed a different real deadlock
  Stalled,       ///< uncontrolled stall, or the MaxSteps/livelock net tripped
};

/// Stable short name ("completed", "reproduced", "other-deadlock",
/// "stalled"); the campaign journal uses the same names for these classes.
const char *repClassName(RepClass C);

/// Phase II statistics for one target cycle.
struct CycleFuzzStats {
  AbstractCycle Cycle;
  unsigned Runs = 0;
  /// Runs whose confirmed deadlock matches the target cycle (rotation- and
  /// abstraction-equal). This is the paper's "reproduced" count.
  unsigned ReproducedTarget = 0;
  /// Runs that confirmed a *different* real deadlock (the paper observed
  /// this for the synchronized-map benchmarks, probability 0.52).
  unsigned OtherDeadlocks = 0;
  /// Runs that ended in an uncontrolled stall (no checker cycle) or were
  /// cut by the MaxSteps / livelock safety net.
  unsigned Stalls = 0;
  /// Runs that completed without any deadlock.
  unsigned CleanRuns = 0;

  uint64_t TotalThrashes = 0;
  /// Livelock-monitor removals from the Paused set (the "monitor thread"
  /// of paper §5); like thrashes, these mark a thread paused in an
  /// unsuitable state.
  uint64_t TotalForcedUnpauses = 0;
  double TotalWallMs = 0.0;

  double probability() const {
    return Runs ? static_cast<double>(ReproducedTarget) / Runs : 0.0;
  }
  double avgThrashes() const {
    return Runs ? static_cast<double>(TotalThrashes) / Runs : 0.0;
  }
  /// Thrashes plus monitor removals — every bad pause, the quantity the
  /// paper's Figure 2 graph 3 tracks.
  double avgBadPauses() const {
    return Runs ? static_cast<double>(TotalThrashes + TotalForcedUnpauses) /
                      Runs
                : 0.0;
  }
  double avgWallMs() const { return Runs ? TotalWallMs / Runs : 0.0; }
};

/// Full two-phase report.
struct ActiveTesterReport {
  PhaseOneResult PhaseOne;
  std::vector<CycleFuzzStats> PerCycle;

  /// Cycles confirmed by at least one Phase II run.
  unsigned confirmedCycles() const;
  /// Human-readable summary.
  std::string toString() const;
};

/// Runs the two phases; stateless between calls except for the stored
/// program and configuration.
class ActiveTester {
public:
  explicit ActiveTester(Program P, ActiveTesterConfig Config = {});

  /// Phase I: a random serialized execution with dependency recording,
  /// followed by iGoodlock.
  PhaseOneResult runPhaseOne();

  /// One Phase II execution targeting \p Cycle with \p Seed.
  ExecutionResult runOnce(const AbstractCycle &Cycle, uint64_t Seed);

  /// Classifies one Phase II execution that targeted \p Cycle. The one
  /// classifier fuzzCycle and the campaign child share, so `dlf-run X` and
  /// `dlf-run X --campaign` agree at the same seed.
  RepClass classify(const ExecutionResult &R, const AbstractCycle &Cycle) const;

  /// Phase II for one cycle: PhaseTwoReps executions, classified.
  CycleFuzzStats fuzzCycle(const AbstractCycle &Cycle);

  /// Phase I + Phase II over every reported cycle.
  ActiveTesterReport run();

  /// One uninstrumented (Passthrough) execution, for baseline timing.
  ExecutionResult runPassthrough();

  /// One Active execution under the simple random scheduler with the
  /// avoidance extension armed against \p Immunity (Dimmunix-style
  /// healing: confirmed cycles stay infeasible).
  ExecutionResult runWithImmunity(const std::vector<CycleSpec> &Immunity,
                                  uint64_t Seed);

  /// Compiles the confirmed cycles of \p Report into avoidance specs.
  static std::vector<CycleSpec>
  buildImmunity(const ActiveTesterReport &Report,
                AbstractionKind Kind = AbstractionKind::ExecutionIndex);

  /// Whether \p Witness is (a rotation of) \p Cycle under the matching
  /// configuration.
  static bool witnessMatchesCycle(const DeadlockWitness &Witness,
                                  const AbstractCycle &Cycle,
                                  AbstractionKind Kind, bool UseContext);

  const ActiveTesterConfig &config() const { return Config; }

private:
  Program TheProgram;
  ActiveTesterConfig Config;
};

/// Result classification of a forked, watchdog-guarded execution (used for
/// the paper's "run 100 times uninstrumented, observe zero deadlocks"
/// comparison, where a deadlocked run would otherwise hang the harness).
enum class ForkedOutcome {
  Completed, ///< child exited cleanly
  Hung,      ///< watchdog expired; child killed (deadlock, in our usage)
  Crashed,   ///< child died with a signal or nonzero exit
};

/// Runs \p P in a forked child with a \p TimeoutMs watchdog. Implemented
/// on campaign::runInSandbox, which reaps the child unconditionally (no
/// zombies), retries waits interrupted by signals, and escalates
/// SIGTERM -> SIGKILL after \p GraceMs instead of killing outright.
/// POSIX-only.
ForkedOutcome runForkedWithTimeout(const Program &P, uint64_t TimeoutMs,
                                   double *WallMsOut = nullptr,
                                   uint64_t GraceMs = 500);

/// The outcome of runForkedRuns.
struct ForkedRuns {
  std::vector<double> WallMs; ///< wall time of each completed run, in ms
  unsigned Hung = 0;          ///< runs the watchdog killed
  unsigned Crashed = 0;       ///< runs that crashed, or whose child never ran
};

/// Runs \p P \p Runs times in a row, uninstrumented, in one forked child
/// under a watchdog. Each run is timed in the child and reported as its
/// own frame, so \p TimeoutMs bounds each run, and neither the fork nor
/// the exit is billed to a run. A run that hangs or crashes ends the
/// child; the runs left go on in a fresh one. POSIX-only.
ForkedRuns runForkedRuns(const Program &P, unsigned Runs, uint64_t TimeoutMs,
                         uint64_t GraceMs = 500);

} // namespace dlf

#endif // DLF_FUZZER_ACTIVETESTER_H

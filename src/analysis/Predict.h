//===- analysis/Predict.h - Sync-preserving deadlock prediction -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sound sync-preserving deadlock prediction over a recorded trace, after
/// "Sound Dynamic Deadlock Prediction in Linear Time" (Tunç et al.) and
/// "Partial Orders for Precise and Efficient Dynamic Deadlock Prediction".
/// iGoodlock over-approximates: it reports every cyclic lock-dependency
/// pattern, realizable or not, and Phase II burns repetitions finding out
/// which. This pass answers the question statically, in the sound
/// direction: a cycle is PREDICTED-SOUND only when the trace itself
/// contains a witness — a per-thread-prefix subset of the recorded events
/// that can replay (respecting lock exclusion, fork/join edges and
/// notify→wake edges) into a state where every cycle thread is blocked at
/// its acquire while the next thread over holds the requested lock.
///
/// The witness search is a fixpoint over per-thread included-prefix
/// lengths (the sync-preserving closure): including an acquire forces the
/// release of every earlier conflicting critical section on that lock into
/// the witness, including a wakeup forces its notify, including any event
/// of a forked thread forces the fork, and including a join forces the
/// whole joined thread. Replaying the resulting included set in trace
/// order is legal because conflicting critical sections never overlap in
/// the trace — so a successful fixpoint IS a schedule, and the verdict is
/// sound. Everything else stays UNCONFIRMED (with a reason: guarded /
/// hb-ordered / sync-order / no-witness / assignment-cap), which iGoodlock
/// semantics still cover — prediction never *adds* cycles, it grades them.
///
/// The trace is walked once, event by event (IncrementalPredictor), so a
/// caller can stream it from the reader without holding it. That walk
/// builds the lock dependency log and, beside it, the closure's per-thread
/// event lists and per-lock critical sections. A cycle component is
/// matched to dependency entries by the guard pruner's matcher; each entry
/// keeps its first few concrete acquires (occurrences) with their clocks,
/// and reads held set, modes and context off the entry itself. Guard and
/// order tests are the pruner's too; the engines differ in the wait-edge
/// check, the aggregation and the closure.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_PREDICT_H
#define DLF_ANALYSIS_PREDICT_H

#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "igoodlock/Report.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace dlf {
namespace analysis {

/// Verdict for one cycle. Sound means a concrete witness schedule was
/// constructed from the trace; Unconfirmed means none was found (which
/// does not prove absence — the engine is sound, not complete).
enum class PredictVerdict { Sound, Unconfirmed };

/// Stable short name ("sound" / "unconfirmed") for journals and wire use.
const char *predictVerdictName(PredictVerdict V);

/// Parses a predictVerdictName back; returns false for unknown names.
bool predictVerdictFromName(const std::string &Name, PredictVerdict &Out);

/// Prediction for one cycle.
struct CyclePrediction {
  PredictVerdict Verdict = PredictVerdict::Unconfirmed;
  /// Unconfirmed: strongest discharge evidence seen across assignments
  /// ("guarded (guard lock: g)" / "hb-ordered" / "sync-order" /
  /// "no-witness" / "assignment-cap"). Sound: empty.
  std::string Reason;
  /// Sound: number of trace events in the constructed witness prefix set.
  uint64_t WitnessEvents = 0;

  bool sound() const { return Verdict == PredictVerdict::Sound; }
  /// Report label: "PREDICTED-SOUND (witness: N events)" or
  /// "UNCONFIRMED (<reason>)".
  std::string label() const;
};

struct PredictStats {
  uint64_t EventsSeen = 0;
  uint64_t AcquiresIndexed = 0;
  uint64_t AssignmentsTried = 0;
  /// Wall time from the walk's start to the last verdict, trace walk
  /// (and, streamed, the trace read) included.
  uint64_t ElapsedMicros = 0;
};

/// Computes a verdict for every cycle in \p Cycles against \p Trace.
/// Cycle components are matched to the entries of the dependency log the
/// walk builds from \p Trace with the guard pruner's matcher (exact
/// context preferred), and each component is tried at the first 8 matching
/// acquires in trace order; at most AssignmentCap (analysis/GuardPruner.h)
/// assignments are tried per cycle.
std::vector<CyclePrediction>
evaluateCycles(const TraceFile &Trace, const std::vector<AbstractCycle> &Cycles,
               PredictStats *Stats = nullptr);

/// Full --predict pipeline result: the iGoodlock cycle enumeration (guarded
/// cycles kept, so every candidate gets graded) plus per-cycle verdicts.
struct PredictAnalysis {
  std::vector<AbstractCycle> Cycles;
  std::vector<CyclePrediction> Predictions;
  IGoodlockStats ClosureStats;
  PredictStats Stats;
  size_t DependencyEntries = 0;
  uint64_t AcquireEvents = 0;

  size_t soundCount() const;
};

/// The --predict walk, fed one event at a time: it builds the dependency
/// log and the closure's index as the events arrive, so a caller that
/// streams the trace (dlf-analyze) never holds it. predictDeadlocks and
/// evaluateCycles are loops over feed().
class IncrementalPredictor {
public:
  IncrementalPredictor();
  ~IncrementalPredictor();

  /// Feeds one event. Each event must be fed exactly once, in trace order.
  void feed(const TraceEvent &E);
  uint64_t eventsSeen() const;

  /// After the last event: the iGoodlock enumeration over the walk's log
  /// plus a verdict per cycle (predictDeadlocks).
  PredictAnalysis finish(const IGoodlockOptions &Closure = {}) const;
  /// After the last event: verdicts for \p Cycles (evaluateCycles).
  std::vector<CyclePrediction> grade(const std::vector<AbstractCycle> &Cycles,
                                     PredictStats *Stats = nullptr) const;

private:
  struct State;
  std::unique_ptr<State> S;
};

/// Runs enumeration + prediction over \p Trace, both over the one walk's
/// dependency log. \p Closure controls the candidate enumeration
/// (MaxCycleLength, AnalysisJobs).
PredictAnalysis predictDeadlocks(const TraceFile &Trace,
                                 const IGoodlockOptions &Closure = {});

/// Prints the --predict report. Deterministic: no timing or job-count
/// chatter — stdout is byte-identical for every --analysis-jobs value.
void printPredictReport(std::ostream &OS, const char *Tool,
                        const PredictAnalysis &R);

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_PREDICT_H

//===- analysis/LogBuilder.h - Trace events to dependency log ---*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental construction of the lock dependency relation from a trace
/// event stream, extracted from dlf-analyze so the dlf-observe sidecar can
/// feed events in epochs as they drain from the ring: the SyncWalker state
/// (thread clocks, held stacks, pending notify clocks, the running event
/// number used in warnings) persists across feed() calls, and feeding a
/// whole trace in one call is exactly the batch behavior.
///
/// The walker runs the must-order partial order (fork, join and
/// notify->wake edges; see analysis/SyncWalker.h), so the pruner's
/// HBOrdered verdict proves infeasibility instead of merely "didn't
/// overlap this run" — the distinction §1 of the paper draws.
///
/// printCycleReport/printRaceReport render the analysis results in the
/// exact format dlf-analyze established, parameterized only by the tool
/// name, so dlf-observe's final report is diffable against dlf-analyze on
/// the same execution (the ring CI tier does exactly that).
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_LOGBUILDER_H
#define DLF_ANALYSIS_LOGBUILDER_H

#include "analysis/GuardPruner.h"
#include "analysis/RaceDetector.h"
#include "analysis/SyncWalker.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "igoodlock/LockDependency.h"
#include "runtime/Records.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace dlf {
namespace analysis {

class IncrementalLogBuilder {
public:
  /// Semantic warnings ("acquire references unknown thread") go to
  /// \p WarnOS; pass null to silence them.
  explicit IncrementalLogBuilder(std::ostream *WarnOS = nullptr)
      : Walker(SyncOrder::MustOrder, WarnOS) {}

  /// Feeds a batch of events. Each event must be fed exactly once, in
  /// stream order.
  void feed(const std::vector<TraceEvent> &Events);

  const LockDependencyLog &log() const { return Log; }
  uint64_t eventsSeen() const { return Walker.eventsSeen(); }

private:
  SyncWalker Walker;
  LockDependencyLog Log;
};

/// The cycle as a Phase II spec line (DLF_PRELOAD_CYCLE), through the
/// codec in interpose/TraceFormat.h.
std::string cycleSpecOf(const AbstractCycle &Cycle);

/// Prints the deadlock-cycle report (summary lines, then one block per
/// cycle with classification and machine-readable cycle-spec) in the
/// dlf-analyze format, with \p Tool as the leading tool name.
void printCycleReport(std::ostream &OS, const char *Tool,
                      const LockDependencyLog &Log,
                      const std::vector<AbstractCycle> &Cycles,
                      const std::vector<CycleClassification> &Classes,
                      const IGoodlockStats &Stats);

/// Prints the race report in the dlf-analyze --races format.
void printRaceReport(std::ostream &OS, const char *Tool,
                     const RaceAnalysis &Result);

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_LOGBUILDER_H

//===- analysis/LogBuilder.h - Trace events to dependency log ---*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental construction of the lock dependency relation from a trace
/// event stream, extracted from dlf-analyze so the dlf-observe sidecar can
/// feed events in epochs as they drain from the ring and dlf-analyze can
/// feed them one at a time as the trace reader decodes them: the SyncWalker
/// state (thread clocks, held stacks, pending notify clocks, the running
/// event number used in warnings) persists across feed() calls, and
/// feeding a whole trace in one call is exactly the streamed behavior.
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

/// Forwards the walk's thread/lock declarations and acquires (with the
/// held stack and clock at the request) to the dependency log. An analysis
/// that needs more from the same walk derives from it and calls these hooks
/// from its own.
struct LogVisitor : SyncVisitor {
  const SyncWalker &W;
  LockDependencyLog &Log;

  LogVisitor(const SyncWalker &W, LockDependencyLog &Log) : W(W), Log(Log) {}
  void threadNew(uint32_t T) { Log.onThreadCreated(W.thread(T)); }
  void lockNew(uint32_t L) { Log.onLockCreated(W.lock(L)); }
  /// Returns the index of the dependency entry the acquire mapped to.
  size_t acquire(uint32_t T, uint32_t L, Label Site, LockMode Mode) {
    const ThreadRecord &R = W.thread(T);
    return Log.addAcquire(R, W.lock(L), R.LockStack, Site, Mode);
  }
};

class IncrementalLogBuilder {
public:
  /// Semantic warnings ("acquire references unknown thread") go to
  /// \p WarnOS; pass null to silence them.
  explicit IncrementalLogBuilder(std::ostream *WarnOS = nullptr)
      : Walker(SyncOrder::MustOrder, WarnOS) {}

  /// Feeds one event. Each event must be fed exactly once, in stream
  /// order.
  void feed(const TraceEvent &E);
  /// Feeds a batch of events, one at a time.
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

//===- analysis/RaceDetector.h - Lockset + epoch race detector --*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline data-race detection over recorded traces — the second analysis
/// pass the trace already pays for. The algorithm is the classic hybrid:
/// Eraser's lockset discipline filtered by FastTrack-style happens-before
/// (reusing event/VectorClock), so an access pair is racy only when
///
///   * the accesses touch the same object from different threads,
///   * at least one is a write,
///   * their vector clocks are concurrent (the SyncWalker's full-sync
///     order: fork, join, notify->wake and release->acquire edges all
///     establish order — a consistently lock-protected handoff is ordered
///     and never reported), and
///   * the locksets held at the two accesses are disjoint.
///
/// One serial walk computes clocks, locksets and per-object access
/// summaries; pairs are then checked object by object in object-first-seen
/// order, so the report order is a pure function of the trace.
///
/// Accesses come from the opt-in DLF_TRACE_ACCESSES preload knob (L/S/O
/// trace lines); summaries keep the last access per (thread, kind, site)
/// per object, which bounds memory on looping programs without losing any
/// racy *pair of sites*.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_RACEDETECTOR_H
#define DLF_ANALYSIS_RACEDETECTOR_H

#include "analysis/Trace.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dlf {
namespace analysis {

/// One side of a racy pair.
struct RaceAccess {
  uint64_t Thread = 0;
  std::string ThreadAbs;
  bool IsWrite = false;
  std::string Site;
};

/// A racy access pair on one object.
struct RaceReport {
  uint64_t Object = 0;
  std::string ObjectAbs;
  RaceAccess First;
  RaceAccess Second;

  /// Multi-line human-readable rendering.
  std::string toString() const;
};

struct RaceDetectorOptions {
  /// Cap on reported pairs (the walk still visits everything; reports past
  /// the cap are counted, not rendered).
  size_t MaxReports = 256;
};

/// Result of one detection run.
struct RaceAnalysis {
  std::vector<RaceReport> Races;
  /// Racy pairs found in total, including any past MaxReports.
  uint64_t RacyPairs = 0;
  uint64_t ObjectsSeen = 0;
  uint64_t AccessesSeen = 0;
  /// Semantic oddities (releases of unheld locks, events naming an
  /// undeclared thread or lock).
  std::vector<std::string> Warnings;
};

/// The detector's walk, fed one event at a time, so a caller can stream
/// the trace from the reader without holding it. detectRaces is a loop
/// over feed().
class IncrementalRaceDetector {
public:
  IncrementalRaceDetector();
  ~IncrementalRaceDetector();

  /// Feeds one event. Each event must be fed exactly once, in trace order.
  void feed(const TraceEvent &E);
  uint64_t eventsSeen() const;
  /// After the last event: the pair checks and the report.
  RaceAnalysis finish(const RaceDetectorOptions &Opts = {}) const;

private:
  struct State;
  std::unique_ptr<State> S;
};

/// Runs the detector over \p Trace.
RaceAnalysis detectRaces(const TraceFile &Trace,
                         const RaceDetectorOptions &Opts = {});

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_RACEDETECTOR_H

//===- serve/CampaignStatus.h - Live campaign status snapshot ----*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling-state seam between the analysis engines and the HTTP
/// observability plane. A CampaignStatus is a plain-data, point-in-time
/// snapshot of a long-running tool's progress: per-cycle repetition counts
/// as of the in-order commit frontier, worker occupancy, phase-1 verdicts,
/// throughput, and ETA. The producer (CampaignRunner per frontier commit,
/// dlf-observe per epoch) fills one and hands it to a StatusSink; the
/// consumer (serve::StatusServer today, dlf-serve tomorrow) keeps the last
/// copy under a mutex and serves it on demand.
///
/// Determinism contract: every *count* field is taken at the commit
/// frontier, so for a campaign it is byte-identical across --jobs values at
/// any given frontier position. Wall-clock, throughput, ETA, and worker
/// occupancy are informational — they describe this process, not the
/// deterministic result.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SERVE_CAMPAIGNSTATUS_H
#define DLF_SERVE_CAMPAIGNSTATUS_H

#include "telemetry/Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dlf {
namespace serve {

/// One Phase II worker slot (a campaign pool lane).
struct WorkerStatus {
  uint32_t Lane = 0;
  bool Busy = false;
  /// Valid while Busy: what the lane's child is running.
  unsigned Cycle = 0;
  unsigned Rep = 0;
  unsigned Attempt = 0;
};

/// Per-cycle progress as of the commit frontier.
struct CycleStatus {
  unsigned Index = 0;
  /// Repetitions committed at the frontier / planned for this cycle.
  /// RepsTotal is 0 for a statically discharged (skipped) cycle.
  unsigned RepsDone = 0;
  unsigned RepsTotal = 0;
  unsigned Reproduced = 0;
  unsigned OtherDeadlocks = 0;
  unsigned Stalls = 0;
  unsigned CleanRuns = 0;
  unsigned Hung = 0;
  unsigned Crashed = 0;
  unsigned Oom = 0;
  unsigned Retries = 0;
  bool Quarantined = false;
  bool Skipped = false;
  /// Guard-lock pruner verdict ("schedulable", "guarded (guard lock: g)").
  std::string Classification;
  /// Sync-preserving prediction label (empty unless --phase1 predict/both).
  std::string Prediction;
};

/// A point-in-time snapshot of a running analysis, JSON-serializable for
/// GET /status. Counts are frontier-consistent; wall-clock fields are not.
struct CampaignStatus {
  /// Producing tool ("dlf-run", "dlf-observe", "dlf-analyze").
  std::string Tool;
  /// Workload / trace the tool is chewing on.
  std::string Benchmark;
  /// Coarse lifecycle: "phase1" | "phase2" | "observing" | "analyzing" |
  /// "done" | "interrupted".
  std::string Phase;
  unsigned Jobs = 0;

  // -- Campaign progress (dlf-run --campaign).
  unsigned CyclesFound = 0;
  unsigned RepsTotal = 0;     ///< planned repetitions (skipped cycles: 0)
  unsigned RepsCommitted = 0; ///< committed at the in-order frontier
  unsigned RepsExecuted = 0;  ///< fresh repetitions run this invocation
  unsigned RepsReplayed = 0;  ///< restored from the journal on resume
  unsigned Quarantines = 0;
  uint64_t RetriesSpent = 0;
  /// Journal records appended by this invocation (header + phase1 + reps).
  uint64_t JournalRecords = 0;
  std::vector<CycleStatus> PerCycle;
  std::vector<WorkerStatus> Workers;

  // -- Observer progress (dlf-observe).
  uint64_t Epoch = 0;
  uint64_t EventsSeen = 0;

  // -- Throughput (informational, never deterministic).
  double WallMs = 0.0;
  double RepsPerSecond = 0.0;
  /// Estimated seconds to finish the remaining repetitions at the current
  /// rate; negative when unknown (no throughput sample yet).
  double EtaSeconds = -1.0;

  bool Complete = false;
  bool Interrupted = false;

  /// Deterministic single-line JSON document (sorted keys via the campaign
  /// JsonValue; counts first-class, throughput clearly informational).
  std::string toJson() const;
};

/// Where a long-running tool publishes its live state. Implemented by
/// serve::StatusServer; a null sink (the default everywhere) costs the
/// producer one pointer test per publish site.
class StatusSink {
public:
  virtual ~StatusSink() = default;

  /// Replaces the last status snapshot (copied by the sink).
  virtual void publishStatus(const CampaignStatus &S) = 0;

  /// Emits one event on the GET /events SSE stream. \p Type becomes the
  /// SSE "event:" field; \p Json must be a single-line JSON document and
  /// becomes the "data:" field.
  virtual void publishEvent(const std::string &Type,
                            const std::string &Json) = 0;

  /// Replaces the sink's frontier-merged metrics snapshot (the campaign
  /// aggregate including child telemetry); served by GET /metrics on top of
  /// the live process registry.
  virtual void publishMetrics(const telemetry::MetricsSnapshot &M) = 0;
};

} // namespace serve
} // namespace dlf

#endif // DLF_SERVE_CAMPAIGNSTATUS_H

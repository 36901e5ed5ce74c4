//===- telemetry/Timeline.h - Chrome trace-event timeline --------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory event timeline serialized as Chrome trace-event JSON
/// (the "JSON Array Format" with a traceEvents wrapper), loadable in
/// about://tracing and Perfetto. The scheduler emits instant events
/// (pause / thrash / unpause-forced / deadlock-found) and "paused" /
/// "schedule" duration spans; the campaign runner adds one lane per
/// worker slot showing which (cycle, rep) each child executed.
///
/// Like the metrics registry, the timeline is off by default and every
/// recording call starts with one relaxed atomic load. Unlike metrics,
/// recording takes a mutex — timeline events are emitted at scheduler
/// decision points (already serialized under the scheduler lock) and at
/// campaign commit points, never in per-operation hot paths.
///
/// Timestamps are microseconds relative to the timeline epoch (reset()
/// re-arms the epoch); the campaign parent rebases child event times
/// into its own epoch when merging their telemetry, so lanes line up.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_TELEMETRY_TIMELINE_H
#define DLF_TELEMETRY_TIMELINE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dlf {
namespace telemetry {

/// One trace event. Ph is the Chrome trace-event phase: 'i' (instant),
/// 'X' (complete span with DurUs). Metadata (process/thread names) is
/// carried separately and emitted as 'M' records at write time.
struct TraceEvent {
  char Ph = 'i';
  uint32_t Pid = 0;
  uint32_t Tid = 0;
  uint64_t TsUs = 0;
  uint64_t DurUs = 0;
  std::string Name;
};

class Timeline {
public:
  /// Default cap on buffered events; further events are counted in
  /// dropped() instead of stored, so a pathological run cannot OOM.
  static constexpr size_t DefaultMaxEvents = size_t(1) << 18;

  Timeline();

  static Timeline &global();

  bool enabled() const { return On.load(std::memory_order_relaxed); }
  void setEnabled(bool Enable) {
    On.store(Enable, std::memory_order_relaxed);
  }

  /// Microseconds since this timeline's epoch (monotonic clock).
  uint64_t nowUs() const;

  /// Record an instant event at nowUs(). No-ops when disabled.
  void instant(const std::string &Name, uint32_t Tid);
  /// Record a complete span [StartUs, EndUs]; clamps inverted ranges.
  void complete(const std::string &Name, uint32_t Tid, uint64_t StartUs,
                uint64_t EndUs);
  /// Attach a display name to (pid 0, Tid) — emitted as thread_name
  /// metadata. Recorded even while disabled is *not* supported; call
  /// after enabling.
  void nameThread(uint32_t Tid, const std::string &Name);

  uint64_t dropped() const;

  /// Overrides the buffered-event cap (tests exercise the drop path with
  /// a tiny cap). Does not evict events already buffered past a smaller
  /// cap.
  void setMaxEvents(size_t Cap);

  /// Clears buffered events and re-arms the epoch (used by forked
  /// children and tests). Does not change enabled().
  void reset();

  /// Moves out all buffered events and thread names.
  void take(std::vector<TraceEvent> &Events,
            std::map<uint32_t, std::string> &ThreadNames);

  /// Serializes \p Events (plus process/thread display names keyed by
  /// pid and (pid<<32|tid)) as a Chrome trace JSON file. Returns false
  /// and fills \p Err on I/O failure.
  static bool writeChromeTrace(
      const std::string &Path, const std::vector<TraceEvent> &Events,
      const std::map<uint32_t, std::string> &ProcessNames,
      const std::map<uint64_t, std::string> &ThreadNames, std::string &Err);

  /// Serializes events to the JSON string (same format as the file
  /// writer); exposed for tests.
  static std::string renderChromeTrace(
      const std::vector<TraceEvent> &Events,
      const std::map<uint32_t, std::string> &ProcessNames,
      const std::map<uint64_t, std::string> &ThreadNames);

private:
  std::atomic<bool> On{false};
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
  std::map<uint32_t, std::string> ThreadNames;
  uint64_t EpochNs = 0;
  uint64_t Dropped = 0;
  size_t MaxEvents = DefaultMaxEvents;
};

} // namespace telemetry
} // namespace dlf

#endif // DLF_TELEMETRY_TIMELINE_H

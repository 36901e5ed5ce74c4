//===- telemetry/Metrics.h - Low-overhead metrics registry -------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide metrics registry with counters, gauges, and fixed
/// log-scale-bucket histograms, built for instrumenting the scheduler's
/// hot path:
///
///  * When telemetry is disabled (the default), every handle operation is
///    one relaxed atomic-bool load and a branch — no locks, no clock
///    reads, no allocation. The scheduler benchmarks must not move.
///  * When enabled, writes go to lock-free thread-local shards (each
///    thread touches only its own cache lines); a snapshot merges the
///    shards under the registry mutex. Writers never block.
///
/// Handles (Counter / Gauge / Histogram) are cheap POD-ish values interned
/// by name; registering the same name twice returns the same slot, so
/// static handles in different translation units agree. A handle must not
/// outlive the Registry that issued it (the global() registry never dies).
///
/// Determinism contract (DESIGN.md §10): counter values are sums of
/// per-event increments, so any commutative merge order yields the same
/// totals, and snapshots export in sorted-name order. Histograms of
/// wall-clock quantities and gauges are explicitly *not* claimed to be
/// reproducible across runs or --jobs values — only counters are.
///
/// fork() note: the campaign layer forks children while the process is
/// quiescent (no other live threads); a child calls Registry::reset() so
/// values inherited from the parent are not double-counted when its
/// telemetry section is merged back (see telemetry/Sidecar.h).
///
//===----------------------------------------------------------------------===//

#ifndef DLF_TELEMETRY_METRICS_H
#define DLF_TELEMETRY_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dlf {
namespace telemetry {

namespace detail {
extern std::atomic<bool> GEnabled;
struct Core;
} // namespace detail

/// Global telemetry switch. Off by default; flipped on by --metrics-out /
/// --timeline-out (and inherited by forked children).
inline bool enabled() {
  return detail::GEnabled.load(std::memory_order_relaxed);
}
void setEnabled(bool On);

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket b >= 1
/// holds [2^(b-1), 2^b - 1]; the last bucket absorbs everything above.
inline constexpr unsigned HistBucketCount = 64;

/// Log-scale bucket index for \p V (0 for 0, else bit width, capped).
unsigned histBucketFor(uint64_t V);

/// Inclusive upper bound of bucket \p B (UINT64_MAX for the last bucket,
/// rendered as +Inf in the Prometheus exposition).
uint64_t histBucketUpperBound(unsigned B);

/// Merged histogram contents.
struct HistogramData {
  std::array<uint64_t, HistBucketCount> Buckets{};
  uint64_t Count = 0;
  uint64_t Sum = 0;

  /// Adds one observation directly (offline aggregation; live recording
  /// goes through sharded Histogram handles instead).
  void observe(uint64_t V);
};

/// A point-in-time, already-merged view of a registry (or of several, via
/// merge()). Maps are name-sorted, so serialization is canonical.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, HistogramData> Histograms;

  /// Commutative merge: counters and histograms add; gauges (watermarks)
  /// take the maximum.
  void merge(const MetricsSnapshot &Other);

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }

  /// Deterministic JSON document (sorted keys, integral values).
  std::string toJson() const;
  /// Prometheus text exposition format (counters / gauges / histograms
  /// with cumulative le-buckets).
  std::string toPrometheus() const;
};

class Registry;

/// Monotonic counter handle. Invalid (default-constructed or overflowed
/// registry) handles no-op.
class Counter {
public:
  Counter() = default;
  void inc(uint64_t N = 1) const;

private:
  friend class Registry;
  Counter(detail::Core *C, uint32_t Idx) : C(C), Idx(Idx) {}
  detail::Core *C = nullptr;
  uint32_t Idx = 0;
};

/// Set/add gauge handle (stored centrally, not sharded: gauges are
/// last-write-wins watermarks, not accumulators).
class Gauge {
public:
  Gauge() = default;
  void set(int64_t V) const;
  void add(int64_t Delta) const;

private:
  friend class Registry;
  Gauge(detail::Core *C, uint32_t Idx) : C(C), Idx(Idx) {}
  detail::Core *C = nullptr;
  uint32_t Idx = 0;
};

/// Log-bucket histogram handle.
class Histogram {
public:
  Histogram() = default;
  void observe(uint64_t V) const;

private:
  friend class Registry;
  Histogram(detail::Core *C, uint32_t Idx) : C(C), Idx(Idx) {}
  detail::Core *C = nullptr;
  uint32_t Idx = 0;
};

/// A metrics registry. The distinguished global() instance backs the
/// runtime/scheduler/closure instrumentation; the campaign runner keeps a
/// private instance for parent-side counters so forked children (which
/// reset the global registry) can never double-count them.
class Registry {
public:
  /// Fixed shard capacities: registration past these returns a no-op
  /// handle instead of growing (growth would race with lock-free writers).
  static constexpr unsigned MaxCounters = 256;
  static constexpr unsigned MaxGauges = 64;
  static constexpr unsigned MaxHistograms = 64;

  Registry();
  ~Registry();
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  static Registry &global();

  /// Interns \p Name; the same name always maps to the same slot.
  Counter counter(const std::string &Name);
  Gauge gauge(const std::string &Name);
  Histogram histogram(const std::string &Name);

  /// Merges all thread shards (plus totals retired by exited threads)
  /// into a sorted snapshot. Values written by threads still running are
  /// read with relaxed loads; take snapshots at quiescent points when an
  /// exact count matters.
  MetricsSnapshot snapshot() const;

  /// Zeroes every value while keeping registrations (handles stay valid).
  /// Used by forked children and by tests.
  void reset();

private:
  std::shared_ptr<detail::Core> C;
};

} // namespace telemetry
} // namespace dlf

#endif // DLF_TELEMETRY_METRICS_H

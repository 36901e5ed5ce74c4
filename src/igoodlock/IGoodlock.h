//===- igoodlock/IGoodlock.h - Algorithm 1 ----------------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// iGoodlock (informative Goodlock), paper §2.2: computes potential
/// deadlock cycles from the lock dependency relation by iterative closure —
/// D_{k+1} is built by extending each chain in D_k with compatible entries
/// of D — instead of the lock-graph DFS of classical Goodlock. All cycles
/// of length k are found before any cycle of length k+1, so a bounded run
/// (MaxCycleLength = 2) matches the paper's limited-budget mode.
///
/// Chain validity (Definition 2): pairwise-distinct threads, pairwise-
/// distinct acquired locks, l_i ∈ L_{i+1}, and pairwise-disjoint held sets.
/// A chain is a potential cycle (Definition 3) when l_m ∈ L_1. Duplicates
/// are suppressed by requiring the first thread's id to be minimal in the
/// chain (§2.2.3), and cycles are not extended further, so no "complex"
/// cycles are reported.
///
/// Chains are built only over entries that can lie on a cycle: an entry
/// whose acquired lock shares a strongly connected component of the lock
/// graph (edge h -> l per entry holding h != l while acquiring l) with one
/// of its held locks. Every member of a cycle passes that test, so the
/// reported cycles are exactly those of the unpruned closure.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_IGOODLOCK_IGOODLOCK_H
#define DLF_IGOODLOCK_IGOODLOCK_H

#include "igoodlock/LockDependency.h"
#include "igoodlock/Report.h"

#include <cstdint>
#include <vector>

namespace dlf {

/// Tuning for the closure.
struct IGoodlockOptions {
  /// Maximum cycle length searched (the paper's iteration bound; all real
  /// deadlocks in the paper's benchmarks have length 2).
  unsigned MaxCycleLength = 6;
  /// Safety cap on the number of live chains per iteration.
  size_t MaxChains = 1u << 20;
  /// Safety cap on reported cycles.
  size_t MaxCycles = 4096;

  /// When true, a cycle is reported only if its components' acquire events
  /// are pairwise *concurrent* under the recorded happens-before
  /// timestamps (paper §1's precision refinement). With fork/join-only
  /// tracking this prunes provably infeasible cycles (the §5.4
  /// CachedThread class); with full-sync tracking it also prunes real
  /// deadlocks that happened not to overlap in the observed run — the
  /// "reduces the predictive power" cost the paper warns about. No-op when
  /// the runtime recorded no clocks.
  bool FilterByHappensBefore = false;

  /// When true, chains may extend through entries whose held sets overlap
  /// with the chain's — the Definition 2 disjointness requirement is
  /// dropped. The extra cycles this admits are exactly the guard-lock
  /// (gate-lock) cycles a common held lock renders unschedulable; keeping
  /// them lets the analysis::GuardPruner classify and *name* the guard in
  /// reports instead of silently never seeing the cycle. Off by default:
  /// Phase II should not chase them without classification.
  bool KeepGuardedCycles = false;

  /// Worker threads for the closure: each level's chains are sharded across
  /// this many workers and merged deterministically, so cycles, stats, and
  /// truncation are byte-identical for every value. 1 = serial (default),
  /// 0 = hardware concurrency.
  unsigned AnalysisJobs = 1;

  /// Smallest shard worth a worker thread: levels with fewer than twice
  /// this many chains run single-shard (pure serial, no spawn overhead).
  /// Tuning/testing knob — results are identical for every value.
  size_t MinChainsPerShard = 32;
};

/// Statistics a run of the analysis can report (tests & benches).
/// Everything except JobsUsed and ElapsedMicros is independent of
/// AnalysisJobs (the determinism contract the property tests pin down).
struct IGoodlockStats {
  /// |D|: dependency entries the closure ran over.
  uint64_t Entries = 0;
  /// Chains materialized, over all levels: the chains of D_1 (the entries
  /// that can lie on a lock-graph cycle) plus every committed extension.
  uint64_t ChainsExplored = 0;
  unsigned Iterations = 0;
  bool Truncated = false;
  /// Cycles suppressed by the happens-before filter.
  uint64_t FilteredByHb = 0;
  /// Chains whose extension scan was skipped or cut short because the level
  /// hit MaxChains (the level aborts at the cap; see runIGoodlock).
  uint64_t ChainsDropped = 0;
  /// Cycle reports suppressed by the MaxCycles cap.
  uint64_t CyclesDropped = 0;
  /// Resolved worker count actually used.
  unsigned JobsUsed = 1;
  /// Wall time of the closure (monotonic clock), for throughput reporting.
  uint64_t ElapsedMicros = 0;

  /// Closure throughput: dependency entries consumed per second.
  double entriesPerSecond() const {
    return ElapsedMicros ? Entries * 1e6 / ElapsedMicros : 0.0;
  }
  /// Closure throughput: chains materialized per second.
  double chainsPerSecond() const {
    return ElapsedMicros ? ChainsExplored * 1e6 / ElapsedMicros : 0.0;
  }
};

/// Runs Algorithm 1 over \p Log and returns the abstract potential deadlock
/// cycles, deduplicated up to rotation and abstraction equality (with
/// Multiplicity counting collapsed chains). \p Stats may be null.
std::vector<AbstractCycle> runIGoodlock(const LockDependencyLog &Log,
                                        const IGoodlockOptions &Opts = {},
                                        IGoodlockStats *Stats = nullptr);

} // namespace dlf

#endif // DLF_IGOODLOCK_IGOODLOCK_H

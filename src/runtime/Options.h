//===- runtime/Options.h - Per-execution configuration ----------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration for one managed execution. The paper's Figure 2 variants
/// correspond to combinations of these knobs:
///
///   variant 1: Kind = KObjectSensitive, UseContext = true,  UseYields = true
///   variant 2: Kind = ExecutionIndex,   UseContext = true,  UseYields = true
///   variant 3: Kind = Trivial,          UseContext = true,  UseYields = true
///   variant 4: Kind = ExecutionIndex,   UseContext = false, UseYields = true
///   variant 5: Kind = ExecutionIndex,   UseContext = true,  UseYields = false
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_OPTIONS_H
#define DLF_RUNTIME_OPTIONS_H

#include "event/Abstraction.h"

#include <cstdint>
#include <string>

namespace dlf {

/// How the runtime mediates the program's concurrency.
enum class RunMode {
  /// No instrumentation: dlf::Mutex degrades to a plain recursive mutex and
  /// no events are recorded. This is the paper's "normal execution" used for
  /// the baseline runtime column and the 100-uninstrumented-runs experiment.
  Passthrough,
  /// Threads run concurrently under the OS scheduler; synchronization events
  /// are recorded (lock dependency relation, abstractions) but the schedule
  /// is not controlled. This is the lowest-perturbation Phase I observation
  /// mode.
  Record,
  /// The cooperative serialized scheduler controls every synchronization
  /// event; a SchedulerStrategy picks which thread runs (Algorithms 2 and 3).
  /// Phase I uses this with SimpleRandomStrategy + recording; Phase II uses
  /// DeadlockFuzzerStrategy.
  Active,
};

/// Returns a human-readable name for \p Mode.
const char *runModeName(RunMode Mode);

/// How much of the happens-before relation the runtime tracks with vector
/// clocks (paper §1's precision/predictive-power trade; see
/// event/VectorClock.h).
enum class HbMode {
  Off,      ///< no tracking (the paper's default: maximum prediction)
  ForkJoin, ///< thread creation/join edges only: prunes provably
            ///< infeasible cycles (the §5.4 false-positive class)
  FullSync, ///< also release->acquire edges: precise for the observed
            ///< run, but orders away deadlocks that did not overlap
};

/// Returns a human-readable name for \p Mode.
const char *hbModeName(HbMode Mode);

/// All knobs for one execution.
struct Options {
  RunMode Mode = RunMode::Active;

  /// Seed for every random decision the scheduler makes.
  uint64_t Seed = 1;

  /// Abstraction scheme Phase II matches threads/locks on.
  AbstractionKind Kind = AbstractionKind::ExecutionIndex;

  /// Whether Phase II requires the full acquire-context stack to match
  /// (paper variant 4 turns this off: matching on the pending acquire site
  /// only).
  bool UseContext = true;

  /// Whether the §4 yield optimization is applied (paper variant 5 turns
  /// this off).
  bool UseYields = true;

  /// How many pick rounds a yielding thread defers to other runnable
  /// threads per announce (§4: "yield to other threads before it starts
  /// entering a deadlock cycle"). Each deferred round runs one transition
  /// of some other thread, so the budget must cover the other cycle
  /// participants' gate sections even when unrelated threads share the
  /// schedule.
  unsigned YieldBudget = 128;

  /// Whether to record the lock dependency relation (Phase I).
  bool RecordDependencies = false;

  /// Happens-before tracking mode (timestamps recorded with each
  /// dependency entry; consumed by the iGoodlock HB filter).
  HbMode HappensBefore = HbMode::Off;

  /// Depth bound k for the k-object-sensitive abstraction (§2.4.1).
  unsigned KObjectDepth = 4;

  /// Depth bound k for the execution-indexing abstraction (§2.4.2); absIk
  /// has up to 2k elements.
  unsigned IndexDepth = 8;

  /// Upper bound on scheduler transitions before the run is aborted and
  /// flagged as a livelock (safety net; generous by default).
  uint64_t MaxSteps = 4'000'000;

  /// How many scheduler transitions a thread may stay paused before the
  /// livelock monitor force-removes it from the Paused set (the paper's
  /// monitor thread does the same on wall-clock time).
  uint64_t MaxPausedSteps = 400;

  /// Wall-clock fallback for the livelock monitor: a thread paused longer
  /// than this is force-removed even if few scheduler steps elapsed (a
  /// thread in long compute between scheduling points commits no steps, so
  /// the step-count bound alone would leave its peers paused for the whole
  /// compute stretch). 0 disables; the step bound remains authoritative
  /// for deterministic tests.
  uint64_t MaxPausedWallMs = 2'000;
};

} // namespace dlf

#endif // DLF_RUNTIME_OPTIONS_H

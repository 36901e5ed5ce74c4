//===- analysis/GuardPruner.h - Guard-lock cycle pruner ---------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static post-trace classification of iGoodlock cycles. iGoodlock
/// over-approximates (paper §3): it reports cycles that no real schedule
/// can turn into a deadlock, and Phase II then burns its repetition budget
/// thrashing on them — gate locks are the paper's own §4 example. Sound
/// dynamic prediction work (Tunç et al.; van den Heuvel et al.) shows the
/// recorded trace already contains what is needed to discharge many such
/// cycles before any re-execution:
///
///   * Guarded — some single lock is held across *every* edge of the cycle
///     (in every witnessing dependency assignment). The threads can never
///     all sit at their acquire points simultaneously: whoever holds the
///     guard excludes the others. The witnessing guard lock is named.
///   * HBOrdered — two components' acquires are ordered by the recorded
///     happens-before relation (must-order clocks: fork, join and
///     notify->wake edges; see analysis/SyncWalker.h), so they cannot be
///     concurrent in any execution with the same synchronization structure.
///   * SingleThread — fewer than two distinct threads (degenerate input
///     cycles; the closure itself never produces these).
///   * Schedulable — none of the above discharges the cycle; Phase II
///     should spend budget on it.
///
/// Classification is conservative in the safe direction: any ambiguity
/// (no matching dependency entries, assignment blow-up past the cap,
/// empty clocks) classifies as Schedulable. A "Guarded" verdict proves
/// unschedulability only relative to the recorded code paths — see
/// DESIGN.md §9 for what it does and does not promise — which is why
/// campaign reports keep pruned cycles visible instead of dropping them.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_GUARDPRUNER_H
#define DLF_ANALYSIS_GUARDPRUNER_H

#include "igoodlock/LockDependency.h"
#include "igoodlock/Report.h"

#include <string>
#include <vector>

namespace dlf {
namespace analysis {

/// Verdict for one cycle (see file comment).
enum class CycleClass { Schedulable, Guarded, HBOrdered, SingleThread };

/// Stable short name ("schedulable", "guarded", ...) used in reports and
/// the campaign journal.
const char *cycleClassName(CycleClass C);

/// Parses a cycleClassName back; returns false for unknown names.
bool cycleClassFromName(const std::string &Name, CycleClass &Out);

/// Classification of one cycle, with the witnessing guard lock's name when
/// the verdict is Guarded.
struct CycleClassification {
  CycleClass Class = CycleClass::Schedulable;
  std::string GuardLock;

  bool schedulable() const { return Class == CycleClass::Schedulable; }
  /// Human-readable label: "guarded (guard lock: m0)" / "schedulable" / ...
  std::string label() const;
};

struct GuardPrunerOptions {
  /// Cap on dependency-entry assignments enumerated per cycle; past it the
  /// cycle is conservatively Schedulable.
  uint64_t MaxAssignments = 4096;
};

/// Classifies every cycle in \p Cycles against the dependency relation that
/// produced it. Components are matched back to entries by (thread, lock,
/// context); a cycle is Schedulable iff *some* assignment of matching
/// entries is simultaneously reachable (no common guard, no happens-before
/// order between members).
std::vector<CycleClassification>
classifyCycles(const LockDependencyLog &Log,
               const std::vector<AbstractCycle> &Cycles,
               const GuardPrunerOptions &Opts = {});

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_GUARDPRUNER_H

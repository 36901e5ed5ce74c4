//===- igoodlock/LockDependency.h - The lock dependency relation -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock dependency relation D of Definition 1: (t, L, l, C) ∈ D iff in
/// the observed execution thread t acquired lock l while holding the locks
/// in L, and C is the sequence of Acquire-statement labels for L ∪ {l}.
/// LockDependencyLog implements the runtime's DependencyRecorder interface
/// and accumulates D plus the per-object metadata (names, abstractions)
/// that iGoodlock attaches to its reports.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_IGOODLOCK_LOCKDEPENDENCY_H
#define DLF_IGOODLOCK_LOCKDEPENDENCY_H

#include "event/Abstraction.h"
#include "event/Ids.h"
#include "event/Label.h"
#include "event/VectorClock.h"
#include "runtime/Recorder.h"
#include "support/Hash.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace dlf {

/// One element of the lock dependency relation.
struct DependencyEntry {
  ThreadId Thread;
  /// L: locks held at the acquire, in acquisition order.
  std::vector<LockId> Held;
  /// l: the lock being acquired.
  LockId Acquired;
  /// C: acquire-site labels for Held, followed by the site of Acquired.
  std::vector<Label> Context;
  /// Mode of each held lock, parallel to Held (all Exclusive for
  /// mutex-only programs).
  std::vector<LockMode> HeldModes;
  /// Mode of the acquire itself.
  LockMode AcquiredMode = LockMode::Exclusive;

  /// Happens-before timestamp of the acquire (empty when tracking is off).
  /// Deduplication keeps the first observed instance's clock; the HB
  /// filter is therefore approximate for code that repeats the same
  /// acquisition pattern (documented trade — see IGoodlockOptions).
  VectorClock Clock;
};

/// Name + abstractions snapshot for a thread or lock object, kept so that
/// reports survive the execution that produced them.
struct ObjectInfo {
  std::string Name;
  AbstractionSet Abs;
};

/// Accumulates the lock dependency relation of one observed execution.
///
/// Duplicate entries (same thread, held set, lock and context — e.g. a loop
/// acquiring the same locks repeatedly) are collapsed: D is a relation
/// (a set), and the iterative closure is exponential in |D| in the worst
/// case, so deduplication here is pure win.
class LockDependencyLog : public DependencyRecorder {
public:
  // DependencyRecorder implementation (externally synchronized).
  void onThreadCreated(const ThreadRecord &T) override;
  void onLockCreated(const LockRecord &L) override;
  void onAcquireExecuted(const ThreadRecord &T, const LockRecord &L,
                         const std::vector<LockStackEntry> &HeldBefore,
                         Label Site, LockMode Mode) override;

  /// Records one acquire, as onAcquireExecuted does, and returns the index
  /// in entries() of the entry it mapped to, new or deduplicated.
  size_t addAcquire(const ThreadRecord &T, const LockRecord &L,
                    const std::vector<LockStackEntry> &HeldBefore, Label Site,
                    LockMode Mode);

  const std::vector<DependencyEntry> &entries() const { return Entries; }

  /// Metadata for report rendering; id must have been observed.
  const ObjectInfo &threadInfo(ThreadId Id) const;
  const ObjectInfo &lockInfo(LockId Id) const;

  /// Total acquire events seen (before deduplication).
  uint64_t acquireEvents() const { return AcquireEvents; }

private:
  std::vector<DependencyEntry> Entries;
  /// Structural 128-bit hash of each observed entry -> its index in
  /// Entries (the dedup map). The recorder sits on the acquire hot path,
  /// so keys are hashed straight from the held stack, and an entry is
  /// built only for a new key.
  std::unordered_map<Hash128, size_t> Seen;
  std::unordered_map<ThreadId, ObjectInfo> ThreadMeta;
  std::unordered_map<LockId, ObjectInfo> LockMeta;
  uint64_t AcquireEvents = 0;
};

} // namespace dlf

#endif // DLF_IGOODLOCK_LOCKDEPENDENCY_H

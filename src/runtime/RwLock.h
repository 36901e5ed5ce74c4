//===- runtime/RwLock.h - Instrumented reader-writer lock -------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented reader-writer lock primitive, widening the paper's
/// mutex-only synchronization alphabet. A dlf::RwLock shares the lock
/// registry and abstraction machinery with dlf::Mutex; the runtime tracks
/// acquisitions with a LockMode (Shared for the read side, Exclusive for
/// the write side) so the closure and checkRealDeadlock can apply
/// read-read non-exclusion while still treating any pair involving a
/// writer as conflicting.
///
/// Behaviour by runtime mode mirrors Mutex:
///  * no runtime / Passthrough — a plain std::shared_mutex;
///  * Record — a real shared_mutex plus event recording;
///  * Active — reader/writer state is modeled inside the scheduler
///    (LockRecord::Readers), so a paused writer is enabled only when the
///    reader set drains and a reader is enabled whenever no writer holds
///    the lock.
///
/// Not supported (asserted against): recursive read acquires, upgrades
/// (read -> write while holding) and downgrades. A pthread upgrade attempt
/// is a real single-lock self-deadlock, which Algorithm 4's distinct-locks
/// cycles cannot represent.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_RWLOCK_H
#define DLF_RUNTIME_RWLOCK_H

#include "event/Label.h"

#include <shared_mutex>
#include <string>

namespace dlf {

class Runtime;
struct LockRecord;

/// An instrumented reader-writer lock (non-recursive on both sides).
class RwLock {
public:
  /// \p Name is used in reports; \p Site should be the allocation site
  /// (DLF_SITE()) and \p Parent the owning object, feeding the §2.4
  /// abstractions. Binds to the runtime installed at construction time.
  explicit RwLock(const std::string &Name = "rwlock", Label Site = Label(),
                  const void *Parent = nullptr);
  ~RwLock();

  RwLock(const RwLock &) = delete;
  RwLock &operator=(const RwLock &) = delete;

  /// Acquires the write (exclusive) side.
  void lock(Label Site = Label());
  /// Non-blocking write acquire; a failed probe is a non-event for the
  /// wait-for analysis (counted, never blocking).
  bool tryLock(Label Site = Label());
  /// Releases the write side.
  void unlock();

  /// Acquires the read (shared) side.
  void lockShared(Label Site = Label());
  /// Non-blocking read acquire.
  bool tryLockShared(Label Site = Label());
  /// Releases the read side.
  void unlockShared();

  /// The analysis record, when bound to a runtime (tests / reports).
  const LockRecord *record() const { return Rec; }
  LockRecord *record() { return Rec; }

private:
  void acquire(Label Site, bool Shared);
  bool tryAcquire(Label Site, bool Shared);
  void releaseSide(bool Shared);
  /// True when the Active scheduler models this lock (bound, Active run).
  bool modeledByScheduler() const;

  Runtime *RT = nullptr;
  LockRecord *Rec = nullptr;

  /// Used in Passthrough and Record modes where the OS provides the
  /// exclusion. In Active mode the scheduler models the lock instead.
  std::shared_mutex Real;
};

/// RAII guard for the read side of a dlf::RwLock.
class RwReadGuard {
public:
  RwReadGuard(RwLock &L, Label Site) : L(L) { L.lockShared(Site); }
  ~RwReadGuard() { L.unlockShared(); }

  RwReadGuard(const RwReadGuard &) = delete;
  RwReadGuard &operator=(const RwReadGuard &) = delete;

private:
  RwLock &L;
};

/// RAII guard for the write side of a dlf::RwLock.
class RwWriteGuard {
public:
  RwWriteGuard(RwLock &L, Label Site) : L(L) { L.lock(Site); }
  ~RwWriteGuard() { L.unlock(); }

  RwWriteGuard(const RwWriteGuard &) = delete;
  RwWriteGuard &operator=(const RwWriteGuard &) = delete;

private:
  RwLock &L;
};

} // namespace dlf

#endif // DLF_RUNTIME_RWLOCK_H

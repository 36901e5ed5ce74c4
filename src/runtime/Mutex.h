//===- runtime/Mutex.h - Instrumented re-entrant lock -----------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented lock primitive. dlf::Mutex plays the role of a Java
/// monitor: re-entrant, identified by an object abstraction computed at its
/// creation site, and observable by the analysis at every Acquire/Release.
///
/// Behaviour by runtime mode:
///  * no runtime / Passthrough — a plain recursive mutex (zero analysis
///    cost; the paper's "normal execution");
///  * Record — a real OS lock plus event recording (Phase I observation of
///    a genuinely concurrent execution);
///  * Active — lock state is modeled inside the scheduler; no managed
///    thread blocks on an OS lock, which is what enables pausing, stall
///    detection and teardown.
///
/// A lock built outside every runtime is not modeled even inside an Active
/// run, whose managed threads share one OS thread: while one of them holds
/// it, another's tryLock fails and its lock() ends the process with an
/// error, since the holder waits for the token the caller holds.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_MUTEX_H
#define DLF_RUNTIME_MUTEX_H

#include "event/Label.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace dlf {

class Runtime;
struct LockRecord;

/// An instrumented, re-entrant lock.
class Mutex {
public:
  /// \p Name is used in reports; \p Site should be the allocation site
  /// (DLF_SITE()) and \p Parent the owning object, feeding the §2.4
  /// abstractions. Binds to the runtime installed at construction time (if
  /// any).
  explicit Mutex(const std::string &Name = "lock", Label Site = Label(),
                 const void *Parent = nullptr);
  ~Mutex();

  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  /// Acquires the lock; \p Site is the label of this acquire statement.
  /// Re-entrant acquires are counted and invisible to the analysis
  /// (paper footnote 2).
  void lock(Label Site = Label());

  /// Non-blocking acquire: returns true when the lock was taken (or
  /// re-entered). A successful tryLock is an Acquire event for the
  /// analysis; a failed one is invisible.
  bool tryLock(Label Site = Label());

  /// Releases the lock (innermost acquire first under normal RAII use, but
  /// arbitrary orders are supported).
  void unlock();

  /// True when the calling thread currently owns the lock (for substrate
  /// assertions).
  bool heldByCurrentThread() const;

  /// The analysis record, when bound to a runtime (tests / reports / the
  /// condition-variable implementation).
  const LockRecord *record() const { return Rec; }
  LockRecord *record() { return Rec; }

private:
  /// True when the Active scheduler models this lock (bound, Active run).
  bool modeledByScheduler() const;

  /// True when the OS lock is held by the calling OS thread, in any of its
  /// contexts (non-Active modes).
  bool heldHere() const;

  Runtime *RT = nullptr;
  LockRecord *Rec = nullptr;

  /// Used in Passthrough and Record modes where the OS provides mutual
  /// exclusion. In Active mode the scheduler models the lock instead.
  std::recursive_mutex Real;

  /// Owner tracking for the non-Active modes: hashed std::thread::id of the
  /// holder, 0 when free, and the context on that OS thread that holds it
  /// (runtime/Fiber.h currentContext; read only by the holder's OS thread).
  std::atomic<uint64_t> RealOwner{0};
  const void *RealContext = nullptr;
  uint32_t RealRecursion = 0;
};

/// RAII guard mirroring a `synchronized (m) { ... }` block. The acquire
/// site label should identify the block (DLF_SITE()).
class MutexGuard {
public:
  MutexGuard(Mutex &M, Label Site) : M(M) { M.lock(Site); }
  ~MutexGuard() { M.unlock(); }

  MutexGuard(const MutexGuard &) = delete;
  MutexGuard &operator=(const MutexGuard &) = delete;

private:
  Mutex &M;
};

} // namespace dlf

#endif // DLF_RUNTIME_MUTEX_H

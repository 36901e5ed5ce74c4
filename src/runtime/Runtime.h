//===- runtime/Runtime.h - Managed execution façade --------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-execution runtime: registries of managed threads and locks, the
/// abstraction engine, mode dispatch (Passthrough / Record / Active) and
/// the entry point Runtime::run. One Runtime instance drives exactly one
/// execution of a program (a std::function<void()> entry); the ActiveTester
/// driver creates a fresh Runtime per run.
///
/// Instrumented code (dlf::Mutex, dlf::Thread, DLF_SCOPE, DLF_NEW_OBJECT)
/// finds the runtime through Runtime::current(), which is installed for the
/// duration of run(). When no runtime is installed the primitives degrade
/// to plain std:: behaviour, so substrates and examples can also run
/// entirely uninstrumented.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_RUNTIME_H
#define DLF_RUNTIME_RUNTIME_H

#include "abstraction/AbstractionEngine.h"
#include "runtime/Options.h"
#include "runtime/Records.h"
#include "runtime/Result.h"

#include <deque>
#include <functional>
#include <mutex>
#include <string>

namespace dlf {

class Scheduler;
class SchedulerStrategy;
class DependencyRecorder;
class CycleSpec;

/// Drives one managed execution. Not copyable; single-use.
class Runtime {
public:
  /// \p Strat is required for Active mode (ignored otherwise); \p Recorder
  /// may be null. Both must outlive the Runtime.
  /// \p Avoid optionally supplies confirmed cycles the runtime must
  /// prevent (Dimmunix-style immunity; see DESIGN.md): whenever one cycle
  /// participant is mid-flight, other participants' entry acquires are
  /// deferred, which inserts the serialization a guard lock would.
  explicit Runtime(Options Opts, SchedulerStrategy *Strat = nullptr,
                   DependencyRecorder *Recorder = nullptr,
                   const std::vector<CycleSpec> *Avoid = nullptr);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// The runtime installed by an in-flight run() on this process, if any.
  static Runtime *current();

  /// Executes \p Entry under this runtime's mode and returns the outcome.
  /// Must be called exactly once. An Active-mode run pins the calling
  /// thread (and so every managed thread) to the CPU it is on, and restores
  /// the caller's mask before returning.
  ExecutionResult run(const std::function<void()> &Entry);

  const Options &options() const { return Opts; }
  RunMode mode() const { return Opts.Mode; }

  // -- Registries -------------------------------------------------------------

  /// Registers a new managed thread created by the calling thread. \p Obj /
  /// \p Parent / \p Site feed the abstraction engine (§2.4); the creator's
  /// indexing state supplies absI_k.
  ThreadRecord &createThreadRecord(const std::string &Name, const void *Obj,
                                   const void *Parent, Label Site);

  /// Registers a new managed lock; same abstraction conventions.
  LockRecord &createLockRecord(const std::string &Name, const void *Obj,
                               const void *Parent, Label Site);

  /// Registers a managed condition variable (Active-mode bookkeeping).
  CondRecord &createCondRecord(const std::string &Name);

  ThreadRecord &threadById(ThreadId Id);
  LockRecord &lockById(LockId Id);
  const LockRecord &lockById(LockId Id) const;
  CondRecord &condById(uint64_t Id);

  /// Stable-address container of all thread records (the scheduler iterates
  /// this to compute Enabled(s)).
  std::deque<ThreadRecord> &threadRecords() { return Threads; }

  // -- Per-thread state ---------------------------------------------------------

  /// The calling thread's record, or null for unmanaged threads.
  ThreadRecord *selfRecord();
  void setSelfRecord(ThreadRecord *Rec);

  // -- Instrumentation events ----------------------------------------------------

  /// `Site : Call(m)` in the calling thread (no-op when unmanaged).
  void onCall(Label Site);
  /// `Return(m)` in the calling thread.
  void onReturn();
  /// `Site : o = new(o', T)`: records the creation for the k-object
  /// CreationMap and advances the creating thread's execution index.
  void registerObject(const void *Obj, const void *Parent, Label Site);
  /// Forgets \p Obj's address (call from destructors).
  void objectDestroyed(const void *Obj);

  // -- Component access ------------------------------------------------------------

  AbstractionEngine &abstractions() { return Engine; }
  /// Non-null only while an Active-mode run() is in flight.
  Scheduler *scheduler() { return Sched; }
  DependencyRecorder *recorder() { return Recorder; }
  /// Cycles the avoidance extension must keep infeasible; may be null.
  const std::vector<CycleSpec> *avoidSpecs() const { return Avoid; }

  /// Serializes Record-mode bookkeeping.
  std::mutex &recordMu() { return RecordMu; }
  /// Counts one executed acquire event in Record mode (caller holds
  /// recordMu()).
  void noteRecordedAcquire() { ++RecordAcquires; }

private:
  Options Opts;
  SchedulerStrategy *Strat;
  DependencyRecorder *Recorder;
  const std::vector<CycleSpec> *Avoid;

  AbstractionEngine Engine;
  std::mutex RegistryMu;
  std::deque<ThreadRecord> Threads;
  std::deque<LockRecord> Locks;
  std::deque<CondRecord> Conds;

  /// Indexing state used to compute abstractions for objects created before
  /// the main thread record exists (i.e. the main thread record itself).
  IndexingState BootstrapIndex;

  std::mutex RecordMu;
  uint64_t RecordAcquires = 0;

  Scheduler *Sched = nullptr;
  bool Ran = false;
};

/// Scoped Call/Return instrumentation (paper events 3 and 4). Declare one at
/// the top of an instrumented method body.
class ScopeGuard {
public:
  explicit ScopeGuard(Label Site);
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard &) = delete;
  ScopeGuard &operator=(const ScopeGuard &) = delete;

private:
  Runtime *RT;
};

/// Cooperative scheduling point: in Active mode, offers the scheduler a
/// chance to run another thread; otherwise hints the OS scheduler. Use
/// inside polling loops so serialized executions cannot monopolize the
/// token.
void yieldNow();

} // namespace dlf

/// Marks the body of an instrumented method (emits Call on entry, Return on
/// exit). \p Name must be a string literal identifying the method.
#define DLF_SCOPE(Name)                                                        \
  ::dlf::ScopeGuard DlfScopeGuardInstance { DLF_NAMED_SITE(Name) }

/// Records a `new` event: \p ObjPtr was created inside a method of
/// \p ParentPtr (nullptr for top-level allocations) at this source location.
#define DLF_NEW_OBJECT(ObjPtr, ParentPtr)                                      \
  do {                                                                         \
    if (::dlf::Runtime *DlfRt = ::dlf::Runtime::current())                     \
      DlfRt->registerObject((ObjPtr), (ParentPtr), DLF_SITE());                \
  } while (false)

#endif // DLF_RUNTIME_RUNTIME_H

//===- runtime/Thread.h - Instrumented thread wrapper -----------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented thread primitive. A dlf::Thread runs as a fiber of the
/// run's OS thread in Active mode (runtime/Fiber.h), where one managed
/// thread runs at a time, and on a std::thread of its own in Record and
/// Passthrough mode, which claim real concurrency and real spawn timing.
/// Its creation is a `new` event (giving the thread object its §2.4
/// abstractions, computed by the *creating* thread) and its body is a
/// managed participant of the active scheduler. Join is a
/// scheduling point: the joining thread is disabled until the target
/// finishes, matching the paper's Enabled(s) definition.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_THREAD_H
#define DLF_RUNTIME_THREAD_H

#include "event/Label.h"

#include <functional>
#include <string>
#include <thread>

namespace dlf {

class Runtime;
struct Fiber;
struct ThreadRecord;

/// An instrumented thread. Move-only; joins on destruction if still
/// joinable (managed join first, then the body's end: the fiber's in Active
/// mode, the std::thread's otherwise).
class Thread {
public:
  Thread() = default;

  /// Starts a thread running \p Fn. \p Site should be the creation site
  /// (DLF_SITE()) and \p Parent the object whose method creates the thread;
  /// both feed the abstraction engine.
  explicit Thread(std::function<void()> Fn, const std::string &Name = "thread",
                  Label Site = Label(), const void *Parent = nullptr);

  ~Thread();

  Thread(Thread &&Other) noexcept;
  Thread &operator=(Thread &&Other) noexcept;
  Thread(const Thread &) = delete;
  Thread &operator=(const Thread &) = delete;

  /// Waits for the thread to finish. In Active mode this is a managed
  /// scheduling point and may throw ExecutionAborted when the run is torn
  /// down (after the body has ended, so the object is safe to destroy).
  void join();

  bool joinable() const { return Fib || Os.joinable(); }

  /// The analysis record, when managed (tests / reports).
  const ThreadRecord *record() const { return Rec; }

private:
  static void body(Runtime &RT, ThreadRecord &Rec,
                   const std::function<void()> &Fn);

  /// Waits for the body to end: the fiber's or the std::thread's.
  void joinBody();

  Runtime *RT = nullptr;
  ThreadRecord *Rec = nullptr;
  Fiber *Fib = nullptr; ///< Active mode
  std::thread Os;       ///< Record and Passthrough mode
};

} // namespace dlf

#endif // DLF_RUNTIME_THREAD_H

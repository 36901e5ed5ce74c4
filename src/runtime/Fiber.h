//===- runtime/Fiber.h - Managed threads as fibers of one OS thread -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution contexts Active-mode dlf::Threads run on. An Active run
/// lets exactly one managed thread run between synchronization events, so
/// its managed threads need no OS threads of their own: each body runs as a
/// fiber on the OS thread that called Runtime::run, and handing the token
/// to another thread is a stack switch, not a futex wake and a kernel
/// context switch. The switch is a register swap (x86-64 only, see
/// Fiber.cpp): the callee-saved registers, the MXCSR and the x87 control
/// word, with no system call; the signal mask stays the OS thread's.
///
/// Fibers are cooperative. A context (a fiber, or the OS thread's own
/// stack) runs until it parks in CoopSemaphore::acquire or joinFiber; the
/// next runnable context then runs, first come first served. A fresh fiber
/// is runnable at once, as a fresh OS thread would be. Every switch carries
/// the per-thread state the runtime and the C++ runtime keep: the running
/// managed thread's record (currentSelf), the caught-exception stack and
/// uncaught count, and, in sanitizer builds, the ASan and TSan fiber
/// annotations.
///
/// Each fiber has FiberStackBytes of stack above a PROT_NONE guard page: a
/// deeper stack faults on the guard page (SIGSEGV) instead of writing over
/// other memory. Stacks are mmaped once and reused, last freed first, by
/// later fibers of any run in the process; a forked child inherits the
/// parent's free stacks. Fibers never move between OS threads.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_FIBER_H
#define DLF_RUNTIME_FIBER_H

#include <cstddef>
#include <functional>

namespace dlf {

struct ThreadRecord;

/// The stack a fiber's body may use (256 KiB); a deeper one faults.
inline constexpr size_t FiberStackBytes = 256 * 1024;

/// One execution context: a fiber or an OS thread's own stack (opaque).
struct FiberContext;

/// A fiber (opaque).
struct Fiber;

/// The managed thread the calling context runs as (Runtime::selfRecord):
/// one slot per OS thread, saved and restored by every fiber switch.
ThreadRecord *&currentSelf();

/// The running context of the calling OS thread: its own stack, or the
/// fiber it runs. Distinct for every live context in the process.
const void *currentContext();

/// Starts \p Body as a fiber of the calling OS thread; it first runs when
/// the running context parks. The body must not throw.
Fiber &startFiber(std::function<void()> Body);

/// Parks the calling context until \p F's body has returned, then frees
/// F's stack for reuse. Call it on the OS thread that started \p F.
void joinFiber(Fiber &F);

/// The fiber stacks this process has mapped (each is reused once freed).
size_t fiberStacksMapped();

/// A semaphore for the contexts of one OS thread: release makes the parked
/// waiter runnable (or, with none, is kept by the count); acquire takes a
/// kept release or parks the running context and switches to the next
/// runnable one. At most one context waits at a time.
class CoopSemaphore {
public:
  void release();
  void acquire();

private:
  unsigned Count = 0;
  FiberContext *Waiter = nullptr;
};

} // namespace dlf

#endif // DLF_RUNTIME_FIBER_H

//===- runtime/Fiber.cpp - Managed threads as fibers of one OS thread -----===//
//
// A switch is dlf_fiber_switch below: it pushes the System V callee-saved
// state (rbx, rbp, r12-r15, the MXCSR and the x87 control word) on the
// leaving stack, stores rsp in the leaving context, loads the target's rsp
// and pops the same state. glibc's swapcontext did the same plus an
// rt_sigprocmask system call per switch, to carry each context's signal
// mask; fibers never change the mask, so every context keeps the OS
// thread's and the switch drops it. The switch also assumes no CET shadow
// stack: it returns on a stack other than the one it was called on, which
// a shadow stack would refuse, and glibc 2.36 does not enable one.
//
// x86-64 Linux is the only target: any other stops at the #error below,
// which names the switch to port.
//
//===----------------------------------------------------------------------===//

#include "runtime/Fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cxxabi.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DLF_FIBER_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define DLF_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLF_FIBER_ASAN 1
#elif __has_feature(thread_sanitizer)
#define DLF_FIBER_TSAN 1
#endif
#endif

#if DLF_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if DLF_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace dlf {

/// The C++ runtime's per-thread exception state (the Itanium ABI's
/// __cxa_eh_globals): the caught-exception stack and the uncaught count.
struct EhGlobals {
  void *Caught = nullptr;
  unsigned Uncaught = 0;
};

struct FiberContext {
  void *Sp = nullptr;           ///< the saved stack pointer while switched out
  ThreadRecord *Self = nullptr; ///< currentSelf() while switched out
  EhGlobals Eh;                 ///< the exception state while switched out
  FiberContext *NextReady = nullptr;
  // ASan: this context's stack (learned from the first switch away, for an
  // OS thread's own stack) and its fake stack while switched out.
  const void *StackBottom = nullptr;
  size_t StackSize = 0;
  void *FakeStack = nullptr;
  void *Tsan = nullptr; ///< TSan's fiber for this context
};

struct Fiber : FiberContext {
  void *Map = nullptr; ///< the guard page, then the stack
  std::function<void()> Body;
  bool Finished = false;
  FiberContext *Joiner = nullptr; ///< parked in joinFiber
};

} // namespace dlf

using namespace dlf;

#if !defined(__x86_64__) || !defined(__linux__)
#error "runtime/Fiber.cpp: port dlf_fiber_switch and dlf_fiber_entry"
#endif

/// Saves the callee-saved state on the running stack, stores rsp in
/// \p SaveSp, then resumes the context whose rsp is \p LoadSp.
extern "C" [[gnu::visibility("hidden")]] void dlf_fiber_switch(void **SaveSp,
                                                              void *LoadSp);
/// A fresh fiber's first return address: calls r12 on an aligned stack.
extern "C" [[gnu::visibility("hidden")]] void dlf_fiber_entry();

asm(R"(
  .pushsection .text
  .p2align 4
  .globl dlf_fiber_switch
  .hidden dlf_fiber_switch
  .type dlf_fiber_switch, @function
dlf_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size dlf_fiber_switch, .-dlf_fiber_switch

  .p2align 4
  .globl dlf_fiber_entry
  .hidden dlf_fiber_entry
  .type dlf_fiber_entry, @function
dlf_fiber_entry:
  .cfi_startproc
  .cfi_undefined %rip
  andq $-16, %rsp
  call *%r12
  ud2
  .cfi_endproc
  .size dlf_fiber_entry, .-dlf_fiber_entry
  .popsection
)");

namespace {

/// The frame dlf_fiber_switch pops, lowest address first.
struct SwitchFrame {
  uint32_t Mxcsr;
  uint16_t X87Control;
  uint16_t Pad;
  void *R15, *R14, *R13, *R12, *Rbx, *Rbp;
  void (*Return)();
};
static_assert(sizeof(SwitchFrame) == 64, "dlf_fiber_switch pops 8 words");

/// The contexts of one OS thread.
struct Loop {
  FiberContext Thread;              ///< the OS thread's own stack
  FiberContext *Running = nullptr;  ///< null while Thread runs
  FiberContext *From = nullptr;     ///< the context the last switch left
  FiberContext *ReadyHead = nullptr; ///< runnable contexts, oldest first
  FiberContext *ReadyTail = nullptr;
};

thread_local Loop L;
thread_local ThreadRecord *SelfTls = nullptr;

/// Freed fibers, stacks included, reused by any OS thread.
struct StackPool {
  std::mutex Mu;
  std::vector<Fiber *> Free; ///< the last freed goes first
  size_t Mapped = 0;
};

/// Leaked, so free fibers stay reachable until exit (leak checkers).
StackPool &stackPool() {
  static StackPool *P = new StackPool;
  return *P;
}

size_t guardBytes() {
  static const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return Page;
}

FiberContext &running() { return L.Running ? *L.Running : L.Thread; }

void makeReady(FiberContext &C) {
  C.NextReady = nullptr;
  if (L.ReadyTail)
    L.ReadyTail->NextReady = &C;
  else
    L.ReadyHead = &C;
  L.ReadyTail = &C;
}

EhGlobals *ehGlobals() {
  return reinterpret_cast<EhGlobals *>(abi::__cxa_get_globals());
}

/// The second half of a switch, run by the context switched to.
void finishSwitch(FiberContext &Me) {
#if DLF_FIBER_ASAN
  const void *FromBottom = nullptr;
  size_t FromSize = 0;
  __sanitizer_finish_switch_fiber(Me.FakeStack, &FromBottom, &FromSize);
  if (!L.From->StackBottom) {
    L.From->StackBottom = FromBottom;
    L.From->StackSize = FromSize;
  }
#else
  (void)Me;
#endif
}

/// Saves the running context's per-thread state, installs \p Next's and
/// switches to it. A \p Dying context is never resumed.
void switchTo(FiberContext &Next, bool Dying) {
  FiberContext &Prev = running();
  Prev.Self = SelfTls;
  SelfTls = Next.Self;
  EhGlobals *G = ehGlobals();
  std::memcpy(&Prev.Eh, G, sizeof(EhGlobals));
  std::memcpy(G, &Next.Eh, sizeof(EhGlobals));
  L.From = &Prev;
  L.Running = &Next == &L.Thread ? nullptr : &Next;
#if DLF_FIBER_ASAN
  __sanitizer_start_switch_fiber(Dying ? nullptr : &Prev.FakeStack,
                                 Next.StackBottom, Next.StackSize);
#endif
#if DLF_FIBER_TSAN
  if (!Prev.Tsan)
    Prev.Tsan = __tsan_get_current_fiber(); // the OS thread's own
  __tsan_switch_to_fiber(Next.Tsan, 0);
#endif
  (void)Dying;
  dlf_fiber_switch(&Prev.Sp, Next.Sp);
  finishSwitch(Prev);
}

/// Gives the OS thread to the oldest runnable context. With none, every
/// context of this thread waits on another: the run can never go on.
void park(bool Dying = false) {
  FiberContext *Next = L.ReadyHead;
  if (!Next) {
    std::fputs("dlf: every managed thread is parked and none can wake "
               "another\n",
               stderr);
    std::abort();
  }
  L.ReadyHead = Next->NextReady;
  if (!L.ReadyHead)
    L.ReadyTail = nullptr;
  switchTo(*Next, Dying);
}

void fiberMain() noexcept {
  Fiber &F = static_cast<Fiber &>(running());
  finishSwitch(F);
  F.Body();
  F.Body = nullptr; // drop the body's captures before it counts as done
  F.Finished = true;
  if (F.Joiner)
    makeReady(*std::exchange(F.Joiner, nullptr));
  park(/*Dying=*/true);
}

/// Prepares \p F's stack so that the first switch to it pops a frame of
/// zeros (rbp = 0 ends frame-pointer walks), with r12 = fiberMain, and
/// returns into dlf_fiber_entry. The MXCSR and x87 control word are the
/// caller's, so a fiber starts in its creator's floating-point mode.
void prepareFrame(FiberContext &F, char *Stack) {
  auto *Frame = reinterpret_cast<SwitchFrame *>(Stack + FiberStackBytes) - 1;
  *Frame = SwitchFrame();
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(Frame->Mxcsr), "=m"(Frame->X87Control));
  Frame->R12 = reinterpret_cast<void *>(&fiberMain);
  Frame->Return = &dlf_fiber_entry;
  F.Sp = Frame;
}

/// A free fiber, or a fresh one with a newly mapped stack.
Fiber *takeFiber() {
  StackPool &P = stackPool();
  {
    std::lock_guard<std::mutex> Guard(P.Mu);
    if (!P.Free.empty()) {
      Fiber *F = P.Free.back();
      P.Free.pop_back();
      return F;
    }
  }
  void *Map = mmap(nullptr, guardBytes() + FiberStackBytes,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
  if (mprotect(Map, guardBytes(), PROT_NONE) != 0) {
    munmap(Map, guardBytes() + FiberStackBytes);
    throw std::bad_alloc();
  }
  Fiber *F = new Fiber;
  F->Map = Map;
  std::lock_guard<std::mutex> Guard(P.Mu);
  ++P.Mapped;
  return F;
}

} // namespace

ThreadRecord *&dlf::currentSelf() { return SelfTls; }

const void *dlf::currentContext() { return &running(); }

Fiber &dlf::startFiber(std::function<void()> Body) {
  Fiber *F = takeFiber();
  F->Body = std::move(Body);
  F->Finished = false;
  F->Self = nullptr;
  F->Eh = EhGlobals();
  char *Stack = static_cast<char *>(F->Map) + guardBytes();
#if DLF_FIBER_ASAN
  // The last body's frames that never returned (its final switch) left
  // their redzones poisoned.
  __asan_unpoison_memory_region(Stack, FiberStackBytes);
  F->StackBottom = Stack;
  F->StackSize = FiberStackBytes;
  F->FakeStack = nullptr;
#endif
  prepareFrame(*F, Stack);
#if DLF_FIBER_TSAN
  F->Tsan = __tsan_create_fiber(0);
#endif
  makeReady(*F);
  return *F;
}

void dlf::joinFiber(Fiber &F) {
  if (!F.Finished) {
    F.Joiner = &running();
    park();
  }
#if DLF_FIBER_TSAN
  __tsan_destroy_fiber(F.Tsan);
  F.Tsan = nullptr;
#endif
  StackPool &P = stackPool();
  std::lock_guard<std::mutex> Guard(P.Mu);
  P.Free.push_back(&F);
}

size_t dlf::fiberStacksMapped() {
  StackPool &P = stackPool();
  std::lock_guard<std::mutex> Guard(P.Mu);
  return P.Mapped;
}

void CoopSemaphore::release() {
  if (FiberContext *W = std::exchange(Waiter, nullptr))
    makeReady(*W);
  else
    ++Count;
}

void CoopSemaphore::acquire() {
  if (Count) {
    --Count;
    return;
  }
  Waiter = &running();
  park();
}

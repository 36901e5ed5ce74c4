//===- runtime/ConditionVariable.cpp - Instrumented condition ---------------===//

#include "runtime/ConditionVariable.h"

#include "runtime/Records.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <cassert>

using namespace dlf;

ConditionVariable::ConditionVariable(const std::string &Name) {
  Runtime *Current = Runtime::current();
  if (!Current || Current->mode() != RunMode::Active)
    return; // Record/Passthrough delegate to the real condvar
  RT = Current;
  Rec = &RT->createCondRecord(Name);
}

void ConditionVariable::wait(Mutex &M, Label ReacquireSite) {
  if (RT && Rec && RT == Runtime::current() &&
      RT->mode() == RunMode::Active) {
    ThreadRecord *Self = RT->selfRecord();
    Scheduler *Sched = RT->scheduler();
    assert(Self && Sched && "managed wait off a managed thread");
    LockRecord *Lock = M.record();
    assert(Lock && "condition wait on an unmanaged lock in active mode");
    Sched->condWait(*Self, *Rec, *Lock, ReacquireSite);
    return;
  }
  // Record/Passthrough: condition_variable_any drops and retakes M through
  // this adaptor, so the reacquire goes through M.lock at ReacquireSite and
  // is logged with the same context as an Active-mode reacquire.
  struct Relock {
    Mutex &M;
    Label Site;
    void lock() { M.lock(Site); }
    void unlock() { M.unlock(); }
  } Lock{M, ReacquireSite};
  Real.wait(Lock);
}

void ConditionVariable::notifyOne() {
  if (RT && Rec && RT == Runtime::current() &&
      RT->mode() == RunMode::Active) {
    ThreadRecord *Self = RT->selfRecord();
    Scheduler *Sched = RT->scheduler();
    assert(Self && Sched && "managed notify off a managed thread");
    Sched->condNotify(*Self, *Rec, /*All=*/false);
    return;
  }
  Real.notify_one();
}

void ConditionVariable::notifyAll() {
  if (RT && Rec && RT == Runtime::current() &&
      RT->mode() == RunMode::Active) {
    ThreadRecord *Self = RT->selfRecord();
    Scheduler *Sched = RT->scheduler();
    assert(Self && Sched && "managed notify off a managed thread");
    Sched->condNotify(*Self, *Rec, /*All=*/true);
    return;
  }
  Real.notify_all();
}

//===- runtime/Thread.cpp - Instrumented thread wrapper --------------------===//

#include "runtime/Thread.h"

#include "runtime/Abort.h"
#include "runtime/Fiber.h"
#include "runtime/Records.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <cassert>
#include <utility>

using namespace dlf;

Thread::Thread(std::function<void()> Fn, const std::string &Name, Label Site,
               const void *Parent) {
  Runtime *Current = Runtime::current();
  if (!Current || Current->mode() == RunMode::Passthrough) {
    Os = std::thread(std::move(Fn));
    return;
  }
  RT = Current;
  if (!Site.isValid())
    Site = Label::intern("thread:" + Name);
  Rec = &RT->createThreadRecord(Name, this, Parent, Site);
  // The child announces ThreadStart via its record (set by
  // createThreadRecord); in Active mode it will block until the scheduler
  // commits that start. The creator keeps running: spawning is not a
  // scheduling point in the paper's model. Capture the runtime and record
  // by value: the Thread object itself may be moved while the body runs.
  auto Run = [BoundRT = RT, BoundRec = Rec, Body = std::move(Fn)] {
    body(*BoundRT, *BoundRec, Body);
  };
  if (RT->mode() == RunMode::Active) {
    assert(RT->selfRecord() &&
           "active-mode thread spawned off the run's managed threads");
    Fib = &startFiber(std::move(Run));
  } else {
    Os = std::thread(std::move(Run));
  }
}

void Thread::body(Runtime &RT, ThreadRecord &Rec,
                  const std::function<void()> &Fn) {
  RT.setSelfRecord(&Rec);
  if (RT.mode() == RunMode::Active) {
    Scheduler *Sched = RT.scheduler();
    assert(Sched && "managed thread without a scheduler");
    try {
      Sched->threadBodyBegin(Rec);
      Fn();
    } catch (ExecutionAborted &) {
      // Teardown of an aborted run; fall through to threadBodyEnd.
    }
    Sched->threadBodyEnd(Rec);
  } else {
    Fn();
    std::lock_guard<std::mutex> Guard(RT.recordMu());
    Rec.State = ThreadState::Finished;
  }
  RT.setSelfRecord(nullptr);
}

void Thread::joinBody() {
  if (Fib) {
    joinFiber(*Fib);
    Fib = nullptr;
  } else {
    Os.join();
  }
}

void Thread::join() {
  if (!joinable())
    return;
  if (RT && Rec && RT == Runtime::current() &&
      RT->mode() == RunMode::Active && RT->scheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "managed join from an unmanaged thread");
    try {
      RT->scheduler()->join(*Self, *Rec);
    } catch (ExecutionAborted &) {
      // Wait for the body before propagating so the object stays
      // destructible: the target unwinds promptly once the run is aborted.
      joinBody();
      throw;
    }
  }
  joinBody();
  // Join edge in Record mode (Active mode takes it at the Join commit).
  if (RT && Rec && RT == Runtime::current() &&
      RT->mode() == RunMode::Record)
    RT->recordJoin(*Rec);
}

Thread::~Thread() {
  if (!joinable())
    return;
  try {
    join();
  } catch (ExecutionAborted &) {
    // Destructors must not throw; the body already ended.
  }
}

Thread::Thread(Thread &&Other) noexcept
    : RT(Other.RT), Rec(Other.Rec), Fib(Other.Fib),
      Os(std::move(Other.Os)) {
  Other.RT = nullptr;
  Other.Rec = nullptr;
  Other.Fib = nullptr;
}

Thread &Thread::operator=(Thread &&Other) noexcept {
  if (this == &Other)
    return *this;
  assert(!joinable() && "assigning over a joinable thread");
  RT = Other.RT;
  Rec = Other.Rec;
  Fib = Other.Fib;
  Os = std::move(Other.Os);
  Other.RT = nullptr;
  Other.Rec = nullptr;
  Other.Fib = nullptr;
  return *this;
}

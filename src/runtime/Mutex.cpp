//===- runtime/Mutex.cpp - Instrumented re-entrant lock --------------------===//

#include "runtime/Mutex.h"

#include "runtime/Fiber.h"
#include "runtime/Records.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

using namespace dlf;

static uint64_t osThreadKey() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
}

/// An unmodeled lock held by another context of this OS thread: another
/// managed thread of the Active run in flight. The holder waits for the
/// token the caller holds, so the caller can never get the lock.
[[noreturn]] static void lockHeldByAnotherFiber() {
  std::fputs("dlf: a dlf::Mutex built outside the Active run is held by "
             "another of its managed threads; the run cannot wait for it "
             "(build the lock inside the run to model it)\n",
             stderr);
  std::abort();
}

Mutex::Mutex(const std::string &Name, Label Site, const void *Parent) {
  Runtime *Current = Runtime::current();
  if (!Current || Current->mode() == RunMode::Passthrough)
    return;
  RT = Current;
  if (!Site.isValid())
    Site = Label::intern("lock:" + Name);
  Rec = &RT->createLockRecord(Name, this, Parent, Site);
}

Mutex::~Mutex() {
  assert(RealOwner.load(std::memory_order_relaxed) == 0 &&
         "destroying a held lock");
  if (RT && RT == Runtime::current())
    RT->objectDestroyed(this);
}

bool Mutex::modeledByScheduler() const {
  assert((!Rec || RT == Runtime::current()) &&
         "lock bound to a different runtime than the one running");
  return Rec && RT->mode() == RunMode::Active;
}

// Outside Active mode the OS lock provides the exclusion, with owner
// tracking for re-entrancy; in Record mode each 0->1 and 1->0 transition is
// also a lock transition of the runtime, logged while the real lock is held.
// The owner is an OS thread and, on it, a context: the managed threads of
// an Active run share the OS thread that runs it, one fiber each.

bool Mutex::heldHere() const {
  return RealOwner.load(std::memory_order_relaxed) == osThreadKey();
}

void Mutex::lock(Label Site) {
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "unmanaged thread touched an active-mode lock");
    RT->scheduler()->acquire(*Self, *Rec, Site);
    return;
  }
  if (heldHere()) {
    if (RealContext != currentContext())
      lockHeldByAnotherFiber();
    ++RealRecursion; // re-entrant: invisible to the analysis (footnote 2)
    return;
  }
  Real.lock();
  if (Rec)
    RT->recordAcquire(*Rec, Site, LockMode::Exclusive);
  RealOwner.store(osThreadKey(), std::memory_order_relaxed);
  RealContext = currentContext();
  RealRecursion = 1;
}

bool Mutex::tryLock(Label Site) {
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "unmanaged thread touched an active-mode lock");
    return RT->scheduler()->tryAcquire(*Self, *Rec, Site);
  }
  if (heldHere()) {
    if (RealContext != currentContext())
      return false; // another managed thread of the run holds it
    ++RealRecursion;
    return true;
  }
  if (!Real.try_lock())
    return false;
  if (Rec)
    RT->recordAcquire(*Rec, Site, LockMode::Exclusive);
  RealOwner.store(osThreadKey(), std::memory_order_relaxed);
  RealContext = currentContext();
  RealRecursion = 1;
  return true;
}

void Mutex::unlock() {
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "active-mode unlock off a managed thread");
    RT->scheduler()->release(*Self, *Rec, Label());
    return;
  }
  assert(heldByCurrentThread() && "unlock by non-owner");
  if (--RealRecursion > 0)
    return;
  if (Rec)
    RT->recordRelease(*Rec);
  RealOwner.store(0, std::memory_order_relaxed);
  Real.unlock();
}

bool Mutex::heldByCurrentThread() const {
  if (Rec && RT->mode() == RunMode::Active) {
    ThreadRecord *Self = RT->selfRecord();
    return Self && Rec->Owner == Self->Id;
  }
  return heldHere() && RealContext == currentContext();
}

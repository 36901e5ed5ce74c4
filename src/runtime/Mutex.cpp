//===- runtime/Mutex.cpp - Instrumented re-entrant lock --------------------===//

#include "runtime/Mutex.h"

#include "runtime/Records.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <cassert>
#include <functional>
#include <thread>

using namespace dlf;

static uint64_t osThreadKey() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
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

void Mutex::lock(Label Site) {
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "unmanaged thread touched an active-mode lock");
    RT->scheduler()->acquire(*Self, *Rec, Site);
    return;
  }
  uint64_t Self = osThreadKey();
  if (RealOwner.load(std::memory_order_relaxed) == Self) {
    ++RealRecursion; // re-entrant: invisible to the analysis (footnote 2)
    return;
  }
  Real.lock();
  if (Rec)
    RT->recordAcquire(*Rec, Site, LockMode::Exclusive);
  RealOwner.store(Self, std::memory_order_relaxed);
  RealRecursion = 1;
}

bool Mutex::tryLock(Label Site) {
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "unmanaged thread touched an active-mode lock");
    return RT->scheduler()->tryAcquire(*Self, *Rec, Site);
  }
  uint64_t Self = osThreadKey();
  if (RealOwner.load(std::memory_order_relaxed) == Self) {
    ++RealRecursion;
    return true;
  }
  if (!Real.try_lock())
    return false;
  if (Rec)
    RT->recordAcquire(*Rec, Site, LockMode::Exclusive);
  RealOwner.store(Self, std::memory_order_relaxed);
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
  assert(RealOwner.load(std::memory_order_relaxed) == osThreadKey() &&
         "unlock by non-owner");
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
  return RealOwner.load(std::memory_order_relaxed) == osThreadKey();
}

//===- runtime/RwLock.cpp - Instrumented reader-writer lock ----------------===//

#include "runtime/RwLock.h"

#include "runtime/Records.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <cassert>

using namespace dlf;

RwLock::RwLock(const std::string &Name, Label Site, const void *Parent) {
  Runtime *Current = Runtime::current();
  if (!Current || Current->mode() == RunMode::Passthrough)
    return;
  RT = Current;
  if (!Site.isValid())
    Site = Label::intern("rwlock:" + Name);
  Rec = &RT->createLockRecord(Name, this, Parent, Site);
}

RwLock::~RwLock() {
  if (RT && RT == Runtime::current())
    RT->objectDestroyed(this);
}

void RwLock::lock(Label Site) { acquire(Site, /*Shared=*/false); }
void RwLock::lockShared(Label Site) { acquire(Site, /*Shared=*/true); }
bool RwLock::tryLock(Label Site) { return tryAcquire(Site, /*Shared=*/false); }
bool RwLock::tryLockShared(Label Site) {
  return tryAcquire(Site, /*Shared=*/true);
}
void RwLock::unlock() { releaseSide(/*Shared=*/false); }
void RwLock::unlockShared() { releaseSide(/*Shared=*/true); }

bool RwLock::modeledByScheduler() const {
  assert((!Rec || RT == Runtime::current()) &&
         "rwlock bound to a different runtime than the one running");
  return Rec && RT->mode() == RunMode::Active;
}

// Outside Active mode the OS rwlock provides the exclusion; in Record mode
// each acquire and release is also a lock transition of the runtime, logged
// while the real lock is held.

void RwLock::acquire(Label Site, bool Shared) {
  LockMode Mode = Shared ? LockMode::Shared : LockMode::Exclusive;
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "unmanaged thread touched an active-mode rwlock");
    RT->scheduler()->acquire(*Self, *Rec, Site, Mode);
    return;
  }
  if (Shared)
    Real.lock_shared();
  else
    Real.lock();
  if (Rec)
    RT->recordAcquire(*Rec, Site, Mode);
}

bool RwLock::tryAcquire(Label Site, bool Shared) {
  LockMode Mode = Shared ? LockMode::Shared : LockMode::Exclusive;
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "unmanaged thread touched an active-mode rwlock");
    return RT->scheduler()->tryAcquire(*Self, *Rec, Site, Mode);
  }
  if (!(Shared ? Real.try_lock_shared() : Real.try_lock()))
    return false;
  if (Rec)
    RT->recordAcquire(*Rec, Site, Mode);
  return true;
}

void RwLock::releaseSide(bool Shared) {
  if (modeledByScheduler()) {
    ThreadRecord *Self = RT->selfRecord();
    assert(Self && "active-mode unlock off a managed thread");
    // The scheduler pops the stack entry, whose mode is the released side.
    RT->scheduler()->release(*Self, *Rec, Label());
    return;
  }
  if (Rec) {
    [[maybe_unused]] LockMode Released = RT->recordRelease(*Rec);
    assert((Released == LockMode::Shared) == Shared &&
           "rwlock released on the wrong side");
  }
  if (Shared)
    Real.unlock_shared();
  else
    Real.unlock();
}

//===- igoodlock/LockDependency.cpp - The lock dependency relation ---------===//

#include "igoodlock/LockDependency.h"

#include <cassert>

using namespace dlf;

void LockDependencyLog::onThreadCreated(const ThreadRecord &T) {
  ThreadMeta[T.Id] = {T.Name, T.Abs};
}

void LockDependencyLog::onLockCreated(const LockRecord &L) {
  LockMeta[L.Id] = {L.Name, L.Abs};
}

void LockDependencyLog::onAcquireExecuted(
    const ThreadRecord &T, const LockRecord &L,
    const std::vector<LockStackEntry> &HeldBefore, Label Site, LockMode Mode) {
  addAcquire(T, L, HeldBefore, Site, Mode);
}

size_t LockDependencyLog::addAcquire(
    const ThreadRecord &T, const LockRecord &L,
    const std::vector<LockStackEntry> &HeldBefore, Label Site, LockMode Mode) {
  ++AcquireEvents;

  // Deduplicate: D is a relation, and loops re-acquiring the same locks in
  // the same context would otherwise flood the closure. The key is a
  // structural 128-bit hash of (thread, lock, mode, held locks, held modes,
  // context), length-framed so held and context streams cannot alias; see
  // support/Hash.h for the collision stance. Modes are folded in so a read
  // and a write acquisition of the same lock in the same context stay
  // distinct entries.
  Hasher128 Key;
  Key.add(T.Id.Raw);
  Key.add(L.Id.Raw);
  Key.add(static_cast<uint64_t>(Mode));
  Key.add(HeldBefore.size());
  for (const LockStackEntry &E : HeldBefore)
    Key.add(E.Lock.Raw);
  for (const LockStackEntry &E : HeldBefore)
    Key.add(static_cast<uint64_t>(E.Mode));
  Key.add(HeldBefore.size() + 1);
  for (const LockStackEntry &E : HeldBefore)
    Key.add(E.Site.raw());
  Key.add(Site.raw());
  auto [It, New] = Seen.try_emplace(Key.finish(), Entries.size());
  if (!New)
    return It->second;

  DependencyEntry &Entry = Entries.emplace_back();
  Entry.Thread = T.Id;
  Entry.Acquired = L.Id;
  Entry.AcquiredMode = Mode;
  Entry.Held.reserve(HeldBefore.size());
  Entry.HeldModes.reserve(HeldBefore.size());
  Entry.Context.reserve(HeldBefore.size() + 1);
  for (const LockStackEntry &E : HeldBefore) {
    Entry.Held.push_back(E.Lock);
    Entry.HeldModes.push_back(E.Mode);
    Entry.Context.push_back(E.Site);
  }
  Entry.Context.push_back(Site);
  Entry.Clock = T.Clock;
  return It->second;
}

const ObjectInfo &LockDependencyLog::threadInfo(ThreadId Id) const {
  auto It = ThreadMeta.find(Id);
  assert(It != ThreadMeta.end() && "unknown thread in dependency log");
  return It->second;
}

const ObjectInfo &LockDependencyLog::lockInfo(LockId Id) const {
  auto It = LockMeta.find(Id);
  assert(It != LockMeta.end() && "unknown lock in dependency log");
  return It->second;
}

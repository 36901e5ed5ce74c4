//===- interpose/EventModel.cpp - The preload's pthread event model ---------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interpose/EventModel.h"

namespace dlf {
namespace interpose {

using K = analysis::TraceEvent::Kind;
using ring::RecordKind;

std::string EventModel::bumpSite(std::string_view Site) {
  // Occurrences of one static site count up, so distinct dynamic instances
  // get distinct abstractions.
  std::string Abs(Site);
  uint64_t N = ++SiteCounts[Abs];
  Abs += '#';
  Abs += std::to_string(N);
  return Abs;
}

EventModel::Lock &EventModel::lockAt(uint64_t Addr, std::string_view Site,
                                     const EventSink &Emit) {
  auto [It, Fresh] = Locks.try_emplace(Addr);
  if (Fresh) {
    It->second.Id = NextLockId++;
    It->second.Abs = bumpSite(Site);
    Emit({K::LockNew, It->second.Id, 0, It->second.Abs});
  }
  return It->second;
}

uint64_t EventModel::condId(uint64_t Addr) {
  auto [It, Fresh] = Conds.try_emplace(Addr, NextCondId);
  if (Fresh)
    ++NextCondId;
  return It->second;
}

const EventModel::Lock *EventModel::lock(uint64_t Addr) const {
  auto It = Locks.find(Addr);
  return It == Locks.end() ? nullptr : &It->second;
}

bool EventModel::apply(const CaptureOp &Op, const EventSink &Emit) {
  switch (Op.Kind) {
  case RecordKind::ThreadSelf:
    Emit({K::ThreadNew, Op.Tid, 0, bumpSite(Op.Site)});
    return true;

  case RecordKind::ThreadFork:
    // One op, two lines: the child's T line precedes the F edge.
    Emit({K::ThreadNew, Op.Addr, 0, bumpSite(Op.Site)});
    Emit({K::Fork, Op.Tid, Op.Addr, {}});
    return true;

  case RecordKind::LockSeen: {
    uint64_t Before = NextLockId;
    lockAt(Op.Addr, Op.Site, Emit);
    return NextLockId != Before;
  }

  case RecordKind::Acquire: {
    Lock &L = lockAt(Op.Addr, Op.Site, Emit);
    if (L.OwnerTid == Op.Tid) {
      ++L.Recursion; // re-entrant: invisible to the analysis (footnote 2)
      return true;
    }
    L.OwnerTid = Op.Tid;
    L.Recursion = 1;
    Emit({K::Acquire, Op.Tid, L.Id, Op.Site});
    return true;
  }

  case RecordKind::Release: {
    auto It = Locks.find(Op.Addr);
    if (It == Locks.end() || It->second.OwnerTid != Op.Tid)
      return false; // acquire never seen (pre-init lock)
    Lock &L = It->second;
    if (L.Recursion > 1) {
      --L.Recursion;
      return true;
    }
    L.OwnerTid = 0;
    L.Recursion = 0;
    Emit({K::Release, Op.Tid, L.Id, {}});
    return true;
  }

  case RecordKind::SharedAcquire: {
    Lock &L = lockAt(Op.Addr, Op.Site, Emit);
    L.ReaderTids.push_back(Op.Tid);
    Emit({K::SharedAcquire, Op.Tid, L.Id, Op.Site});
    return true;
  }

  case RecordKind::RwUnlock: {
    auto It = Locks.find(Op.Addr);
    if (It == Locks.end())
      return false;
    Lock &L = It->second;
    if (L.OwnerTid == Op.Tid) {
      L.OwnerTid = 0;
      L.Recursion = 0;
      Emit({K::Release, Op.Tid, L.Id, {}});
      return true;
    }
    for (size_t I = 0; I != L.ReaderTids.size(); ++I) {
      if (L.ReaderTids[I] == Op.Tid) {
        L.ReaderTids.erase(L.ReaderTids.begin() + static_cast<long>(I));
        Emit({K::SharedRelease, Op.Tid, L.Id, {}});
        return true;
      }
    }
    return false;
  }

  case RecordKind::TryProbe: {
    Lock &L = lockAt(Op.Addr, Op.Site, Emit);
    Emit({K::TryProbe, Op.Tid, L.Id, Op.Site});
    return true;
  }

  case RecordKind::CondSeen: {
    uint64_t Before = NextCondId;
    condId(Op.Addr);
    return NextCondId != Before;
  }

  case RecordKind::CondNotify:
    Emit({K::CondNotify, Op.Tid, condId(Op.Addr), {}});
    return true;

  case RecordKind::CondWake:
    Emit({K::CondWake, Op.Tid, condId(Op.Addr), {}});
    return true;

  case RecordKind::LockDestroy:
    return Locks.erase(Op.Addr) != 0;

  case RecordKind::AccessRead:
  case RecordKind::AccessWrite: {
    auto [It, Fresh] = Objects.try_emplace(Op.Addr, NextObjectId);
    if (Fresh) {
      ++NextObjectId;
      Emit({K::ObjectNew, It->second, 0, bumpSite(Op.Site)});
    }
    Emit({Op.Kind == RecordKind::AccessWrite ? K::Write : K::Read, Op.Tid,
          It->second, Op.Site});
    return true;
  }

  case RecordKind::Join:
    Emit({K::Join, Op.Tid, Op.Addr, {}});
    return true;

  case RecordKind::Invalid:
    break;
  }
  return false; // unknown kind (version skew)
}

} // namespace interpose
} // namespace dlf

//===- analysis/SyncWalker.h - One synchronization model over a trace -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one walk over a recorded trace that every offline analysis builds
/// on. The walker owns the synchronization state a trace implies: declared
/// threads (with vector clocks and held-lock stacks), declared locks (with
/// release clocks), the last notify clock per condvar, and the policy for
/// events that name something undeclared. The analyses differ only in the
/// partial order the clocks carry and in the bookkeeping they hang off the
/// walk through a visitor:
///
///   * SyncOrder::MustOrder: fork, join and notify->wake edges, the
///     orderings every reordering of the trace keeps. The dependency log
///     (so the guard pruner's hb-ordered verdict proves infeasibility) and
///     the sound predictor use it.
///   * SyncOrder::FullSync: MustOrder plus release->acquire through each
///     lock, the observed synchronization order. The race detector uses
///     it, so a consistently lock-protected handoff is ordered.
///
/// Clock discipline. A thread's clock ticks when it is declared. A fork
/// joins the parent into the child, then ticks both. A join joins the
/// joined thread into the joiner. A notify stores the notifier's clock on
/// the condvar and then ticks it (store-then-tick: steps the notifier takes
/// after the notify stay concurrent with the waiter's post-wake steps). A
/// wake joins the condvar's last stored clock. Under FullSync a release
/// stores the releaser's clock on the lock and ticks it, and an acquire
/// joins the lock's stored clock.
///
/// Undeclared names. An event whose thread has no earlier T line, or an
/// acquire whose lock has no earlier M line, is dropped: the walker warns
/// (fork, join, acquire, notify and wake; "warning: event N: ...") and
/// tells the visitor through dropped(). Every analysis therefore sees the
/// events the dependency log was built from, and no other.
///
/// The walk is incremental (dlf-observe steps events epoch by epoch) and
/// the visitor is a template parameter, so hooks cost no indirect call.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_SYNCWALKER_H
#define DLF_ANALYSIS_SYNCWALKER_H

#include "analysis/Trace.h"
#include "event/VectorClock.h"
#include "runtime/Records.h"

#include <cstdint>
#include <limits>
#include <ostream>
#include <unordered_map>
#include <vector>

namespace dlf {
namespace analysis {

/// The partial order the walker's clocks carry (see file comment).
enum class SyncOrder { MustOrder, FullSync };

/// No-op visitor hooks. A visitor derives from this and shadows the hooks
/// it needs; threads and locks are the walker's dense indices. Every hook
/// runs after the walker applied the event, except acquire(), which runs
/// before, so the thread's clock and held stack are those at the request.
struct SyncVisitor {
  void threadNew(uint32_t) {}
  void lockNew(uint32_t) {}
  void fork(uint32_t /*Parent*/, uint32_t /*Child*/) {}
  void join(uint32_t /*Joiner*/, uint32_t /*Joined*/) {}
  void acquire(uint32_t /*Thread*/, uint32_t /*Lock*/, Label /*Site*/,
               LockMode) {}
  /// \p Held is false when the thread held no such lock.
  void release(uint32_t /*Thread*/, const TraceEvent &, bool /*Held*/) {}
  void notify(uint32_t /*Thread*/, uint64_t /*Cond*/) {}
  void wake(uint32_t /*Thread*/, uint64_t /*Cond*/) {}
  void objectNew(const TraceEvent &) {}
  void access(uint32_t /*Thread*/, const TraceEvent &) {}
  void dropped(const TraceEvent &) {}
};

class SyncWalker {
public:
  static constexpr uint32_t None = std::numeric_limits<uint32_t>::max();

  /// Warnings about dropped events go to \p Warn; null silences them.
  explicit SyncWalker(SyncOrder Order, std::ostream *Warn = nullptr)
      : Order(Order), Warn(Warn) {}

  /// Applies one event and calls the matching hook of \p V. Events must be
  /// stepped exactly once each, in stream order.
  template <typename Visitor> void step(const TraceEvent &E, Visitor &V);

  /// The declared thread/lock with dense index \p I. Its Clock and, for a
  /// thread, LockStack (held locks, innermost last) are the walk's state.
  const ThreadRecord &thread(uint32_t I) const { return Threads[I]; }
  const LockRecord &lock(uint32_t I) const { return Locks[I]; }
  /// Dense index of a declared thread/lock id, or None.
  uint32_t findThread(uint64_t Raw) const { return find(ThreadIdx, Raw); }
  uint32_t findLock(uint64_t Raw) const { return find(LockIdx, Raw); }
  uint64_t eventsSeen() const { return EventNo; }

private:
  static uint32_t find(const std::unordered_map<uint64_t, uint32_t> &Idx,
                       uint64_t Raw) {
    auto It = Idx.find(Raw);
    return It == Idx.end() ? None : It->second;
  }
  template <typename Record>
  static Record &declare(std::unordered_map<uint64_t, uint32_t> &Idx,
                         std::vector<Record> &Recs, const TraceEvent &E,
                         uint32_t &I) {
    auto [It, New] = Idx.try_emplace(E.A, static_cast<uint32_t>(Recs.size()));
    if (New)
      Recs.emplace_back();
    I = It->second;
    Record &R = Recs[I];
    R.Name = E.Text;
    // One interned label per abstraction string ("site#n"): equal strings
    // are equal abstractions, which is all the closure needs.
    uint32_t Abs = Label::intern(E.Text).raw();
    R.Abs.Index.Elements = {Abs, 1};
    R.Abs.KObject.Elements = {Abs};
    return R;
  }
  /// Warns about the current event when \p What is non-null.
  void warn(const char *What) {
    if (Warn && What)
      *Warn << "warning: event " << EventNo << ": " << What << "\n";
  }
  /// Pops \p T's innermost hold of \p RawLock; false when it held none.
  bool release(ThreadRecord &T, uint64_t RawLock) {
    uint32_t L = Order == SyncOrder::FullSync ? findLock(RawLock) : None;
    if (L != None) {
      Locks[L].Clock = T.Clock;
      vcTick(T.Clock, T.Id);
    }
    for (size_t I = T.LockStack.size(); I-- > 0;)
      if (T.LockStack[I].Lock == LockId(RawLock)) {
        T.LockStack.erase(T.LockStack.begin() + static_cast<long>(I));
        return true;
      }
    return false;
  }

  SyncOrder Order;
  std::ostream *Warn;
  std::vector<ThreadRecord> Threads;
  std::vector<LockRecord> Locks;
  std::unordered_map<uint64_t, uint32_t> ThreadIdx;
  std::unordered_map<uint64_t, uint32_t> LockIdx;
  /// Last notify clock per condvar id.
  std::unordered_map<uint64_t, VectorClock> CondNotify;
  uint64_t EventNo = 0;
};

template <typename Visitor>
void SyncWalker::step(const TraceEvent &E, Visitor &V) {
  ++EventNo;
  using K = TraceEvent::Kind;
  auto Drop = [&](const char *What) {
    warn(What);
    V.dropped(E);
  };
  uint32_t I = None;
  switch (E.K) {
  case K::ThreadNew: {
    ThreadRecord &T = declare(ThreadIdx, Threads, E, I);
    T.Id = ThreadId(E.A);
    vcTick(T.Clock, T.Id);
    return V.threadNew(I);
  }
  case K::LockNew:
    declare(LockIdx, Locks, E, I).Id = LockId(E.A);
    return V.lockNew(I);
  case K::ObjectNew:
    return V.objectNew(E);
  case K::TryProbe:
    return; // a failed probe never blocks and synchronizes nothing
  case K::Fork:
  case K::Join: {
    uint32_t B = findThread(E.B);
    I = findThread(E.A);
    if (I == None || B == None)
      return Drop(E.K == K::Fork ? "fork references unknown thread"
                                 : "join references unknown thread");
    ThreadRecord &TA = Threads[I];
    ThreadRecord &TB = Threads[B];
    if (E.K == K::Join) {
      vcJoin(TA.Clock, TB.Clock); // all of TB happens-before TA's next step
      return V.join(I, B);
    }
    vcJoin(TB.Clock, TA.Clock);
    vcTick(TB.Clock, TB.Id);
    vcTick(TA.Clock, TA.Id);
    return V.fork(I, B);
  }
  default:
    break;
  }

  // The remaining kinds act on the thread in E.A.
  I = findThread(E.A);
  ThreadRecord *T = I == None ? nullptr : &Threads[I];
  switch (E.K) {
  case K::Acquire:
  case K::SharedAcquire: {
    uint32_t L = findLock(E.B);
    if (!T || L == None)
      return Drop("acquire references unknown thread/lock");
    LockMode Mode =
        E.K == K::SharedAcquire ? LockMode::Shared : LockMode::Exclusive;
    Label Site = Label::intern(E.Text);
    V.acquire(I, L, Site, Mode);
    if (Order == SyncOrder::FullSync)
      vcJoin(T->Clock, Locks[L].Clock);
    T->LockStack.push_back({Locks[L].Id, Site, Mode});
    return;
  }
  case K::Release:
  case K::SharedRelease:
    if (!T)
      return Drop(nullptr);
    return V.release(I, E, release(*T, E.B));
  case K::CondNotify:
    if (!T)
      return Drop("cond-notify references unknown thread");
    // Store-then-tick: the clock a waiter inherits must exclude the
    // notifier's post-notify tick, or steps the notifier takes after the
    // notify would falsely order before the waiter's post-wake steps.
    CondNotify[E.B] = T->Clock;
    vcTick(T->Clock, T->Id);
    return V.notify(I, E.B);
  case K::CondWake: {
    if (!T)
      return Drop("cond-wake references unknown thread");
    auto It = CondNotify.find(E.B);
    if (It != CondNotify.end())
      vcJoin(T->Clock, It->second);
    return V.wake(I, E.B);
  }
  case K::Read:
  case K::Write:
    if (!T)
      return Drop(nullptr);
    return V.access(I, E);
  default:
    return;
  }
}

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_SYNCWALKER_H

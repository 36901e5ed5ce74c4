//===- event/LockCycle.h - Algorithm 4 over held-plus-pending views -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of the paper's Algorithm 4 (checkRealDeadlock):
/// given, per thread, the locks it holds in acquisition order followed by
/// the lock it is committed to acquiring next, decide whether there exist
/// distinct threads t1..tm and distinct locks l1..lm such that li appears
/// before l(i+1) in the view of ti and lm appears before l1 in the view of
/// tm. Positions carry the hold or wait mode, and an edge through a thread
/// exists only when that thread's hold conflicts with the wait
/// (lockModesConflict: a shared hold never blocks a shared wait).
///
/// The managed scheduler (fuzzer/RealDeadlockChecker) runs it at every
/// acquire commit, and the LD_PRELOAD front end runs it over its thread
/// registry while a matched thread is paused. Each caller renders its own
/// witness from the returned path. The search depends only on the
/// standard library and event/Ids.h, because libdlf_preload.so does not
/// link libdlf.
///
/// Search order is fixed: start edges in (view, from, to) order, each
/// extended depth-first through views in index order. The first cycle
/// found, and so every witness, depends only on the views' order.
///
/// The search keeps no state beside the caller's Path: a view is in use
/// exactly when the chain passes through it, and Path is never longer than
/// the cycle, so the search scans Path to tell. A caller that reuses one
/// Path across checks (the scheduler does, at every acquire) allocates
/// nothing per check.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_EVENT_LOCKCYCLE_H
#define DLF_EVENT_LOCKCYCLE_H

#include "event/Ids.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dlf {

/// One thread's view: the locks it holds, innermost last, then optionally
/// the one acquire it is committed to (a paused or blocked thread's pending
/// lock, or the tentative push being committed). \p Entry exposes Lock (a
/// LockId or raw uint64_t id) and Mode; \p Owner is whatever the caller
/// renders witnesses from. Nothing is copied: the view points at the
/// caller's stack and pending entry.
template <typename Entry, typename Owner> struct HeldPendingView {
  const Owner *Thread;
  const std::vector<Entry> *Stack;
  const Entry *Pending = nullptr;

  size_t size() const { return Stack->size() + (Pending ? 1 : 0); }
  const Entry &operator[](size_t I) const {
    return I < Stack->size() ? (*Stack)[I] : *Pending;
  }
};

/// One edge of a found cycle: the view index and the position, in that
/// view, of the lock the thread waits for. Edge i's wait lock is held by
/// edge i+1's thread, cyclically.
struct LockCycleStep {
  size_t View;
  size_t Pos;
};

namespace detail {

inline uint64_t rawLock(uint64_t Id) { return Id; }
inline uint64_t rawLock(LockId Id) { return Id.Raw; }

template <typename View> class LockCycleSearch {
public:
  LockCycleSearch(const std::vector<View> &Views,
                  std::vector<LockCycleStep> &Path)
      : Views(Views), Path(Path) {}

  bool run() {
    for (size_t V = 0; V != Views.size(); ++V) {
      const View &S = Views[V];
      for (size_t From = 0; From != S.size(); ++From) {
        for (size_t To = From + 1; To != S.size(); ++To) {
          // Edge S[From] -> S[To] via thread V starts a candidate chain.
          StartLock = lock(S[From]);
          StartMode = S[From].Mode;
          if (lock(S[To]) == StartLock)
            continue; // degenerate; locks in one view are distinct anyway
          Path.assign(1, {V, To});
          if (extend(lock(S[To]), S[To].Mode))
            return true;
        }
      }
    }
    Path.clear();
    return false;
  }

private:
  template <typename E> static uint64_t lock(const E &Entry) {
    return rawLock(Entry.Lock);
  }

  bool onPath(uint64_t L) const {
    for (const LockCycleStep &Step : Path)
      if (lock(Views[Step.View][Step.Pos]) == L)
        return true;
    return false;
  }

  /// A view is used exactly when the chain already passes through it.
  bool used(size_t V) const {
    for (const LockCycleStep &Step : Path)
      if (Step.View == V)
        return true;
    return false;
  }

  /// Extends a chain whose previous thread wants \p Current in \p Want.
  bool extend(uint64_t Current, LockMode Want) {
    for (size_t V = 0; V != Views.size(); ++V) {
      if (used(V))
        continue;
      const View &S = Views[V];
      // Find Current in this view, then try every lock after it.
      for (size_t From = 0; From != S.size(); ++From) {
        if (lock(S[From]) != Current)
          continue;
        if (!lockModesConflict(Want, S[From].Mode))
          break; // shared-shared: the previous thread is not blocked here
        for (size_t To = From + 1; To != S.size(); ++To) {
          uint64_t Next = lock(S[To]);
          if (Next == StartLock) {
            // The closing wait must conflict with the start thread's hold.
            if (!lockModesConflict(S[To].Mode, StartMode))
              continue;
            Path.push_back({V, To});
            return true;
          }
          if (onPath(Next))
            continue;
          Path.push_back({V, To});
          if (extend(Next, S[To].Mode))
            return true;
          Path.pop_back();
        }
        break; // locks within one view are distinct; Current occurs once
      }
    }
    return false;
  }

  const std::vector<View> &Views;
  std::vector<LockCycleStep> &Path;
  uint64_t StartLock = 0;
  LockMode StartMode = LockMode::Exclusive;
};

} // namespace detail

/// Runs Algorithm 4 over \p Views. On a cycle, fills \p Path with one step
/// per edge and returns true; otherwise clears \p Path and returns false.
/// \p View is any type with size() and operator[] yielding entries with
/// Lock and Mode, such as HeldPendingView.
template <typename View>
bool findLockCycle(const std::vector<View> &Views,
                   std::vector<LockCycleStep> &Path) {
  return detail::LockCycleSearch<View>(Views, Path).run();
}

} // namespace dlf

#endif // DLF_EVENT_LOCKCYCLE_H

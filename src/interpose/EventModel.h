//===- interpose/EventModel.h - The preload's pthread event model -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one pthread event model of the LD_PRELOAD front end. The preload's
/// wrappers describe each interposed call as a raw capture op in the
/// ring::RecordKind vocabulary — kind, thread, pthread object address,
/// call site — and the model turns ops into the trace events of
/// interpose/TraceFormat.h. It owns every naming decision Phase I and
/// Phase II must agree on (paper §2.4):
///
///  * dense lock / condvar / object ids, assigned at first sight;
///  * "site#n" abstractions from one per-site occurrence counter shared by
///    threads, locks and objects;
///  * mutex recursion collapse (footnote 2: only 0->1 acquires and 1->0
///    releases are events);
///  * rwlock unlock side resolution (pthread_rwlock_unlock does not say
///    which side it releases — the owner/reader registry does);
///  * a release whose acquire was never seen (a pre-init lock) is dropped;
///  * destroy ends an address binding: a lock initialized again at the
///    same address is a new lock with a new id.
///
/// It runs in two places: inside the preload under its state lock, when a
/// text trace or a Phase II cycle is requested (the caller's callback
/// writes the trace lines and the Phase II held stacks), and in dlf-observe,
/// replaying ring records (ring/Assemble.h). First sight is an explicit op
/// (LockSeen, CondSeen), so each capture mode picks where it happens; see
/// TraceFormat.h for the one difference that leaves between ring-only and
/// text captures.
///
/// Standard library only: compiled into libdlf and into libdlf_preload.so.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_INTERPOSE_EVENTMODEL_H
#define DLF_INTERPOSE_EVENTMODEL_H

#include "interpose/TraceFormat.h"
#include "ring/Ring.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dlf {
namespace interpose {

/// One raw capture op: the fields of a ring::Record, with the site as text.
struct CaptureOp {
  ring::RecordKind Kind = ring::RecordKind::Invalid;
  /// Acting thread (the parent for ThreadFork, the joiner for Join).
  uint64_t Tid = 0;
  /// Lock, condvar or object address; the child tid for ThreadFork/Join.
  uint64_t Addr = 0;
  /// Call site; the base name ("main") for ThreadSelf; unused by kinds
  /// that carry no site.
  std::string_view Site;
};

/// Receives the model's events in trace order. Text is valid for the call.
using EventSink = std::function<void(const TraceLine &)>;

class EventModel {
public:
  struct Lock {
    uint64_t Id = 0;
    std::string Abs; ///< "<first-sight site>#<n>"
    uint64_t OwnerTid = 0;
    unsigned Recursion = 0;
    /// Read-side holders (rwlocks only).
    std::vector<uint64_t> ReaderTids;
  };

  /// Applies \p Op, handing each resulting event to \p Emit. Returns false
  /// when the op changed nothing and emitted nothing: a LockSeen or
  /// CondSeen of something already seen, a release of a lock the thread
  /// does not hold, a destroy of an unseen address, or an unknown kind.
  /// Skipping such an op never changes later output.
  bool apply(const CaptureOp &Op, const EventSink &Emit);

  /// The lock bound at \p Addr, or null before its first sight.
  const Lock *lock(uint64_t Addr) const;

private:
  Lock &lockAt(uint64_t Addr, std::string_view Site, const EventSink &Emit);
  uint64_t condId(uint64_t Addr);
  std::string bumpSite(std::string_view Site);

  std::unordered_map<uint64_t, Lock> Locks;
  std::unordered_map<uint64_t, uint64_t> Conds;
  std::unordered_map<uint64_t, uint64_t> Objects;
  std::unordered_map<std::string, uint64_t> SiteCounts;
  uint64_t NextLockId = 1;
  uint64_t NextCondId = 1;
  uint64_t NextObjectId = 1;
};

} // namespace interpose
} // namespace dlf

#endif // DLF_INTERPOSE_EVENTMODEL_H

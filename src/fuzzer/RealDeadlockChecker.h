//===- fuzzer/RealDeadlockChecker.h - Algorithm 4 ----------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// checkRealDeadlock (paper Algorithm 4) for the managed runtime: the
/// search itself is the shared one in event/LockCycle.h; this layer builds
/// the DeadlockWitness (thread and lock names, abstractions, contexts) from
/// the path it returns. If a cycle exists, the execution has created (or
/// is one committed acquire away from creating) a real deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_FUZZER_REALDEADLOCKCHECKER_H
#define DLF_FUZZER_REALDEADLOCKCHECKER_H

#include "event/LockCycle.h"
#include "runtime/Records.h"
#include "runtime/Result.h"

#include <functional>
#include <optional>
#include <vector>

namespace dlf {

/// One thread's view for the check: the record (for names/abstractions in
/// the witness), the lock stack (usually &T->LockStack, or the tentative
/// stack of the thread whose acquire is being committed) and optionally
/// the acquire a paused or re-acquiring thread is committed to.
using ThreadStackView = HeldPendingView<LockStackEntry, ThreadRecord>;

/// Runs Algorithm 4 over \p Views. Returns a witness describing one cycle
/// (edges ordered so that edge i's wait lock is held by edge i+1's thread,
/// cyclically), or std::nullopt when no cycle exists.
///
/// Lock names/abstractions for the witness are looked up through
/// \p LockById since the checker has no registry of its own.
std::optional<DeadlockWitness>
findRealDeadlock(const std::vector<ThreadStackView> &Views,
                 const std::function<const LockRecord &(LockId)> &LockById);

} // namespace dlf

#endif // DLF_FUZZER_REALDEADLOCKCHECKER_H

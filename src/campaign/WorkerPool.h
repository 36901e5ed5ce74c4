//===- campaign/WorkerPool.h - Concurrent sandboxed children ----*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process worker pool over SandboxProcess: up to N forked children in
/// flight at once, driven from a single dispatch thread with a combined
/// ::poll over every child's pipes (no thread per child, no blocking
/// run-one-wait-one). Each launch returns a ticket; completions (and each
/// frame as it completes) are reported with the ticket so the caller can
/// reassociate out-of-order results with their work items. The pool
/// guarantees every child is reaped — by poll() when it exits, by
/// forceKill on cancel and on destruction — so a campaign never leaks
/// zombies however it ends.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_CAMPAIGN_WORKERPOOL_H
#define DLF_CAMPAIGN_WORKERPOOL_H

#include "campaign/ProcessSandbox.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dlf {
namespace campaign {

/// News from one child, keyed by the ticket launch() returned: the frames
/// it completed since the last poll and, once it is reaped, its final
/// result.
struct PoolCompletion {
  uint64_t Ticket = 0;
  std::vector<std::string> Frames;
  /// The child is reaped and Result is final.
  bool Finished = false;
  SandboxResult Result;
};

class WorkerPool {
public:
  /// \p Jobs is the concurrency cap; use resolveJobs to map a user-facing
  /// value (0 = hardware concurrency) first. Clamped to at least 1.
  explicit WorkerPool(unsigned Jobs);
  ~WorkerPool();

  /// Maps the --jobs flag to a concrete worker count: 0 means hardware
  /// concurrency (at least 1), anything else is taken as-is.
  static unsigned resolveJobs(unsigned Requested);

  unsigned jobs() const { return Jobs; }
  size_t inFlight() const { return InFlight.size(); }
  bool hasCapacity() const { return InFlight.size() < Jobs; }

  /// Most children simultaneously in flight over the pool's lifetime.
  unsigned peakConcurrency() const { return Peak; }

  /// Forks \p Fn under \p Limits (requires hasCapacity()); the child
  /// reports through writeFrame. Returns the completion ticket. A
  /// failed fork still returns a ticket; the completion carries
  /// SandboxStatus::ForkFailed.
  uint64_t launch(const std::function<int(int PayloadFd)> &Fn,
                  const SandboxLimits &Limits);

  /// Pumps every in-flight child once, then — if there is no news —
  /// sleeps up to \p WaitMs in ::poll on their pipes and pumps again.
  /// Returns the children with new frames or that finished. WaitMs should
  /// stay small (~1 ms): it bounds the watchdog granularity for hung
  /// children.
  std::vector<PoolCompletion> poll(int WaitMs);

  /// SIGKILLs one in-flight child and discards it (no completion is ever
  /// reported for the ticket). Used to cancel speculative work and to end
  /// a lane early. Returns the CPU time the child used, in milliseconds.
  double cancel(uint64_t Ticket);

private:
  void pump(std::vector<PoolCompletion> &Out);

  unsigned Jobs;
  unsigned Peak = 0;
  uint64_t NextTicket = 1;
  std::map<uint64_t, std::unique_ptr<SandboxProcess>> InFlight;
};

} // namespace campaign
} // namespace dlf

#endif // DLF_CAMPAIGN_WORKERPOOL_H

//===- support/Affinity.h - CPU pinning for serialized runs -----*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CPU affinity for serialized executions. An Active-mode run lets exactly
/// one managed thread run at a time, so spreading its threads over several
/// cores buys nothing but cross-core wakeups on every token handoff.
/// Runtime::run pins an Active-mode execution to the CPU it starts on (Linux
/// threads inherit their creator's mask, so every managed thread shares the
/// pin), and a campaign child narrows itself to its worker lane's CPU
/// before it runs.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SUPPORT_AFFINITY_H
#define DLF_SUPPORT_AFFINITY_H

#include <sched.h>

#include <cstddef>
#include <vector>

namespace dlf {

/// The CPUs the calling thread may run on, ascending; empty when the mask
/// cannot be read.
std::vector<int> allowedCpus();

/// The CPU worker lane \p Lane runs on: the (Lane mod N)-th of the N CPUs
/// in \p Allowed, so lanes wrap when they outnumber the CPUs. -1 when
/// \p Allowed is empty.
int laneCpu(const std::vector<int> &Allowed, size_t Lane);

/// Narrows the calling thread to \p Cpu. Best effort: a CPU outside the
/// kernel's limits (or -1) leaves the mask as it was.
void pinCallingThread(int Cpu);

/// Pins the calling thread to the CPU it is running on for the guard's
/// lifetime and restores the replaced mask on destruction. A thread already
/// confined to one CPU (a 1-CPU host, a lane-pinned child) is left alone.
class CpuPin {
public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;

private:
  cpu_set_t Saved;
  bool Restore = false;
};

} // namespace dlf

#endif // DLF_SUPPORT_AFFINITY_H

//===- support/Affinity.cpp - CPU pinning for serialized runs -------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Affinity.h"

namespace dlf {

std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return Cpus;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Set))
      Cpus.push_back(Cpu);
  return Cpus;
}

int laneCpu(const std::vector<int> &Allowed, size_t Lane) {
  return Allowed.empty() ? -1 : Allowed[Lane % Allowed.size()];
}

void pinCallingThread(int Cpu) {
  if (Cpu < 0 || Cpu >= CPU_SETSIZE)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  (void)sched_setaffinity(0, sizeof Set, &Set);
}

CpuPin::CpuPin() {
  CPU_ZERO(&Saved);
  if (sched_getaffinity(0, sizeof Saved, &Saved) != 0)
    return;
  if (CPU_COUNT(&Saved) <= 1)
    return;
  int Now = sched_getcpu();
  if (Now < 0)
    return;
  pinCallingThread(Now);
  Restore = true;
}

CpuPin::~CpuPin() {
  if (Restore)
    (void)sched_setaffinity(0, sizeof Saved, &Saved);
}

} // namespace dlf

//===- campaign/WorkerPool.cpp - Concurrent sandboxed children --------------===//

#include "campaign/WorkerPool.h"

#include <algorithm>
#include <thread>

#include <poll.h>

using namespace dlf;
using namespace dlf::campaign;

WorkerPool::WorkerPool(unsigned Jobs) : Jobs(std::max(Jobs, 1u)) {}

WorkerPool::~WorkerPool() {
  // Whatever path ends the campaign, no child outlives the pool: anything
  // still in flight is killed and reaped here.
  for (auto &KV : InFlight)
    KV.second->forceKill();
  InFlight.clear();
}

unsigned WorkerPool::resolveJobs(unsigned Requested) {
  if (Requested)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

uint64_t WorkerPool::launch(const SandboxChildFn &Fn,
                            const SandboxLimits &Limits) {
  uint64_t Ticket = NextTicket++;
  auto P = std::make_unique<SandboxProcess>();
  P->start(Fn, Limits); // a failed fork is finished() with ForkFailed
  InFlight.emplace(Ticket, std::move(P));
  Peak = std::max(Peak, static_cast<unsigned>(InFlight.size()));
  return Ticket;
}

bool WorkerPool::send(uint64_t Ticket, const std::string &Command,
                      size_t Replies) {
  auto It = InFlight.find(Ticket);
  return It != InFlight.end() && It->second->send(Command, Replies);
}

void WorkerPool::pump(std::vector<PoolCompletion> &Out) {
  for (auto It = InFlight.begin(); It != InFlight.end();) {
    bool Finished = It->second->poll();
    std::vector<std::string> Frames = It->second->takeFrames();
    if (Finished) {
      Out.push_back({It->first, std::move(Frames), true,
                     It->second->takeResult()});
      It = InFlight.erase(It);
      continue;
    }
    if (!Frames.empty())
      Out.push_back({It->first, std::move(Frames), false, SandboxResult()});
    ++It;
  }
}

std::vector<PoolCompletion> WorkerPool::poll(int WaitMs) {
  std::vector<PoolCompletion> Done;
  pump(Done);
  if (!Done.empty() || InFlight.empty() || WaitMs <= 0)
    return Done;

  std::vector<struct pollfd> Fds;
  for (const auto &KV : InFlight)
    KV.second->appendPollFds(Fds);
  // With every pipe at EOF there is nothing to wake on early; ::poll with
  // no fds is still the sleep that paces the watchdog ticks.
  ::poll(Fds.empty() ? nullptr : Fds.data(), Fds.size(), WaitMs);
  pump(Done);
  return Done;
}

double WorkerPool::cancel(uint64_t Ticket) {
  auto It = InFlight.find(Ticket);
  if (It == InFlight.end())
    return 0.0;
  It->second->forceKill();
  double CpuMs = It->second->result().CpuMs;
  InFlight.erase(It);
  return CpuMs;
}

//===- runtime/ThreadPool.cpp - Parked OS threads for managed threads -----===//

#include "runtime/ThreadPool.h"

#include "support/Affinity.h"

#include <pthread.h>

#include <cstdlib>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

namespace dlf {

struct PooledThread {
  std::binary_semaphore Go{0};   ///< a body (or, with none, exit) is posted
  std::binary_semaphore Done{0}; ///< the posted body returned
  std::function<void()> Body;
  int Cpu = -1;       ///< the CPU Body runs on; -1 leaves the mask alone
  int PinnedCpu = -1; ///< the CPU this worker last pinned itself to
  std::thread Os;
};

} // namespace dlf

using namespace dlf;

namespace {

struct Pool {
  std::mutex Mu;
  std::vector<PooledThread *> Idle; ///< parked; the last parked goes first
  size_t Started = 0;

  Pool();
};

/// Leaked: parked workers outlive static destruction.
Pool &pool() {
  static Pool *P = new Pool;
  return *P;
}

void workerLoop(PooledThread *T) {
  for (;;) {
    T->Go.acquire();
    if (!T->Body)
      return; // retired before a fork
    if (T->Cpu >= 0 && T->Cpu != T->PinnedCpu) {
      pinCallingThread(T->Cpu);
      T->PinnedCpu = T->Cpu;
    }
    T->Body();
    T->Body = nullptr; // drop the body's captures before it counts as done
    T->Done.release();
  }
}

/// Every idle worker exits and is joined; the caller holds P.Mu.
void retireIdle(Pool &P) {
  for (PooledThread *T : P.Idle) {
    T->Go.release(); // no body: exit
    T->Os.join();
    delete T;
  }
  P.Idle.clear();
}

/// Runs before fork() and keeps Mu until the fork returns, so no parked
/// thread is alive at the fork.
void retireIdleBeforeFork() {
  Pool &P = pool();
  P.Mu.lock();
  retireIdle(P);
}

void unlockAfterFork() { pool().Mu.unlock(); }

Pool::Pool() {
  pthread_atfork(retireIdleBeforeFork, unlockAfterFork, unlockAfterFork);
  std::atexit(retireIdlePooledThreads);
}

} // namespace

PooledThread &dlf::startPooled(std::function<void()> Body, int Cpu) {
  Pool &P = pool();
  PooledThread *T = nullptr;
  {
    std::lock_guard<std::mutex> Guard(P.Mu);
    if (!P.Idle.empty()) {
      T = P.Idle.back();
      P.Idle.pop_back();
    }
  }
  if (!T) {
    auto Fresh = std::make_unique<PooledThread>();
    Fresh->Os = std::thread(workerLoop, Fresh.get());
    T = Fresh.release();
    std::lock_guard<std::mutex> Guard(P.Mu);
    ++P.Started;
  }
  T->Body = std::move(Body);
  T->Cpu = Cpu;
  T->Go.release();
  return *T;
}

void dlf::joinPooled(PooledThread &T) {
  T.Done.acquire();
  Pool &P = pool();
  std::lock_guard<std::mutex> Guard(P.Mu);
  P.Idle.push_back(&T);
}

void dlf::retireIdlePooledThreads() {
  Pool &P = pool();
  std::lock_guard<std::mutex> Guard(P.Mu);
  retireIdle(P);
}

size_t dlf::pooledThreadsStarted() {
  Pool &P = pool();
  std::lock_guard<std::mutex> Guard(P.Mu);
  return P.Started;
}

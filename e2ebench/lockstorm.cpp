//===- e2ebench/lockstorm.cpp - Seeded pthreads lock storm ------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The program the preload-lockstorm workload captures under
// LD_PRELOAD=libdlf_preload.so. Usage:
//
//   lockstorm <seed> <pairs-per-worker> <inversions>
//
// The main thread first takes every lock once, in a fixed order, at one
// call site, so lock abstractions (site#n) do not depend on the schedule.
// Two workers then run <pairs-per-worker> nested lock pairs each over a
// shared pool, always in ascending pool order, with the pairs drawn from
// the seed. Finally they run <inversions> ABBA inversions, each on its own
// two locks, where the two halves of an inversion run in separate phases
// divided by a barrier. pthread_barrier_wait is not interposed, so the
// analysis sees every inversion as a potential cycle, but the program can
// never deadlock for real.
//
// Every run makes the same synchronization events, whatever the schedule:
// the captured trace has a line count fixed by the arguments. The program
// deliberately avoids iostreams and std::mutex, whose internal locking
// would go through the interposed pthread calls.
//
//===----------------------------------------------------------------------===//

#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

namespace {

constexpr unsigned PoolLocks = 8;
constexpr unsigned MaxInversions = 64;

pthread_mutex_t Pool[PoolLocks];
pthread_mutex_t InvX[MaxInversions];
pthread_mutex_t InvY[MaxInversions];
pthread_barrier_t Phase;

uint64_t Seed = 1;
unsigned long PairsPerWorker = 0;
unsigned Inversions = 0;

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

// Kept out of line so each call site is one stable "symbol+offset".
__attribute__((noinline)) void touch(pthread_mutex_t *M) {
  pthread_mutex_lock(M);
  pthread_mutex_unlock(M);
}

__attribute__((noinline)) void nestedPair(pthread_mutex_t *Outer,
                                          pthread_mutex_t *Inner) {
  pthread_mutex_lock(Outer);
  pthread_mutex_lock(Inner);
  pthread_mutex_unlock(Inner);
  pthread_mutex_unlock(Outer);
}

void *worker(void *Arg) {
  unsigned Id = static_cast<unsigned>(reinterpret_cast<uintptr_t>(Arg));
  uint64_t State = Seed * 2 + Id;
  for (unsigned long I = 0; I != PairsPerWorker; ++I) {
    uint64_t R = splitmix(State);
    unsigned A = static_cast<unsigned>(R % PoolLocks);
    unsigned B = static_cast<unsigned>((R >> 8) % (PoolLocks - 1));
    if (B >= A)
      ++B;
    if (A > B) {
      unsigned T = A;
      A = B;
      B = T;
    }
    nestedPair(&Pool[A], &Pool[B]);
  }
  for (unsigned K = 0; K != Inversions; ++K) {
    // Phase 2K: worker 0 takes x then y. Phase 2K+1: worker 1 takes y
    // then x. The barrier keeps the halves apart in time.
    pthread_barrier_wait(&Phase);
    if (Id == 0)
      nestedPair(&InvX[K], &InvY[K]);
    pthread_barrier_wait(&Phase);
    if (Id == 1)
      nestedPair(&InvY[K], &InvX[K]);
  }
  return nullptr;
}

bool parse(const char *Text, unsigned long Max, unsigned long &Out) {
  char *End = nullptr;
  Out = strtoul(Text, &End, 10);
  return End && *End == '\0' && End != Text && Out <= Max;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned long SeedArg = 0, Pairs = 0, Inv = 0;
  if (Argc != 4 || !parse(Argv[1], ~0UL, SeedArg) ||
      !parse(Argv[2], 1UL << 32, Pairs) ||
      !parse(Argv[3], MaxInversions, Inv)) {
    fprintf(stderr, "usage: lockstorm <seed> <pairs-per-worker> "
                    "<inversions (max %u)>\n",
            MaxInversions);
    return 1;
  }
  Seed = SeedArg;
  PairsPerWorker = Pairs;
  Inversions = static_cast<unsigned>(Inv);

  for (pthread_mutex_t &M : Pool)
    pthread_mutex_init(&M, nullptr);
  for (unsigned K = 0; K != MaxInversions; ++K) {
    pthread_mutex_init(&InvX[K], nullptr);
    pthread_mutex_init(&InvY[K], nullptr);
  }
  pthread_barrier_init(&Phase, nullptr, 2);

  for (pthread_mutex_t &M : Pool)
    touch(&M);
  for (unsigned K = 0; K != Inversions; ++K) {
    touch(&InvX[K]);
    touch(&InvY[K]);
  }

  pthread_t Workers[2];
  for (uintptr_t I = 0; I != 2; ++I)
    if (pthread_create(&Workers[I], nullptr, worker,
                       reinterpret_cast<void *>(I)) != 0) {
      fprintf(stderr, "lockstorm: pthread_create failed\n");
      return 1;
    }
  for (pthread_t &T : Workers)
    pthread_join(T, nullptr);
  pthread_barrier_destroy(&Phase);
  return 0;
}

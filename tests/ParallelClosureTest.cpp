//===- tests/ParallelClosureTest.cpp - serial/parallel equivalence -----------===//
//
// The determinism contract of the parallel closure engine: for any relation
// and any AnalysisJobs value, runIGoodlock returns byte-identical cycles
// (order, components, multiplicities) and identical determinism-relevant
// stats. Exercised on randomized relations, including MaxChains/MaxCycles
// truncation, >64-distinct-lock held sets, and the happens-before filter
// with randomized vector clocks. MinChainsPerShard is forced to 1 so even
// tiny levels actually shard.
//
//===----------------------------------------------------------------------===//

#include "igoodlock/IGoodlock.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace {

using namespace dlf;

/// Adds one dependency entry; an optional clock stamps the acquire.
void addDep(LockDependencyLog &Log, uint64_t Thread,
            const std::vector<uint64_t> &Held, uint64_t Acquired,
            const VectorClock &Clock = {}) {
  ThreadRecord T;
  T.Id = ThreadId(Thread);
  T.Name = "t" + std::to_string(Thread);
  T.Abs.Index.Elements = {static_cast<uint32_t>(Thread), 1};
  T.Clock = Clock;
  Log.onThreadCreated(T);

  auto EnsureLock = [&](uint64_t L) {
    LockRecord Rec;
    Rec.Id = LockId(L);
    Rec.Name = "l" + std::to_string(L);
    Rec.Abs.Index.Elements = {static_cast<uint32_t>(L), 1};
    Log.onLockCreated(Rec);
    return Rec;
  };

  std::vector<LockStackEntry> Stack;
  for (uint64_t H : Held) {
    EnsureLock(H);
    Stack.push_back({LockId(H), Label::intern("pc:" + std::to_string(H))});
  }
  LockRecord Acq = EnsureLock(Acquired);
  Log.onAcquireExecuted(T, Acq, Stack,
                        Label::intern("pc:" + std::to_string(Acquired)),
                        LockMode::Exclusive);
}

/// A random relation: \p Entries acquires over \p Threads threads and
/// \p Locks locks, each holding up to \p HeldMax random locks. With
/// \p WithClocks, every entry gets a random (frequently concurrent,
/// sometimes ordered) vector clock so the HB filter has real work.
LockDependencyLog randomRelation(uint32_t Seed, unsigned Threads,
                                 unsigned Locks, unsigned Entries,
                                 unsigned HeldMax, bool WithClocks = false) {
  std::mt19937 Rng(Seed);
  auto Rand = [&](unsigned N) { return Rng() % N; };
  LockDependencyLog Log;
  for (unsigned I = 0; I != Entries; ++I) {
    uint64_t Thread = 1 + Rand(Threads);
    unsigned HeldCount = 1 + Rand(HeldMax);
    std::vector<uint64_t> Held;
    for (unsigned H = 0; H != HeldCount; ++H) {
      uint64_t L = 1 + Rand(Locks);
      bool Dup = false;
      for (uint64_t Existing : Held)
        Dup |= Existing == L;
      if (!Dup)
        Held.push_back(L);
    }
    uint64_t Acq = 1 + Rand(Locks);
    VectorClock Clock;
    if (WithClocks) {
      Clock.resize(Threads, 0);
      for (unsigned C = 0; C != Threads; ++C)
        Clock[C] = Rand(4);
    }
    addDep(Log, Thread, Held, Acq, Clock);
  }
  return Log;
}

/// A fingerprint of everything runIGoodlock promises is job-count
/// independent: per-cycle keys, names, contexts, multiplicities, plus the
/// deterministic stats fields (JobsUsed/ElapsedMicros excluded by design).
std::string fingerprint(const std::vector<AbstractCycle> &Cycles,
                        const IGoodlockStats &Stats) {
  std::string F;
  for (const AbstractCycle &Cycle : Cycles) {
    F += Cycle.key(AbstractionKind::ExecutionIndex, /*UseContext=*/true);
    F += "#x" + std::to_string(Cycle.Multiplicity);
    for (const CycleComponent &Comp : Cycle.Components) {
      F += "|" + Comp.ThreadName + "/" + Comp.LockName;
      for (Label Site : Comp.Context)
        F += "," + std::string(Site.text());
    }
    F += "\n";
  }
  F += "entries=" + std::to_string(Stats.Entries);
  F += " chains=" + std::to_string(Stats.ChainsExplored);
  F += " iters=" + std::to_string(Stats.Iterations);
  F += " trunc=" + std::to_string(Stats.Truncated);
  F += " hb=" + std::to_string(Stats.FilteredByHb);
  F += " cdrop=" + std::to_string(Stats.ChainsDropped);
  F += " ydrop=" + std::to_string(Stats.CyclesDropped);
  return F;
}

/// Runs the relation serially and at jobs 2, 4, and 0 (hardware) with
/// sharding forced on, expecting identical fingerprints throughout.
/// Returns the serial run's stats.
IGoodlockStats expectJobCountInvariant(const LockDependencyLog &Log,
                                       IGoodlockOptions Opts) {
  Opts.MinChainsPerShard = 1; // shard even two-chain levels
  Opts.AnalysisJobs = 1;
  IGoodlockStats SerialStats;
  auto SerialCycles = runIGoodlock(Log, Opts, &SerialStats);
  const std::string Serial = fingerprint(SerialCycles, SerialStats);
  for (unsigned Jobs : {2u, 4u, 0u}) {
    Opts.AnalysisJobs = Jobs;
    IGoodlockStats Stats;
    auto Cycles = runIGoodlock(Log, Opts, &Stats);
    EXPECT_EQ(fingerprint(Cycles, Stats), Serial)
        << "jobs=" << Jobs << " diverged from serial";
  }
  return SerialStats;
}

TEST(ParallelClosure, RandomRelationsMatchSerial) {
  for (uint32_t Seed = 1; Seed <= 8; ++Seed) {
    LockDependencyLog Log = randomRelation(Seed, /*Threads=*/6, /*Locks=*/8,
                                           /*Entries=*/60, /*HeldMax=*/3);
    expectJobCountInvariant(Log, {});
  }
}

TEST(ParallelClosure, DenseRelationsWithRealFanout) {
  // Few locks, many threads: levels with thousands of chains, so every job
  // count genuinely multi-shards.
  for (uint32_t Seed = 11; Seed <= 13; ++Seed) {
    LockDependencyLog Log = randomRelation(Seed, /*Threads=*/8, /*Locks=*/5,
                                           /*Entries=*/80, /*HeldMax=*/2);
    IGoodlockOptions Opts;
    Opts.MaxCycleLength = 5;
    expectJobCountInvariant(Log, Opts);
  }
}

TEST(ParallelClosure, MaxChainsTruncationMatchesSerial) {
  // The abort-the-level cut must land on the same chain for every job
  // count: sweep caps from tight to loose so the cut crosses shard
  // boundaries in some configuration.
  LockDependencyLog Log = randomRelation(21, /*Threads=*/8, /*Locks=*/5,
                                         /*Entries=*/80, /*HeldMax=*/2);
  for (size_t MaxChains : {1u, 3u, 7u, 20u, 100u, 1000u}) {
    IGoodlockOptions Opts;
    Opts.MaxChains = MaxChains;
    IGoodlockStats Stats = expectJobCountInvariant(Log, Opts);
    if (MaxChains <= 20)
      EXPECT_TRUE(Stats.Truncated) << "MaxChains=" << MaxChains;
  }
}

TEST(ParallelClosure, MaxCyclesTruncationMatchesSerial) {
  LockDependencyLog Log = randomRelation(31, /*Threads=*/10, /*Locks=*/6,
                                         /*Entries=*/90, /*HeldMax=*/2);
  for (size_t MaxCycles : {0u, 1u, 2u, 5u, 50u}) {
    IGoodlockOptions Opts;
    Opts.MaxCycles = MaxCycles;
    expectJobCountInvariant(Log, Opts);
  }
}

TEST(ParallelClosure, WideHeldSetsMatchSerial) {
  // >64 distinct locks: the disjointness fallback and cycle-close binary
  // search run under sharding too.
  for (uint32_t Seed = 41; Seed <= 44; ++Seed) {
    LockDependencyLog Log = randomRelation(Seed, /*Threads=*/6, /*Locks=*/100,
                                           /*Entries=*/70, /*HeldMax=*/6);
    expectJobCountInvariant(Log, {});
  }
}

TEST(ParallelClosure, HappensBeforeFilterMatchesSerial) {
  // Random vector clocks: FilteredByHb and the surviving cycle list must
  // be identical for every job count (the HbCache is per-worker, so this
  // pins down that memoization never changes results).
  for (uint32_t Seed = 51; Seed <= 54; ++Seed) {
    LockDependencyLog Log =
        randomRelation(Seed, /*Threads=*/6, /*Locks=*/8, /*Entries=*/60,
                       /*HeldMax=*/3, /*WithClocks=*/true);
    IGoodlockOptions Opts;
    Opts.FilterByHappensBefore = true;
    expectJobCountInvariant(Log, Opts);
  }
}

TEST(ParallelClosure, EverythingAtOnce) {
  // All stressors combined: wide locks, clocks + HB filter, tight caps.
  for (uint32_t Seed = 61; Seed <= 63; ++Seed) {
    LockDependencyLog Log =
        randomRelation(Seed, /*Threads=*/8, /*Locks=*/80, /*Entries=*/80,
                       /*HeldMax=*/5, /*WithClocks=*/true);
    IGoodlockOptions Opts;
    Opts.FilterByHappensBefore = true;
    Opts.MaxChains = 50;
    Opts.MaxCycles = 3;
    expectJobCountInvariant(Log, Opts);
  }
}

} // namespace

//===- tests/GoodlockDifferentialTest.cpp - iGoodlock ≡ classic Goodlock ------===//
//
// The paper's §2.2 equivalence claim — iGoodlock "reports the same
// deadlocks as the existing algorithms" — checked by differential testing:
// the iterative closure and the DFS lock-graph baseline must produce
// identical abstract-cycle multisets on every benchmark substrate and on
// randomly generated dependency relations.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "igoodlock/ClassicGoodlock.h"
#include "igoodlock/IGoodlock.h"
#include "substrates/BenchmarkRegistry.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace {

using namespace dlf;

/// Canonical (key -> multiplicity) view of a cycle list.
std::map<std::string, unsigned>
cycleMultiset(const std::vector<AbstractCycle> &Cycles) {
  std::map<std::string, unsigned> Result;
  for (const AbstractCycle &Cycle : Cycles)
    Result[Cycle.key(AbstractionKind::ExecutionIndex, true)] +=
        Cycle.Multiplicity;
  return Result;
}

void expectEquivalent(const LockDependencyLog &Log,
                      const IGoodlockOptions &Opts = {}) {
  IGoodlockStats IterStats;
  ClassicGoodlockStats DfsStats;
  auto Iterative = runIGoodlock(Log, Opts, &IterStats);
  auto Classic = runClassicGoodlock(Log, Opts, &DfsStats);
  EXPECT_EQ(cycleMultiset(Iterative), cycleMultiset(Classic));
  EXPECT_EQ(Iterative.size(), Classic.size());
}

// -- Substrates --------------------------------------------------------------

class SubstrateDifferential : public ::testing::TestWithParam<const char *> {};

TEST_P(SubstrateDifferential, SameCyclesOnPhaseOneLog) {
  const BenchmarkInfo *Info = findBenchmark(GetParam());
  ASSERT_NE(Info, nullptr);
  ActiveTester Tester(Info->Entry);
  PhaseOneResult P1 = Tester.runPhaseOne();
  expectEquivalent(P1.Log);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, SubstrateDifferential,
                         ::testing::Values("logging", "dbcp", "swing",
                                           "jigsaw", "collections-lists",
                                           "collections-maps", "hedc",
                                           "jspider"));

// -- Random relations -----------------------------------------------------------

/// Records thread \p Tid acquiring \p Acq while holding \p Held.
void addEntry(LockDependencyLog &Log, uint64_t Tid,
              const std::set<uint64_t> &Held, uint64_t Acq) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  T.Name = "t" + std::to_string(Tid);
  T.Abs.Index.Elements = {static_cast<uint32_t>(Tid), 1};
  Log.onThreadCreated(T);

  std::vector<LockStackEntry> Stack;
  for (uint64_t H : Held) {
    LockRecord L;
    L.Id = LockId(H);
    L.Name = "l" + std::to_string(H);
    L.Abs.Index.Elements = {static_cast<uint32_t>(H)};
    Log.onLockCreated(L);
    Stack.push_back({LockId(H), Label::intern("gd:" + std::to_string(H))});
  }
  LockRecord Acquired;
  Acquired.Id = LockId(Acq);
  Acquired.Name = "l" + std::to_string(Acq);
  Acquired.Abs.Index.Elements = {static_cast<uint32_t>(Acq)};
  Log.onLockCreated(Acquired);
  Log.onAcquireExecuted(T, Acquired, Stack,
                        Label::intern("gd:" + std::to_string(Acq)),
                        LockMode::Exclusive);
}

class RandomRelationDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RandomRelationDifferential, SameCyclesOnGeneratedRelations) {
  Rng R(GetParam() * 97 + 13);
  constexpr unsigned Threads = 7, Locks = 7, Entries = 30;

  LockDependencyLog Log;
  for (unsigned I = 0; I != Entries; ++I) {
    uint64_t Tid = 1 + R.nextBelow(Threads);
    unsigned HeldCount = 1 + static_cast<unsigned>(R.nextBelow(3));
    std::set<uint64_t> Held;
    while (Held.size() < HeldCount)
      Held.insert(1 + R.nextBelow(Locks));
    uint64_t Acq;
    do {
      Acq = 1 + R.nextBelow(Locks);
    } while (Held.count(Acq));
    addEntry(Log, Tid, Held, Acq);
  }

  IGoodlockOptions Opts;
  Opts.MaxCycleLength = 5;
  expectEquivalent(Log, Opts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRelationDifferential,
                         ::testing::Range<uint64_t>(1, 25));

class SparseRelationDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SparseRelationDifferential, SameCyclesWhenMostEntriesArePruned) {
  // Many locks, acquired mostly in ascending order: almost every entry
  // lies on no lock-graph cycle and is pruned from the closure, while the
  // few inversions plant the cycles that remain. The DFS baseline is
  // unpruned, so agreement checks the prune loses no cycle.
  Rng R(GetParam() * 131 + 7);
  constexpr unsigned Threads = 8, Locks = 40, Entries = 80;

  LockDependencyLog Log;
  for (unsigned I = 0; I != Entries; ++I) {
    uint64_t Tid = 1 + R.nextBelow(Threads);
    std::set<uint64_t> Held;
    unsigned HeldCount = 1 + static_cast<unsigned>(R.nextBelow(2));
    while (Held.size() < HeldCount)
      Held.insert(1 + R.nextBelow(Locks - 1));
    uint64_t Top = *Held.rbegin();
    uint64_t Acq = Top + 1 + R.nextBelow(Locks - Top); // ascending
    if (Top > 2 && R.nextBelow(10) == 0) {             // an inversion
      do {
        Acq = 1 + R.nextBelow(Locks);
      } while (Held.count(Acq) || Acq > Top);
    }
    addEntry(Log, Tid, Held, Acq);
  }

  IGoodlockOptions Opts;
  Opts.MaxCycleLength = 5;
  expectEquivalent(Log, Opts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRelationDifferential,
                         ::testing::Range<uint64_t>(1, 25));

// -- The memory/runtime trade ------------------------------------------------------

TEST(GoodlockTrade, DfsKeepsOneChainIterativeMaterializesLevels) {
  // Build a relation with a long ring: the DFS's peak live state is its
  // depth; the closure's materialized chain count is far larger.
  LockDependencyLog Log;
  constexpr uint64_t N = 8;
  for (uint64_t T = 1; T <= N; ++T) {
    ThreadRecord Rec;
    Rec.Id = ThreadId(T);
    Log.onThreadCreated(Rec);
    LockRecord Held, Acq;
    Held.Id = LockId(T);
    Acq.Id = LockId((T % N) + 1);
    Log.onLockCreated(Held);
    Log.onLockCreated(Acq);
    std::vector<LockStackEntry> Stack = {
        {Held.Id, Label::intern("ring:" + std::to_string(T))}};
    Log.onAcquireExecuted(Rec, Acq, Stack,
                          Label::intern("ring:a" + std::to_string(T)),
                          LockMode::Exclusive);
  }
  IGoodlockOptions Opts;
  Opts.MaxCycleLength = N;

  IGoodlockStats IterStats;
  ClassicGoodlockStats DfsStats;
  auto Iterative = runIGoodlock(Log, Opts, &IterStats);
  auto Classic = runClassicGoodlock(Log, Opts, &DfsStats);
  ASSERT_EQ(Iterative.size(), 1u);
  ASSERT_EQ(Classic.size(), 1u);

  EXPECT_EQ(DfsStats.PeakDepth, static_cast<size_t>(N - 1))
      << "DFS memory is one chain deep";
  EXPECT_GT(IterStats.ChainsExplored, DfsStats.PeakDepth)
      << "the closure materializes whole levels";
}

} // namespace

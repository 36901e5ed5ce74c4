//===- tests/IGoodlockTest.cpp - Algorithm 1 unit tests ----------------------===//
//
// Drives the iterative closure on hand-built lock dependency relations,
// checking each clause of Definitions 1-3 plus the §2.2.3 duplicate rule,
// the guard-lock suppression classical Goodlock is known for, and the
// bounded-iteration mode.
//
//===----------------------------------------------------------------------===//

#include "igoodlock/IGoodlock.h"

#include <gtest/gtest.h>

namespace {

using namespace dlf;

/// Small DSL for building relations: threads and locks are small ints.
class RelationBuilder {
public:
  /// Adds (thread, {held...}, acquired); context sites are derived from
  /// the lock numbers so reports are checkable.
  RelationBuilder &dep(uint64_t Thread, std::vector<uint64_t> Held,
                       uint64_t Acquired) {
    std::vector<std::pair<uint64_t, LockMode>> HeldModes;
    for (uint64_t H : Held)
      HeldModes.emplace_back(H, LockMode::Exclusive);
    return depModes(Thread, HeldModes, Acquired, LockMode::Exclusive);
  }

  /// dep with explicit modes for each held lock and for the acquire.
  RelationBuilder &
  depModes(uint64_t Thread,
           const std::vector<std::pair<uint64_t, LockMode>> &Held,
           uint64_t Acquired, LockMode Mode) {
    ThreadRecord T;
    T.Id = ThreadId(Thread);
    T.Name = "t" + std::to_string(Thread);
    T.Abs.Index.Elements = {static_cast<uint32_t>(Thread), 1};
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
    for (auto [H, HeldMode] : Held) {
      EnsureLock(H);
      Stack.push_back({LockId(H), site(H), HeldMode});
    }
    LockRecord Acq = EnsureLock(Acquired);
    Log.onAcquireExecuted(T, Acq, Stack, site(Acquired), Mode);
    return *this;
  }

  static Label site(uint64_t Lock) {
    return Label::intern("ig:acq" + std::to_string(Lock));
  }

  std::vector<AbstractCycle> run(IGoodlockOptions Opts = {},
                                 IGoodlockStats *Stats = nullptr) {
    return runIGoodlock(Log, Opts, Stats);
  }

  LockDependencyLog Log;
};

TEST(IGoodlock, SimpleTwoCycle) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10);
  auto Cycles = B.run();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Components.size(), 2u);
  EXPECT_EQ(Cycles[0].Components[0].ThreadName, "t1");
  EXPECT_EQ(Cycles[0].Components[1].ThreadName, "t2");
}

TEST(IGoodlock, RotationReportedOnce) {
  // The same cycle discoverable from either thread must appear once
  // (duplicate suppression: minimal thread id first, §2.2.3).
  RelationBuilder B;
  B.dep(2, {11}, 10).dep(1, {10}, 11); // insertion order reversed
  auto Cycles = B.run();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Multiplicity, 1u);
  EXPECT_EQ(Cycles[0].Components[0].Thread, ThreadId(1))
      << "chain must start at the minimal thread id";
}

TEST(IGoodlock, NoCycleInOrderedProgram) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {10}, 11).dep(3, {10, 11}, 12);
  EXPECT_TRUE(B.run().empty());
}

TEST(IGoodlock, SameThreadCannotCloseACycle) {
  // Definition 2 clause 1: distinct threads. One thread acquiring in both
  // orders (at different times) is not a deadlock.
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(1, {11}, 10);
  EXPECT_TRUE(B.run().empty());
}

TEST(IGoodlock, GuardLockSuppressesCycle) {
  // The classical Goodlock guard (gate) lock rule falls out of clause 4
  // (pairwise-disjoint held sets): both inversions happen under a common
  // lock G, so the deadlock cannot happen.
  RelationBuilder B;
  B.dep(1, {5, 10}, 11).dep(2, {5, 11}, 10);
  EXPECT_TRUE(B.run().empty()) << "guarded inversion is not a deadlock";
}

TEST(IGoodlock, UnguardedVariantStillReported) {
  // Same as above but only one side holds the guard: the cycle is real.
  RelationBuilder B;
  B.dep(1, {5, 10}, 11).dep(2, {11}, 10);
  EXPECT_EQ(B.run().size(), 1u);
}

TEST(IGoodlock, ThreeCycle) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 12).dep(3, {12}, 10);
  auto Cycles = B.run();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Components.size(), 3u);
}

TEST(IGoodlock, ThreeCycleNotReportedWhenLengthBounded) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 12).dep(3, {12}, 10);
  IGoodlockOptions Opts;
  Opts.MaxCycleLength = 2;
  EXPECT_TRUE(B.run(Opts).empty());
  Opts.MaxCycleLength = 3;
  EXPECT_EQ(B.run(Opts).size(), 1u);
}

TEST(IGoodlock, ShorterCyclesFoundBeforeLonger) {
  // A 2-cycle and a 3-cycle coexist; iterative deepening reports both, and
  // the stats show the iteration count reached 3.
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10);                  // 2-cycle
  B.dep(3, {20}, 21).dep(4, {21}, 22).dep(5, {22}, 20); // 3-cycle
  IGoodlockStats Stats;
  auto Cycles = B.run({}, &Stats);
  ASSERT_EQ(Cycles.size(), 2u);
  EXPECT_EQ(Cycles[0].Components.size(), 2u) << "2-cycle first";
  EXPECT_EQ(Cycles[1].Components.size(), 3u);
  EXPECT_GE(Stats.Iterations, 2u);
}

TEST(IGoodlock, NoComplexCycles) {
  // Two independent 2-cycles sharing a thread's locks in a larger ring:
  // cycles must not be extended once closed, so the "figure eight" is
  // reported as its two simple halves only.
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10); // half one
  B.dep(3, {12}, 13).dep(4, {13}, 12); // half two
  auto Cycles = B.run();
  EXPECT_EQ(Cycles.size(), 2u);
  for (const AbstractCycle &Cycle : Cycles)
    EXPECT_EQ(Cycle.Components.size(), 2u);
}

TEST(IGoodlock, DistinctAcquiredLocksRequired) {
  // Definition 2 clause 2: l1, l2 distinct. Craft entries where the same
  // lock would be acquired twice along a chain.
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11, 12}, 11);
  EXPECT_TRUE(B.run().empty());
}

TEST(IGoodlock, ContextsCarriedIntoReport) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10);
  auto Cycles = B.run();
  ASSERT_EQ(Cycles.size(), 1u);
  const CycleComponent &C0 = Cycles[0].Components[0];
  ASSERT_EQ(C0.Context.size(), 2u);
  EXPECT_EQ(C0.Context[0], RelationBuilder::site(10));
  EXPECT_EQ(C0.Context[1], RelationBuilder::site(11));
}

TEST(IGoodlock, MultiplicityCountsCollapsedChains) {
  // Two concrete chains with identical abstractions collapse into one
  // abstract cycle with multiplicity 2: same thread/lock abstractions,
  // different concrete ids. Build two thread pairs whose records share
  // abstraction elements.
  LockDependencyLog Log;
  auto AddPair = [&](uint64_t TBase, uint64_t LBase) {
    for (int Side = 0; Side != 2; ++Side) {
      ThreadRecord T;
      T.Id = ThreadId(TBase + static_cast<uint64_t>(Side));
      T.Name = "t";
      T.Abs.Index.Elements = {7u + static_cast<uint32_t>(Side), 1};
      Log.onThreadCreated(T);
      LockRecord Held, Acq;
      Held.Id = LockId(LBase + static_cast<uint64_t>(Side));
      Held.Abs.Index.Elements = {100u + static_cast<uint32_t>(Side)};
      Acq.Id = LockId(LBase + static_cast<uint64_t>(1 - Side));
      Acq.Abs.Index.Elements = {100u + static_cast<uint32_t>(1 - Side)};
      Log.onLockCreated(Held);
      Log.onLockCreated(Acq);
      std::vector<LockStackEntry> Stack = {
          {Held.Id, Label::intern("mult:outer")}};
      Log.onAcquireExecuted(T, Acq, Stack, Label::intern("mult:inner"),
                            LockMode::Exclusive);
    }
  };
  AddPair(1, 10);
  AddPair(3, 20); // same abstractions, different concrete ids
  auto Cycles = runIGoodlock(Log);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Multiplicity, 2u);
}

TEST(IGoodlock, EmptyRelation) {
  LockDependencyLog Log;
  EXPECT_TRUE(runIGoodlock(Log).empty());
}

TEST(IGoodlock, DedupInRecorder) {
  RelationBuilder B;
  for (int I = 0; I != 50; ++I)
    B.dep(1, {10}, 11); // identical entries: a loop
  EXPECT_EQ(B.Log.entries().size(), 1u);
  EXPECT_EQ(B.Log.acquireEvents(), 50u);
}

TEST(IGoodlock, DifferentContextsAreDifferentEntries) {
  LockDependencyLog Log;
  ThreadRecord T;
  T.Id = ThreadId(1);
  Log.onThreadCreated(T);
  LockRecord Held, Acq;
  Held.Id = LockId(10);
  Acq.Id = LockId(11);
  Log.onLockCreated(Held);
  Log.onLockCreated(Acq);
  std::vector<LockStackEntry> Stack = {{Held.Id, Label::intern("dc:a")}};
  Log.onAcquireExecuted(T, Acq, Stack, Label::intern("dc:x"),
                        LockMode::Exclusive);
  Log.onAcquireExecuted(T, Acq, Stack, Label::intern("dc:y"),
                        LockMode::Exclusive);
  EXPECT_EQ(Log.entries().size(), 2u);
}

TEST(IGoodlock, CycleCapTruncates) {
  // 2N threads form N separate 2-cycles; a cap below N must truncate and
  // say so.
  RelationBuilder B;
  for (uint64_t I = 0; I != 20; ++I) {
    uint64_t L = 100 + 2 * I;
    B.dep(1 + 2 * I, {L}, L + 1).dep(2 + 2 * I, {L + 1}, L);
  }
  IGoodlockOptions Opts;
  Opts.MaxCycles = 5;
  IGoodlockStats Stats;
  auto Cycles = B.run(Opts, &Stats);
  EXPECT_EQ(Cycles.size(), 5u);
  EXPECT_TRUE(Stats.Truncated);
}

TEST(IGoodlock, LongChainRing) {
  // A ring of 6 threads: exactly one cycle of length 6.
  RelationBuilder B;
  constexpr uint64_t N = 6;
  for (uint64_t I = 0; I != N; ++I)
    B.dep(I + 1, {10 + I}, 10 + ((I + 1) % N));
  IGoodlockOptions Opts;
  Opts.MaxCycleLength = 8;
  auto Cycles = B.run(Opts);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Components.size(), N);
}

TEST(IGoodlock, HeldSetsWithMultipleLocks) {
  // Deep nesting: t1 holds {A,B} acquiring C; t2 holds {C} acquiring A.
  // Valid cycle: C in held of t2? t2 holds C and wants A which is held by
  // t1 -> chain t1(C) ... check both directions.
  RelationBuilder B;
  B.dep(1, {10, 11}, 12).dep(2, {12}, 10);
  auto Cycles = B.run();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Components.size(), 2u);
}

TEST(IGoodlock, MaxChainsAbortsLevel) {
  // A ring of 8 threads t1..t8 (ti holds l_{10+i} acquires l_{11+i}, t8
  // closes it by acquiring l11), so every entry lies on a lock-graph cycle
  // and is chained: level 1 has 8 chains, of which t1..t7 can extend (t8's
  // only candidate is t1, whose smaller thread id §2.2.3 rejects).
  // MaxChains = 3 commits the first three extensions, and the fourth
  // *attempt* aborts the level: the cut chain (t4's) and everything after
  // it count as dropped.
  RelationBuilder B;
  for (uint64_t T = 1; T <= 8; ++T)
    B.dep(T, {10 + T}, T == 8 ? 11 : 10 + T + 1);
  IGoodlockOptions Opts;
  Opts.MaxChains = 3;
  Opts.MaxCycleLength = 2; // one extension level, no cycles possible
  IGoodlockStats Stats;
  auto Cycles = B.run(Opts, &Stats);
  EXPECT_TRUE(Cycles.empty());
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.ChainsDropped, 5u) << "chains t4..t8 dropped at the cut";
  EXPECT_EQ(Stats.ChainsExplored, 8u + 3u) << "level 1 plus committed exts";
}

TEST(IGoodlock, MaxChainsKeepsCyclesFoundBeforeAbort) {
  // A 2-cycle discovered while scanning early chains survives a MaxChains
  // abort triggered later in the same level (cycle closes are not
  // extensions, so they never consume capacity).
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10); // closes during the level-1 scan
  for (uint64_t T = 3; T <= 6; ++T)    // chain fodder: the ring t3..t6,
    B.dep(T, {20 + T}, T == 6 ? 23 : 20 + T + 1); // too long to close
  IGoodlockOptions Opts;
  Opts.MaxChains = 2;
  Opts.MaxCycleLength = 2;
  IGoodlockStats Stats;
  auto Cycles = B.run(Opts, &Stats);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.ChainsDropped, 2u);
}

TEST(IGoodlock, EntriesOffEveryLockCycleAreNeverChained) {
  // A rank-ordered background (every acquire climbs l100..l103, and t24
  // hangs l100 off cycle lock l1) lies on no lock-graph cycle, so none of
  // it is chained. The cycles that remain: ABBA (t1, t2), a 3-cycle whose
  // members all hold gate l9 (reported under KeepGuardedCycles), and a
  // reader-writer cycle (t6 reads l6 then takes l7, t7 holds l7 and
  // writes l6).
  constexpr LockMode S = LockMode::Shared, X = LockMode::Exclusive;
  RelationBuilder B;
  B.dep(20, {100}, 101).dep(20, {101}, 102).dep(21, {100}, 102);
  B.dep(21, {100, 101}, 103).dep(22, {101}, 103).dep(22, {102}, 103);
  B.dep(23, {100}, 103).dep(24, {1}, 100);
  B.dep(1, {1}, 2).dep(2, {2}, 1);
  B.dep(3, {9, 3}, 4).dep(4, {9, 4}, 5).dep(5, {9, 5}, 3);
  B.depModes(6, {{6, S}}, 7, X).depModes(7, {{7, X}}, 6, X);
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = true;
  IGoodlockStats Stats;
  auto Cycles = B.run(Opts, &Stats);

  std::vector<std::string> Got;
  for (const AbstractCycle &C : Cycles) {
    std::string Text;
    for (const CycleComponent &Comp : C.Components)
      Text += Comp.ThreadName + ":" + Comp.LockName + " ";
    Got.push_back(Text);
  }
  EXPECT_EQ(Got, (std::vector<std::string>{"t1:l2 t2:l1 ", "t6:l7 t7:l6 ",
                                           "t3:l4 t4:l5 t5:l3 "}));
  EXPECT_EQ(Stats.Entries, 15u) << "|D| counts the pruned entries too";
  // D_1 is the 7 cycle members; level 2 adds [t3,t4] and [t4,t5] (every
  // other level-1 scan closes a cycle or meets a smaller head thread), and
  // level 3 only closes the 3-cycle.
  EXPECT_EQ(Stats.ChainsExplored, 7u + 2u);
  EXPECT_FALSE(Stats.Truncated);
}

TEST(IGoodlock, UnderCapNothingDropped) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10);
  IGoodlockStats Stats;
  B.run({}, &Stats);
  EXPECT_FALSE(Stats.Truncated);
  EXPECT_EQ(Stats.ChainsDropped, 0u);
  EXPECT_EQ(Stats.CyclesDropped, 0u);
}

TEST(IGoodlock, CyclesDroppedCountsSuppressedReports) {
  // 20 distinct 2-cycles against MaxCycles = 5: each suppressed report is
  // counted, so campaigns can see how much the cap hid.
  RelationBuilder B;
  for (uint64_t I = 0; I != 20; ++I) {
    uint64_t L = 100 + 2 * I;
    B.dep(1 + 2 * I, {L}, L + 1).dep(2 + 2 * I, {L + 1}, L);
  }
  IGoodlockOptions Opts;
  Opts.MaxCycles = 5;
  IGoodlockStats Stats;
  auto Cycles = B.run(Opts, &Stats);
  EXPECT_EQ(Cycles.size(), 5u);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.CyclesDropped, 15u);
}

TEST(IGoodlock, StatsReportEntriesJobsAndThroughput) {
  RelationBuilder B;
  B.dep(1, {10}, 11).dep(2, {11}, 10);
  IGoodlockStats Stats;
  B.run({}, &Stats);
  EXPECT_EQ(Stats.Entries, 2u);
  EXPECT_EQ(Stats.JobsUsed, 1u) << "default is serial";
  EXPECT_GE(Stats.entriesPerSecond(), 0.0);
  EXPECT_GE(Stats.chainsPerSecond(), 0.0);

  IGoodlockOptions Opts;
  Opts.AnalysisJobs = 4;
  B.run(Opts, &Stats);
  EXPECT_EQ(Stats.JobsUsed, 4u);

  Opts.AnalysisJobs = 0; // hardware concurrency
  B.run(Opts, &Stats);
  EXPECT_GE(Stats.JobsUsed, 1u);
}

TEST(IGoodlock, WideHeldSetsPastSixtyFourLocks) {
  // More than 64 distinct locks defeats the injective bitmask fast path:
  // the folded masks of the two held sets share bits even though the sets
  // are disjoint, so the sorted-intersection fallback must decide. The
  // inversion is real and must still be reported.
  RelationBuilder B;
  std::vector<uint64_t> Held1, Held2;
  for (uint64_t I = 0; I != 40; ++I) {
    Held1.push_back(1000 + I);
    Held2.push_back(2000 + I);
  }
  Held1.push_back(10);
  Held2.push_back(11);
  B.dep(1, Held1, 11).dep(2, Held2, 10);
  auto Cycles = B.run();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Components.size(), 2u);
}

TEST(IGoodlock, GuardLockStillSuppressesPastSixtyFourLocks) {
  // The same wide-held-set regime, but both sides hold guard lock 5: the
  // fallback must detect the genuine intersection and reject the chain.
  RelationBuilder B;
  std::vector<uint64_t> Held1, Held2;
  for (uint64_t I = 0; I != 40; ++I) {
    Held1.push_back(1000 + I);
    Held2.push_back(2000 + I);
  }
  Held1.push_back(5);
  Held1.push_back(10);
  Held2.push_back(5);
  Held2.push_back(11);
  B.dep(1, Held1, 11).dep(2, Held2, 10);
  EXPECT_TRUE(B.run().empty());
}

} // namespace

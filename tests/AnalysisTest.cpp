//===- tests/AnalysisTest.cpp - Report / CycleSpec / checker / tester --------===//
//
// Unit tests for the analysis value types: abstract-cycle canonical keys,
// Phase II matching (CycleSpec), Algorithm 4 (findRealDeadlock), and the
// ActiveTester's witness matching and forked-execution helper.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "fuzzer/CycleSpec.h"
#include "fuzzer/RealDeadlockChecker.h"
#include "igoodlock/Report.h"

#include <gtest/gtest.h>

#include <unistd.h>

namespace {

using namespace dlf;

// -- Helpers ------------------------------------------------------------------

AbstractionSet abs(uint32_t Tag) {
  AbstractionSet Set;
  Set.Index.Elements = {Tag, 1};
  Set.KObject.Elements = {Tag};
  return Set;
}

CycleComponent component(uint64_t Thread, uint32_t ThreadTag, uint64_t Lock,
                         uint32_t LockTag,
                         std::initializer_list<const char *> Ctx) {
  CycleComponent C;
  C.Thread = ThreadId(Thread);
  C.ThreadName = "t" + std::to_string(Thread);
  C.ThreadAbs = abs(ThreadTag);
  C.Lock = LockId(Lock);
  C.LockName = "l" + std::to_string(Lock);
  C.LockAbs = abs(LockTag);
  for (const char *Site : Ctx)
    C.Context.push_back(Label::intern(Site));
  return C;
}

AbstractCycle twoCycle() {
  AbstractCycle Cycle;
  Cycle.Components.push_back(component(1, 100, 11, 200, {"an:o1", "an:i1"}));
  Cycle.Components.push_back(component(2, 101, 10, 201, {"an:o2", "an:i2"}));
  return Cycle;
}

// -- AbstractCycle keys ----------------------------------------------------------

TEST(AbstractCycleKey, RotationInvariant) {
  AbstractCycle Cycle = twoCycle();
  AbstractCycle Rotated;
  Rotated.Components = {Cycle.Components[1], Cycle.Components[0]};
  EXPECT_EQ(Cycle.key(AbstractionKind::ExecutionIndex, true),
            Rotated.key(AbstractionKind::ExecutionIndex, true));
}

TEST(AbstractCycleKey, SensitiveToAbstractions) {
  AbstractCycle A = twoCycle();
  AbstractCycle B = twoCycle();
  B.Components[0].LockAbs = abs(999);
  EXPECT_NE(A.key(AbstractionKind::ExecutionIndex, true),
            B.key(AbstractionKind::ExecutionIndex, true));
  // ...but a trivial-abstraction key ignores the difference.
  EXPECT_EQ(A.key(AbstractionKind::Trivial, true),
            B.key(AbstractionKind::Trivial, true));
}

TEST(AbstractCycleKey, ContextToggle) {
  AbstractCycle A = twoCycle();
  AbstractCycle B = twoCycle();
  B.Components[0].Context[0] = Label::intern("an:other-outer");
  EXPECT_NE(A.key(AbstractionKind::ExecutionIndex, true),
            B.key(AbstractionKind::ExecutionIndex, true));
  // Without context matching, only the final acquire site matters.
  EXPECT_EQ(A.key(AbstractionKind::ExecutionIndex, false),
            B.key(AbstractionKind::ExecutionIndex, false));
}

TEST(AbstractCycleKey, ThreeCycleRotations) {
  AbstractCycle Cycle;
  Cycle.Components.push_back(component(1, 1, 10, 10, {"c:a"}));
  Cycle.Components.push_back(component(2, 2, 11, 11, {"c:b"}));
  Cycle.Components.push_back(component(3, 3, 12, 12, {"c:c"}));
  std::string Key = Cycle.key(AbstractionKind::ExecutionIndex, true);
  for (int Rot = 0; Rot != 3; ++Rot) {
    std::rotate(Cycle.Components.begin(), Cycle.Components.begin() + 1,
                Cycle.Components.end());
    EXPECT_EQ(Cycle.key(AbstractionKind::ExecutionIndex, true), Key);
  }
  // A reflection is a *different* cycle (direction matters).
  AbstractCycle Reflected;
  Reflected.Components = {Cycle.Components[2], Cycle.Components[1],
                          Cycle.Components[0]};
  EXPECT_NE(Reflected.key(AbstractionKind::ExecutionIndex, true), Key);
}

TEST(AbstractCycleToString, MentionsEverything) {
  std::string Text = twoCycle().toString();
  EXPECT_NE(Text.find("t1"), std::string::npos);
  EXPECT_NE(Text.find("l10"), std::string::npos);
  EXPECT_NE(Text.find("an:i2"), std::string::npos);
  EXPECT_NE(Text.find("length 2"), std::string::npos);
}

// -- CycleSpec matching -----------------------------------------------------------

std::vector<LockStackEntry> stack(std::initializer_list<const char *> Sites) {
  std::vector<LockStackEntry> Result;
  uint64_t Lock = 1;
  for (const char *Site : Sites)
    Result.push_back({LockId(Lock++), Label::intern(Site)});
  return Result;
}

TEST(CycleSpec, ExactComponentMatch) {
  CycleSpec Spec(twoCycle(), AbstractionKind::ExecutionIndex, true);
  EXPECT_TRUE(
      Spec.matchesComponent(abs(100), abs(200), stack({"an:o1", "an:i1"})));
  EXPECT_TRUE(
      Spec.matchesComponent(abs(101), abs(201), stack({"an:o2", "an:i2"})));
}

TEST(CycleSpec, WrongAbstractionNoMatch) {
  CycleSpec Spec(twoCycle(), AbstractionKind::ExecutionIndex, true);
  EXPECT_FALSE(
      Spec.matchesComponent(abs(999), abs(200), stack({"an:o1", "an:i1"})));
  EXPECT_FALSE(
      Spec.matchesComponent(abs(100), abs(999), stack({"an:o1", "an:i1"})));
}

TEST(CycleSpec, WrongContextNoMatch) {
  CycleSpec Spec(twoCycle(), AbstractionKind::ExecutionIndex, true);
  EXPECT_FALSE(Spec.matchesComponent(abs(100), abs(200),
                                     stack({"an:other", "an:i1"})));
  EXPECT_FALSE(Spec.matchesComponent(
      abs(100), abs(200), stack({"an:x", "an:o1", "an:i1"})))
      << "extra outer lock changes the context";
}

TEST(CycleSpec, NoContextMatchesOnPendingSiteOnly) {
  CycleSpec Spec(twoCycle(), AbstractionKind::ExecutionIndex, false);
  EXPECT_TRUE(Spec.matchesComponent(abs(100), abs(200),
                                    stack({"an:x", "an:y", "an:i1"})));
  EXPECT_FALSE(
      Spec.matchesComponent(abs(100), abs(200), stack({"an:x", "an:o1"})));
}

TEST(CycleSpec, TrivialKindMatchesAnyObjects) {
  CycleSpec Spec(twoCycle(), AbstractionKind::Trivial, true);
  // Any thread/lock with the right context matches: the paper's "ignore
  // abstraction" variant pauses unrelated threads.
  EXPECT_TRUE(
      Spec.matchesComponent(abs(777), abs(888), stack({"an:o1", "an:i1"})));
}

TEST(CycleSpec, YieldPointMatchesOutermostContextSite) {
  CycleSpec Spec(twoCycle(), AbstractionKind::ExecutionIndex, true);
  EXPECT_TRUE(Spec.matchesYieldPoint(abs(100), Label::intern("an:o1")));
  EXPECT_FALSE(Spec.matchesYieldPoint(abs(100), Label::intern("an:i1")))
      << "yield is before the *bottommost* acquire only";
  EXPECT_FALSE(Spec.matchesYieldPoint(abs(999), Label::intern("an:o1")));
}

// -- findRealDeadlock (Algorithm 4) --------------------------------------------------

struct CheckerFixture {
  std::vector<ThreadRecord> Threads;
  std::vector<LockRecord> Locks;
  std::vector<std::vector<LockStackEntry>> Stacks;

  CheckerFixture(size_t ThreadCount, size_t LockCount) {
    Threads.resize(ThreadCount);
    for (size_t I = 0; I != ThreadCount; ++I) {
      Threads[I].Id = ThreadId(I + 1);
      Threads[I].Name = "t" + std::to_string(I + 1);
    }
    Locks.resize(LockCount);
    for (size_t I = 0; I != LockCount; ++I) {
      Locks[I].Id = LockId(I + 1);
      Locks[I].Name = "l" + std::to_string(I + 1);
    }
    Stacks.resize(ThreadCount);
  }

  void hold(size_t Thread, size_t Lock, const char *Site) {
    Stacks[Thread].push_back({LockId(Lock + 1), Label::intern(Site)});
  }

  std::optional<DeadlockWitness> check() {
    std::vector<ThreadStackView> Views;
    for (size_t I = 0; I != Threads.size(); ++I)
      Views.push_back({&Threads[I], &Stacks[I]});
    return findRealDeadlock(
        Views, [&](LockId Id) -> const LockRecord & {
          return Locks[Id.Raw - 1];
        });
  }
};

TEST(RealDeadlockChecker, FindsAbba) {
  CheckerFixture F(2, 2);
  F.hold(0, 0, "ck:t1a");
  F.hold(0, 1, "ck:t1b"); // t1: A then B (pending)
  F.hold(1, 1, "ck:t2b");
  F.hold(1, 0, "ck:t2a"); // t2: B then A (pending)
  auto Witness = F.check();
  ASSERT_TRUE(Witness.has_value());
  EXPECT_EQ(Witness->Edges.size(), 2u);
  // Edge contexts include everything up to the wait entry.
  EXPECT_EQ(Witness->Edges[0].Context.size(), 2u);
}

TEST(RealDeadlockChecker, NoCycleWithoutInversion) {
  CheckerFixture F(2, 2);
  F.hold(0, 0, "ck:a");
  F.hold(0, 1, "ck:b");
  F.hold(1, 0, "ck:a2"); // same order
  EXPECT_FALSE(F.check().has_value());
}

TEST(RealDeadlockChecker, SingleThreadNeverDeadlocks) {
  CheckerFixture F(1, 3);
  F.hold(0, 0, "ck:x");
  F.hold(0, 1, "ck:y");
  F.hold(0, 2, "ck:z");
  EXPECT_FALSE(F.check().has_value());
}

TEST(RealDeadlockChecker, ThreeWayCycle) {
  CheckerFixture F(3, 3);
  F.hold(0, 0, "ck:1a");
  F.hold(0, 1, "ck:1b");
  F.hold(1, 1, "ck:2b");
  F.hold(1, 2, "ck:2c");
  F.hold(2, 2, "ck:3c");
  F.hold(2, 0, "ck:3a");
  auto Witness = F.check();
  ASSERT_TRUE(Witness.has_value());
  EXPECT_EQ(Witness->Edges.size(), 3u);
}

TEST(RealDeadlockChecker, PartialCycleIsNotEnough) {
  CheckerFixture F(3, 3);
  F.hold(0, 0, "ck:1a");
  F.hold(0, 1, "ck:1b");
  F.hold(1, 1, "ck:2b");
  F.hold(1, 2, "ck:2c");
  // third thread holds only one lock: no closing edge
  F.hold(2, 2, "ck:3c");
  EXPECT_FALSE(F.check().has_value());
}

TEST(RealDeadlockChecker, DeepStacksWithInnerCycle) {
  // The inverted pair sits under unrelated outer locks.
  CheckerFixture F(2, 4);
  F.hold(0, 2, "ck:outer1");
  F.hold(0, 0, "ck:t1a");
  F.hold(0, 1, "ck:t1b");
  F.hold(1, 3, "ck:outer2");
  F.hold(1, 1, "ck:t2b");
  F.hold(1, 0, "ck:t2a");
  auto Witness = F.check();
  ASSERT_TRUE(Witness.has_value());
  EXPECT_EQ(Witness->Edges.size(), 2u);
}

TEST(RealDeadlockChecker, EmptyViews) {
  CheckerFixture F(0, 0);
  EXPECT_FALSE(F.check().has_value());
}

// -- ActiveTester helpers -------------------------------------------------------------

TEST(WitnessMatching, MatchesRotatedWitness) {
  AbstractCycle Cycle = twoCycle();
  DeadlockWitness Witness;
  for (int Rot : {1, 0}) { // rotated order relative to the cycle
    const CycleComponent &C = Cycle.Components[static_cast<size_t>(Rot)];
    DeadlockWitness::Edge E;
    E.Thread = C.Thread;
    E.ThreadName = C.ThreadName;
    E.ThreadAbs = C.ThreadAbs;
    E.WaitLock = C.Lock;
    E.WaitLockName = C.LockName;
    E.WaitLockAbs = C.LockAbs;
    E.WaitSite = C.Context.back();
    E.Context = C.Context;
    Witness.Edges.push_back(std::move(E));
  }
  EXPECT_TRUE(ActiveTester::witnessMatchesCycle(
      Witness, Cycle, AbstractionKind::ExecutionIndex, true));
  // Breaking one lock abstraction breaks the match.
  Witness.Edges[0].WaitLockAbs = abs(12345);
  EXPECT_FALSE(ActiveTester::witnessMatchesCycle(
      Witness, Cycle, AbstractionKind::ExecutionIndex, true));
}

TEST(WitnessMatching, SizeMismatchNeverMatches) {
  AbstractCycle Cycle = twoCycle();
  DeadlockWitness Witness;
  Witness.Edges.resize(3);
  EXPECT_FALSE(ActiveTester::witnessMatchesCycle(
      Witness, Cycle, AbstractionKind::Trivial, false));
}

TEST(ForkedRuns, TheWatchdogBoundsEachRunNotTheChild) {
  // Three 200 ms runs in one child take 600 ms, past the 400 ms watchdog:
  // only a window that restarts at every run lets them all complete.
  ForkedRuns R = runForkedRuns([] { usleep(200 * 1000); }, 3,
                               /*TimeoutMs=*/400);
  ASSERT_EQ(R.WallMs.size(), 3u);
  EXPECT_EQ(R.Hung, 0u);
  EXPECT_EQ(R.Crashed, 0u);
  for (double Ms : R.WallMs)
    EXPECT_GE(Ms, 200.0);
}

TEST(ForkedRuns, AHungRunEndsItsChildAndTheRestGoOnInAFreshOne) {
  // Each child is forked from this process, so each counts calls from 0
  // and hangs on its second: of 4 runs, the 1st and 3rd complete.
  int Calls = 0;
  ForkedRuns R = runForkedRuns(
      [&] {
        if (++Calls == 2)
          for (;;)
            usleep(1000);
      },
      4, /*TimeoutMs=*/200);
  EXPECT_EQ(R.WallMs.size(), 2u);
  EXPECT_EQ(R.Hung, 2u);
  EXPECT_EQ(R.Crashed, 0u);
  EXPECT_EQ(Calls, 0); // only the children ran the program
}

TEST(ForkedRuns, CrashedRunsAreCountedApart) {
  ForkedRuns R = runForkedRuns([] { _exit(3); }, 2, 2000);
  EXPECT_TRUE(R.WallMs.empty());
  EXPECT_EQ(R.Hung, 0u);
  EXPECT_EQ(R.Crashed, 2u);
}

} // namespace

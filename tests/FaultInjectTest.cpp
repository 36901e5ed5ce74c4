//===- tests/FaultInjectTest.cpp - Deterministic fault injection ------------===//
//
// The fault plane under test is itself test infrastructure for the chaos
// campaigns, so its contracts are pinned down tightly here: the plan
// grammar (accept and reject), the determinism guarantees (ordinal,
// probability, and rep triggers as pure functions of the plan seed and the
// work identity), the CRC32 the journal integrity tags are built on, and
// the end-to-end behavior of an injected fault at a real site.
//
//===----------------------------------------------------------------------===//

#include "faultinject/FaultInject.h"

#include "campaign/Journal.h"
#include "campaign/Json.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

namespace {

using namespace dlf;
using namespace dlf::faultinject;

// -- Grammar -----------------------------------------------------------------

TEST(FaultPlanParse, AcceptsTheFullGrammarAndRoundTripsThroughDescribe) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(P.parse("journal.fsync:enospc@3; child.crash@rep=7,"
                      "child.hang@rep=12 ;sidecar.truncate@2;"
                      "worker.spawn:eagain@1;runner.kill@4;"
                      "child.crash:segv@p=0.25;seed=42",
                      &Error))
      << Error;
  EXPECT_EQ(P.specs().size(), 7u);
  EXPECT_EQ(P.seed(), 42u);
  EXPECT_EQ(P.describe(),
            "journal.fsync:enospc@3;child.crash@rep=7;child.hang@rep=12;"
            "sidecar.truncate@2;worker.spawn:eagain@1;runner.kill@4;"
            "child.crash:segv@p=0.25;seed=42");

  // describe() is re-parseable: the round trip is lossless.
  FaultPlan Q;
  ASSERT_TRUE(Q.parse(P.describe(), &Error)) << Error;
  EXPECT_EQ(Q.describe(), P.describe());
}

TEST(FaultPlanParse, RejectsMalformedClausesAndLeavesThePlanUnchanged) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(P.parse("journal.torn@1", &Error)) << Error;

  // Unknown site; the message names the known ones.
  EXPECT_FALSE(P.parse("journal.flush@1", &Error));
  EXPECT_NE(Error.find("unknown site"), std::string::npos) << Error;
  EXPECT_NE(Error.find("journal.fsync"), std::string::npos) << Error;

  // Action the site does not take.
  EXPECT_FALSE(P.parse("journal.fsync:eacces@1", &Error));
  EXPECT_NE(Error.find("does not take action"), std::string::npos) << Error;

  // rep= only applies to child-side sites.
  EXPECT_FALSE(P.parse("journal.write@rep=3", &Error));
  EXPECT_NE(Error.find("rep="), std::string::npos) << Error;

  // Ordinals are 1-based; probabilities live in [0, 1].
  EXPECT_FALSE(P.parse("journal.write@0", &Error));
  EXPECT_FALSE(P.parse("child.crash@p=1.5", &Error));
  EXPECT_FALSE(P.parse("child.crash@p=nope", &Error));
  EXPECT_FALSE(P.parse("child.crash", &Error));
  EXPECT_FALSE(P.parse("seed=-1", &Error));

  // Every rejected parse left the original single-clause plan intact.
  EXPECT_EQ(P.specs().size(), 1u);
  EXPECT_EQ(P.describe(), "journal.torn@1");
}

// -- Trigger semantics -------------------------------------------------------

TEST(FaultPlanTriggers, OrdinalFiresOnExactlyTheNthHit) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(P.parse("journal.write:eio@3", &Error)) << Error;
  EXPECT_EQ(P.hit("journal.write"), nullptr);
  EXPECT_EQ(P.hit("journal.write"), nullptr);
  const FaultSpec *S = P.hit("journal.write");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Action, "eio");
  EXPECT_EQ(P.hit("journal.write"), nullptr); // one-shot: the 4th is clean
  // Other sites run on their own counters.
  EXPECT_EQ(P.hit("journal.fsync"), nullptr);
}

TEST(FaultPlanTriggers, AlwaysFiresOnEveryHit) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(P.parse("journal.fsync@always", &Error)) << Error;
  for (int I = 0; I != 5; ++I)
    EXPECT_NE(P.hit("journal.fsync"), nullptr);
}

TEST(FaultPlanTriggers, ProbabilityIsAPureFunctionOfSeedAndIdentity) {
  // Two plans with the same seed make identical decisions for the same
  // (cycle, rep) identities — across separate plan instances, which is what
  // makes chaos runs replayable and resume-stable.
  auto Decisions = [](uint64_t Seed) {
    FaultPlan P;
    std::string Error;
    EXPECT_TRUE(P.parse("child.crash@p=0.5", &Error)) << Error;
    P.setSeed(Seed);
    std::string Out;
    for (uint64_t Cycle = 0; Cycle != 4; ++Cycle)
      for (uint64_t Rep = 0; Rep != 16; ++Rep)
        Out += P.childFaults(Cycle, Rep, 0).CrashAction.empty() ? '0' : '1';
    return Out;
  };
  std::string A = Decisions(7), B = Decisions(7), C = Decisions(8);
  EXPECT_EQ(A, B);
  EXPECT_NE(C, A); // a different seed picks a different subset
  // p=0.5 over 64 trials: both outcomes occur.
  EXPECT_NE(A.find('0'), std::string::npos);
  EXPECT_NE(A.find('1'), std::string::npos);
}

TEST(FaultPlanTriggers, RepTriggerGatesCrashesToTheFirstAttemptOnly) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(
      P.parse("child.crash:segv@rep=5;sidecar.truncate@rep=5", &Error))
      << Error;
  // Wrong rep: nothing fires.
  EXPECT_FALSE(P.childFaults(0, 4, 0).any());
  // Attempt 0 of rep 5: crash and sidecar fault both fire.
  ChildFaults First = P.childFaults(0, 5, 0);
  EXPECT_EQ(First.CrashAction, "segv");
  EXPECT_TRUE(First.SidecarTruncate);
  // The supervised restart (attempt 1) must be allowed to complete the rep,
  // but the sidecar fault sticks to the rep across attempts.
  ChildFaults Retry = P.childFaults(0, 5, 1);
  EXPECT_TRUE(Retry.CrashAction.empty());
  EXPECT_TRUE(Retry.SidecarTruncate);
}

TEST(FaultPlanTriggers, ChildSitesShareOneLaunchCounter) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(P.parse("child.crash@2;child.hang@3", &Error)) << Error;
  EXPECT_FALSE(P.childFaults(0, 0, 0).any());      // launch #1
  EXPECT_EQ(P.childFaults(0, 1, 0).CrashAction, "abort"); // launch #2
  EXPECT_TRUE(P.childFaults(0, 2, 0).Hang);        // launch #3
  EXPECT_FALSE(P.childFaults(0, 3, 0).any());      // launch #4
}

TEST(FaultPlanTriggers, SpawnProbabilityIsKeyedByTheLaunchNotItsOrder) {
  // A phase-2 launch's spawn verdict depends on the (cycle, rep, attempt)
  // of its first repetition, not on how many launches came before it, so
  // lanes dispatching in a different order fail the same launches. The
  // ordinal trigger still counts hits.
  auto Decisions = [](bool Reversed) {
    FaultPlan P;
    std::string Error;
    EXPECT_TRUE(P.parse("worker.spawn@p=0.5;seed=7", &Error)) << Error;
    std::vector<std::string> Out(32);
    for (int I = 0; I != 32; ++I) {
      uint64_t Rep = Reversed ? 31 - I : I;
      Out[Rep] = P.spawnHit(0, Rep, Rep % 2) ? "1" : "0";
    }
    return Out;
  };
  std::vector<std::string> Forward = Decisions(false);
  EXPECT_EQ(Forward, Decisions(true));
  EXPECT_NE(std::count(Forward.begin(), Forward.end(), "1"), 0);
  EXPECT_NE(std::count(Forward.begin(), Forward.end(), "0"), 0);

  FaultPlan Ordinal;
  std::string Error;
  ASSERT_TRUE(Ordinal.parse("worker.spawn:enomem@2", &Error)) << Error;
  EXPECT_EQ(Ordinal.spawnHit(0, 5, 0), nullptr);
  const FaultSpec *Second = Ordinal.spawnHit(0, 0, 0);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(Second->Action, "enomem");
  EXPECT_EQ(Ordinal.spawnHit(0, 0, 0), nullptr);
}

TEST(FaultPlanChaos, GeneratedPlansAreSeedDeterministicAndNeverKillTheRunner) {
  FaultPlan A = FaultPlan::chaos(123);
  FaultPlan B = FaultPlan::chaos(123);
  FaultPlan C = FaultPlan::chaos(124);
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A.describe(), B.describe());
  EXPECT_NE(A.describe(), C.describe());
  // Kill/resume loops are driven (and checked) by scripts/chaos.sh; the
  // generated plan itself must never SIGKILL the runner.
  for (const FaultSpec &S : A.specs())
    EXPECT_NE(S.Site, "runner.kill");
}

// -- The journal's integrity hash --------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckVector) {
  // The canonical CRC-32/ISO-HDLC check value — and therefore compatible
  // with Python's zlib.crc32, which scripts/chaos.sh uses to validate
  // journal integrity tags from the outside.
  const char *Check = "123456789";
  EXPECT_EQ(dlf::crc32(Check, 9), 0xCBF43926u);
  EXPECT_EQ(dlf::crc32("", 0), 0u);
}

// -- Injection at a real site ------------------------------------------------

class GlobalPlanGuard {
public:
  explicit GlobalPlanGuard(const std::string &Spec) {
    FaultPlan P;
    std::string Error;
    EXPECT_TRUE(P.parse(Spec, &Error)) << Error;
    setPlan(std::move(P));
  }
  ~GlobalPlanGuard() { setPlan(FaultPlan()); }
};

TEST(FaultInjectSites, FailErrnoMapsActionsAndCountsHits) {
  GlobalPlanGuard G("journal.open:eacces@2;journal.write@1");
  EXPECT_TRUE(enabled());
  EXPECT_EQ(failErrno("journal.open", ENOSPC), 0);      // hit #1
  EXPECT_EQ(failErrno("journal.open", ENOSPC), EACCES); // hit #2
  // No explicit action: the site's caller-supplied default errno is used.
  EXPECT_EQ(failErrno("journal.write", ENOSPC), ENOSPC);
}

TEST(FaultInjectSites, InjectedFsyncFailureSurfacesThroughTheJournalWriter) {
  GlobalPlanGuard G("journal.fsync:eio@2");
  std::string Path = ::testing::TempDir() + "dlf-faultinject-" +
                     std::to_string(getpid()) + "-journal.jsonl";
  std::remove(Path.c_str());
  campaign::JournalWriter W;
  ASSERT_TRUE(W.open(Path, /*Truncate=*/true));
  campaign::JsonValue Rec = campaign::JsonValue::object();
  Rec.set("event", "rep");
  EXPECT_TRUE(W.append(Rec));
  EXPECT_TRUE(W.sync());  // fsync hit #1: clean
  EXPECT_TRUE(W.sync());  // nothing appended since: no fsync, no hit
  EXPECT_TRUE(W.append(Rec));
  EXPECT_FALSE(W.sync()); // fsync hit #2: injected EIO
  EXPECT_NE(W.lastError().find("fsync"), std::string::npos) << W.lastError();
  EXPECT_NE(W.lastError().find("injected"), std::string::npos)
      << W.lastError();
  W.close();
  // The record whose fsync failed still reached the stream buffer-wise, but
  // the load path only trusts CRC-intact lines — both lines parse here, and
  // the first (durable) one is the header.
  campaign::JournalContents JC;
  std::string Error;
  ASSERT_TRUE(campaign::loadJournal(Path, JC, &Error)) << Error;
  std::remove(Path.c_str());
}

} // namespace

//===- tests/CampaignTest.cpp - Fault-isolated campaign runner ----------------===//
//
// Exercises the campaign layer bottom-up: the process sandbox against
// injected faults (hangs, SIGTERM-ignoring children, aborts, nonzero
// exits, an escaping std::bad_alloc), the JSON/journal round trip including
// torn final lines and CRC salvage of corrupted tails, and the
// CampaignRunner end-to-end — supervised same-seed restarts, quarantine of
// persistently-failing cycles, graceful degradation when the journal
// device fails, and the headline guarantee: a campaign interrupted
// mid-flight (or chaos-faulted) and resumed from its journal produces
// exactly the statistics of an uninterrupted, fault-free one.
//
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"
#include "campaign/Journal.h"
#include "campaign/Json.h"
#include "campaign/ProcessSandbox.h"
#include "campaign/WorkerPool.h"
#include "faultinject/FaultInject.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "support/Affinity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace dlf;
using namespace dlf::campaign;

// -- Process sandbox against injected faults ---------------------------------

TEST(ProcessSandbox, CompletedChildDeliversPayloadAndIsReaped) {
  std::vector<std::string> Frames;
  SandboxResult R = runInSandbox(
      [](int Fd) { return writeFrame(Fd, "hello sandbox\n") ? 0 : 1; }, {},
      [&](std::string Frame) { Frames.push_back(std::move(Frame)); });
  EXPECT_EQ(R.Status, SandboxStatus::Completed);
  EXPECT_EQ(Frames, std::vector<std::string>{"hello sandbox\n"});
  ASSERT_GT(R.ChildPid, 0);
  // The child must already be reaped: a second wait finds no such child
  // (a zombie would still be waitable).
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(R.ChildPid, &WaitStatus, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessSandbox, HangingChildIsKilledAndClassifiedHung) {
  SandboxLimits L;
  L.TimeoutMs = 150;
  L.GraceMs = 50;
  SandboxResult R = runInSandbox(
      [](int) {
        for (;;)
          pause();
        return 0;
      },
      L);
  EXPECT_EQ(R.Status, SandboxStatus::Hung);
  // The child had default SIGTERM disposition, so no escalation was needed.
  EXPECT_FALSE(R.TermEscalated);
  EXPECT_EQ(R.TermSignal, SIGTERM);
  EXPECT_GE(R.WallMs, 100.0);
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(R.ChildPid, &WaitStatus, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessSandbox, SigtermIgnoringChildIsEscalatedToSigkill) {
  SandboxLimits L;
  L.TimeoutMs = 100;
  L.GraceMs = 50;
  SandboxResult R = runInSandbox(
      [](int) {
        signal(SIGTERM, SIG_IGN);
        for (;;)
          pause();
        return 0;
      },
      L);
  EXPECT_EQ(R.Status, SandboxStatus::Hung);
  EXPECT_TRUE(R.TermEscalated);
  EXPECT_EQ(R.TermSignal, SIGKILL);
}

TEST(ProcessSandbox, AbortingChildIsClassifiedSignaled) {
  SandboxLimits L;
  L.CaptureStderr = true;
  SandboxResult R = runInSandbox(
      [](int) {
        fprintf(stderr, "triage breadcrumb before the crash\n");
        abort();
        return 0;
      },
      L);
  EXPECT_EQ(R.Status, SandboxStatus::Signaled);
  EXPECT_EQ(R.TermSignal, SIGABRT);
  EXPECT_NE(R.StderrTail.find("triage breadcrumb"), std::string::npos)
      << R.StderrTail;
  EXPECT_NE(R.triage().find("signal 6"), std::string::npos) << R.triage();
}

TEST(ProcessSandbox, NonzeroExitIsClassifiedExited) {
  SandboxResult R = runInSandbox([](int) { return 7; });
  EXPECT_EQ(R.Status, SandboxStatus::Exited);
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(ProcessSandbox, EscapedExceptionMapsToReservedExitCode) {
  SandboxResult R = runInSandbox(
      [](int) -> int { throw std::runtime_error("child-side failure"); });
  EXPECT_EQ(R.Status, SandboxStatus::Exited);
  EXPECT_EQ(R.ExitCode, ExceptionExitCode);
}

TEST(ProcessSandbox, OversizedPayloadNeverWedgesTheChild) {
  // The child writes far more than both the payload cap and the kernel
  // pipe buffer, first as one frame, then as bytes that are no frame at
  // all; the parent must keep draining so the child can finish.
  SandboxLimits L;
  L.MaxPayloadBytes = 1024;
  L.TimeoutMs = 5000;
  std::vector<std::string> Frames;
  SandboxResult R = runInSandbox(
      [](int Fd) {
        writeFrame(Fd, std::string(256 * 1024, 'x'));
        std::string Chunk(4096, 'y');
        for (int I = 0; I != 64; ++I)
          (void)!write(Fd, Chunk.data(), Chunk.size());
        return 0;
      },
      L, [&](std::string Frame) { Frames.push_back(std::move(Frame)); });
  EXPECT_EQ(R.Status, SandboxStatus::Completed);
  EXPECT_EQ(Frames, std::vector<std::string>{std::string(1024, 'x')});
}

/// Pumps a child to completion through SandboxProcess, collecting its
/// frames in order.
SandboxResult runFramed(const std::function<int(int)> &Fn,
                        const SandboxLimits &L,
                        std::vector<std::string> &Frames) {
  SandboxProcess P;
  P.start(Fn, L);
  while (!P.poll()) {
    std::vector<std::string> More = P.takeFrames();
    Frames.insert(Frames.end(), More.begin(), More.end());
    usleep(1000);
  }
  std::vector<std::string> More = P.takeFrames();
  Frames.insert(Frames.end(), More.begin(), More.end());
  return P.takeResult();
}

TEST(ProcessSandbox, FramedChildRestartsTheWatchdogAtEachFrame) {
  // Four units of half the timeout each: twice the timeout in all, but no
  // window between frames reaches the timeout.
  SandboxLimits L;
  L.TimeoutMs = 400;
  L.GraceMs = 50;
  std::vector<std::string> Frames;
  SandboxResult R = runFramed(
      [](int Fd) {
        for (int I = 0; I != 4; ++I) {
          usleep(200 * 1000);
          writeFrame(Fd, "unit " + std::to_string(I));
        }
        return 0;
      },
      L, Frames);
  EXPECT_EQ(R.Status, SandboxStatus::Completed) << R.triage();
  EXPECT_EQ(Frames, (std::vector<std::string>{"unit 0", "unit 1", "unit 2",
                                              "unit 3"}));

  // A unit that stalls still trips the watchdog; the frames before it
  // arrived.
  Frames.clear();
  R = runFramed(
      [](int Fd) {
        writeFrame(Fd, "done");
        for (;;)
          pause();
        return 0;
      },
      L, Frames);
  EXPECT_EQ(R.Status, SandboxStatus::Hung);
  EXPECT_EQ(Frames, std::vector<std::string>{"done"});
}

TEST(ProcessSandbox, FramedPayloadCapAppliesPerFrame) {
  // Each frame is cut at the cap on its own, and framing survives the cut:
  // the small frame after two oversized ones arrives whole.
  SandboxLimits L;
  L.MaxPayloadBytes = 1024;
  L.TimeoutMs = 5000;
  std::vector<std::string> Frames;
  SandboxResult R = runFramed(
      [](int Fd) {
        writeFrame(Fd, std::string(100 * 1024, 'x'));
        writeFrame(Fd, std::string(3000, 'y'));
        writeFrame(Fd, "tail\nline");
        return 0;
      },
      L, Frames);
  EXPECT_EQ(R.Status, SandboxStatus::Completed);
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0], std::string(1024, 'x'));
  EXPECT_EQ(Frames[1], std::string(1024, 'y'));
  EXPECT_EQ(Frames[2], "tail\nline");

  // A malformed length ends framing: nothing after it is a frame.
  Frames.clear();
  R = runFramed(
      [](int Fd) {
        writeFrame(Fd, "ok");
        const char *Junk = "12x\nnot a frame";
        (void)!write(Fd, Junk, std::strlen(Junk));
        writeFrame(Fd, "lost");
        return 0;
      },
      L, Frames);
  EXPECT_EQ(R.Status, SandboxStatus::Completed);
  EXPECT_EQ(Frames, std::vector<std::string>{"ok"});
}

TEST(ProcessSandbox, ThrownBadAllocIsClassifiedOutOfMemory) {
  // The child wrapper maps an escaping std::bad_alloc to the reserved exit
  // code, which the parent classifies apart from other failures.
  SandboxResult R = runInSandbox([](int) -> int { throw std::bad_alloc(); });
  EXPECT_EQ(R.Status, SandboxStatus::OutOfMemory);
  EXPECT_EQ(R.ExitCode, OomExitCode);
}

// -- JSON and journal --------------------------------------------------------

TEST(CampaignJson, RoundTripsNestedValuesDeterministically) {
  JsonValue Rec = JsonValue::object();
  Rec.set("name", "quote\"and\nnewline");
  Rec.set("count", static_cast<uint64_t>(42));
  Rec.set("ok", true);
  JsonValue Arr = JsonValue::array();
  Arr.push(static_cast<uint64_t>(1));
  Arr.push("two");
  Rec.set("items", std::move(Arr));

  std::string Doc = Rec.dump();
  JsonValue Back;
  ASSERT_TRUE(parseJson(Doc, Back));
  EXPECT_EQ(Back.dump(), Doc);
  EXPECT_EQ(Back["name"].asString(), "quote\"and\nnewline");
  EXPECT_EQ(Back["count"].asUInt(), 42u);
  EXPECT_TRUE(Back["ok"].asBool());
  ASSERT_EQ(Back["items"].items().size(), 2u);
  EXPECT_EQ(Back["items"].items()[1].asString(), "two");

  // Keys render sorted, so fingerprint comparison via dump() is stable no
  // matter the insertion order.
  JsonValue A = JsonValue::object();
  A.set("b", 1);
  A.set("a", 2);
  EXPECT_EQ(A.dump(), "{\"a\":2,\"b\":1}");
}

TEST(CampaignJson, RejectsMalformedDocuments) {
  JsonValue V;
  EXPECT_FALSE(parseJson("{", V));
  EXPECT_FALSE(parseJson("{} trailing", V));
  EXPECT_FALSE(parseJson("", V));
  ASSERT_TRUE(parseJson("{\"u\":\"\\u0041\"}", V));
  EXPECT_EQ(V["u"].asString(), "A");
}

class TempFile {
public:
  explicit TempFile(const char *Suffix) {
    Path = ::testing::TempDir() + "dlf-campaign-" +
           std::to_string(getpid()) + "-" + Suffix;
    std::remove(Path.c_str());
  }
  ~TempFile() {
    std::remove(Path.c_str());
    // Artifacts the self-healing paths may leave next to the journal.
    std::remove((Path + ".broken").c_str());
    std::remove((Path + ".corrupt").c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// countsKey() minus the retries field: injected transient faults converge
/// to the fault-free classification counts, but the restarts they forced
/// are (correctly) recorded as retries spent.
std::string classificationKey(const std::string &CountsKey) {
  std::string Out = CountsKey;
  size_t B = Out.find(" retries=");
  if (B == std::string::npos)
    return Out;
  size_t E = Out.find(' ', B + 1);
  Out.erase(B, E == std::string::npos ? std::string::npos : E - B);
  return Out;
}

/// Installs a fault plan for the duration of one test and guarantees the
/// process-global plan is cleared afterwards (gtest shares the process).
class PlanGuard {
public:
  explicit PlanGuard(const std::string &Spec) {
    faultinject::FaultPlan P;
    std::string Error;
    EXPECT_TRUE(P.parse(Spec, &Error)) << Error;
    faultinject::setPlan(std::move(P));
  }
  explicit PlanGuard(faultinject::FaultPlan P) {
    faultinject::setPlan(std::move(P));
  }
  ~PlanGuard() { faultinject::setPlan(faultinject::FaultPlan()); }
};

TEST(CampaignJournal, RoundTripsAndDropsTornFinalLine) {
  TempFile File("journal.jsonl");
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(File.path(), /*Truncate=*/true));
    JsonValue Header = JsonValue::object();
    Header.set("v", 1);
    ASSERT_TRUE(W.append(Header));
    JsonValue Rec = JsonValue::object();
    Rec.set("event", "rep");
    ASSERT_TRUE(W.append(Rec));
  }
  // Simulate dying mid-append: a torn, unterminated final line.
  {
    std::FILE *F = std::fopen(File.path().c_str(), "a");
    ASSERT_NE(F, nullptr);
    std::fputs("{\"event\":\"re", F);
    std::fclose(F);
  }
  JournalContents JC;
  std::string Error;
  ASSERT_TRUE(loadJournal(File.path(), JC, &Error)) << Error;
  EXPECT_EQ(JC.Header["v"].asUInt(), 1u);
  ASSERT_EQ(JC.Records.size(), 1u);
  EXPECT_EQ(JC.Records[0]["event"].asString(), "rep");
}

// -- Campaign end-to-end -----------------------------------------------------

/// ABBA with a stagger (the paper's Figure 1 shape): deadlock-prone by
/// construction, rarely deadlocks under unbiased schedules.
void abbaProgram() {
  Mutex A("ca", DLF_SITE());
  Mutex B("cb", DLF_SITE());
  Thread T1([&] {
    for (int I = 0; I != 4; ++I)
      yieldNow();
    MutexGuard First(A, DLF_NAMED_SITE("camp:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("camp:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("camp:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("camp:t2a"));
  });
  T1.join();
  T2.join();
}

CampaignConfig baseConfig(const std::string &JournalPath) {
  CampaignConfig CC;
  CC.BenchmarkName = "campaign-test-abba";
  CC.Entry = abbaProgram;
  CC.Tester.PhaseTwoReps = 4;
  CC.BackoffBaseMs = 1;
  CC.JournalPath = JournalPath;
  return CC;
}

TEST(Campaign, HealthyWorkloadCompletesAndReproduces) {
  TempFile File("healthy.jsonl");
  CampaignRunner Runner(baseConfig(File.path()));
  CampaignReport R = Runner.run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  EXPECT_TRUE(R.PhaseOneCompleted);
  ASSERT_EQ(R.PerCycle.size(), 1u);
  EXPECT_EQ(R.PerCycle[0].Reps, 4u);
  EXPECT_EQ(R.PerCycle[0].Reproduced, 4u)
      << R.toString("campaign-test", File.path());
  EXPECT_EQ(R.RepsExecuted, 4u);
  EXPECT_EQ(R.RepsReplayed, 0u);
}

TEST(Campaign, EachChildRunsOnItsLaneCpu) {
  // Lane k's child is narrowed to the k-th CPU of the runner's allowed set
  // before the repetition runs. A serial campaign has one lane, so its
  // children sit on the first allowed CPU; a parallel one may use any
  // allowed CPU, but each child only one. A misplaced child exits 9
  // (CrashedExit: retries are off).
  const std::vector<int> Allowed = allowedCpus();
  ASSERT_FALSE(Allowed.empty());
  for (unsigned Jobs : {1u, 3u}) {
    TempFile File(Jobs == 1 ? "lanes-1.jsonl" : "lanes-3.jsonl");
    CampaignConfig CC = baseConfig(File.path());
    CC.Jobs = Jobs;
    CC.MaxRetries = 0;
    CC.ChildFaultHook = [Allowed, Jobs](unsigned, unsigned, unsigned) {
      std::vector<int> Mine = allowedCpus();
      bool Placed = Jobs == 1 ? Mine == std::vector<int>{Allowed[0]}
                              : Mine.size() == 1 &&
                                    std::find(Allowed.begin(), Allowed.end(),
                                              Mine[0]) != Allowed.end();
      if (!Placed)
        _exit(9);
    };
    CampaignReport R = CampaignRunner(std::move(CC)).run();
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    ASSERT_EQ(R.PerCycle.size(), 1u);
    EXPECT_EQ(R.PerCycle[0].CrashedExit, 0u)
        << "--jobs " << Jobs << ": " << R.toString("campaign-test", "");
    EXPECT_EQ(R.PerCycle[0].Reproduced, 4u);
  }
  EXPECT_EQ(allowedCpus(), Allowed) << "the runner itself stays unpinned";
}

TEST(Campaign, TransientCrashIsRestartedWithTheSameSeed) {
  TempFile File("retry.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.MaxRetries = 2;
  // Every repetition's first attempt crashes; the supervised restart reruns
  // the repetition with the same seed, so the final classification is the
  // fault-free one (asserted below: all four repetitions reproduce).
  CC.ChildFaultHook = [](unsigned, unsigned, unsigned Attempt) {
    if (Attempt == 0)
      abort();
  };
  CampaignRunner Runner(std::move(CC));
  CampaignReport R = Runner.run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  ASSERT_EQ(R.PerCycle.size(), 1u);
  const CycleCampaignStats &S = R.PerCycle[0];
  EXPECT_EQ(S.Reproduced, 4u) << R.toString("campaign-test", "");
  EXPECT_EQ(S.RetriesSpent, 4u);
  // Final classifications carry no trace of the retried crashes.
  EXPECT_EQ(S.CrashedSignal, 0u);
  EXPECT_FALSE(S.Quarantined);
}

TEST(Campaign, PersistentHangQuarantinesTheCycleNotTheCampaign) {
  TempFile File("quarantine.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.RunTimeoutMs = 100;
  CC.GraceMs = 40;
  CC.MaxRetries = 0;
  CC.QuarantineThreshold = 2;
  CC.ChildFaultHook = [](unsigned, unsigned, unsigned) {
    for (;;)
      pause();
  };
  CampaignRunner Runner(std::move(CC));
  CampaignReport R = Runner.run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  // The campaign still runs to completion; the broken cycle is set aside
  // with a diagnostic instead of aborting everything.
  EXPECT_TRUE(R.CampaignComplete);
  ASSERT_EQ(R.PerCycle.size(), 1u);
  const CycleCampaignStats &S = R.PerCycle[0];
  EXPECT_TRUE(S.Quarantined);
  EXPECT_EQ(S.Hung, 2u) << R.toString("campaign-test", "");
  EXPECT_EQ(S.Reps, 2u);
  EXPECT_NE(S.QuarantineReason.find("consecutive failed"), std::string::npos)
      << S.QuarantineReason;
}

TEST(Campaign, ResumeAfterInterruptMatchesUninterruptedStatistics) {
  TempFile Interrupted("interrupted.jsonl");
  TempFile Control("control.jsonl");

  // Interrupt after three fresh repetitions, mid-campaign.
  CampaignConfig CC = baseConfig(Interrupted.path());
  auto Checks = std::make_shared<int>(0);
  CC.ShouldStop = [Checks] { return ++*Checks > 3; };
  CampaignReport Partial = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
  EXPECT_TRUE(Partial.Interrupted);
  EXPECT_FALSE(Partial.CampaignComplete);
  EXPECT_EQ(Partial.RepsExecuted, 3u);

  // Resume from the journal with a fresh runner (as a new process would).
  CampaignReport Resumed =
      CampaignRunner(baseConfig(Interrupted.path())).run(/*Resume=*/true);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_TRUE(Resumed.CampaignComplete);
  EXPECT_EQ(Resumed.RepsReplayed, 3u);
  EXPECT_EQ(Resumed.RepsExecuted, 1u);

  // Control: the same campaign, never interrupted.
  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Resumed.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(Resumed.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey())
        << "cycle #" << I;

  // A completed journal replays entirely: zero fresh executions.
  CampaignReport Replayed =
      CampaignRunner(baseConfig(Interrupted.path())).run(/*Resume=*/true);
  ASSERT_TRUE(Replayed.Error.empty()) << Replayed.Error;
  EXPECT_EQ(Replayed.RepsExecuted, 0u);
  EXPECT_EQ(Replayed.RepsReplayed, 4u);
}

// -- Worker pool -------------------------------------------------------------

TEST(WorkerPool, RunsChildrenConcurrentlyAndReportsPeak) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  SandboxLimits L;
  L.TimeoutMs = 10'000;
  for (int I = 0; I != 4; ++I)
    Pool.launch(
        [](int) {
          usleep(100 * 1000);
          return 0;
        },
        L);
  EXPECT_EQ(Pool.inFlight(), 4u);
  std::vector<PoolCompletion> Done;
  while (Pool.inFlight() != 0)
    for (PoolCompletion &PC : Pool.poll(/*WaitMs=*/2))
      Done.push_back(std::move(PC));
  ASSERT_EQ(Done.size(), 4u);
  EXPECT_EQ(Pool.peakConcurrency(), 4u);
  EXPECT_EQ(Pool.inFlight(), 0u);
  for (const PoolCompletion &PC : Done)
    EXPECT_EQ(PC.Result.Status, SandboxStatus::Completed);
}

TEST(WorkerPool, CancelKillsAndReapsTheChildImmediately) {
  WorkerPool Pool(2);
  SandboxLimits L;
  L.TimeoutMs = 60'000; // the cancel, not the watchdog, must end the child
  uint64_t Ticket = Pool.launch(
      [](int) {
        for (;;)
          pause();
        return 0;
      },
      L);
  EXPECT_EQ(Pool.inFlight(), 1u);
  Pool.cancel(Ticket);
  EXPECT_EQ(Pool.inFlight(), 0u);
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(-1, &WaitStatus, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// -- Parallel campaigns ------------------------------------------------------

/// Two disjoint ABBA pairs across four threads: phase 1 reports two
/// independent cycles, so parallel sharding crosses cycle boundaries.
void doubleAbbaProgram() {
  Mutex A("p2a", DLF_SITE());
  Mutex B("p2b", DLF_SITE());
  Mutex C("p2c", DLF_SITE());
  Mutex D("p2d", DLF_SITE());
  Thread T1([&] {
    for (int I = 0; I != 4; ++I)
      yieldNow();
    MutexGuard First(A, DLF_NAMED_SITE("par:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("par:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("par:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("par:t2a"));
  });
  Thread T3([&] {
    for (int I = 0; I != 4; ++I)
      yieldNow();
    MutexGuard First(C, DLF_NAMED_SITE("par:t3c"));
    MutexGuard Second(D, DLF_NAMED_SITE("par:t3d"));
  });
  Thread T4([&] {
    MutexGuard First(D, DLF_NAMED_SITE("par:t4d"));
    MutexGuard Second(C, DLF_NAMED_SITE("par:t4c"));
  });
  T1.join();
  T2.join();
  T3.join();
  T4.join();
}

CampaignConfig doubleConfig(const std::string &JournalPath) {
  CampaignConfig CC;
  CC.BenchmarkName = "campaign-test-double-abba";
  CC.Entry = doubleAbbaProgram;
  CC.Tester.PhaseTwoReps = 4;
  CC.BackoffBaseMs = 1;
  CC.JournalPath = JournalPath;
  return CC;
}

/// The deterministic identity of every journaled repetition, in journal
/// order: the parallel campaign must write record-for-record what the
/// serial campaign writes.
std::vector<std::string> journaledRepKeys(const std::string &Path) {
  JournalContents JC;
  std::string Error;
  EXPECT_TRUE(loadJournal(Path, JC, &Error)) << Error;
  std::vector<std::string> Keys;
  for (const JsonValue &R : JC.Records)
    if (R["event"].asString() == "rep")
      Keys.push_back(std::to_string(R["cycle"].asUInt()) + "/" +
                     std::to_string(R["rep"].asUInt()) + " seed=" +
                     std::to_string(R["seed"].asUInt()) + " class=" +
                     R["class"].asString() + " attempts=" +
                     std::to_string(R["attempts"].asUInt()));
  return Keys;
}

TEST(Campaign, ParallelCountsAndJournalMatchSerialExactly) {
  TempFile SerialJ("eq-serial.jsonl");
  TempFile ParallelJ("eq-parallel.jsonl");

  CampaignReport Serial = CampaignRunner(doubleConfig(SerialJ.path())).run();
  ASSERT_TRUE(Serial.Error.empty()) << Serial.Error;
  ASSERT_TRUE(Serial.CampaignComplete);
  ASSERT_GE(Serial.PerCycle.size(), 2u);

  CampaignConfig PC = doubleConfig(ParallelJ.path());
  PC.Jobs = 4;
  CampaignReport Parallel = CampaignRunner(std::move(PC)).run();
  ASSERT_TRUE(Parallel.Error.empty()) << Parallel.Error;
  ASSERT_TRUE(Parallel.CampaignComplete);
  EXPECT_EQ(Parallel.JobsUsed, 4u);

  ASSERT_EQ(Serial.PerCycle.size(), Parallel.PerCycle.size());
  for (size_t I = 0; I != Serial.PerCycle.size(); ++I)
    EXPECT_EQ(Serial.PerCycle[I].countsKey(), Parallel.PerCycle[I].countsKey())
        << "cycle #" << I;
  EXPECT_EQ(journaledRepKeys(SerialJ.path()),
            journaledRepKeys(ParallelJ.path()));
}

TEST(Campaign, JournalsResumeAcrossSerialAndParallelModes) {
  TempFile Control("cross-control.jsonl");
  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;

  // Serial campaign interrupted, resumed in parallel.
  {
    TempFile J("cross-s2p.jsonl");
    CampaignConfig CC = baseConfig(J.path());
    auto Checks = std::make_shared<int>(0);
    CC.ShouldStop = [Checks] { return ++*Checks > 2; };
    CampaignReport Partial = CampaignRunner(std::move(CC)).run();
    ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
    ASSERT_TRUE(Partial.Interrupted);

    CampaignConfig RC = baseConfig(J.path());
    RC.Jobs = 4; // deliberately not in the fingerprint
    CampaignReport Resumed = CampaignRunner(std::move(RC)).run(true);
    ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
    EXPECT_TRUE(Resumed.CampaignComplete);
    EXPECT_EQ(Resumed.RepsReplayed, 2u);
    ASSERT_EQ(Resumed.PerCycle.size(), Full.PerCycle.size());
    for (size_t I = 0; I != Full.PerCycle.size(); ++I)
      EXPECT_EQ(Resumed.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey());
  }

  // Parallel campaign interrupted, resumed serially.
  {
    TempFile J("cross-p2s.jsonl");
    CampaignConfig CC = baseConfig(J.path());
    CC.Jobs = 4;
    auto Checks = std::make_shared<int>(0);
    CC.ShouldStop = [Checks] { return ++*Checks > 2; };
    CampaignReport Partial = CampaignRunner(std::move(CC)).run();
    ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
    ASSERT_TRUE(Partial.Interrupted);
    EXPECT_LT(Partial.RepsExecuted, 4u);

    CampaignReport Resumed = CampaignRunner(baseConfig(J.path())).run(true);
    ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
    EXPECT_TRUE(Resumed.CampaignComplete);
    ASSERT_EQ(Resumed.PerCycle.size(), Full.PerCycle.size());
    for (size_t I = 0; I != Full.PerCycle.size(); ++I)
      EXPECT_EQ(Resumed.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey());
  }
}

TEST(Campaign, ParallelRetryMatchesSerialSemantics) {
  TempFile File("par-retry.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.Jobs = 4;
  CC.MaxRetries = 2;
  CC.ChildFaultHook = [](unsigned, unsigned, unsigned Attempt) {
    if (Attempt == 0)
      abort();
  };
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  ASSERT_EQ(R.PerCycle.size(), 1u);
  const CycleCampaignStats &S = R.PerCycle[0];
  EXPECT_EQ(S.Reproduced, 4u) << R.toString("campaign-test", "");
  EXPECT_EQ(S.RetriesSpent, 4u);
  EXPECT_EQ(S.CrashedSignal, 0u);
}

TEST(Campaign, ParallelQuarantineJournalsNothingPastTheThreshold) {
  TempFile File("par-quarantine.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.Jobs = 4;
  CC.RunTimeoutMs = 100;
  CC.GraceMs = 40;
  CC.MaxRetries = 0;
  CC.QuarantineThreshold = 2;
  CC.ChildFaultHook = [](unsigned, unsigned, unsigned) {
    for (;;)
      pause();
  };
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  ASSERT_EQ(R.PerCycle.size(), 1u);
  const CycleCampaignStats &S = R.PerCycle[0];
  EXPECT_TRUE(S.Quarantined);
  EXPECT_EQ(S.Hung, 2u) << R.toString("campaign-test", "");
  EXPECT_EQ(S.Reps, 2u);
  // Speculative repetitions past the quarantine point were in flight but
  // must never be journaled: the record set matches the serial campaign.
  EXPECT_EQ(journaledRepKeys(File.path()).size(), 2u);
}

TEST(Campaign, SigintDrainsInFlightChildrenWithoutZombies) {
  TempFile J("sigint.jsonl");
  TempFile Control("sigint-control.jsonl");

  CampaignConfig CC = baseConfig(J.path());
  CC.Jobs = 4;
  auto Checks = std::make_shared<int>(0);
  CC.ShouldStop = [Checks] {
    if (++*Checks == 2)
      raise(SIGINT); // arrives mid-dispatch with children in flight
    return false;
  };
  CampaignRunner::installSigintHandler();
  CampaignReport Partial = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
  EXPECT_TRUE(Partial.Interrupted);
  EXPECT_FALSE(Partial.CampaignComplete);
  // The drain reaped every child: no zombies left behind.
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(-1, &WaitStatus, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);

  // The journal is a clean prefix; resuming completes the campaign with
  // the uninterrupted statistics.
  CampaignReport Resumed = CampaignRunner(baseConfig(J.path())).run(true);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_TRUE(Resumed.CampaignComplete);
  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Resumed.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(Resumed.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey());
}

// -- Batched children ---------------------------------------------------------
//
// A lane's child runs a batch of up to ceil(reps / jobs) consecutive fresh
// repetitions of one cycle and reports each on its own frame. A failure
// costs only the repetition with no frame yet.

/// Appends one "cycle/rep/attempt" line per child-side run to \p Path: a
/// side channel that survives the child (O_APPEND keeps lines whole).
void logChildRun(const std::string &Path, unsigned Cycle, unsigned Rep,
                 unsigned Attempt) {
  std::string Line = std::to_string(Cycle) + "/" + std::to_string(Rep) +
                     "/" + std::to_string(Attempt) + "\n";
  int Fd = open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0600);
  if (Fd >= 0) {
    (void)!write(Fd, Line.data(), Line.size());
    close(Fd);
  }
}

/// The lines logChildRun wrote, sorted.
std::vector<std::string> childRuns(const std::string &Path) {
  std::vector<std::string> Lines;
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return Lines;
  char Buf[64];
  while (std::fgets(Buf, sizeof(Buf), F)) {
    std::string L(Buf);
    if (!L.empty() && L.back() == '\n')
      L.pop_back();
    Lines.push_back(L);
  }
  std::fclose(F);
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

/// Every journal record in order, with the per-run timing fields dropped.
std::vector<std::string> journalWithoutTiming(const std::string &Path) {
  JournalContents JC;
  std::string Error;
  EXPECT_TRUE(loadJournal(Path, JC, &Error)) << Error;
  std::vector<std::string> Out;
  for (JsonValue R : JC.Records) {
    if (R["event"].asString() == "rep") {
      R.set("wall_ms", 0);
      R.set("cpu_ms", 0);
    }
    Out.push_back(R.dump());
  }
  return Out;
}

TEST(CampaignBatch, CrashMidBatchRerunsOnlyTheUnframedRep) {
  TempFile J("batch-crash.jsonl");
  TempFile Control("batch-crash-control.jsonl");
  TempFile Runs("batch-crash.runs");
  CampaignConfig CC = baseConfig(J.path());
  CC.MaxRetries = 2;
  const std::string RunLog = Runs.path();
  CC.ChildFaultHook = [RunLog](unsigned C, unsigned R, unsigned Attempt) {
    logChildRun(RunLog, C, R, Attempt);
    if (R == 2 && Attempt == 0)
      abort();
  };
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_TRUE(R.CampaignComplete);
  // Reps 0 and 1 committed from the first child and never ran again; rep
  // 2 ran once more with its seed; rep 3 ran once, in a fresh child.
  EXPECT_EQ(childRuns(RunLog),
            (std::vector<std::string>{"0/0/0", "0/1/0", "0/2/0", "0/2/1",
                                      "0/3/0"}));
  EXPECT_EQ(R.RepsExecuted, 4u);
  EXPECT_EQ(R.PhaseTwoChildren, 3u);

  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(R.PerCycle.size(), Full.PerCycle.size());
  EXPECT_EQ(Full.PhaseTwoChildren, 1u) << "one batch for the whole cycle";
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(classificationKey(R.PerCycle[I].countsKey()),
              classificationKey(Full.PerCycle[I].countsKey()));
  EXPECT_EQ(R.PerCycle[0].RetriesSpent, 1u);

  // The journals agree record for record, but for rep 2's attempts.
  std::vector<std::string> Faulted = journalWithoutTiming(J.path());
  std::vector<std::string> Clean = journalWithoutTiming(Control.path());
  ASSERT_EQ(Faulted.size(), Clean.size());
  unsigned Differing = 0;
  for (size_t I = 0; I != Clean.size(); ++I) {
    if (Faulted[I] == Clean[I])
      continue;
    ++Differing;
    JsonValue F, C;
    ASSERT_TRUE(parseJson(Faulted[I], F));
    ASSERT_TRUE(parseJson(Clean[I], C));
    EXPECT_EQ(F["rep"].asUInt(), 2u) << Faulted[I];
    EXPECT_EQ(F["attempts"].asUInt(), 2u);
    EXPECT_EQ(C["attempts"].asUInt(), 1u);
    F.set("attempts", 1);
    EXPECT_EQ(F.dump(), C.dump());
  }
  EXPECT_EQ(Differing, 1u);
}

TEST(CampaignBatch, WatchdogBoundsEachRepNotTheBatch) {
  // Four reps of 0.6 x the timeout each: the batch runs 2.4 timeouts, but
  // the watchdog restarts at every frame, so no rep is hung.
  TempFile J("batch-watchdog.jsonl");
  CampaignConfig CC = baseConfig(J.path());
  CC.RunTimeoutMs = 500;
  CC.GraceMs = 50;
  CC.MaxRetries = 0;
  CC.ChildFaultHook = [](unsigned, unsigned, unsigned) { usleep(300 * 1000); };
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  ASSERT_EQ(R.PerCycle.size(), 1u);
  EXPECT_EQ(R.PerCycle[0].Hung, 0u) << R.toString("campaign-test", "");
  EXPECT_EQ(R.PerCycle[0].Reps, 4u);
  EXPECT_EQ(R.PerCycle[0].Reproduced, 4u);
  EXPECT_EQ(R.PhaseTwoChildren, 1u);
}

TEST(CampaignBatch, QuarantineMidBatchJournalsNothingPastTheThreshold) {
  // Six reps; reps 1 and 2 crash and reach the threshold in what began as
  // one batch. At --jobs 3 the batch holding reps 4 and 5 is still running
  // (rep 4 is slow) when the quarantine lands, and is killed.
  for (unsigned Jobs : {1u, 3u}) {
    TempFile J(Jobs == 1 ? "batch-quarantine-1.jsonl"
                         : "batch-quarantine-3.jsonl");
    CampaignConfig CC = baseConfig(J.path());
    CC.Tester.PhaseTwoReps = 6;
    CC.Jobs = Jobs;
    CC.MaxRetries = 0;
    CC.QuarantineThreshold = 2;
    CC.ChildFaultHook = [](unsigned, unsigned R, unsigned) {
      if (R == 1 || R == 2)
        abort();
      if (R == 4)
        usleep(300 * 1000);
    };
    CampaignReport R = CampaignRunner(std::move(CC)).run();
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_TRUE(R.CampaignComplete);
    ASSERT_EQ(R.PerCycle.size(), 1u);
    const CycleCampaignStats &S = R.PerCycle[0];
    EXPECT_TRUE(S.Quarantined) << "--jobs " << Jobs;
    EXPECT_EQ(S.Reps, 3u) << R.toString("campaign-test", "");
    EXPECT_EQ(S.CrashedSignal, 2u);
    std::vector<std::string> Keys = journaledRepKeys(J.path());
    ASSERT_EQ(Keys.size(), 3u) << "--jobs " << Jobs;
    EXPECT_EQ(Keys[2].rfind("0/2 ", 0), 0u) << Keys[2];
    int WaitStatus = 0;
    EXPECT_EQ(waitpid(-1, &WaitStatus, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(CampaignBatch, StopMidBatchThenResumeMatchesUninterruptedCounts) {
  TempFile J("batch-stop.jsonl");
  TempFile Control("batch-stop-control.jsonl");
  // The gate admits the batch's first rep at dispatch and each later rep
  // at the frame before it: the third check comes at rep 1's frame and
  // ends the lane with rep 2 running.
  CampaignConfig CC = baseConfig(J.path());
  auto Checks = std::make_shared<int>(0);
  CC.ShouldStop = [Checks] { return ++*Checks > 2; };
  CampaignReport Partial = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
  EXPECT_TRUE(Partial.Interrupted);
  EXPECT_EQ(Partial.RepsExecuted, 2u);
  EXPECT_EQ(Partial.PhaseTwoChildren, 1u);
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(-1, &WaitStatus, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);

  CampaignReport Resumed = CampaignRunner(baseConfig(J.path())).run(true);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_TRUE(Resumed.CampaignComplete);
  EXPECT_EQ(Resumed.RepsReplayed, 2u);
  EXPECT_EQ(Resumed.RepsExecuted, 2u);
  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Resumed.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(Resumed.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey());
  EXPECT_EQ(journaledRepKeys(J.path()), journaledRepKeys(Control.path()));
}

// -- Journal durability ------------------------------------------------------

TEST(CampaignJournal, AppendFailureIsReportedNotIgnored) {
  if (access("/dev/full", W_OK) != 0)
    GTEST_SKIP() << "/dev/full not available";
  JournalWriter W;
  ASSERT_TRUE(W.open("/dev/full", /*Truncate=*/true));
  JsonValue Rec = JsonValue::object();
  Rec.set("event", "rep");
  EXPECT_FALSE(W.append(Rec));
  EXPECT_FALSE(W.lastError().empty());
}

TEST(Campaign, JournalWriteFailureDegradesToInMemory) {
  // A dead journal device must not kill the campaign: results are computed
  // in-memory, the report is flagged non-resumable, and the unusable
  // journal is set aside as `.broken`.
  TempFile J("degraded.jsonl");
  TempFile Control("degraded-control.jsonl");
  CampaignReport Degraded = [&] {
    PlanGuard G("journal.fsync:enospc@always");
    return CampaignRunner(baseConfig(J.path())).run();
  }();
  ASSERT_TRUE(Degraded.Error.empty()) << Degraded.Error;
  EXPECT_TRUE(Degraded.CampaignComplete);
  EXPECT_TRUE(Degraded.JournalDegraded);
  EXPECT_NE(Degraded.JournalError.find("fsync"), std::string::npos)
      << Degraded.JournalError;
  EXPECT_NE(Degraded.toString("campaign-test", J.path())
                .find("journal degraded"),
            std::string::npos);
  // The journal was renamed out of the way so a later --resume cannot pick
  // up a known-incomplete record stream.
  EXPECT_EQ(access((J.path() + ".broken").c_str(), F_OK), 0);
  EXPECT_NE(access(J.path().c_str(), F_OK), 0);

  // Degradation is invisible to the statistics: counts match a campaign
  // whose journal worked.
  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Degraded.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(Degraded.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey());
}

TEST(Campaign, InjectedSpawnFailureIsRestartedAndConverges) {
  TempFile J("spawn.jsonl");
  TempFile Control("spawn-control.jsonl");
  CampaignReport Faulted = [&] {
    PlanGuard G("worker.spawn:eagain@1;worker.spawn:eagain@3");
    CampaignConfig CC = baseConfig(J.path());
    CC.MaxRetries = 2;
    return CampaignRunner(std::move(CC)).run();
  }();
  ASSERT_TRUE(Faulted.Error.empty()) << Faulted.Error;
  EXPECT_TRUE(Faulted.CampaignComplete);

  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Faulted.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(classificationKey(Faulted.PerCycle[I].countsKey()),
              classificationKey(Full.PerCycle[I].countsKey()));
}

TEST(Campaign, ResumeAfterMidFileCorruptionSalvagesThePrefix) {
  TempFile J("corrupt.jsonl");
  TempFile Control("corrupt-control.jsonl");

  // Interrupt after three repetitions so the journal holds a header plus
  // several rep records.
  CampaignConfig CC = baseConfig(J.path());
  auto Checks = std::make_shared<int>(0);
  CC.ShouldStop = [Checks] { return ++*Checks > 3; };
  CampaignReport Partial = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
  EXPECT_EQ(Partial.RepsExecuted, 3u);

  // Corrupt one byte in the middle of the fourth line — the second rep
  // record (after the header and phase-1 records): its CRC no longer
  // matches, so salvage must keep everything before it and quarantine it
  // and everything after (the third rep and the `interrupted` marker).
  std::string Text;
  {
    std::FILE *F = std::fopen(J.path().c_str(), "rb");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, N);
    std::fclose(F);
  }
  std::vector<size_t> LineStarts = {0};
  for (size_t I = 0; I + 1 < Text.size(); ++I)
    if (Text[I] == '\n')
      LineStarts.push_back(I + 1);
  ASSERT_GE(LineStarts.size(), 6u) << Text;
  size_t Victim = LineStarts[3] + 8; // inside the fourth line's JSON
  Text[Victim] = Text[Victim] == '#' ? '%' : '#';
  {
    std::FILE *F = std::fopen(J.path().c_str(), "wb");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fwrite(Text.data(), 1, Text.size(), F), Text.size());
    std::fclose(F);
  }

  // Resume: the salvaged prefix (header + one rep) replays, the dropped
  // repetitions re-execute with their original seeds, and the final
  // statistics match an uninterrupted fault-free campaign.
  CampaignReport Resumed = CampaignRunner(baseConfig(J.path())).run(true);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_TRUE(Resumed.CampaignComplete);
  EXPECT_EQ(Resumed.JournalTailDropped, 3u);
  EXPECT_EQ(Resumed.RepsReplayed, 1u);
  EXPECT_EQ(Resumed.RepsExecuted, 3u);
  // The corrupt tail is preserved for forensics, not silently discarded.
  EXPECT_EQ(access((J.path() + ".corrupt").c_str(), F_OK), 0);

  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_EQ(Resumed.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(Resumed.PerCycle[I].countsKey(), Full.PerCycle[I].countsKey());

  // The truncated journal is a clean prefix again: a further resume replays
  // everything without re-executing.
  CampaignReport Replayed = CampaignRunner(baseConfig(J.path())).run(true);
  ASSERT_TRUE(Replayed.Error.empty()) << Replayed.Error;
  EXPECT_EQ(Replayed.RepsExecuted, 0u);
  EXPECT_EQ(Replayed.RepsReplayed, 4u);
}

TEST(Campaign, ChaosPlanConvergesToFaultFreeCounts) {
  // A generated chaos plan injects only transient faults (child crashes and
  // hangs, spawn failures, sidecar loss, at most a one-shot journal error);
  // supervised same-seed restarts must converge every repetition to its
  // fault-free classification.
  TempFile Control("chaos-control.jsonl");
  CampaignReport Full = CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;

  TempFile J("chaos.jsonl");
  CampaignReport R = [&] {
    PlanGuard G(faultinject::FaultPlan::chaos(/*Seed=*/7));
    CampaignConfig CC = baseConfig(J.path());
    CC.MaxRetries = 5;
    CC.RunTimeoutMs = 2000; // injected hangs trip the watchdog quickly
    CC.GraceMs = 100;
    return CampaignRunner(std::move(CC)).run();
  }();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  ASSERT_EQ(R.PerCycle.size(), Full.PerCycle.size());
  for (size_t I = 0; I != Full.PerCycle.size(); ++I)
    EXPECT_EQ(classificationKey(R.PerCycle[I].countsKey()),
              classificationKey(Full.PerCycle[I].countsKey()))
        << R.toString("campaign-test", "");
}

TEST(Campaign, ResumeRejectsAMismatchedConfiguration) {
  TempFile File("mismatch.jsonl");
  CampaignReport First = CampaignRunner(baseConfig(File.path())).run();
  ASSERT_TRUE(First.Error.empty()) << First.Error;

  CampaignConfig Changed = baseConfig(File.path());
  Changed.Tester.PhaseTwoReps = 9; // part of the journal fingerprint
  CampaignReport R = CampaignRunner(std::move(Changed)).run(/*Resume=*/true);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_NE(R.Error.find("does not match"), std::string::npos) << R.Error;
}

// -- Phase 1 engines ----------------------------------------------------------

/// Gate-protected inversion: the cycle exists but a common guard lock makes
/// it unrealizable (both engines must discharge it).
void gateProgram() {
  Mutex G("cg", DLF_SITE());
  Mutex A("ca", DLF_SITE());
  Mutex B("cb", DLF_SITE());
  Thread T1([&] {
    MutexGuard Gate(G, DLF_NAMED_SITE("camp:t1g"));
    MutexGuard First(A, DLF_NAMED_SITE("camp:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("camp:t1b"));
  });
  Thread T2([&] {
    MutexGuard Gate(G, DLF_NAMED_SITE("camp:t2g"));
    MutexGuard First(B, DLF_NAMED_SITE("camp:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("camp:t2a"));
  });
  T1.join();
  T2.join();
}

/// The gate-protected inversion followed by a long single-thread tail:
/// under a small MaxSteps every execution is cut by the step net after
/// the inversion, which Phase I has already observed by then.
void gateThenTailProgram() {
  gateProgram();
  Mutex Tail("ct", DLF_SITE());
  for (int I = 0; I != 64; ++I)
    MutexGuard Hold(Tail, DLF_NAMED_SITE("camp:tail"));
}

TEST(CampaignPhase1, StepCappedRunsClassifyAlikeInProcessAndInCampaign) {
  // One repetition classifier: a run the MaxSteps net cut is a stall both
  // for ActiveTester::fuzzCycle (plain dlf-run) and for a campaign child.
  ActiveTesterConfig TC;
  TC.Base.MaxSteps = 24;
  TC.PhaseTwoReps = 4;
  TC.Goodlock.KeepGuardedCycles = true;
  ActiveTester T(gateThenTailProgram, TC);
  PhaseOneResult P1 = T.runPhaseOne();
  ASSERT_EQ(P1.Cycles.size(), 1u);
  CycleFuzzStats InProcess = T.fuzzCycle(P1.Cycles[0]);

  TempFile File("step-capped.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.BenchmarkName = "campaign-test-step-capped";
  CC.Entry = gateThenTailProgram;
  CC.Tester = TC;
  CC.IncludeGuarded = true; // the pruner discharges the gate cycle
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_EQ(R.PerCycle.size(), 1u);
  EXPECT_EQ(R.Cycles[0].key(AbstractionKind::ExecutionIndex, true),
            P1.Cycles[0].key(AbstractionKind::ExecutionIndex, true));
  EXPECT_EQ(InProcess.Stalls, 4u);
  EXPECT_EQ(R.PerCycle[0].Stalls, InProcess.Stalls)
      << R.toString("campaign-test", File.path());
  EXPECT_EQ(R.PerCycle[0].CleanRuns, InProcess.CleanRuns);
}

TEST(CampaignPhase1, PredictEngineCertifiesTheAbbaCycle) {
  TempFile File("predict-abba.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.Phase1 = Phase1Engine::Predict;
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_EQ(R.PerCycle.size(), 1u);
  EXPECT_EQ(R.PerCycle[0].Prediction.rfind("PREDICTED-SOUND", 0), 0u)
      << R.PerCycle[0].Prediction;
  EXPECT_FALSE(R.PerCycle[0].Skipped);
  EXPECT_EQ(R.PerCycle[0].Reproduced, 4u)
      << R.toString("campaign-test", File.path());
}

TEST(CampaignPhase1, PredictEngineSkipsAGuardDischargedCycle) {
  TempFile File("predict-gate.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.BenchmarkName = "campaign-test-gate";
  CC.Entry = gateProgram;
  CC.Phase1 = Phase1Engine::Predict;
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_EQ(R.PerCycle.size(), 1u);
  EXPECT_TRUE(R.PerCycle[0].Skipped);
  EXPECT_EQ(R.PerCycle[0].Reps, 0u) << "discharged cycles get no budget";
  EXPECT_EQ(R.PerCycle[0].Prediction.rfind("UNCONFIRMED", 0), 0u)
      << R.PerCycle[0].Prediction;
  EXPECT_EQ(R.RepsExecuted, 0u);
}

TEST(CampaignPhase1, BothModeReportsVerdictsAndSpendsBudget) {
  TempFile File("both-abba.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.Phase1 = Phase1Engine::Both;
  CampaignReport R = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_EQ(R.PerCycle.size(), 1u);
  EXPECT_FALSE(R.PerCycle[0].Prediction.empty());
  EXPECT_EQ(R.PerCycle[0].Reproduced, 4u)
      << R.toString("campaign-test", File.path());
}

TEST(CampaignPhase1, ResumeReplaysPredictionsFromTheJournal) {
  TempFile File("predict-resume.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.Phase1 = Phase1Engine::Predict;
  auto Checks = std::make_shared<int>(0);
  CC.ShouldStop = [Checks] { return ++*Checks > 2; };
  CampaignReport Partial = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(Partial.Error.empty()) << Partial.Error;
  ASSERT_TRUE(Partial.Interrupted);

  CampaignConfig RC = baseConfig(File.path());
  RC.Phase1 = Phase1Engine::Predict;
  CampaignReport Resumed = CampaignRunner(std::move(RC)).run(/*Resume=*/true);
  ASSERT_TRUE(Resumed.Error.empty()) << Resumed.Error;
  EXPECT_TRUE(Resumed.CampaignComplete);
  ASSERT_EQ(Resumed.PerCycle.size(), 1u);
  EXPECT_EQ(Resumed.PerCycle[0].Prediction.rfind("PREDICTED-SOUND", 0), 0u)
      << "the prediction must survive the journal round trip: "
      << Resumed.PerCycle[0].Prediction;
  EXPECT_GT(Resumed.RepsReplayed, 0u);
}

TEST(CampaignPhase1, EngineIsPartOfTheJournalFingerprint) {
  TempFile File("predict-fence.jsonl");
  CampaignConfig CC = baseConfig(File.path());
  CC.Phase1 = Phase1Engine::Predict;
  CampaignReport First = CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(First.Error.empty()) << First.Error;

  CampaignConfig Changed = baseConfig(File.path()); // igoodlock default
  CampaignReport R = CampaignRunner(std::move(Changed)).run(/*Resume=*/true);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_NE(R.Error.find("does not match"), std::string::npos) << R.Error;
}

TEST(CampaignPhase1, ChildThatRanAndFailedIsRetriedWithAFreshSeed) {
  // The program aborts on its first call only: the first Phase I child
  // dies after it ran, so the runner must step past that child's whole
  // observation seed range, and the retry must observe what an undisturbed
  // campaign observes. A marker file (not a hook) carries the "already
  // aborted once" bit across the forked children.
  TempFile Marker("p1-abort.marker");
  TempFile File("p1-retry.jsonl");
  TempFile Control("p1-retry-control.jsonl");
  std::string MarkerPath = Marker.path();
  CampaignConfig CC = baseConfig(File.path());
  CC.Entry = [MarkerPath] {
    int Fd = ::open(MarkerPath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
    if (Fd >= 0) {
      ::close(Fd);
      abort();
    }
    abbaProgram();
  };
  const uint64_t S = CC.Tester.PhaseOneSeed;
  const uint64_t Step = CC.Tester.PhaseOneRetries + 1;
  CampaignReport R = CampaignRunner(CC).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.PhaseOneAttempts, 2u);
  EXPECT_EQ(R.PhaseOneSeeds, (std::vector<uint64_t>{S, S + Step}));

  JournalContents JC;
  std::string Error;
  ASSERT_TRUE(loadJournal(File.path(), JC, &Error)) << Error;
  std::vector<uint64_t> Journaled;
  for (const JsonValue &Rec : JC.Records)
    if (Rec["event"].asString() == "phase1") {
      EXPECT_EQ(Rec["attempts"].asUInt(), 2u);
      for (const JsonValue &Seed : Rec["seeds"].items())
        Journaled.push_back(Seed.asUInt());
    }
  EXPECT_EQ(Journaled, R.PhaseOneSeeds);

  CampaignReport Undisturbed =
      CampaignRunner(baseConfig(Control.path())).run();
  ASSERT_TRUE(Undisturbed.Error.empty()) << Undisturbed.Error;
  EXPECT_EQ(Undisturbed.PhaseOneAttempts, 1u);
  ASSERT_EQ(R.Cycles.size(), Undisturbed.Cycles.size());
  for (size_t I = 0; I != R.Cycles.size(); ++I)
    EXPECT_EQ(R.Cycles[I].key(AbstractionKind::ExecutionIndex, true),
              Undisturbed.Cycles[I].key(AbstractionKind::ExecutionIndex,
                                        true));
}

TEST(CampaignPhase1, EngineNamesRoundTrip) {
  for (Phase1Engine E : {Phase1Engine::IGoodlock, Phase1Engine::Predict,
                         Phase1Engine::Both}) {
    Phase1Engine Back = Phase1Engine::IGoodlock;
    ASSERT_TRUE(phase1EngineFromName(phase1EngineName(E), Back))
        << phase1EngineName(E);
    EXPECT_EQ(Back, E);
  }
  Phase1Engine Out;
  EXPECT_FALSE(phase1EngineFromName("bogus", Out));
  EXPECT_FALSE(phase1EngineFromName("", Out));
}

} // namespace

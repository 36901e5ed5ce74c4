//===- tests/PreloadTest.cpp - LD_PRELOAD front end, end to end ------------===//
//
// Drives the full interposition workflow against the unmodified pthreads
// fixture: trace under LD_PRELOAD, analyze with dlf-analyze, then confirm
// the deadlock in Phase II via DLF_PRELOAD_CYCLE. Paths to the built
// artifacts come in through compile definitions from CMake.
//
//===----------------------------------------------------------------------===//

#include "interpose/TraceFormat.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

/// Runs a shell command; returns the child's exit code (-1 on signal).
int runCommand(const std::string &Command) {
  int Status = std::system(Command.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

/// Captures a command's stdout.
std::string captureCommand(const std::string &Command) {
  std::string Output;
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return Output;
  char Buffer[512];
  while (fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  pclose(Pipe);
  return Output;
}

std::string tmpPath(const char *Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

TEST(Preload, FullWorkflowOnUnmodifiedPthreadsProgram) {
  const std::string Trace = tmpPath("dlf_abba.trace");
  std::remove(Trace.c_str());

  // Baseline: the fixture completes cleanly without the preload.
  ASSERT_EQ(runCommand(std::string(DLF_ABBA_BIN) + " >/dev/null 2>&1"), 0);

  // Phase I: trace under LD_PRELOAD.
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " " DLF_ABBA_BIN " >/dev/null 2>&1"),
            0);
  std::ifstream TraceIn(Trace);
  ASSERT_TRUE(TraceIn.good()) << "preload produced no trace";
  std::string TraceText((std::istreambuf_iterator<char>(TraceIn)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(TraceText.find("A "), std::string::npos)
      << "trace has no acquire events:\n"
      << TraceText;

  // Analyze: expect exactly one potential cycle and a spec line.
  std::string Analysis =
      captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace);
  EXPECT_NE(Analysis.find("1 potential deadlock cycle"), std::string::npos)
      << Analysis;
  size_t SpecPos = Analysis.find("cycle-spec: ");
  ASSERT_NE(SpecPos, std::string::npos) << Analysis;
  size_t SpecEnd = Analysis.find('\n', SpecPos);
  std::string Spec =
      Analysis.substr(SpecPos + 12, SpecEnd - SpecPos - 12);
  ASSERT_FALSE(Spec.empty());

  // Phase II: the biased run confirms the deadlock (exit code 42) with
  // high probability; the pause expires otherwise (thrash analogue), so
  // allow a few attempts.
  bool Confirmed = false;
  for (int Attempt = 0; Attempt != 5 && !Confirmed; ++Attempt) {
    int Exit = runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB
                          " DLF_PRELOAD_CYCLE='" +
                          Spec + "' " DLF_ABBA_BIN " >/dev/null 2>&1");
    if (Exit == dlf::interpose::DeadlockExitCode)
      Confirmed = true;
    else
      EXPECT_EQ(Exit, 0) << "unexpected exit on attempt " << Attempt;
  }
  EXPECT_TRUE(Confirmed)
      << "Phase II never created the deadlock in 5 attempts; spec: " << Spec;
}

TEST(Preload, PassthroughWhenNoPhaseRequested) {
  // With neither trace nor cycle env vars the interposition is inert.
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " " DLF_ABBA_BIN
                       " >/dev/null 2>&1"),
            0);
}

TEST(Preload, RichFixtureTracesCorrectly) {
  // Recursive mutexes, trylock and condition variables through the
  // interposition: the program still completes, the trace collapses
  // re-entrant acquires, and the analyzer finds the one inverted pair.
  const std::string Trace = tmpPath("dlf_rich.trace");
  std::remove(Trace.c_str());

  ASSERT_EQ(runCommand(std::string(DLF_RICH_BIN) + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " " DLF_RICH_BIN " >/dev/null 2>&1"),
            0);

  std::ifstream TraceIn(Trace);
  ASSERT_TRUE(TraceIn.good());
  std::string Line;
  unsigned Acquires = 0, Releases = 0, Threads = 0, Joins = 0;
  while (std::getline(TraceIn, Line)) {
    if (Line.rfind("A ", 0) == 0)
      ++Acquires;
    else if (Line.rfind("R ", 0) == 0)
      ++Releases;
    else if (Line.rfind("T ", 0) == 0)
      ++Threads;
    else if (Line.rfind("J ", 0) == 0)
      ++Joins;
  }
  EXPECT_GE(Threads, 4u) << "main + three workers";
  EXPECT_GE(Joins, 3u) << "pthread_join must emit a J happens-before edge";
  EXPECT_GT(Acquires, 6u);
  EXPECT_EQ(Acquires, Releases)
      << "re-entrant pairs must collapse symmetrically";

  std::string Analysis =
      captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace);
  EXPECT_NE(Analysis.find("potential deadlock cycle"), std::string::npos)
      << "the A/B inversion must be reported:\n"
      << Analysis;
}

TEST(Preload, AlphabetFixtureCoversWidenedGrammar) {
  // The widened-alphabet fixture exercises rwlock read/write sides,
  // trylock success and failure, a signalled cond wait, a timed wait that
  // expires, and a destroy-before-any-other-call mutex. The event *kinds*
  // it emits are deterministic even though their order is not.
  const std::string Trace = tmpPath("dlf_alphabet.trace");
  std::remove(Trace.c_str());

  // The fixture is deadlock-free and self-checking (ETIMEDOUT reacquire,
  // failed probe really failing): nonzero exit means the wrappers broke
  // its semantics, with or without the preload.
  ASSERT_EQ(runCommand(std::string(DLF_ALPHABET_BIN) + " >/dev/null 2>&1"),
            0);
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " " DLF_ALPHABET_BIN " >/dev/null 2>&1"),
            0);

  std::ifstream TraceIn(Trace);
  ASSERT_TRUE(TraceIn.good()) << "preload produced no trace";
  std::string Line;
  unsigned SharedAcquires = 0, SharedReleases = 0, FailedProbes = 0,
           Notifies = 0, Wakes = 0;
  while (std::getline(TraceIn, Line)) {
    if (Line.rfind("Q ", 0) == 0)
      ++SharedAcquires;
    else if (Line.rfind("U ", 0) == 0)
      ++SharedReleases;
    else if (Line.rfind("P ", 0) == 0)
      ++FailedProbes;
    else if (Line.rfind("N ", 0) == 0)
      ++Notifies;
    else if (Line.rfind("V ", 0) == 0)
      ++Wakes;
  }
  EXPECT_GE(SharedAcquires, 1u) << "rdlock never traced";
  EXPECT_EQ(SharedAcquires, SharedReleases)
      << "read side acquire/release must pair";
  EXPECT_GE(FailedProbes, 1u) << "the Busy probe always fails";
  // One pthread_cond_signal with a waiter parked; the expired timedwait
  // must NOT manufacture a wakeup edge.
  EXPECT_EQ(Notifies, 1u);
  EXPECT_EQ(Wakes, 1u);

  // No lock-order inversion anywhere in the fixture.
  std::string Analysis =
      captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace);
  EXPECT_NE(Analysis.find("0 potential deadlock cycle(s)"),
            std::string::npos)
      << Analysis;
}

TEST(Preload, MutexOnlyTraceAvoidsWidenedGrammar) {
  // Byte-compatibility: a program that uses only plain mutexes must
  // produce a trace with none of the new event kinds, so pre-existing
  // tooling sees identical files.
  const std::string Trace = tmpPath("dlf_abba_grammar.trace");
  std::remove(Trace.c_str());
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " " DLF_ABBA_BIN " >/dev/null 2>&1"),
            0);
  std::ifstream TraceIn(Trace);
  ASSERT_TRUE(TraceIn.good());
  std::string Line;
  while (std::getline(TraceIn, Line)) {
    ASSERT_FALSE(Line.empty());
    switch (Line[0]) {
    case 'Q':
    case 'U':
    case 'P':
    case 'N':
    case 'V':
      FAIL() << "mutex-only trace contains widened-alphabet line: " << Line;
    default:
      break;
    }
  }
}

TEST(Preload, GuardedFixtureClassifiedEndToEnd) {
  // The discharged-cycle fixture: a gate-protected inversion and a
  // fork-ordered inversion. Both cycles must surface (dlf-analyze keeps
  // guarded cycles) and both must be statically discharged, with the gate
  // named for the guarded one.
  const std::string Trace = tmpPath("dlf_guarded.trace");
  std::remove(Trace.c_str());

  ASSERT_EQ(runCommand(std::string(DLF_GUARDED_BIN) + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " " DLF_GUARDED_BIN " >/dev/null 2>&1"),
            0);

  std::string Analysis =
      captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace);
  EXPECT_NE(Analysis.find("2 potential deadlock cycle(s)"), std::string::npos)
      << Analysis;
  EXPECT_NE(Analysis.find("pruner: 0 schedulable, 2 statically discharged"),
            std::string::npos)
      << Analysis;
  EXPECT_NE(Analysis.find("classification: guarded (guard lock: "),
            std::string::npos)
      << Analysis;
  EXPECT_NE(Analysis.find("classification: hb-ordered"), std::string::npos)
      << Analysis;
}

TEST(Preload, AbbaCycleStaysSchedulable) {
  // The pruner must not discharge the genuinely schedulable inversion.
  const std::string Trace = tmpPath("dlf_abba_sched.trace");
  std::remove(Trace.c_str());
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " " DLF_ABBA_BIN " >/dev/null 2>&1"),
            0);
  std::string Analysis =
      captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace);
  EXPECT_NE(Analysis.find("pruner: 1 schedulable, 0 statically discharged"),
            std::string::npos)
      << Analysis;
  EXPECT_NE(Analysis.find("classification: schedulable"), std::string::npos)
      << Analysis;
}

TEST(Preload, RaceDetectorFindsSeededRace) {
  const std::string Trace = tmpPath("dlf_racy.trace");
  std::remove(Trace.c_str());

  // The weak hooks make the fixture self-sufficient without the preload.
  ASSERT_EQ(runCommand(std::string(DLF_RACY_BIN) + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " DLF_TRACE_ACCESSES=1 " DLF_RACY_BIN
                       " >/dev/null 2>&1"),
            0);

  std::string Races = captureCommand(std::string(DLF_ANALYZE_BIN) + " " +
                                     Trace + " --races 2>/dev/null");
  EXPECT_NE(Races.find("2 racy pair(s)"), std::string::npos) << Races;
  EXPECT_NE(Races.find("racyWorker1::store"), std::string::npos) << Races;
  EXPECT_NE(Races.find("racyWorker2::store"), std::string::npos) << Races;
  // The lock-protected counter must not be reported.
  EXPECT_EQ(Races.find("guardedStore"), std::string::npos) << Races;
}

TEST(Preload, RaceDetectorCleanOnRaceFreeRun) {
  const std::string Trace = tmpPath("dlf_clean.trace");
  std::remove(Trace.c_str());
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " DLF_TRACE_ACCESSES=1 " DLF_RACY_BIN
                       " clean >/dev/null 2>&1"),
            0);
  std::string Races = captureCommand(std::string(DLF_ANALYZE_BIN) + " " +
                                     Trace + " --races 2>/dev/null");
  EXPECT_NE(Races.find("0 racy pair(s)"), std::string::npos) << Races;
}

TEST(Preload, RacePassRejectsAnalysisJobs) {
  // The race pass is one serial walk: it reports the seeded race, and a
  // job count it would ignore is a usage error (exit 1).
  const std::string Trace = tmpPath("dlf_racy_jobs.trace");
  std::remove(Trace.c_str());
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                       Trace + " DLF_TRACE_ACCESSES=1 " DLF_RACY_BIN
                       " >/dev/null 2>&1"),
            0);
  std::string Out = captureCommand(std::string(DLF_ANALYZE_BIN) + " " +
                                   Trace + " --races 2>/dev/null");
  EXPECT_NE(Out.find("2 racy pair(s)"), std::string::npos) << Out;
  EXPECT_EQ(runCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace +
                       " --races --analysis-jobs 2 >/dev/null 2>&1"),
            1);
}

TEST(Preload, AnalyzeExitCodesDistinguishFailures) {
  const std::string Empty = tmpPath("dlf_empty.trace");
  const std::string Comments = tmpPath("dlf_comments.trace");
  const std::string Corrupt = tmpPath("dlf_corrupt.trace");
  std::ofstream(Empty.c_str()).close();
  std::ofstream(Comments.c_str()) << "# dlf-preload trace v1\n";
  std::ofstream(Corrupt.c_str()) << "T 1 main#1\nA 1 zzz\n";

  // 3: the trace opened but carries no events (misconfigured run).
  EXPECT_EQ(runCommand(std::string(DLF_ANALYZE_BIN) + " " + Empty +
                       " >/dev/null 2>&1"),
            3);
  EXPECT_EQ(runCommand(std::string(DLF_ANALYZE_BIN) + " " + Comments +
                       " >/dev/null 2>&1"),
            3);
  // 2: unreadable or corrupt (missing file, truncated line).
  EXPECT_EQ(runCommand(std::string(DLF_ANALYZE_BIN) +
                       " /nonexistent/trace >/dev/null 2>&1"),
            2);
  EXPECT_EQ(runCommand(std::string(DLF_ANALYZE_BIN) + " " + Corrupt +
                       " >/dev/null 2>&1"),
            2);
  // The corrupt-trace diagnostic names the offending line.
  std::string Err = captureCommand(std::string(DLF_ANALYZE_BIN) + " " +
                                   Corrupt + " 2>&1 >/dev/null");
  EXPECT_NE(Err.find(":2:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("truncated or corrupt"), std::string::npos) << Err;
  // 1: usage errors, checked before the trace is touched.
  EXPECT_EQ(runCommand(std::string(DLF_ANALYZE_BIN) + " " + Corrupt +
                       " --bogus >/dev/null 2>&1"),
            1);

  std::remove(Empty.c_str());
  std::remove(Comments.c_str());
  std::remove(Corrupt.c_str());
}

TEST(Preload, MalformedNumericInputsFailFast) {
  // dlf-analyze: --max-cycle-length garbage used to atoi to 0 and silently
  // disable the cycle search; it must be a usage error now.
  EXPECT_NE(runCommand(std::string(DLF_ANALYZE_BIN) +
                       " /dev/null --max-cycle-length abc >/dev/null 2>&1"),
            0);
  // Preload library: a typo'd DLF_PRELOAD_PAUSE_MS used to atoi to 0 and
  // disarm the biased scheduler; the process must refuse to start.
  EXPECT_NE(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB
                       " DLF_PRELOAD_PAUSE_MS=abc " DLF_ABBA_BIN
                       " >/dev/null 2>&1"),
            0);
  // A well-formed value still passes through untouched.
  EXPECT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB
                       " DLF_PRELOAD_PAUSE_MS=50 " DLF_ABBA_BIN
                       " >/dev/null 2>&1"),
            0);
}

TEST(Preload, MalformedCycleSpecFailsFast) {
  // A malformed spec would disarm Phase II silently and make the run look
  // deadlock-free; the preload must refuse to start (exit 2).
  for (const char *Spec : {"", "garbage", "t#1|l#1", "t#1|l#1|",
                           "t#1|l#1|a,,b", "|l#1|a", "t#1|l#1|a|b",
                           "t#1|l#1|a;oops"}) {
    std::string Err = tmpPath("dlf_badspec.err");
    EXPECT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_CYCLE='" +
                         std::string(Spec) + "' " DLF_ABBA_BIN
                         " >/dev/null 2>" + Err),
              2)
        << "spec '" << Spec << "'";
    std::ifstream In(Err);
    std::string Message((std::istreambuf_iterator<char>(In)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(Message.find("DLF_PRELOAD_CYCLE"), std::string::npos)
        << Message;
  }
  // A well-formed spec that matches nothing runs the program normally.
  EXPECT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB
                       " DLF_PRELOAD_CYCLE='nobody#1|nolock#1|x;' " DLF_ABBA_BIN
                       " >/dev/null 2>&1"),
            0);
}

TEST(CycleSpecCodec, RoundTripsReportSpecs) {
  using dlf::interpose::CycleSpecComponent;
  std::vector<CycleSpecComponent> Cycle = {
      {"spawn+0x10#1", "b#1", {"w2+0x1", "w2+0x2"}},
      {"spawn+0x10#2", "a#1", {"w3+0x1", "w3+0x2"}}};
  std::string Text = dlf::interpose::encodeCycleSpec(Cycle);
  EXPECT_EQ(Text,
            "spawn+0x10#1|b#1|w2+0x1,w2+0x2;spawn+0x10#2|a#1|w3+0x1,w3+0x2");
  std::vector<CycleSpecComponent> Back;
  std::string Error;
  ASSERT_TRUE(dlf::interpose::decodeCycleSpec(Text + ";", Back, &Error))
      << Error;
  ASSERT_EQ(Back.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    EXPECT_EQ(Back[I].ThreadAbs, Cycle[I].ThreadAbs);
    EXPECT_EQ(Back[I].LockAbs, Cycle[I].LockAbs);
    EXPECT_EQ(Back[I].Context, Cycle[I].Context);
  }
  EXPECT_FALSE(dlf::interpose::decodeCycleSpec("a|b", Back, &Error));
  EXPECT_NE(Error.find("a|b"), std::string::npos) << Error;
  EXPECT_EQ(Back.size(), 2u) << "a failed decode leaves the output alone";
}

/// Reduces a cycle report to its run-invariant lines: the cycle count
/// (tool prefix stripped), the pruner line, and every per-cycle block. The
/// closure timing line is run-dependent and excluded. This is the shape of
/// report that must match between dlf-analyze on a text trace and
/// dlf-observe on a ring recording of the same execution.
std::string cycleSummary(const std::string &Report) {
  std::istringstream In(Report);
  std::string Line, Out;
  while (std::getline(In, Line)) {
    size_t Tool = Line.find(": ");
    if (Line.find(" potential deadlock cycle(s)") != std::string::npos &&
        Tool != std::string::npos) {
      Out += Line.substr(Tool + 2) + "\n";
      continue;
    }
    if (Line.rfind("#", 0) == 0 || Line.rfind("pruner: ", 0) == 0 ||
        Line.rfind("classification: ", 0) == 0 ||
        Line.rfind("cycle-spec: ", 0) == 0 || Line.rfind("  ", 0) == 0)
      Out += Line + "\n";
  }
  return Out;
}

TEST(PreloadRing, CombinedModeMatchesTextAnalysis) {
  // One execution, two recordings: the text trace and the binary ring.
  // dlf-analyze on the former and dlf-observe on the latter must report
  // the same cycles — the ring acceptance criterion, for both workloads.
  for (const char *Workload : {"rwlock-abba", "condvar-hybrid"}) {
    const std::string Trace = tmpPath((std::string("dlf_ring_") + Workload +
                                       ".trace").c_str());
    const std::string Ring = tmpPath((std::string("dlf_ring_") + Workload +
                                      ".ring").c_str());
    std::remove(Trace.c_str());
    std::remove(Ring.c_str());

    ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_PRELOAD_TRACE=" +
                         Trace + " DLF_RING=" + Ring + " " DLF_RINGWORK_BIN
                         " " + Workload + " >/dev/null 2>&1"),
              0)
        << Workload;

    std::string Analyzed =
        captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace +
                       " 2>/dev/null");
    std::string Observed =
        captureCommand(std::string(DLF_OBSERVE_BIN) + " " + Ring +
                       " 2>/dev/null");
    ASSERT_FALSE(Analyzed.empty()) << Workload;
    ASSERT_FALSE(Observed.empty()) << Workload;
    EXPECT_EQ(cycleSummary(Analyzed), cycleSummary(Observed)) << Workload;

    std::remove(Trace.c_str());
    std::remove(Ring.c_str());
  }
}

TEST(PreloadRing, RingOnlyModeFindsTheRwlockCycle) {
  // No text trace at all: DLF_RING alone, observer attaches after exit and
  // rebuilds the model (ids, site#n, unlock sides) from raw records.
  const std::string Ring = tmpPath("dlf_ringonly.ring");
  std::remove(Ring.c_str());
  ASSERT_EQ(runCommand("LD_PRELOAD=" DLF_PRELOAD_LIB " DLF_RING=" + Ring +
                       " " DLF_RINGWORK_BIN " rwlock-abba >/dev/null 2>&1"),
            0);
  std::string Observed =
      captureCommand(std::string(DLF_OBSERVE_BIN) + " " + Ring +
                     " 2>/dev/null");
  EXPECT_NE(Observed.find("1 potential deadlock cycle(s)"),
            std::string::npos)
      << Observed;
  EXPECT_NE(Observed.find("cycle-spec: "), std::string::npos) << Observed;
  std::remove(Ring.c_str());
}

TEST(PreloadRing, LaunchModeHandsTheTargetAMemfd) {
  // dlf-observe creates the ring on an anonymous memfd, forks the target
  // with DLF_RING=fd:<n>, and observes live: no ring file ever exists.
  std::string Observed = captureCommand(
      std::string(DLF_OBSERVE_BIN) + " --preload " DLF_PRELOAD_LIB
      " -- " DLF_RINGWORK_BIN " rwlock-abba 2>/dev/null");
  EXPECT_NE(Observed.find("1 potential deadlock cycle(s)"),
            std::string::npos)
      << Observed;
}

TEST(PreloadRing, ObserveExitCodesDistinguishFailures) {
  // 2: not a ring.
  const std::string Bogus = tmpPath("dlf_bogus.ring");
  std::ofstream(Bogus) << "this is not a ring\n";
  EXPECT_EQ(runCommand(std::string(DLF_OBSERVE_BIN) + " " + Bogus +
                       " >/dev/null 2>&1"),
            2);
  std::remove(Bogus.c_str());
  // 2: missing file.
  EXPECT_EQ(runCommand(std::string(DLF_OBSERVE_BIN) +
                       " /nonexistent/no.ring >/dev/null 2>&1"),
            2);
  // 1: usage errors.
  EXPECT_EQ(runCommand(std::string(DLF_OBSERVE_BIN) + " >/dev/null 2>&1"),
            1);
  EXPECT_EQ(runCommand(std::string(DLF_OBSERVE_BIN) +
                       " a.ring --max-cycle-length abc >/dev/null 2>&1"),
            1);
}

} // namespace

//===- tests/PreloadTest.cpp - LD_PRELOAD front end, end to end ------------===//
//
// Drives the full interposition workflow against the unmodified pthreads
// fixture: trace under LD_PRELOAD, analyze with dlf-analyze, then confirm
// the deadlock in Phase II via DLF_PRELOAD_CYCLE. Paths to the built
// artifacts come in through compile definitions from CMake.
//
//===----------------------------------------------------------------------===//

#include "analysis/Trace.h"
#include "interpose/EventModel.h"
#include "interpose/TraceFormat.h"
#include "ring/Assemble.h"
#include "ring/Ring.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
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

TEST(TraceLineCodec, EveryKindRoundTripsThroughReadTrace) {
  // One line of each of the 14 kinds, written by the preload's encoder and
  // read back by the analyzer's reader.
  using K = dlf::analysis::TraceEvent::Kind;
  const std::vector<dlf::analysis::TraceEvent> Events = {
      {K::ThreadNew, 1, 0, "main#1"},
      {K::ThreadNew, 2, 0, "spawn+0x1f#1"},
      {K::Fork, 1, 2, ""},
      {K::LockNew, 7, 0, "worker+0x1f#2"},
      {K::Acquire, 2, 7, "worker+0x1f"},
      {K::Release, 2, 7, ""},
      {K::SharedAcquire, 2, 7, "reader+0x2a"},
      {K::SharedRelease, 2, 7, ""},
      {K::TryProbe, 1, 7, "probe+0x3"},
      {K::CondNotify, 1, 3, ""},
      {K::CondWake, 2, 3, ""},
      {K::ObjectNew, 4, 0, "libapp.so+0x1f00#1"},
      {K::Read, 2, 4, "load+0x1f"},
      {K::Write, 1, 4, "store+0x1f"},
      {K::Join, 1, 18446744073709551615ull, ""},
  };
  std::string Text = dlf::interpose::TraceHeader;
  for (const dlf::analysis::TraceEvent &E : Events)
    dlf::interpose::appendTraceLine({E.K, E.A, E.B, E.Text}, Text);
  EXPECT_NE(Text.find("\nA 2 7 worker+0x1f\n"), std::string::npos) << Text;

  const std::string Path = tmpPath("dlf_codec.trace");
  std::ofstream(Path) << Text;
  dlf::analysis::TraceFile Back;
  std::string Err;
  ASSERT_EQ(dlf::analysis::readTrace(Path, Back, &Err),
            dlf::analysis::TraceReadStatus::Ok)
      << Err;
  ASSERT_EQ(Back.Events.size(), Events.size());
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(Back.Events[I].K, Events[I].K) << I;
    EXPECT_EQ(Back.Events[I].A, Events[I].A) << I;
    EXPECT_EQ(Back.Events[I].B, Events[I].B) << I;
    EXPECT_EQ(Back.Events[I].Text, Events[I].Text) << I;
  }
  std::remove(Path.c_str());
}

/// What readTrace made of one trace text. Error has the trace path
/// replaced by "$T".
struct ReadOutcome {
  dlf::analysis::TraceReadStatus Status;
  std::vector<dlf::analysis::TraceEvent> Events;
  std::string Error;
};

ReadOutcome readTraceText(const std::string &Text) {
  // One file per test: ctest runs the tests of this binary in parallel.
  const std::string Path =
      tmpPath(("dlf_reader_" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()) +
               ".trace")
                  .c_str());
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Text;
  }
  dlf::analysis::TraceFile Trace;
  ReadOutcome R;
  R.Status = dlf::analysis::readTrace(Path, Trace, &R.Error);
  R.Events = std::move(Trace.Events);
  for (size_t At; (At = R.Error.find(Path)) != std::string::npos;)
    R.Error.replace(At, Path.size(), "$T");
  std::remove(Path.c_str());
  return R;
}

/// The "malformed"/"unknown" message for \p Line at line \p LineNo.
std::string corruptLine(size_t LineNo, const std::string &Why,
                        const std::string &Line) {
  return "$T:" + std::to_string(LineNo) + ": " + Why + ": '" + Line +
         "' (truncated or corrupt trace)";
}

void expectEvents(const std::vector<dlf::analysis::TraceEvent> &Actual,
                  const std::vector<dlf::analysis::TraceEvent> &Expected) {
  ASSERT_EQ(Actual.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I) {
    EXPECT_EQ(Actual[I].K, Expected[I].K) << I;
    EXPECT_EQ(Actual[I].A, Expected[I].A) << I;
    EXPECT_EQ(Actual[I].B, Expected[I].B) << I;
    EXPECT_EQ(Actual[I].Text, Expected[I].Text) << I;
  }
}

TEST(TraceLineCodec, ReaderAcceptsAndRejectsExactlyTheTraceGrammar) {
  using dlf::analysis::TraceReadStatus;
  using K = dlf::analysis::TraceEvent::Kind;
  const std::string H = dlf::interpose::TraceHeader;
  const std::string NoEvents =
      "trace file $T contains no events (did the traced program run under "
      "LD_PRELOAD with DLF_PRELOAD_TRACE set?)";
  struct Case {
    const char *Name;
    std::string Text;
    TraceReadStatus Status;
    std::vector<dlf::analysis::TraceEvent> Events; // Ok
    std::string Error;                              // otherwise
  };
  std::vector<Case> Cases = {
      {"separators", H + "A\t1\v7\fsite+0x1f extra tokens\n  R 1 7 x\n",
       TraceReadStatus::Ok,
       {{K::Acquire, 1, 7, "site+0x1f"}, {K::Release, 1, 7, ""}}, ""},
      {"letter glued to the first id", H + "A1 7 s\nJ007 0\n",
       TraceReadStatus::Ok,
       {{K::Acquire, 1, 7, "s"}, {K::Join, 7, 0, ""}}, ""},
      {"largest id", H + "J 18446744073709551615 1\nJ 1 18446744073709551615\n",
       TraceReadStatus::Ok,
       {{K::Join, 18446744073709551615ull, 1, ""},
        {K::Join, 1, 18446744073709551615ull, ""}},
       ""},
      {"crlf endings", "# dlf-preload trace v1\r\nT 1 main#1\r\nR 1 7\r\n",
       TraceReadStatus::Ok,
       {{K::ThreadNew, 1, 0, "main#1"}, {K::Release, 1, 7, ""}}, ""},
      {"no final newline", H + "T 1 main#1\nR 1 7", TraceReadStatus::Ok,
       {{K::ThreadNew, 1, 0, "main#1"}, {K::Release, 1, 7, ""}}, ""},
      {"blank lines and comments", H + "\n#\n# A 1\n\nT 1 m\n\n",
       TraceReadStatus::Ok, {{K::ThreadNew, 1, 0, "m"}}, ""},
      {"text bytes", H + "A 1 7 s" + '\0' + "x\nO 2 caf\xc3\xa9\xa0#1\n",
       TraceReadStatus::Ok,
       {{K::Acquire, 1, 7, std::string("s\0x", 3)},
        {K::ObjectNew, 2, 0, "caf\xc3\xa9\xa0#1"}},
       ""},
      {"one past the largest id", H + "J 1 18446744073709551616\n",
       TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed join event", "J 1 18446744073709551616")},
      {"overflow in the first id", H + "J 99999999999999999999 1\n",
       TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed join event", "J 99999999999999999999 1")},
      {"non-digit id", H + "A x 7 s\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed acquire event", "A x 7 s")},
      {"id with a suffix", H + "A 1 7x s\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed acquire event", "A 1 7x s")},
      {"signed id", H + "R -1 7\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed release event", "R -1 7")},
      {"plus-signed id", H + "T +1 main\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed thread event", "T +1 main")},
      {"hex id", H + "T 0x1 main\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "malformed thread event", "T 0x1 main")},
      {"unknown letter", H + "T 1 m\nX 1 2\n", TraceReadStatus::Unreadable, {},
       corruptLine(3, "unknown event kind", "X 1 2")},
      {"lowercase letter", H + "a 1 2 s\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "unknown event kind", "a 1 2 s")},
      {"whitespace-only line", H + " \t\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "unknown event kind", " \t")},
      {"blank crlf line", H + "\r\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "unknown event kind", "\r")},
      {"indented comment", H + "  # c\n", TraceReadStatus::Unreadable, {},
       corruptLine(2, "unknown event kind", "  # c")},
      {"crlf malformed line", H + "A 1 7\r\n", TraceReadStatus::Unreadable,
       {}, corruptLine(2, "malformed acquire event", "A 1 7\r")},
      {"truncated last line", H + "T 1 m\nR 1", TraceReadStatus::Unreadable,
       {}, corruptLine(3, "malformed release event", "R 1")},
      {"line numbers count comments", H + "\n# c\n\nT 1\n",
       TraceReadStatus::Unreadable, {},
       corruptLine(5, "malformed thread event", "T 1")},
      {"empty file", "", TraceReadStatus::NoEvents, {}, NoEvents},
      {"header only", H, TraceReadStatus::NoEvents, {}, NoEvents},
      {"comments and blank lines", H + "\n# nothing\n\n",
       TraceReadStatus::NoEvents, {}, NoEvents},
  };
  // Every kind with its last field missing, and with every field missing.
  const std::vector<std::pair<std::string, std::string>> Short = {
      {"T 1", "thread"},          {"M 7", "lock"},
      {"A 1 7", "acquire"},       {"R 1", "release"},
      {"Q 1 7", "shared-acquire"}, {"U 1", "shared-release"},
      {"P 1 7", "trylock-probe"}, {"N 1", "cond-notify"},
      {"V 1", "cond-wake"},       {"F 1", "fork"},
      {"J 1", "join"},            {"O 4", "object"},
      {"L 1 4", "read"},          {"S 1 4", "write"}};
  for (const auto &[Line, Kind] : Short) {
    std::string Why = "malformed " + Kind + " event";
    Cases.push_back({"last field missing", H + Line + "\n",
                     TraceReadStatus::Unreadable, {},
                     corruptLine(2, Why, Line)});
    Cases.push_back({"every field missing", H + Line.substr(0, 1) + "\n",
                     TraceReadStatus::Unreadable, {},
                     corruptLine(2, Why, Line.substr(0, 1))});
  }

  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.Name) + ": " + C.Text);
    ReadOutcome R = readTraceText(C.Text);
    EXPECT_EQ(R.Status, C.Status);
    if (C.Status == TraceReadStatus::Ok)
      expectEvents(R.Events, C.Events);
    else
      EXPECT_EQ(R.Error, C.Error);
  }
}

TEST(TraceLineCodec, ReaderRejectsMissingFilesAndDirectories) {
  dlf::analysis::TraceFile Trace;
  std::string Err;
  const std::string Missing = tmpPath("dlf_no_such.trace");
  std::remove(Missing.c_str());
  EXPECT_EQ(dlf::analysis::readTrace(Missing, Trace, &Err),
            dlf::analysis::TraceReadStatus::Unreadable);
  EXPECT_EQ(Err, "cannot open trace file " + Missing);

  const std::string Dir = tmpPath("dlf_reader_dir");
  std::filesystem::create_directories(Dir);
  EXPECT_EQ(dlf::analysis::readTrace(Dir, Trace, &Err),
            dlf::analysis::TraceReadStatus::Unreadable);
  EXPECT_EQ(Err, "read error on trace file " + Dir);
  EXPECT_TRUE(Trace.Events.empty());
  std::filesystem::remove(Dir);
}

TEST(TraceLineCodec, ReaderJoinsLinesAcrossChunkBoundaries) {
  // Offset 65536 is a boundary for every power-of-two chunk size up to
  // 64 KiB (the reader's is 8 KiB). Put it at every position of an acquire
  // line (CRLF-ended), its line break, and the next line.
  using K = dlf::analysis::TraceEvent::Kind;
  constexpr size_t Boundary = 64 * 1024;
  const std::string Acquire = "A 12345 67 worker+0x1f\r\n";
  const std::string Release = "R 12345 67\n";
  for (size_t Before = 0; Before <= Acquire.size() + Release.size();
       ++Before) {
    std::string Text = dlf::interpose::TraceHeader;
    std::string Pad = "#";
    Pad.resize(Boundary - Before - Text.size() - 1, '.');
    Text += Pad + "\n" + Acquire + Release;
    ASSERT_EQ(Text.find(Acquire), Boundary - Before);
    SCOPED_TRACE("acquire line starts " + std::to_string(Before) +
                 " bytes before the boundary");
    ReadOutcome R = readTraceText(Text);
    ASSERT_EQ(R.Status, dlf::analysis::TraceReadStatus::Ok) << R.Error;
    expectEvents(R.Events, {{K::Acquire, 12345, 67, "worker+0x1f"},
                            {K::Release, 12345, 67, ""}});
    // The same cut through a malformed line still names it whole.
    Text.replace(Text.find(Release), Release.size(), "R 12345\n");
    R = readTraceText(Text);
    EXPECT_EQ(R.Error, corruptLine(4, "malformed release event", "R 12345"));
  }

  // Many lines of every length from 1 to 300 bytes: thousands of cuts.
  std::vector<dlf::analysis::TraceEvent> Events;
  std::string Text = dlf::interpose::TraceHeader;
  for (uint64_t I = 0; Text.size() < 5 * Boundary; ++I) {
    dlf::analysis::TraceEvent E{I % 3 ? K::Acquire : K::Release, I, I * 7,
                                ""};
    if (E.K == K::Acquire)
      E.Text = std::string(1 + (I * 37) % 300, static_cast<char>('a' + I % 26));
    dlf::interpose::appendTraceLine({E.K, E.A, E.B, E.Text}, Text);
    Events.push_back(std::move(E));
  }
  ReadOutcome R = readTraceText(Text);
  ASSERT_EQ(R.Status, dlf::analysis::TraceReadStatus::Ok) << R.Error;
  expectEvents(R.Events, Events);
}

TEST(TraceLineCodec, ReaderTakesLinesLongerThanAChunk) {
  using K = dlf::analysis::TraceEvent::Kind;
  const std::string H = dlf::interpose::TraceHeader;
  const std::string Site(200 * 1024, 's');
  const std::string Comment = "#" + std::string(150 * 1024, 'c');
  ReadOutcome R =
      readTraceText(H + Comment + "\nA 1 7 " + Site + "\nR 1 7\n");
  ASSERT_EQ(R.Status, dlf::analysis::TraceReadStatus::Ok) << R.Error;
  expectEvents(R.Events, {{K::Acquire, 1, 7, Site}, {K::Release, 1, 7, ""}});

  // A malformed line that long is echoed whole.
  const std::string Digits(100 * 1024, '9');
  R = readTraceText(H + "A 1 " + Digits + " s\n");
  EXPECT_EQ(R.Status, dlf::analysis::TraceReadStatus::Unreadable);
  EXPECT_EQ(R.Error,
            corruptLine(2, "malformed acquire event", "A 1 " + Digits + " s"));
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
    // dlf-observe consumes the ring it attaches to; keep a copy to replay.
    const std::string Copy = Ring + ".copy";
    std::filesystem::copy_file(Ring, Copy,
                               std::filesystem::copy_options::overwrite_existing);

    std::string Analyzed =
        captureCommand(std::string(DLF_ANALYZE_BIN) + " " + Trace +
                       " 2>/dev/null");
    std::string Observed =
        captureCommand(std::string(DLF_OBSERVE_BIN) + " " + Ring +
                       " 2>/dev/null");
    ASSERT_FALSE(Analyzed.empty()) << Workload;
    ASSERT_FALSE(Observed.empty()) << Workload;
    EXPECT_EQ(cycleSummary(Analyzed), cycleSummary(Observed)) << Workload;

    // Below the reports: replaying the ring through the event model yields
    // the text trace's events, one for one.
    dlf::analysis::TraceFile Text;
    std::string Err;
    ASSERT_EQ(dlf::analysis::readTrace(Trace, Text, &Err),
              dlf::analysis::TraceReadStatus::Ok)
        << Err;
    std::unique_ptr<dlf::ring::RingReader> Reader(
        dlf::ring::RingReader::attach(Copy, &Err));
    ASSERT_TRUE(Reader) << Err;
    std::vector<dlf::ring::Record> Records;
    Reader->finishDrain(Records);
    EXPECT_EQ(Reader->dropsTotal(), 0u) << Workload;
    dlf::interpose::EventModel Model;
    std::vector<dlf::analysis::TraceEvent> Replayed;
    EXPECT_EQ(dlf::ring::assemble(*Reader, Records, Model, Replayed), 0u);
    ASSERT_EQ(Replayed.size(), Text.Events.size()) << Workload;
    for (size_t I = 0; I != Replayed.size(); ++I) {
      const dlf::analysis::TraceEvent &R = Replayed[I], &T = Text.Events[I];
      EXPECT_TRUE(R.K == T.K && R.A == T.A && R.B == T.B && R.Text == T.Text)
          << Workload << ": event " << I << " differs (ring '" << R.Text
          << "', text '" << T.Text << "')";
    }

    std::remove(Trace.c_str());
    std::remove(Ring.c_str());
    std::remove(Copy.c_str());
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

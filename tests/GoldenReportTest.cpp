//===- tests/GoldenReportTest.cpp - dlf-analyze reports vs. golden files ---===//
//
// Runs dlf-analyze in its three report modes (default, --predict, --races)
// over the hand-written traces in tests/fixtures/golden and diffs stdout
// against the checked-in reports. Together the traces use every trace
// line kind, so any change to how the analyses walk a trace that moves a
// single byte of a report fails here. The only run-dependent line, the
// closure timing line, has its microsecond and per-second figures masked
// (chains and jobs stay checked). The batch entry points (readTrace, then
// IncrementalLogBuilder::feed, predictDeadlocks, detectRaces) must render
// the binary's reports too, though the binary streams the trace instead.
// The exit-code tests pin how dlf-analyze refuses a truncated trace (2), a
// trace without events (3) and a missing path (2) in every mode: nothing on
// stdout, the one reason line on stderr. The memory test pins that no mode
// holds the trace: peak RSS does not grow with its length.
//
// To re-record after an intended report change:
//   dlf-analyze T.trace [--predict|--races] 2>/dev/null | <same mask>
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/Predict.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "interpose/TraceFormat.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

extern char **environ;

using namespace dlf;
using namespace dlf::analysis;

namespace {

std::string captureStdout(const std::string &Command) {
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

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Masks the timing figures of the "closure: N chains, X us, Y entries/s,
/// Z chains/s, jobs J" line.
std::string maskTiming(const std::string &Report) {
  static const std::regex Closure(
      R"((closure: [0-9]+ chains, )[0-9]+ us, [0-9]+ entries/s, [0-9]+ chains/s)");
  return std::regex_replace(Report, Closure,
                            "$1N us, N entries/s, N chains/s");
}

using GoldenCase = std::tuple<const char *, const char *>; // trace, mode

class GoldenReport : public ::testing::TestWithParam<GoldenCase> {};

/// The three report modes, as the golden files name them.
const char *const Modes[] = {"default", "predict", "races"};

/// The dlf-analyze flag of report mode \p Mode, with a leading space.
std::string modeFlag(const std::string &Mode) {
  return Mode == "default" ? "" : " --" + Mode;
}

/// dlf-analyze's stdout over golden trace \p Trace in \p Mode, masked.
std::string binaryReport(const std::string &Trace, const std::string &Mode) {
  return maskTiming(captureStdout(std::string(DLF_ANALYZE_BIN) + " " +
                                  DLF_GOLDEN_DIR + "/" + Trace + ".trace" +
                                  modeFlag(Mode) + " 2>/dev/null"));
}

TEST_P(GoldenReport, StdoutMatchesCheckedInReport) {
  auto [Trace, Mode] = GetParam();
  std::string Dir = DLF_GOLDEN_DIR;
  std::string Actual = binaryReport(Trace, Mode);
  std::string Expected =
      readFile(Dir + "/" + Trace + "." + Mode + ".out");
  ASSERT_FALSE(Expected.empty()) << "missing golden file";
  EXPECT_EQ(Actual, Expected);
}

/// "<trace>_<mode>", with the '-' gtest names cannot carry mapped to '_'.
std::string caseName(const ::testing::TestParamInfo<GoldenCase> &Info) {
  std::string Name = std::string(std::get<0>(Info.param)) + "_" +
                     std::get<1>(Info.param);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    Traces, GoldenReport,
    ::testing::Combine(::testing::Values("alphabet", "ring"),
                       ::testing::Values("default", "predict", "races")),
    caseName);

// predict-mix drives every path of the --predict grader (occurrence cap,
// entries split by held modes, first-guard naming, join and notify
// ordering, sync-order, irregular and never-released sections, the
// assignment cap); it has no access events, so no races report.
INSTANTIATE_TEST_SUITE_P(
    PredictMix, GoldenReport,
    ::testing::Combine(::testing::Values("predict-mix"),
                       ::testing::Values("default", "predict")),
    caseName);

/// The report of golden trace \p Trace in \p Mode, rendered in process by
/// the batch entry points over the collected trace.
std::string batchReport(const std::string &Trace, const std::string &Mode) {
  TraceFile File;
  std::string Error;
  EXPECT_EQ(readTrace(std::string(DLF_GOLDEN_DIR) + "/" + Trace + ".trace",
                      File, &Error),
            TraceReadStatus::Ok)
      << Error;
  std::ostringstream OS;
  if (Mode == "predict") {
    printPredictReport(OS, "dlf-analyze", predictDeadlocks(File));
  } else if (Mode == "races") {
    printRaceReport(OS, "dlf-analyze", detectRaces(File));
  } else {
    IncrementalLogBuilder Builder;
    Builder.feed(File.Events);
    IGoodlockOptions Opts;
    Opts.KeepGuardedCycles = true;
    IGoodlockStats Stats;
    std::vector<AbstractCycle> Cycles =
        runIGoodlock(Builder.log(), Opts, &Stats);
    printCycleReport(OS, "dlf-analyze", Builder.log(), Cycles,
                     classifyCycles(Builder.log(), Cycles), Stats);
  }
  return maskTiming(OS.str());
}

class BatchReport : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(BatchReport, MatchesBinaryStdout) {
  auto [Trace, Mode] = GetParam();
  std::string Binary = binaryReport(Trace, Mode);
  ASSERT_FALSE(Binary.empty());
  EXPECT_EQ(batchReport(Trace, Mode), Binary);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, BatchReport,
    ::testing::Combine(::testing::Values("alphabet", "ring", "predict-mix"),
                       ::testing::ValuesIn(Modes)),
    caseName);

/// One dlf-analyze run over \p Trace: exit code, stdout and stderr.
struct AnalyzeRun {
  int Exit = -1;
  std::string Out;
  std::string Err;
};

AnalyzeRun runAnalyze(const std::string &Trace,
                      const std::string &Mode = "default") {
  // One file pair per test: ctest runs the tests of this binary in
  // parallel.
  std::string Base =
      ::testing::TempDir() + "/dlf_golden_exit_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  int Status = std::system((std::string(DLF_ANALYZE_BIN) + " " + Trace +
                            modeFlag(Mode) + " >" + Base + ".out 2>" + Base +
                            ".err")
                               .c_str());
  AnalyzeRun R;
  if (Status != -1 && WIFEXITED(Status))
    R.Exit = WEXITSTATUS(Status);
  R.Out = readFile(Base + ".out");
  R.Err = readFile(Base + ".err");
  return R;
}

TEST(AnalyzeExitCodes, TruncatedTraceExitsTwoNamingTheLine) {
  std::string Trace = std::string(DLF_GOLDEN_DIR) + "/truncated.trace";
  for (const char *Mode : Modes) {
    AnalyzeRun R = runAnalyze(Trace, Mode);
    EXPECT_EQ(R.Exit, 2) << Mode;
    EXPECT_EQ(R.Out, "") << Mode;
    EXPECT_EQ(R.Err, "error: " + Trace +
                         ":12: malformed release event: 'R 1' (truncated or "
                         "corrupt trace)\n")
        << Mode;
  }
}

TEST(AnalyzeExitCodes, HeaderOnlyTraceExitsThree) {
  std::string Trace = std::string(DLF_GOLDEN_DIR) + "/header-only.trace";
  for (const char *Mode : Modes) {
    AnalyzeRun R = runAnalyze(Trace, Mode);
    EXPECT_EQ(R.Exit, 3) << Mode;
    EXPECT_EQ(R.Out, "") << Mode;
    EXPECT_EQ(R.Err, "error: trace file " + Trace +
                         " contains no events (did the traced program run "
                         "under LD_PRELOAD with DLF_PRELOAD_TRACE set?)\n")
        << Mode;
  }
}

TEST(AnalyzeExitCodes, WarningBeforeCorruptLineLeavesOnlyTheErrorLine) {
  // The default-mode walker warns about the undeclared thread's acquire
  // before the reader reaches the cut line; the warning must not leak.
  std::string Trace =
      std::string(DLF_GOLDEN_DIR) + "/warn-then-truncated.trace";
  for (const char *Mode : Modes) {
    AnalyzeRun R = runAnalyze(Trace, Mode);
    EXPECT_EQ(R.Exit, 2) << Mode;
    EXPECT_EQ(R.Out, "") << Mode;
    EXPECT_EQ(R.Err, "error: " + Trace +
                         ":8: malformed release event: 'R 1' (truncated or "
                         "corrupt trace)\n")
        << Mode;
  }
}

TEST(AnalyzeExitCodes, MissingTraceExitsTwo) {
  std::string Trace = std::string(DLF_GOLDEN_DIR) + "/no-such.trace";
  AnalyzeRun R = runAnalyze(Trace);
  EXPECT_EQ(R.Exit, 2);
  EXPECT_EQ(R.Out, "");
  EXPECT_EQ(R.Err, "error: cannot open trace file " + Trace + "\n");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DLF_HAS_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DLF_HAS_SHADOW_SANITIZER 1
#endif
#endif

/// Writes a lock-storm trace of about \p Events events to \p Path: main
/// names eight pool locks, then two workers take nested pairs between them
/// (A/A/R/R lines with mangled acquire sites, as the preload records them).
void writeStormTrace(const std::string &Path, uint64_t Events) {
  using K = TraceEvent::Kind;
  const std::string Outer =
      "_ZN12_GLOBAL__N_110nestedPairEP15pthread_mutex_tS1_+0x1c";
  const std::string Inner =
      "_ZN12_GLOBAL__N_110nestedPairEP15pthread_mutex_tS1_+0x28";
  std::string Text = interpose::TraceHeader;
  auto Add = [&Text](K Kind, uint64_t A, uint64_t B, std::string_view Site) {
    interpose::appendTraceLine({Kind, A, B, Site}, Text);
  };
  Add(K::ThreadNew, 1, 0, "main#1");
  for (uint64_t L = 1; L <= 8; ++L)
    Add(K::LockNew, L, 0, "touch+0x12#" + std::to_string(L));
  for (uint64_t T : {uint64_t(2), uint64_t(3)}) {
    Add(K::ThreadNew, T, 0, "main+0x1a2#" + std::to_string(T - 1));
    Add(K::Fork, 1, T, "");
  }
  for (uint64_t I = 0; I != Events / 4; ++I) {
    uint64_t T = 2 + I % 2;
    uint64_t A = 1 + (I * 7) % 7;
    uint64_t B = A + 1 + (I * 3) % (8 - A);
    Add(K::Acquire, T, A, Outer);
    Add(K::Acquire, T, B, Inner);
    Add(K::Release, T, B, "");
    Add(K::Release, T, A, "");
  }
  std::ofstream(Path, std::ios::binary) << Text;
}

/// Peak RSS in KiB of one dlf-analyze run over \p Trace (wait4's
/// ru_maxrss), output discarded; -1 when it did not exit 0.
long analyzePeakRssKb(const std::string &Trace, const std::string &Mode) {
  std::vector<std::string> Args = {DLF_ANALYZE_BIN, Trace};
  if (Mode != "default")
    Args.push_back("--" + Mode);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&Actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Argv[0], &Actions, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0)
    return -1;
  int Status = 0;
  struct rusage Usage {};
  if (wait4(Pid, &Status, 0, &Usage) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return -1;
  return Usage.ru_maxrss;
}

TEST(AnalyzeMemory, PeakRssDoesNotGrowWithTraceLength) {
#ifdef DLF_HAS_SHADOW_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory and quarantine dominate RSS";
#else
  // A trace ten times longer must not raise any mode's peak by 8 MB;
  // holding its events, as a collecting reader does, adds 14 MB or more.
  std::string Base = ::testing::TempDir() + "/dlf_golden_rss_" +
                     std::to_string(getpid());
  std::string Short = Base + ".40k.trace";
  std::string Long = Base + ".400k.trace";
  writeStormTrace(Short, 40000);
  writeStormTrace(Long, 400000);
  for (const char *Mode : Modes) {
    long ShortKb = analyzePeakRssKb(Short, Mode);
    long LongKb = analyzePeakRssKb(Long, Mode);
    ASSERT_GT(ShortKb, 0) << Mode;
    ASSERT_GT(LongKb, 0) << Mode;
    EXPECT_LT(LongKb - ShortKb, 8 * 1024)
        << Mode << ": " << ShortKb << " KiB at 40k events, " << LongKb
        << " KiB at 400k";
  }
  std::remove(Short.c_str());
  std::remove(Long.c_str());
#endif
}

} // namespace

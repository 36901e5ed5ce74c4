//===- tests/GoldenReportTest.cpp - dlf-analyze reports vs. golden files ---===//
//
// Runs dlf-analyze in its three report modes (default, --predict, --races)
// over the hand-written traces in tests/fixtures/golden and diffs stdout
// against the checked-in reports. Together the traces use every trace
// line kind, so any change to how the analyses walk a trace that moves a
// single byte of a report fails here. The only run-dependent line, the
// closure timing line, has its microsecond and per-second figures masked
// (chains and jobs stay checked). The exit-code tests pin how dlf-analyze
// refuses a truncated trace (2), a trace without events (3) and a missing
// path (2): nothing on stdout, the reason on stderr.
//
// To re-record after an intended report change:
//   dlf-analyze T.trace [--predict|--races] 2>/dev/null | <same mask>
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>

#include <sys/wait.h>

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

TEST_P(GoldenReport, StdoutMatchesCheckedInReport) {
  auto [Trace, Mode] = GetParam();
  std::string Dir = DLF_GOLDEN_DIR;
  std::string Flag = std::string(Mode) == "default" ? "" : " --" + std::string(Mode);
  std::string Actual = maskTiming(
      captureStdout(std::string(DLF_ANALYZE_BIN) + " " + Dir + "/" + Trace +
                    ".trace" + Flag + " 2>/dev/null"));
  std::string Expected =
      readFile(Dir + "/" + Trace + "." + Mode + ".out");
  ASSERT_FALSE(Expected.empty()) << "missing golden file";
  EXPECT_EQ(Actual, Expected);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, GoldenReport,
    ::testing::Combine(::testing::Values("alphabet", "ring"),
                       ::testing::Values("default", "predict", "races")),
    [](const ::testing::TestParamInfo<GoldenCase> &Info) {
      return std::string(std::get<0>(Info.param)) + "_" +
             std::get<1>(Info.param);
    });

/// One dlf-analyze run over \p Trace: exit code, stdout and stderr.
struct AnalyzeRun {
  int Exit = -1;
  std::string Out;
  std::string Err;
};

AnalyzeRun runAnalyze(const std::string &Trace) {
  // One file pair per test: ctest runs the tests of this binary in
  // parallel.
  std::string Base =
      ::testing::TempDir() + "/dlf_golden_exit_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  int Status = std::system((std::string(DLF_ANALYZE_BIN) + " " + Trace +
                            " >" + Base + ".out 2>" + Base + ".err")
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
  AnalyzeRun R = runAnalyze(Trace);
  EXPECT_EQ(R.Exit, 2);
  EXPECT_EQ(R.Out, "");
  EXPECT_EQ(R.Err, "error: " + Trace +
                       ":12: malformed release event: 'R 1' (truncated or "
                       "corrupt trace)\n");
}

TEST(AnalyzeExitCodes, HeaderOnlyTraceExitsThree) {
  std::string Trace = std::string(DLF_GOLDEN_DIR) + "/header-only.trace";
  AnalyzeRun R = runAnalyze(Trace);
  EXPECT_EQ(R.Exit, 3);
  EXPECT_EQ(R.Out, "");
  EXPECT_NE(R.Err.find("trace file " + Trace + " contains no events"),
            std::string::npos)
      << R.Err;
}

TEST(AnalyzeExitCodes, MissingTraceExitsTwo) {
  std::string Trace = std::string(DLF_GOLDEN_DIR) + "/no-such.trace";
  AnalyzeRun R = runAnalyze(Trace);
  EXPECT_EQ(R.Exit, 2);
  EXPECT_EQ(R.Out, "");
  EXPECT_EQ(R.Err, "error: cannot open trace file " + Trace + "\n");
}

} // namespace

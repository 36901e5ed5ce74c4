//===- tests/GoldenReportTest.cpp - dlf-analyze reports vs. golden files ---===//
//
// Runs dlf-analyze in its three report modes (default, --predict, --races)
// over the hand-written traces in tests/fixtures/golden and diffs stdout
// against the checked-in reports. Together the traces use every trace
// line kind, so any change to how the analyses walk a trace that moves a
// single byte of a report fails here. The only run-dependent line, the
// closure timing line, has its microsecond and per-second figures masked
// (chains and jobs stay checked).
//
// To re-record after an intended report change:
//   dlf-analyze T.trace [--predict|--races] 2>/dev/null | <same mask>
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>

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

} // namespace

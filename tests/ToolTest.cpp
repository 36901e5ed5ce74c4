//===- tests/ToolTest.cpp - dlf-run CLI end-to-end ----------------------------===//
//
// Drives the built dlf-run binary through real subprocesses: benchmark
// listing, phase-1 cycle counts, the save/load report workflow, variant
// flags, and error handling.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sched.h>
#include <sys/wait.h>

namespace {

int runCommand(const std::string &Command) {
  int Status = std::system(Command.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

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

std::string tool() { return DLF_RUN_BIN; }

TEST(DlfRun, ListShowsEveryBenchmark) {
  std::string Out = captureCommand(tool() + " --list");
  for (const char *Name : {"cache4j", "sor", "hedc", "jspider", "jigsaw",
                           "logging", "swing", "dbcp", "collections-lists",
                           "collections-maps"})
    EXPECT_NE(Out.find(Name), std::string::npos) << Name << "\n" << Out;
}

TEST(DlfRun, Phase1OnlyReportsCycleCounts) {
  std::string Out = captureCommand(tool() + " dbcp --phase1-only");
  EXPECT_NE(Out.find("2 potential cycle(s)"), std::string::npos) << Out;
  std::string Clean = captureCommand(tool() + " hedc --phase1-only");
  EXPECT_NE(Clean.find("0 potential cycle(s)"), std::string::npos) << Clean;
}

TEST(DlfRun, FuzzTableShowsReproductions) {
  std::string Out = captureCommand(tool() + " swing --reps 5");
  EXPECT_NE(Out.find("phase 2 (exec-index, context, yields):"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("5/5"), std::string::npos) << Out;
}

TEST(DlfRun, SaveAndLoadCycles) {
  std::string Path = std::string(::testing::TempDir()) + "/dlfrun_cycles.txt";
  std::remove(Path.c_str());
  ASSERT_EQ(runCommand(tool() + " dbcp --phase1-only --save-cycles " + Path +
                       " >/dev/null"),
            0);
  std::string Out =
      captureCommand(tool() + " dbcp --cycles " + Path + " --reps 3");
  EXPECT_NE(Out.find("loaded 2 cycle(s)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("phase 2"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(DlfRun, VariantFlagIsHonored) {
  std::string Out =
      captureCommand(tool() + " swing --reps 2 --variant 5");
  EXPECT_NE(Out.find("no-yields"), std::string::npos) << Out;
  std::string KObj = captureCommand(tool() + " swing --reps 2 --variant 1");
  EXPECT_NE(KObj.find("k-object"), std::string::npos) << KObj;
}

TEST(DlfRun, NormalRunsReportNoDeadlocks) {
  // Table 1's "Normal deadlocks" column is a one-CPU claim: with several
  // cores an uninstrumented run of logging can really deadlock. Pin this
  // process to the CPU it runs on; the dlf-run child inherits the mask.
  cpu_set_t Saved, One;
  ASSERT_EQ(sched_getaffinity(0, sizeof(Saved), &Saved), 0);
  CPU_ZERO(&One);
  CPU_SET(sched_getcpu(), &One);
  ASSERT_EQ(sched_setaffinity(0, sizeof(One), &One), 0);
  std::string Out = captureCommand(tool() + " logging --normal 5");
  sched_setaffinity(0, sizeof(Saved), &Saved);
  EXPECT_NE(Out.find("uninstrumented runs: 5, deadlocked: 0"),
            std::string::npos)
      << Out;
}

TEST(DlfRun, HbFlagFiltersJigsaw) {
  std::string Plain =
      captureCommand(tool() + " jigsaw --phase1-only --hb off");
  std::string Filtered =
      captureCommand(tool() + " jigsaw --phase1-only --hb fork-join");
  // Fork/join filtering must strictly reduce jigsaw's report (the §5.4
  // false positives disappear) but not empty it.
  auto CycleCount = [](const std::string &Out) {
    size_t Pos = Out.find(" potential cycle(s)");
    size_t Start = Out.rfind(' ', Pos - 1);
    return std::stoul(Out.substr(Start + 1, Pos - Start - 1));
  };
  unsigned long PlainCount = CycleCount(Plain);
  unsigned long FilteredCount = CycleCount(Filtered);
  EXPECT_LT(FilteredCount, PlainCount);
  EXPECT_GT(FilteredCount, 4ul);
  EXPECT_EQ(runCommand(tool() + " jigsaw --hb bogus >/dev/null 2>&1"), 1);
}

TEST(DlfRun, HealReportsCompletions) {
  std::string Out =
      captureCommand(tool() + " dbcp --reps 4 --heal 6 2>/dev/null");
  EXPECT_NE(Out.find("healing: immunity against"), std::string::npos) << Out;
  EXPECT_NE(Out.find("6/6 random executions completed"), std::string::npos)
      << Out;
}

/// The dlf_scheduler_runs_total counter of a --metrics-out export made by
/// dlf-run with \p Args; -1 if the run or the export failed.
long schedulerRuns(const std::string &Args) {
  std::string Path =
      ::testing::TempDir() + "dlfrun-runs-" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  std::remove(Path.c_str());
  if (runCommand(tool() + " " + Args + " --metrics-out " + Path +
                 " >/dev/null 2>&1") != 0)
    return -1;
  std::string Json = captureCommand("cat " + Path);
  std::remove(Path.c_str());
  const std::string Key = "\"dlf_scheduler_runs_total\":";
  size_t Pos = Json.find(Key);
  return Pos == std::string::npos
             ? -1
             : std::stol(Json.substr(Pos + Key.size()));
}

TEST(DlfRun, HealReusesThePhaseTwoTable) {
  // Every execution is one scheduler run: the Phase I attempts, each
  // cycle's reps once (the table's; --heal fuzzes only the cycles --cycle
  // left out), and the heal runs. dbcp reports 2 cycles.
  const long PhaseOne = schedulerRuns("dbcp --phase1-only");
  ASSERT_GT(PhaseOne, 0);
  EXPECT_EQ(schedulerRuns("dbcp --reps 4 --heal 3"), PhaseOne + 2 * 4 + 3);
  EXPECT_EQ(schedulerRuns("dbcp --reps 4 --cycle 1 --heal 3"),
            PhaseOne + 2 * 4 + 3);
}

TEST(DlfRun, CampaignCompletesAndResumesFromJournal) {
  std::string Journal = ::testing::TempDir() + "dlfrun-campaign.jsonl";
  std::remove(Journal.c_str());
  std::string Out = captureCommand(tool() + " dbcp --campaign --reps 2" +
                                   " --journal " + Journal);
  EXPECT_NE(Out.find("campaign complete"), std::string::npos) << Out;
  EXPECT_NE(Out.find("reps executed 4"), std::string::npos) << Out;

  // Resuming a completed campaign replays everything from the journal and
  // executes nothing fresh.
  EXPECT_EQ(runCommand(tool() + " dbcp --campaign --reps 2 --resume " +
                       Journal + " >/dev/null 2>&1"),
            0);
  std::string Resumed = captureCommand(
      tool() + " dbcp --campaign --reps 2 --resume " + Journal);
  EXPECT_NE(Resumed.find("reps executed 0, replayed from journal 4"),
            std::string::npos)
      << Resumed;
  // A fingerprint mismatch (different reps) must refuse to resume.
  EXPECT_NE(runCommand(tool() + " dbcp --campaign --reps 5 --resume " +
                       Journal + " >/dev/null 2>&1"),
            0);
  std::remove(Journal.c_str());
}

TEST(DlfRun, ErrorsAreReported) {
  EXPECT_NE(runCommand(tool() + " nonexistent >/dev/null 2>&1"), 0);
  EXPECT_NE(runCommand(tool() + " swing --variant 9 >/dev/null 2>&1"), 0);
  EXPECT_NE(runCommand(tool() + " swing --bogus-flag >/dev/null 2>&1"), 0);
  EXPECT_NE(runCommand(tool() + " swing --cycles /nonexistent/file "
                               ">/dev/null 2>&1"),
            0);
  EXPECT_NE(runCommand(tool() + " >/dev/null 2>&1"), 0);
}

TEST(DlfRun, MalformedNumericFlagsAreUsageErrors) {
  // atoi would have silently turned each of these into 0; strict parsing
  // must reject them with a non-zero exit and a clear message.
  for (const char *Bad :
       {" dbcp --campaign --run-timeout-ms abc", " dbcp --reps -3",
        " dbcp --campaign --jobs junk", " dbcp --seed 12x",
        " dbcp --campaign --budget-s", " dbcp --max-cycle-length 1e3"})
    EXPECT_NE(runCommand(tool() + Bad + " >/dev/null 2>&1"), 0) << Bad;
  std::string Err = captureCommand(
      tool() + " dbcp --campaign --run-timeout-ms abc 2>&1 >/dev/null");
  EXPECT_NE(Err.find("expects a non-negative integer"), std::string::npos)
      << Err;
}

TEST(DlfRun, GuardedCampaignSkipsDischargedCycle) {
  // Phase I on the gate-lock benchmark finds the guarded cycle; Phase II
  // must spend no repetitions on it by default and name the verdict.
  std::string Out =
      captureCommand(tool() + " guarded --campaign --reps 3 --seed 7");
  EXPECT_NE(Out.find("1 potential cycle(s)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("SKIPPED"), std::string::npos) << Out;
  EXPECT_NE(Out.find("statically discharged as guarded (guard lock: "),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("reps executed 0"), std::string::npos) << Out;

  // --include-guarded buys the cycle its repetitions back; with the same
  // seed the total executed reps must strictly exceed the skipping run's.
  std::string Inc = captureCommand(
      tool() + " guarded --campaign --reps 3 --seed 7 --include-guarded");
  EXPECT_NE(Inc.find("reps executed 3"), std::string::npos) << Inc;
  EXPECT_EQ(Inc.find("SKIPPED"), std::string::npos) << Inc;
  // The guard protects the inversion: the cycle can never actually
  // deadlock, so no repetition reproduces it.
  EXPECT_NE(Inc.find("| 0/3"), std::string::npos) << Inc;
}

TEST(DlfRun, ConflictingCampaignFlagsAreRejected) {
  EXPECT_NE(runCommand(tool() + " dbcp --jobs 2 >/dev/null 2>&1"), 0)
      << "--jobs without --campaign";
  EXPECT_NE(runCommand(tool() + " dbcp --include-guarded >/dev/null 2>&1"), 0)
      << "--include-guarded without --campaign";
  EXPECT_NE(runCommand(tool() + " dbcp --campaign --resume a.jsonl "
                                "--journal b.jsonl >/dev/null 2>&1"),
            0)
      << "--resume FILE and --journal FILE conflict";
}

TEST(DlfRun, InjectedRunnerKillLeavesAResumableJournal) {
  std::string Journal = ::testing::TempDir() + "dlfrun-kill.jsonl";
  std::remove(Journal.c_str());
  // The runner SIGKILLs itself right after committing the third rep
  // record — the closest a test can get to a host dying mid-campaign. The
  // shell reports the signal death as 128 + SIGKILL.
  EXPECT_EQ(runCommand(tool() + " dbcp --campaign --reps 3 --journal " +
                       Journal + " --faults runner.kill@3 >/dev/null 2>&1"),
            137);
  // The journal survives as a clean CRC-intact prefix: resuming (without
  // the fault plan) replays the three committed reps and finishes the rest.
  std::string Resumed = captureCommand(
      tool() + " dbcp --campaign --reps 3 --resume " + Journal);
  EXPECT_NE(Resumed.find("campaign complete"), std::string::npos) << Resumed;
  EXPECT_NE(Resumed.find("reps executed 3, replayed from journal 3"),
            std::string::npos)
      << Resumed;
  std::remove(Journal.c_str());
}

TEST(DlfRun, FaultAndChaosFlagsAreValidated) {
  EXPECT_NE(
      runCommand(tool() + " dbcp --faults runner.kill@1 >/dev/null 2>&1"), 0)
      << "--faults without --campaign";
  EXPECT_NE(runCommand(tool() + " dbcp --chaos 3 >/dev/null 2>&1"), 0)
      << "--chaos without --campaign";
  std::string Err = captureCommand(
      tool() + " dbcp --campaign --faults journal.bogus@1 2>&1 >/dev/null");
  EXPECT_NE(Err.find("unknown site"), std::string::npos) << Err;
}

TEST(DlfRun, ChaosCampaignCompletesAndEchoesItsPlan) {
  std::string Journal = ::testing::TempDir() + "dlfrun-chaos.jsonl";
  std::remove(Journal.c_str());
  std::remove((Journal + ".broken").c_str());
  std::string Out = captureCommand(tool() + " dbcp --campaign --reps 2" +
                                   " --run-timeout-ms 2000 --chaos 5" +
                                   " --journal " + Journal + " 2>/dev/null");
  EXPECT_NE(Out.find("chaos plan (seed 5):"), std::string::npos) << Out;
  EXPECT_NE(Out.find("campaign complete"), std::string::npos) << Out;
  std::remove(Journal.c_str());
  std::remove((Journal + ".broken").c_str());
}

TEST(DlfRun, ParallelCampaignMatchesSerialCounts) {
  std::string SerialJ = ::testing::TempDir() + "dlfrun-jobs1.jsonl";
  std::string ParallelJ = ::testing::TempDir() + "dlfrun-jobs4.jsonl";
  std::remove(SerialJ.c_str());
  std::remove(ParallelJ.c_str());
  std::string Serial = captureCommand(tool() + " dbcp --campaign --reps 3" +
                                      " --jobs 1 --journal " + SerialJ);
  std::string Parallel = captureCommand(tool() + " dbcp --campaign --reps 3" +
                                        " --jobs 4 --journal " + ParallelJ);
  // The per-cycle table rows (counts, probabilities) must be byte-identical
  // whatever the worker count.
  auto TableRows = [](const std::string &Out) {
    std::string Rows;
    size_t Pos = 0;
    while ((Pos = Out.find("| #", Pos)) != std::string::npos) {
      size_t End = Out.find('\n', Pos);
      Rows += Out.substr(Pos, End - Pos) + "\n";
      Pos = End;
    }
    return Rows;
  };
  EXPECT_FALSE(TableRows(Serial).empty()) << Serial;
  EXPECT_EQ(TableRows(Serial), TableRows(Parallel)) << Serial << Parallel;
  EXPECT_NE(Parallel.find("reps/s"), std::string::npos) << Parallel;
  EXPECT_NE(Parallel.find("peak 4 concurrent"), std::string::npos) << Parallel;
  EXPECT_NE(Parallel.find("jobs 4"), std::string::npos) << Parallel;
  std::remove(SerialJ.c_str());
  std::remove(ParallelJ.c_str());
}

} // namespace

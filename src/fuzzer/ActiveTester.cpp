//===- fuzzer/ActiveTester.cpp - Two-phase driver ---------------------------===//

#include "fuzzer/ActiveTester.h"

#include "analysis/TraceRecorder.h"
#include "campaign/ProcessSandbox.h"
#include "fuzzer/CycleSpec.h"
#include "fuzzer/DeadlockFuzzerStrategy.h"
#include "fuzzer/RandomStrategy.h"
#include "runtime/Runtime.h"
#include "support/Debug.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dlf;

ActiveTester::ActiveTester(Program P, ActiveTesterConfig Config)
    : TheProgram(std::move(P)), Config(std::move(Config)) {}

PhaseOneResult ActiveTester::runPhaseOne() {
  // Observe an execution with the simple random scheduler and recording
  // enabled. A random execution can itself deadlock (rarely, by workload
  // construction): its partial log is still a valid observation, so we
  // union the abstract cycles of every attempt and stop early as soon as
  // one attempt completes — a completed attempt has observed the whole
  // program.
  if (Config.PhaseOneMode == RunMode::Record) {
    // Observe a real concurrent execution (no schedule control).
    PhaseOneResult R;
    Options Opts = Config.Base;
    Opts.Mode = RunMode::Record;
    Opts.RecordDependencies = true;
    analysis::TraceRecorder Tee(&R.Log);
    Runtime RT(Opts, nullptr,
               Config.RecordTrace ? static_cast<DependencyRecorder *>(&Tee)
                                  : &R.Log);
    R.Exec = RT.run(TheProgram);
    if (Config.RecordTrace)
      R.Trace = Tee.takeEvents();
    R.SeedsTried.push_back(Config.PhaseOneSeed);
    R.Cycles = runIGoodlock(R.Log, Config.Goodlock, &R.Stats);
    return R;
  }

  PhaseOneResult Best;
  bool HaveAny = false;
  std::vector<AbstractCycle> Union;
  std::unordered_set<std::string> UnionKeys;
  auto Merge = [&](std::vector<AbstractCycle> Cycles) {
    for (AbstractCycle &C : Cycles) {
      std::string Key =
          C.key(AbstractionKind::ExecutionIndex, /*UseContext=*/true);
      if (UnionKeys.insert(Key).second)
        Union.push_back(std::move(C));
    }
  };

  std::vector<uint64_t> SeedsTried;
  for (unsigned Attempt = 0; Attempt <= Config.PhaseOneRetries; ++Attempt) {
    PhaseOneResult R;
    Options Opts = Config.Base;
    Opts.Mode = RunMode::Active;
    Opts.Seed = Config.PhaseOneSeed + Attempt;
    Opts.RecordDependencies = true;
    SeedsTried.push_back(Opts.Seed);

    SimpleRandomStrategy Random;
    analysis::TraceRecorder Tee(&R.Log);
    Runtime RT(Opts, &Random,
               Config.RecordTrace ? static_cast<DependencyRecorder *>(&Tee)
                                  : &R.Log);
    R.Exec = RT.run(TheProgram);
    if (Config.RecordTrace)
      R.Trace = Tee.takeEvents();

    if (R.Exec.Completed) {
      // A full observation: its own cycles are authoritative.
      R.SeedsTried = std::move(SeedsTried);
      R.Cycles = runIGoodlock(R.Log, Config.Goodlock, &R.Stats);
      return R;
    }
    DLF_DEBUG_LOG("phase-one attempt " << Attempt << " (seed " << Opts.Seed
                                       << ") stalled; retrying");
    Merge(runIGoodlock(R.Log, Config.Goodlock, &R.Stats));
    if (!HaveAny) {
      Best = std::move(R);
      HaveAny = true;
    }
  }
  // Every attempt stalled: surface exhaustion as a structured error (the
  // cycle union is still usable, but callers must not mistake an empty
  // union for a clean program).
  Best.Cycles = std::move(Union);
  Best.SeedsTried = std::move(SeedsTried);
  Best.RetriesExhausted = true;
  {
    std::ostringstream OS;
    OS << "phase 1: all " << Best.SeedsTried.size()
       << " observation attempts stalled (seeds";
    for (uint64_t S : Best.SeedsTried)
      OS << " " << S;
    OS << "); reporting the union of " << Best.Cycles.size()
       << " cycle(s) from partial observations";
    Best.Error = OS.str();
  }
  DLF_DEBUG_LOG(Best.Error);
  return Best;
}

ExecutionResult ActiveTester::runOnce(const AbstractCycle &Cycle,
                                      uint64_t Seed) {
  Options Opts = Config.Base;
  Opts.Mode = RunMode::Active;
  Opts.Seed = Seed;
  Opts.RecordDependencies = false;

  CycleSpec Spec(Cycle, Opts.Kind, Opts.UseContext);
  DeadlockFuzzerStrategy Strategy(std::move(Spec));
  Runtime RT(Opts, &Strategy, nullptr);
  return RT.run(TheProgram);
}

const char *dlf::repClassName(RepClass C) {
  switch (C) {
  case RepClass::Completed:
    return "completed";
  case RepClass::Reproduced:
    return "reproduced";
  case RepClass::OtherDeadlock:
    return "other-deadlock";
  case RepClass::Stalled:
    return "stalled";
  }
  return "unknown";
}

RepClass ActiveTester::classify(const ExecutionResult &R,
                                const AbstractCycle &Cycle) const {
  if (R.DeadlockFound && R.Witness)
    return witnessMatchesCycle(*R.Witness, Cycle, Config.Base.Kind,
                               Config.Base.UseContext)
               ? RepClass::Reproduced
               : RepClass::OtherDeadlock;
  if (R.Stalled || R.LivelockAborted)
    return RepClass::Stalled;
  return RepClass::Completed;
}

CycleFuzzStats ActiveTester::fuzzCycle(const AbstractCycle &Cycle) {
  CycleFuzzStats Stats;
  Stats.Cycle = Cycle;
  for (unsigned Rep = 0; Rep != Config.PhaseTwoReps; ++Rep) {
    ExecutionResult R = runOnce(Cycle, Config.PhaseTwoSeedBase + Rep);
    ++Stats.Runs;
    Stats.TotalThrashes += R.Thrashes;
    Stats.TotalForcedUnpauses += R.ForcedUnpauses;
    Stats.TotalWallMs += R.WallMs;
    switch (classify(R, Cycle)) {
    case RepClass::Reproduced:
      ++Stats.ReproducedTarget;
      break;
    case RepClass::OtherDeadlock:
      ++Stats.OtherDeadlocks;
      break;
    case RepClass::Stalled:
      ++Stats.Stalls;
      break;
    case RepClass::Completed:
      ++Stats.CleanRuns;
      break;
    }
  }
  return Stats;
}

ActiveTesterReport ActiveTester::run() {
  ActiveTesterReport Report;
  Report.PhaseOne = runPhaseOne();
  for (const AbstractCycle &Cycle : Report.PhaseOne.Cycles)
    Report.PerCycle.push_back(fuzzCycle(Cycle));
  return Report;
}

ExecutionResult ActiveTester::runPassthrough() {
  Options Opts = Config.Base;
  Opts.Mode = RunMode::Passthrough;
  Runtime RT(Opts);
  return RT.run(TheProgram);
}

ExecutionResult
ActiveTester::runWithImmunity(const std::vector<CycleSpec> &Immunity,
                              uint64_t Seed) {
  Options Opts = Config.Base;
  Opts.Mode = RunMode::Active;
  Opts.Seed = Seed;
  SimpleRandomStrategy Random;
  Runtime RT(Opts, &Random, nullptr, &Immunity);
  return RT.run(TheProgram);
}

std::vector<CycleSpec>
ActiveTester::buildImmunity(const ActiveTesterReport &Report,
                            AbstractionKind Kind) {
  std::vector<CycleSpec> Immunity;
  for (const CycleFuzzStats &Stats : Report.PerCycle)
    if (Stats.ReproducedTarget > 0)
      Immunity.emplace_back(Stats.Cycle, Kind, /*UseContext=*/true);
  return Immunity;
}

bool ActiveTester::witnessMatchesCycle(const DeadlockWitness &Witness,
                                       const AbstractCycle &Cycle,
                                       AbstractionKind Kind, bool UseContext) {
  if (Witness.Edges.size() != Cycle.Components.size())
    return false;
  // Render the witness as an abstract cycle and compare canonical keys.
  AbstractCycle FromWitness;
  for (const DeadlockWitness::Edge &E : Witness.Edges) {
    CycleComponent C;
    C.Thread = E.Thread;
    C.ThreadName = E.ThreadName;
    C.ThreadAbs = E.ThreadAbs;
    C.Lock = E.WaitLock;
    C.LockName = E.WaitLockName;
    C.LockAbs = E.WaitLockAbs;
    C.Context = E.Context;
    FromWitness.Components.push_back(std::move(C));
  }
  return FromWitness.key(Kind, UseContext) == Cycle.key(Kind, UseContext);
}

unsigned ActiveTesterReport::confirmedCycles() const {
  unsigned Count = 0;
  for (const CycleFuzzStats &S : PerCycle)
    if (S.ReproducedTarget > 0)
      ++Count;
  return Count;
}

std::string ActiveTesterReport::toString() const {
  std::ostringstream OS;
  OS << "iGoodlock: " << PhaseOne.Cycles.size()
     << " potential deadlock cycle(s) from " << PhaseOne.Log.entries().size()
     << " dependency entries\n";
  for (size_t I = 0; I != PerCycle.size(); ++I) {
    const CycleFuzzStats &S = PerCycle[I];
    OS << "cycle #" << I << ": reproduced " << S.ReproducedTarget << "/"
       << S.Runs << " (p=" << S.probability() << ", other deadlocks "
       << S.OtherDeadlocks << ", stalls " << S.Stalls << ", avg thrashes "
       << S.avgThrashes() << ")\n";
    OS << S.Cycle.toString();
  }
  return OS.str();
}

ForkedRuns dlf::runForkedRuns(const Program &P, unsigned Runs,
                              uint64_t TimeoutMs) {
  campaign::SandboxLimits Limits;
  Limits.TimeoutMs = TimeoutMs;
  ForkedRuns Out;
  unsigned Done = 0;
  while (Done != Runs) {
    const unsigned Left = Runs - Done;
    campaign::SandboxResult R = campaign::runInSandbox(
        [&](int Fd) {
          for (unsigned I = 0; I != Left; ++I) {
            auto Start = std::chrono::steady_clock::now();
            P();
            double Ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
            if (!campaign::writeFrame(Fd, std::to_string(Ms)))
              return 1;
          }
          return 0;
        },
        Limits,
        [&](std::string Frame) {
          Out.WallMs.push_back(std::strtod(Frame.c_str(), nullptr));
          ++Done;
        });
    if (Done == Runs)
      break;
    // The child ended without the frame of the run it was in.
    if (R.Status == campaign::SandboxStatus::Hung)
      ++Out.Hung;
    else
      ++Out.Crashed;
    ++Done;
  }
  return Out;
}

//===- analysis/LogBuilder.cpp - Trace events to dependency log -------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LogBuilder.h"

#include "interpose/TraceFormat.h"

#include <ostream>

namespace dlf {
namespace analysis {

std::string cycleSpecOf(const AbstractCycle &Cycle) {
  std::vector<interpose::CycleSpecComponent> Spec;
  Spec.reserve(Cycle.Components.size());
  for (const CycleComponent &Comp : Cycle.Components) {
    interpose::CycleSpecComponent C{Comp.ThreadName, Comp.LockName, {}};
    for (Label Site : Comp.Context)
      C.Context.push_back(Site.text());
    Spec.push_back(std::move(C));
  }
  return interpose::encodeCycleSpec(Spec);
}

void IncrementalLogBuilder::feed(const TraceEvent &E) {
  LogVisitor V(Walker, Log);
  Walker.step(E, V);
}

void IncrementalLogBuilder::feed(const std::vector<TraceEvent> &Events) {
  for (const TraceEvent &E : Events)
    feed(E);
}

void printCycleReport(std::ostream &OS, const char *Tool,
                      const LockDependencyLog &Log,
                      const std::vector<AbstractCycle> &Cycles,
                      const std::vector<CycleClassification> &Classes,
                      const IGoodlockStats &Stats) {
  size_t Schedulable = 0;
  for (const CycleClassification &C : Classes)
    Schedulable += C.schedulable();

  OS << Tool << ": " << Log.entries().size() << " dependency entries, "
     << Log.acquireEvents() << " acquire events, " << Cycles.size()
     << " potential deadlock cycle(s)\n";
  OS << "pruner: " << Schedulable << " schedulable, "
     << (Cycles.size() - Schedulable) << " statically discharged\n";
  OS << "closure: " << Stats.ChainsExplored << " chains, "
     << Stats.ElapsedMicros << " us, "
     << static_cast<uint64_t>(Stats.entriesPerSecond()) << " entries/s, "
     << static_cast<uint64_t>(Stats.chainsPerSecond()) << " chains/s, jobs "
     << Stats.JobsUsed << "\n\n";
  for (size_t I = 0; I != Cycles.size(); ++I) {
    const AbstractCycle &Cycle = Cycles[I];
    OS << "#" << I << " " << Cycle.toString();
    OS << "classification: " << Classes[I].label() << "\n";
    OS << "cycle-spec: " << cycleSpecOf(Cycle) << "\n\n";
  }
}

void printRaceReport(std::ostream &OS, const char *Tool,
                     const RaceAnalysis &Result) {
  OS << Tool << ": " << Result.ObjectsSeen << " shared object(s), "
     << Result.AccessesSeen << " access event(s), " << Result.RacyPairs
     << " racy pair(s)\n";
  if (Result.RacyPairs == 0 && Result.AccessesSeen == 0)
    OS << "note: trace has no access events; record them with "
          "DLF_TRACE_ACCESSES=1 and dlf_trace_read/dlf_trace_write\n";
  if (Result.RacyPairs > Result.Races.size())
    OS << "note: showing first " << Result.Races.size() << " of "
       << Result.RacyPairs << " racy pairs\n";
  OS << "\n";
  for (size_t I = 0; I != Result.Races.size(); ++I)
    OS << "#" << I << " " << Result.Races[I].toString() << "\n";
}

} // namespace analysis
} // namespace dlf

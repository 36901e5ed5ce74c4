//===- analysis/GuardPruner.cpp - Guard-lock cycle pruner -------------------===//

#include "analysis/GuardPruner.h"

#include "event/VectorClock.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <unordered_set>

using namespace dlf;
using namespace dlf::analysis;

const char *dlf::analysis::cycleClassName(CycleClass C) {
  switch (C) {
  case CycleClass::Schedulable:
    return "schedulable";
  case CycleClass::Guarded:
    return "guarded";
  case CycleClass::HBOrdered:
    return "hb-ordered";
  case CycleClass::SingleThread:
    return "single-thread";
  }
  return "schedulable";
}

bool dlf::analysis::cycleClassFromName(const std::string &Name,
                                       CycleClass &Out) {
  for (CycleClass C :
       {CycleClass::Schedulable, CycleClass::Guarded, CycleClass::HBOrdered,
        CycleClass::SingleThread}) {
    if (Name == cycleClassName(C)) {
      Out = C;
      return true;
    }
  }
  return false;
}

std::string CycleClassification::label() const {
  std::string S = cycleClassName(Class);
  if (Class == CycleClass::Guarded && !GuardLock.empty())
    S += " (guard lock: " + GuardLock + ")";
  return S;
}

std::vector<size_t>
dlf::analysis::matchComponent(const std::vector<DependencyEntry> &Entries,
                              const CycleComponent &Comp) {
  std::vector<size_t> Exact;
  std::vector<size_t> Loose;
  for (size_t I = 0; I != Entries.size(); ++I) {
    const DependencyEntry &E = Entries[I];
    if (E.Thread != Comp.Thread || E.Acquired != Comp.Lock)
      continue;
    Loose.push_back(I);
    if (E.Context == Comp.Context)
      Exact.push_back(I);
  }
  return Exact.empty() ? Loose : Exact;
}

namespace {

/// The mode of a held occurrence; entries recorded without modes default
/// to Exclusive (the pre-mode semantics).
LockMode heldModeAt(const DependencyEntry &E, size_t K) {
  return K < E.HeldModes.size() ? E.HeldModes[K] : LockMode::Exclusive;
}

} // namespace

// Held sets are tiny (lock-nesting depth), so the quadratic scan beats
// building hash sets. Exclusivity is ORed over every hold of the lock: a
// stack may name one lock twice, and any exclusive hold excludes.
bool dlf::analysis::findCommonGuard(const std::vector<DependencyEntry> &Entries,
                                    const std::vector<size_t> &Assign,
                                    LockId &Guard) {
  const DependencyEntry &First = Entries[Assign[0]];
  LockId Best; // invalid
  for (size_t K0 = 0; K0 != First.Held.size(); ++K0) {
    LockId L = First.Held[K0];
    bool Everywhere = true;
    bool AnyExclusive = heldModeAt(First, K0) == LockMode::Exclusive;
    for (size_t K = 1; K != Assign.size() && Everywhere; ++K) {
      const DependencyEntry &E = Entries[Assign[K]];
      bool Found = false;
      for (size_t H = 0; H != E.Held.size(); ++H)
        if (E.Held[H] == L) {
          Found = true;
          AnyExclusive |= heldModeAt(E, H) == LockMode::Exclusive;
        }
      Everywhere = Found;
    }
    if (Everywhere && AnyExclusive && (!Best.isValid() || L < Best))
      Best = L;
  }
  Guard = Best;
  return Best.isValid();
}

bool dlf::analysis::hasOrderedPair(
    const std::vector<const VectorClock *> &Clocks) {
  for (size_t I = 0; I != Clocks.size(); ++I) {
    for (size_t J = I + 1; J != Clocks.size(); ++J) {
      VcOrder O = vcOrder(*Clocks[I], *Clocks[J]);
      if (O == VcOrder::Before || O == VcOrder::After || O == VcOrder::Equal)
        return true;
    }
  }
  return false;
}

namespace {

CycleClassification classifyOne(const LockDependencyLog &Log,
                                const AbstractCycle &Cycle) {
  CycleClassification Result;

  std::unordered_set<ThreadId> Threads;
  for (const CycleComponent &Comp : Cycle.Components)
    Threads.insert(Comp.Thread);
  if (Threads.size() < 2) {
    Result.Class = CycleClass::SingleThread;
    return Result;
  }

  const std::vector<DependencyEntry> &Entries = Log.entries();
  std::vector<std::vector<size_t>> PerComp;
  uint64_t Assignments = 1;
  for (const CycleComponent &Comp : Cycle.Components) {
    std::vector<size_t> C = matchComponent(Entries, Comp);
    // A component with no witnessing entry (shouldn't happen for cycles the
    // closure itself produced, but deserialized cycles from another run can
    // get here): nothing provable, stay Schedulable.
    if (C.empty())
      return Result;
    if (Assignments > AssignmentCap / C.size())
      return Result;
    Assignments *= C.size();
    PerComp.push_back(std::move(C));
  }

  // A cycle is schedulable iff SOME assignment of witnessing entries is
  // simultaneously reachable. Track the discharging evidence of the best
  // non-schedulable verdict: a named guard beats a bare HB order because
  // it tells the user which lock to look at.
  bool SawGuard = false;
  bool SawOrdered = false;
  LockId GuardWitness;
  std::vector<size_t> Pick(PerComp.size());
  std::vector<const VectorClock *> Clocks(PerComp.size());
  for (uint64_t N = 0; N != Assignments; ++N) {
    uint64_t Rest = N;
    for (size_t I = 0; I != PerComp.size(); ++I) {
      Pick[I] = PerComp[I][Rest % PerComp[I].size()];
      Clocks[I] = &Entries[Pick[I]].Clock;
      Rest /= PerComp[I].size();
    }
    LockId Guard;
    if (findCommonGuard(Entries, Pick, Guard)) {
      if (!SawGuard || Guard < GuardWitness)
        GuardWitness = Guard;
      SawGuard = true;
      continue;
    }
    if (hasOrderedPair(Clocks)) {
      SawOrdered = true;
      continue;
    }
    return Result; // this assignment is schedulable — the cycle is
  }

  if (SawGuard) {
    Result.Class = CycleClass::Guarded;
    Result.GuardLock = Log.lockInfo(GuardWitness).Name;
  } else if (SawOrdered) {
    Result.Class = CycleClass::HBOrdered;
  }
  return Result;
}

} // namespace

std::vector<CycleClassification>
dlf::analysis::classifyCycles(const LockDependencyLog &Log,
                              const std::vector<AbstractCycle> &Cycles) {
  std::vector<CycleClassification> Out;
  Out.reserve(Cycles.size());
  for (const AbstractCycle &Cycle : Cycles)
    Out.push_back(classifyOne(Log, Cycle));
  if (telemetry::enabled()) {
    telemetry::Registry &R = telemetry::Registry::global();
    for (const CycleClassification &C : Out) {
      std::string Name = "dlf_analysis_cycles_";
      for (const char *P = cycleClassName(C.Class); *P; ++P)
        Name += *P == '-' ? '_' : *P;
      Name += "_total";
      R.counter(Name).inc();
    }
  }
  return Out;
}

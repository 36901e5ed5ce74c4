//===- analysis/RaceDetector.cpp - Lockset + epoch race detector ------------===//

#include "analysis/RaceDetector.h"

#include "analysis/SyncWalker.h"
#include "event/VectorClock.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

using namespace dlf;
using namespace dlf::analysis;

std::string RaceReport::toString() const {
  std::ostringstream OS;
  OS << "race on object " << Object;
  if (!ObjectAbs.empty())
    OS << " [" << ObjectAbs << "]";
  OS << "\n";
  for (const RaceAccess *A : {&First, &Second}) {
    OS << "  " << (A->IsWrite ? "write" : "read ") << " by thread "
       << A->Thread;
    if (!A->ThreadAbs.empty())
      OS << " [" << A->ThreadAbs << "]";
    OS << " at " << A->Site << "\n";
  }
  return OS.str();
}

namespace {

/// One summarized access: last occurrence of (thread, kind, site) on an
/// object. Records keep their first-occurrence position in the vector, so
/// pair iteration renders races in first-occurrence order.
struct AccessRecord {
  uint64_t Thread = 0;
  bool IsWrite = false;
  std::string Site;
  std::vector<uint64_t> Lockset; // sorted lock ids held at the access
  VectorClock Clock;
};

struct ObjectState {
  std::string Abs;
  std::vector<AccessRecord> Accesses;
};

bool sortedDisjoint(const std::vector<uint64_t> &A,
                    const std::vector<uint64_t> &B) {
  size_t I = 0;
  size_t J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I] == B[J])
      return false;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return true;
}

/// Appends the racy pairs among one object's accesses, ordered by (first
/// ordinal, second ordinal), to \p Result.
void checkObject(uint64_t Oid, const ObjectState &Obj, const SyncWalker &W,
                 size_t MaxReports, RaceAnalysis &Result) {
  const std::vector<AccessRecord> &As = Obj.Accesses;
  for (size_t I = 0; I != As.size(); ++I) {
    for (size_t J = I + 1; J != As.size(); ++J) {
      const AccessRecord &A = As[I];
      const AccessRecord &B = As[J];
      if (A.Thread == B.Thread)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (!vcConcurrent(A.Clock, B.Clock))
        continue;
      if (!sortedDisjoint(A.Lockset, B.Lockset))
        continue;
      ++Result.RacyPairs;
      if (Result.Races.size() == MaxReports)
        continue;
      RaceReport R;
      R.Object = Oid;
      R.ObjectAbs = Obj.Abs;
      for (auto Pair : {std::make_pair(&R.First, &A),
                        std::make_pair(&R.Second, &B)}) {
        Pair.first->Thread = Pair.second->Thread;
        Pair.first->IsWrite = Pair.second->IsWrite;
        Pair.first->Site = Pair.second->Site;
        Pair.first->ThreadAbs = W.thread(W.findThread(Pair.second->Thread)).Name;
      }
      Result.Races.push_back(std::move(R));
    }
  }
}

/// Summarizes accesses (with the full-sync clock and lockset at each) per
/// object, in object-first-seen order.
struct AccessVisitor : SyncVisitor {
  const SyncWalker &W;
  RaceAnalysis &Result;
  std::unordered_map<uint64_t, ObjectState> Objects;
  std::vector<uint64_t> ObjectOrder; // first-seen order, the report order

  AccessVisitor(const SyncWalker &W, RaceAnalysis &Result)
      : W(W), Result(Result) {}

  void warn(const std::string &Msg) {
    if (Result.Warnings.size() < 32)
      Result.Warnings.push_back(Msg);
  }
  ObjectState &object(uint64_t Oid) {
    auto It = Objects.find(Oid);
    if (It != Objects.end())
      return It->second;
    ObjectOrder.push_back(Oid);
    return Objects[Oid];
  }

  void objectNew(const TraceEvent &E) { object(E.A).Abs = E.Text; }
  void release(uint32_t, const TraceEvent &E, bool Held) {
    if (!Held)
      warn("release of lock " + std::to_string(E.B) + " not held by thread " +
           std::to_string(E.A));
  }
  void dropped(const TraceEvent &E) {
    warn("event " + std::to_string(W.eventsSeen()) + " names thread " +
         std::to_string(E.A) + " or lock " + std::to_string(E.B) +
         " before its declaration; ignored");
  }
  void access(uint32_t T, const TraceEvent &E) {
    const ThreadRecord &R = W.thread(T);
    bool IsWrite = E.K == TraceEvent::Kind::Write;
    ObjectState &Obj = object(E.B);
    ++Result.AccessesSeen;
    // Keep the last record per (thread, kind, site): repeated accesses
    // from a loop collapse, but every distinct racy site pair survives.
    AccessRecord *Slot = nullptr;
    for (AccessRecord &A : Obj.Accesses)
      if (A.Thread == E.A && A.IsWrite == IsWrite && A.Site == E.Text) {
        Slot = &A;
        break;
      }
    if (!Slot) {
      Obj.Accesses.emplace_back();
      Slot = &Obj.Accesses.back();
    }
    Slot->Thread = E.A;
    Slot->IsWrite = IsWrite;
    Slot->Site = E.Text;
    // The read side of a rwlock counts like an exclusive hold here (an
    // approximation: it can mask write-under-read-lock races between
    // concurrent readers, a distinct bug class).
    Slot->Lockset.clear();
    for (const LockStackEntry &H : R.LockStack)
      Slot->Lockset.push_back(H.Lock.Raw);
    std::sort(Slot->Lockset.begin(), Slot->Lockset.end());
    Slot->Lockset.erase(
        std::unique(Slot->Lockset.begin(), Slot->Lockset.end()),
        Slot->Lockset.end());
    Slot->Clock = R.Clock;
  }
};

} // namespace

struct IncrementalRaceDetector::State {
  /// Filled by the walk (accesses seen, warnings); finish() copies it and
  /// adds the pairs.
  RaceAnalysis Result;
  // The full-sync walk: fork, join, notify->wake and release->acquire edges.
  SyncWalker Walker{SyncOrder::FullSync};
  AccessVisitor V{Walker, Result};
};

IncrementalRaceDetector::IncrementalRaceDetector()
    : S(std::make_unique<State>()) {}

IncrementalRaceDetector::~IncrementalRaceDetector() = default;

void IncrementalRaceDetector::feed(const TraceEvent &E) {
  S->Walker.step(E, S->V);
}

uint64_t IncrementalRaceDetector::eventsSeen() const {
  return S->Walker.eventsSeen();
}

RaceAnalysis
IncrementalRaceDetector::finish(const RaceDetectorOptions &Opts) const {
  RaceAnalysis Result = S->Result;
  Result.ObjectsSeen = S->V.ObjectOrder.size();

  // Pair checks per object, in object-first-seen order.
  for (uint64_t Oid : S->V.ObjectOrder)
    checkObject(Oid, S->V.Objects.find(Oid)->second, S->Walker,
                Opts.MaxReports, Result);

  if (telemetry::enabled()) {
    telemetry::Registry &Reg = telemetry::Registry::global();
    Reg.counter("dlf_analysis_races_found_total").inc(Result.RacyPairs);
    Reg.counter("dlf_analysis_accesses_total").inc(Result.AccessesSeen);
    Reg.counter("dlf_analysis_shared_objects_total").inc(Result.ObjectsSeen);
  }
  return Result;
}

RaceAnalysis dlf::analysis::detectRaces(const TraceFile &Trace,
                                        const RaceDetectorOptions &Opts) {
  IncrementalRaceDetector D;
  for (const TraceEvent &E : Trace.Events)
    D.feed(E);
  return D.finish(Opts);
}

//===- fuzzer/RealDeadlockChecker.cpp - Algorithm 4 -------------------------===//

#include "fuzzer/RealDeadlockChecker.h"

#include <sstream>

using namespace dlf;

std::optional<DeadlockWitness> dlf::findRealDeadlock(
    const std::vector<ThreadStackView> &Views,
    const std::function<const LockRecord &(LockId)> &LockById) {
  std::vector<LockCycleStep> Path;
  if (!findLockCycle(Views, Path))
    return std::nullopt;

  DeadlockWitness Witness;
  for (LockCycleStep Step : Path) {
    const ThreadStackView &View = Views[Step.View];
    DeadlockWitness::Edge Edge;
    Edge.Thread = View.Thread->Id;
    Edge.ThreadName = View.Thread->Name;
    Edge.ThreadAbs = View.Thread->Abs;
    const LockRecord &Wait = LockById(View[Step.Pos].Lock);
    Edge.WaitLock = Wait.Id;
    Edge.WaitLockName = Wait.Name;
    Edge.WaitLockAbs = Wait.Abs;
    Edge.WaitSite = View[Step.Pos].Site;
    for (size_t I = 0; I <= Step.Pos; ++I)
      Edge.Context.push_back(View[I].Site);
    Witness.Edges.push_back(std::move(Edge));
  }
  return Witness;
}

std::string DeadlockWitness::toString() const {
  std::ostringstream OS;
  OS << "real deadlock cycle of length " << Edges.size() << ":\n";
  for (const Edge &E : Edges) {
    OS << "  thread " << E.ThreadName << " (t" << E.Thread.Raw
       << ") waits for lock " << E.WaitLockName << " (l" << E.WaitLock.Raw
       << ") at " << E.WaitSite.text() << "; context:";
    for (Label Site : E.Context)
      OS << ' ' << Site.text();
    OS << '\n';
  }
  return OS.str();
}

//===- faultinject/FaultInject.cpp - Deterministic fault injection --------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "faultinject/FaultInject.h"

#include "support/Env.h"
#include "support/Hash.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

using namespace dlf;
using namespace dlf::faultinject;

namespace {

/// The registry of injection sites and the actions each accepts. A null
/// action list means the site takes no action.
struct SiteInfo {
  const char *Name;
  const char *Actions; ///< Space-separated; first entry is the default.
};

const SiteInfo Sites[] = {
    {"journal.open", "enospc eio eacces"},
    {"journal.write", "enospc eio"},
    {"journal.fsync", "enospc eio"},
    {"journal.torn", nullptr},
    {"worker.spawn", "eagain enomem"},
    {"runner.kill", nullptr},
    {"child.crash", "abort segv kill exit"},
    {"child.hang", nullptr},
    {"sidecar.truncate", nullptr},
    {"sidecar.missing", nullptr},
    {"ring.write.halfslot", nullptr},
};

const SiteInfo *findSite(const std::string &Name) {
  for (const SiteInfo &S : Sites)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

bool isChildSite(const std::string &Site) {
  return Site.rfind("child.", 0) == 0 || Site.rfind("sidecar.", 0) == 0;
}

bool actionAllowed(const SiteInfo &Site, const std::string &Action) {
  if (!Site.Actions)
    return false;
  // Space-separated word match.
  const char *P = Site.Actions;
  while (*P) {
    const char *End = std::strchr(P, ' ');
    size_t Len = End ? static_cast<size_t>(End - P) : std::strlen(P);
    if (Action.size() == Len && Action.compare(0, Len, P, Len) == 0)
      return true;
    P = End ? End + 1 : P + Len;
  }
  return false;
}

std::string knownSiteList() {
  std::string Out;
  for (const SiteInfo &S : Sites) {
    if (!Out.empty())
      Out += ", ";
    Out += S.Name;
  }
  return Out;
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t");
  return S.substr(B, E - B + 1);
}

/// Maps a probability clause to [0, 1) as a pure function of the plan seed,
/// the site name, and a stable key (hit index for parent sites, the packed
/// (cycle, rep) identity for child sites). Pure so decisions survive resume
/// and are identical across --jobs values.
double unitHash(uint64_t Seed, const std::string &Site, uint64_t Key) {
  Hasher128 H;
  H.add(Seed);
  H.add(Site.size());
  for (char Ch : Site)
    H.add(static_cast<unsigned char>(Ch));
  H.add(Key);
  return static_cast<double>(H.finish().Lo >> 11) * 0x1.0p-53;
}

uint64_t packCycleRep(uint64_t Cycle, uint64_t Rep) {
  return (Cycle << 32) ^ Rep;
}

bool parseProbability(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End == Text.c_str() || *End != '\0')
    return false;
  if (!(V >= 0.0 && V <= 1.0))
    return false;
  Out = V;
  return true;
}

} // namespace

bool FaultPlan::parse(const std::string &Text, std::string *Error) {
  std::vector<FaultSpec> Parsed;
  uint64_t NewSeed = Seed;
  bool HaveSeed = false;

  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Sep = Text.find_first_of(";,", Pos);
    size_t End = Sep == std::string::npos ? Text.size() : Sep;
    std::string Clause = trim(Text.substr(Pos, End - Pos));
    Pos = Sep == std::string::npos ? Text.size() + 1 : Sep + 1;
    if (Clause.empty())
      continue;

    auto Fail = [&](const std::string &Why) {
      if (Error)
        *Error = "bad fault clause '" + Clause + "': " + Why;
      return false;
    };

    if (Clause.rfind("seed=", 0) == 0) {
      uint64_t V = 0;
      if (!parseUint64Strict(Clause.c_str() + 5, V))
        return Fail("seed must be a non-negative integer");
      NewSeed = V;
      HaveSeed = true;
      continue;
    }

    size_t At = Clause.find('@');
    if (At == std::string::npos)
      return Fail("expected site[:action]@trigger");

    std::string Left = trim(Clause.substr(0, At));
    std::string TriggerText = trim(Clause.substr(At + 1));

    FaultSpec Spec;
    size_t Colon = Left.find(':');
    Spec.Site = Colon == std::string::npos ? Left : trim(Left.substr(0, Colon));
    if (Colon != std::string::npos)
      Spec.Action = trim(Left.substr(Colon + 1));

    const SiteInfo *Info = findSite(Spec.Site);
    if (!Info)
      return Fail("unknown site '" + Spec.Site +
                  "' (known: " + knownSiteList() + ")");
    if (!Spec.Action.empty() && !actionAllowed(*Info, Spec.Action))
      return Fail("site " + Spec.Site + " does not take action '" +
                  Spec.Action + "'" +
                  (Info->Actions ? " (allowed: " + std::string(Info->Actions) +
                                       ")"
                                 : " (site takes no action)"));

    if (TriggerText == "always") {
      Spec.Kind = Trigger::Always;
    } else if (TriggerText.rfind("rep=", 0) == 0) {
      if (!isChildSite(Spec.Site))
        return Fail("rep= triggers only apply to child.* / sidecar.* sites");
      if (!parseUint64Strict(TriggerText.c_str() + 4, Spec.N))
        return Fail("rep= takes a non-negative integer");
      Spec.Kind = Trigger::Rep;
    } else if (TriggerText.rfind("p=", 0) == 0) {
      if (!parseProbability(TriggerText.substr(2), Spec.P))
        return Fail("p= takes a probability in [0, 1]");
      Spec.Kind = Trigger::Probability;
    } else {
      if (!parseUint64Strict(TriggerText.c_str(), Spec.N) || Spec.N == 0)
        return Fail("ordinal trigger must be a positive integer, rep=N, "
                    "p=F, or always");
      Spec.Kind = Trigger::Ordinal;
    }
    Parsed.push_back(std::move(Spec));
  }

  Specs.insert(Specs.end(), Parsed.begin(), Parsed.end());
  if (HaveSeed)
    Seed = NewSeed;
  return true;
}

FaultPlan FaultPlan::chaos(uint64_t Seed) {
  // A SplitMix64 stream keyed by the seed drives every parameter choice, so
  // the generated plan is a pure function of the seed.
  uint64_t X = Seed;
  auto Next = [&X] {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };
  auto Unit = [&] {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  };

  FaultPlan P;
  P.Seed = Seed;

  auto Add = [&](const char *Site, const char *Action, double Prob) {
    FaultSpec S;
    S.Site = Site;
    S.Action = Action ? Action : "";
    S.Kind = Trigger::Probability;
    S.P = Prob;
    P.Specs.push_back(std::move(S));
  };

  static const char *CrashActions[] = {"abort", "segv", "exit"};
  Add("child.crash", CrashActions[Next() % 3], 0.03 + 0.07 * Unit());
  Add("child.hang", nullptr, 0.01 + 0.04 * Unit());
  Add("worker.spawn", "eagain", 0.01 + 0.04 * Unit());
  Add("sidecar.truncate", nullptr, 0.05 + 0.15 * Unit());
  if (Unit() < 0.5) {
    // Half the seeds also lose the journal partway through: a one-shot
    // fsync ENOSPC, which the runner must absorb by degrading to in-memory
    // results rather than aborting.
    FaultSpec S;
    S.Site = "journal.fsync";
    S.Action = "enospc";
    S.Kind = Trigger::Ordinal;
    S.N = 3 + Next() % 10;
    P.Specs.push_back(std::move(S));
  }
  return P;
}

std::string FaultPlan::describe() const {
  std::string Out;
  for (const FaultSpec &S : Specs) {
    if (!Out.empty())
      Out += ";";
    Out += S.Site;
    if (!S.Action.empty())
      Out += ":" + S.Action;
    char Buf[64];
    switch (S.Kind) {
    case Trigger::Ordinal:
      std::snprintf(Buf, sizeof(Buf), "@%llu",
                    static_cast<unsigned long long>(S.N));
      break;
    case Trigger::Rep:
      std::snprintf(Buf, sizeof(Buf), "@rep=%llu",
                    static_cast<unsigned long long>(S.N));
      break;
    case Trigger::Probability:
      std::snprintf(Buf, sizeof(Buf), "@p=%.6g", S.P);
      break;
    case Trigger::Always:
      std::snprintf(Buf, sizeof(Buf), "@always");
      break;
    }
    Out += Buf;
  }
  if (Seed != 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), ";seed=%llu",
                  static_cast<unsigned long long>(Seed));
    Out += Out.empty() ? Buf + 1 : Buf;
  }
  return Out;
}

bool FaultPlan::fires(const FaultSpec &Spec, uint64_t HitIndex) {
  switch (Spec.Kind) {
  case Trigger::Ordinal:
    return HitIndex == Spec.N;
  case Trigger::Always:
    return true;
  case Trigger::Probability:
    return unitHash(Seed, Spec.Site, HitIndex) < Spec.P;
  case Trigger::Rep:
    return false; // Rep triggers are resolved by childFaults only.
  }
  return false;
}

const FaultSpec *FaultPlan::firstFiring(const std::string &Site,
                                        uint64_t HitIndex,
                                        const uint64_t *Identity) {
  for (const FaultSpec &S : Specs) {
    if (S.Site != Site)
      continue;
    if (Identity && S.Kind == Trigger::Probability
            ? unitHash(Seed, Site, *Identity) < S.P
            : fires(S, HitIndex))
      return &S;
  }
  return nullptr;
}

const FaultSpec *FaultPlan::hit(const std::string &Site) {
  return firstFiring(Site, ++Hits[Site], nullptr);
}

const FaultSpec *FaultPlan::spawnHit(uint64_t Cycle, uint64_t Rep,
                                     uint64_t Attempt) {
  const std::string Site = "worker.spawn";
  uint64_t Identity = packCycleRep(Cycle, Rep) ^ (Attempt << 56);
  return firstFiring(Site, ++Hits[Site], &Identity);
}

ChildFaults FaultPlan::childFaults(uint64_t Cycle, uint64_t Rep,
                                   uint64_t Attempt) {
  ChildFaults CF;
  if (Specs.empty())
    return CF;
  // All child sites share one counter: `child.crash@3` means "the third
  // phase-2 repetition attempt this runner hands to a child".
  uint64_t Launch = ++Hits["child.launch"];
  for (const FaultSpec &S : Specs) {
    if (!isChildSite(S.Site))
      continue;
    bool IsSidecar = S.Site.rfind("sidecar.", 0) == 0;
    bool Fire = false;
    switch (S.Kind) {
    case Trigger::Ordinal:
      Fire = Launch == S.N;
      break;
    case Trigger::Always:
      Fire = true;
      break;
    case Trigger::Rep:
      // Crash/hang only on the first attempt, so the supervised same-seed
      // restart can complete the rep; sidecar faults stick to the rep.
      Fire = Rep == S.N && (IsSidecar || Attempt == 0);
      break;
    case Trigger::Probability:
      Fire = (IsSidecar || Attempt == 0) &&
             unitHash(Seed, S.Site, packCycleRep(Cycle, Rep)) < S.P;
      break;
    }
    if (!Fire)
      continue;
    if (S.Site == "child.crash" && CF.CrashAction.empty())
      CF.CrashAction = S.Action.empty() ? "abort" : S.Action;
    else if (S.Site == "child.hang")
      CF.Hang = true;
    else if (S.Site == "sidecar.truncate")
      CF.SidecarTruncate = true;
    else if (S.Site == "sidecar.missing")
      CF.SidecarMissing = true;
  }
  return CF;
}

namespace {

FaultPlan &globalPlan() {
  static FaultPlan *P = [] {
    auto *Plan = new FaultPlan();
    if (const char *Env = std::getenv("DLF_FAULTS")) {
      std::string Err;
      if (!Plan->parse(Env, &Err)) {
        std::fprintf(stderr, "dlf: ignoring DLF_FAULTS: %s\n", Err.c_str());
        *Plan = FaultPlan();
      }
    }
    return Plan;
  }();
  return *P;
}

/// Set once by applyChildFaults in campaign children; takeChildTelemetry then
/// replays the parent's decision instead of consulting the inherited plan.
bool GChildContext = false;
int GSidecarFault = 0;

int actionErrno(const std::string &Action, int Default) {
  if (Action == "enospc")
    return ENOSPC;
  if (Action == "eio")
    return EIO;
  if (Action == "eacces")
    return EACCES;
  if (Action == "eagain")
    return EAGAIN;
  if (Action == "enomem")
    return ENOMEM;
  return Default;
}

} // namespace

FaultPlan &faultinject::plan() { return globalPlan(); }

void faultinject::setPlan(FaultPlan P) { globalPlan() = std::move(P); }

bool faultinject::enabled() { return !globalPlan().empty(); }

int faultinject::failErrno(const char *Site, int DefaultErrno) {
  if (!enabled())
    return 0;
  const FaultSpec *S = globalPlan().hit(Site);
  return S ? actionErrno(S->Action, DefaultErrno) : 0;
}

int faultinject::spawnFailErrno(uint64_t Cycle, uint64_t Rep,
                                uint64_t Attempt) {
  if (!enabled())
    return 0;
  const FaultSpec *S = globalPlan().spawnHit(Cycle, Rep, Attempt);
  return S ? actionErrno(S->Action, EAGAIN) : 0;
}

bool faultinject::fires(const char *Site) {
  if (!enabled())
    return false;
  return globalPlan().hit(Site) != nullptr;
}

void faultinject::applyChildFaults(const ChildFaults &CF) {
  GChildContext = true;
  GSidecarFault = CF.SidecarMissing ? 2 : (CF.SidecarTruncate ? 1 : 0);
  if (!CF.CrashAction.empty()) {
    if (CF.CrashAction == "segv")
      ::raise(SIGSEGV);
    else if (CF.CrashAction == "kill")
      ::raise(SIGKILL);
    else if (CF.CrashAction == "exit")
      ::_exit(21);
    else
      std::abort();
  }
  if (CF.Hang)
    for (;;)
      ::pause(); // The sandbox watchdog's SIGTERM/SIGKILL ends this.
}

int faultinject::sidecarWriteFault() {
  if (GChildContext)
    return GSidecarFault;
  if (!enabled())
    return 0;
  if (globalPlan().hit("sidecar.missing"))
    return 2;
  if (globalPlan().hit("sidecar.truncate"))
    return 1;
  return 0;
}

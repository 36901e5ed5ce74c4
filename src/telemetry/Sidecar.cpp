//===- telemetry/Sidecar.cpp - cross-process metrics hand-off --------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Sidecar.h"

#include "faultinject/FaultInject.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

namespace dlf {
namespace telemetry {

namespace {

/// Sidecar names are space-separated tokens; replace whitespace so a
/// hostile metric name cannot desynchronize the line grammar.
std::string sanitizeToken(const std::string &Name) {
  if (Name.empty())
    return std::string(1, '_');
  std::string Out = Name;
  for (char &Ch : Out)
    if (Ch == ' ' || Ch == '\t' || Ch == '\n' || Ch == '\r')
      Ch = '_';
  return Out;
}

constexpr const char *HeaderLine = "# dlf-metrics-sidecar v1";

bool parseU64(const std::string &Tok, uint64_t &Out) {
  if (Tok.empty())
    return false;
  uint64_t V = 0;
  for (char Ch : Tok) {
    if (Ch < '0' || Ch > '9')
      return false;
    V = V * 10 + uint64_t(Ch - '0');
  }
  Out = V;
  return true;
}

bool parseI64(const std::string &Tok, int64_t &Out) {
  bool Neg = !Tok.empty() && Tok[0] == '-';
  uint64_t Mag = 0;
  if (!parseU64(Neg ? Tok.substr(1) : Tok, Mag))
    return false;
  Out = Neg ? -int64_t(Mag) : int64_t(Mag);
  return true;
}

} // namespace

std::string encodeSidecar(const MetricsSnapshot &Snap,
                          const std::vector<TraceEvent> &Events,
                          const std::map<uint32_t, std::string> &ThreadNames) {
  std::string Body;
  Body.reserve(4096);
  Body += HeaderLine;
  Body += '\n';
  for (const auto &KV : Snap.Counters) {
    Body += "c ";
    Body += sanitizeToken(KV.first);
    Body += ' ';
    Body += std::to_string(KV.second);
    Body += '\n';
  }
  for (const auto &KV : Snap.Gauges) {
    Body += "g ";
    Body += sanitizeToken(KV.first);
    Body += ' ';
    Body += std::to_string(KV.second);
    Body += '\n';
  }
  for (const auto &KV : Snap.Histograms) {
    Body += "h ";
    Body += sanitizeToken(KV.first);
    Body += ' ';
    Body += std::to_string(KV.second.Count);
    Body += ' ';
    Body += std::to_string(KV.second.Sum);
    for (unsigned B = 0; B != HistBucketCount; ++B) {
      if (!KV.second.Buckets[B])
        continue;
      Body += ' ';
      Body += std::to_string(B);
      Body += ':';
      Body += std::to_string(KV.second.Buckets[B]);
    }
    Body += '\n';
  }
  for (const TraceEvent &E : Events) {
    Body += "e ";
    Body += E.Ph;
    Body += ' ';
    Body += std::to_string(E.Pid);
    Body += ' ';
    Body += std::to_string(E.Tid);
    Body += ' ';
    Body += std::to_string(E.TsUs);
    Body += ' ';
    Body += std::to_string(E.DurUs);
    Body += ' ';
    // Name runs to end of line; strip only newlines.
    std::string Name = E.Name;
    for (char &Ch : Name)
      if (Ch == '\n' || Ch == '\r')
        Ch = ' ';
    Body += Name;
    Body += '\n';
  }
  for (const auto &KV : ThreadNames) {
    Body += "n ";
    Body += std::to_string(KV.first);
    Body += ' ';
    std::string Name = KV.second;
    for (char &Ch : Name)
      if (Ch == '\n' || Ch == '\r')
        Ch = ' ';
    Body += Name;
    Body += '\n';
  }
  Body += "end\n";
  return Body;
}

bool decodeSidecar(const std::string &Contents, MetricsSnapshot &Snap,
                   std::vector<TraceEvent> &Events,
                   std::map<uint32_t, std::string> &ThreadNames,
                   bool *Complete) {
  if (Complete)
    *Complete = false;
  // The section may be cut mid-line (a killed child, sidecar.truncate, the
  // sandbox payload cap): only lines terminated by '\n' are trusted, so a
  // partial final line is dropped.
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (true) {
    size_t Nl = Contents.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    Lines.push_back(Contents.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  if (Lines.empty() || Lines[0] != HeaderLine)
    return false;

  MetricsSnapshot Local;
  for (size_t LineNo = 1; LineNo < Lines.size(); ++LineNo) {
    const std::string &Line = Lines[LineNo];
    if (Line == "end") {
      if (Complete)
        *Complete = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Kind;
    LS >> Kind;
    if (Kind == "c") {
      std::string Name, Val;
      LS >> Name >> Val;
      uint64_t V;
      if (!Name.empty() && parseU64(Val, V))
        Local.Counters[Name] += V;
    } else if (Kind == "g") {
      std::string Name, Val;
      LS >> Name >> Val;
      int64_t V;
      if (!Name.empty() && parseI64(Val, V)) {
        auto It = Local.Gauges.find(Name);
        if (It == Local.Gauges.end() || V > It->second)
          Local.Gauges[Name] = V;
      }
    } else if (Kind == "h") {
      std::string Name, CountTok, SumTok;
      LS >> Name >> CountTok >> SumTok;
      uint64_t Count, Sum;
      if (Name.empty() || !parseU64(CountTok, Count) ||
          !parseU64(SumTok, Sum))
        continue;
      HistogramData H;
      H.Count = Count;
      H.Sum = Sum;
      std::string Pair;
      bool Bad = false;
      while (LS >> Pair) {
        size_t Colon = Pair.find(':');
        uint64_t Idx, Val;
        if (Colon == std::string::npos ||
            !parseU64(Pair.substr(0, Colon), Idx) ||
            !parseU64(Pair.substr(Colon + 1), Val) ||
            Idx >= HistBucketCount) {
          Bad = true;
          break;
        }
        H.Buckets[Idx] = Val;
      }
      if (Bad)
        continue;
      HistogramData &Dst = Local.Histograms[Name];
      Dst.Count += H.Count;
      Dst.Sum += H.Sum;
      for (unsigned B = 0; B != HistBucketCount; ++B)
        Dst.Buckets[B] += H.Buckets[B];
    } else if (Kind == "e") {
      std::string PhTok, PidTok, TidTok, TsTok, DurTok;
      LS >> PhTok >> PidTok >> TidTok >> TsTok >> DurTok;
      uint64_t Pid, Tid, Ts, Dur;
      if (PhTok.size() != 1 || !parseU64(PidTok, Pid) ||
          !parseU64(TidTok, Tid) || !parseU64(TsTok, Ts) ||
          !parseU64(DurTok, Dur))
        continue;
      std::string Name;
      std::getline(LS, Name);
      if (!Name.empty() && Name[0] == ' ')
        Name.erase(0, 1);
      Events.push_back(TraceEvent{PhTok[0], uint32_t(Pid), uint32_t(Tid),
                                  Ts, Dur, Name});
    } else if (Kind == "n") {
      std::string TidTok;
      LS >> TidTok;
      uint64_t Tid;
      if (!parseU64(TidTok, Tid))
        continue;
      std::string Name;
      std::getline(LS, Name);
      if (!Name.empty() && Name[0] == ' ')
        Name.erase(0, 1);
      ThreadNames[uint32_t(Tid)] = Name;
    }
    // Unknown kinds are skipped for forward compatibility.
  }
  Snap.merge(Local);
  return true;
}

void beginChildTelemetry() {
  if (enabled())
    Registry::global().reset();
  if (Timeline::global().enabled())
    Timeline::global().reset();
}

std::string takeChildTelemetry() {
  if (!enabled() && !Timeline::global().enabled())
    return std::string();
  MetricsSnapshot Snap;
  if (enabled())
    Snap = Registry::global().snapshot();
  std::vector<TraceEvent> Events;
  std::map<uint32_t, std::string> ThreadNames;
  if (Timeline::global().enabled())
    Timeline::global().take(Events, ThreadNames);
  int Fault = faultinject::sidecarWriteFault();
  if (Fault == 2)
    return std::string(); // sidecar.missing: the section is never produced
  std::string Section = encodeSidecar(Snap, Events, ThreadNames);
  // sidecar.truncate: stop mid-section, as a child killed mid-write would —
  // the `end` marker never lands, so the reader must treat it as partial.
  if (Fault == 1)
    Section.resize(Section.size() / 2);
  return Section;
}

void flushChildTelemetry() {
  const char *Path = std::getenv(SidecarEnvVar);
  if (!Path || !*Path)
    return;
  std::string Section = takeChildTelemetry();
  if (Section.empty())
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return;
  std::fwrite(Section.data(), 1, Section.size(), F);
  std::fclose(F);
}

} // namespace telemetry
} // namespace dlf

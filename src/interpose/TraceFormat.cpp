//===- interpose/TraceFormat.cpp - Cycle-spec codec -------------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interpose/TraceFormat.h"

namespace dlf {
namespace interpose {

namespace {

/// Splits \p Text at every \p Sep (an empty text is one empty field).
std::vector<std::string> split(const std::string &Text, char Sep) {
  std::vector<std::string> Fields;
  size_t Pos = 0;
  for (;;) {
    size_t End = Text.find(Sep, Pos);
    Fields.push_back(Text.substr(Pos, End - Pos));
    if (End == std::string::npos)
      return Fields;
    Pos = End + 1;
  }
}

} // namespace

std::string encodeCycleSpec(const std::vector<CycleSpecComponent> &Cycle) {
  std::string Out;
  for (size_t C = 0; C != Cycle.size(); ++C) {
    if (C)
      Out += ';';
    Out += Cycle[C].ThreadAbs + '|' + Cycle[C].LockAbs + '|';
    for (size_t S = 0; S != Cycle[C].Context.size(); ++S) {
      if (S)
        Out += ',';
      Out += Cycle[C].Context[S];
    }
  }
  return Out;
}

bool decodeCycleSpec(const std::string &Text,
                     std::vector<CycleSpecComponent> &Out,
                     std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    return false;
  };
  std::vector<CycleSpecComponent> Parsed;
  for (const std::string &Component : split(Text, ';')) {
    if (Component.empty())
      continue;
    std::vector<std::string> Fields = split(Component, '|');
    if (Fields.size() != 3)
      return Fail("component '" + Component +
                  "' is not <thread>|<lock>|<context>");
    CycleSpecComponent C;
    C.ThreadAbs = Fields[0];
    C.LockAbs = Fields[1];
    C.Context = split(Fields[2], ',');
    bool EmptySite = false;
    for (const std::string &Site : C.Context)
      EmptySite |= Site.empty();
    if (C.ThreadAbs.empty() || C.LockAbs.empty() || EmptySite)
      return Fail("component '" + Component + "' has an empty field");
    Parsed.push_back(std::move(C));
  }
  if (Parsed.empty())
    return Fail("spec '" + Text + "' has no component");
  Out = std::move(Parsed);
  return true;
}

} // namespace interpose
} // namespace dlf

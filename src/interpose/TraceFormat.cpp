//===- interpose/TraceFormat.cpp - Trace-line and cycle-spec codecs --------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interpose/TraceFormat.h"

#include <array>
#include <charconv>

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

void appendId(std::string &Out, uint64_t Id) {
  char Buf[24];
  Out += ' ';
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Id).ptr);
}

/// TraceEvent::Kind by trace-line letter; -1 for a byte that is no letter.
constexpr std::array<int8_t, 256> KindByLetter = [] {
  std::array<int8_t, 256> Table{};
  Table.fill(-1);
  for (size_t K = 0; K != std::size(analysis::TraceSyntax); ++K)
    Table[static_cast<unsigned char>(analysis::TraceSyntax[K].Letter)] =
        static_cast<int8_t>(K);
  return Table;
}();

/// The C locale's whitespace: space, \t, \n, \v, \f and \r.
constexpr bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

void skipSpace(std::string_view &Rest) {
  size_t I = 0;
  while (I != Rest.size() && isSpace(Rest[I]))
    ++I;
  Rest.remove_prefix(I);
}

/// Cuts the next whitespace-delimited token off the front of \p Rest.
std::string_view nextToken(std::string_view &Rest) {
  skipSpace(Rest);
  size_t End = 0;
  while (End != Rest.size() && !isSpace(Rest[End]))
    ++End;
  std::string_view Token = Rest.substr(0, End);
  Rest.remove_prefix(End);
  return Token;
}

/// Strict unsigned decimal: digits only, no sign, no overflow.
bool parseId(std::string_view &Rest, uint64_t &Out) {
  std::string_view Token = nextToken(Rest);
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

} // namespace

void appendTraceLine(const TraceLine &E, std::string &Out) {
  const analysis::TraceKindSyntax &Syntax = analysis::traceSyntax(E.K);
  Out += Syntax.Letter;
  appendId(Out, E.A);
  if (Syntax.HasB)
    appendId(Out, E.B);
  if (Syntax.HasText) {
    Out += ' ';
    Out += E.Text;
  }
  Out += '\n';
}

LineParse parseTraceLine(std::string_view Line, TraceLine &Out) {
  if (Line.empty() || Line[0] == '#')
    return LineParse::Skip;
  std::string_view Rest = Line;
  skipSpace(Rest);
  if (Rest.empty())
    return LineParse::UnknownKind;
  int Kind = KindByLetter[static_cast<unsigned char>(Rest[0])];
  if (Kind < 0)
    return LineParse::UnknownKind;
  Rest.remove_prefix(1);
  Out.K = static_cast<analysis::TraceEvent::Kind>(Kind);
  Out.B = 0;
  Out.Text = {};
  const analysis::TraceKindSyntax &Syntax = analysis::TraceSyntax[Kind];
  if (!parseId(Rest, Out.A) || (Syntax.HasB && !parseId(Rest, Out.B)))
    return LineParse::Malformed;
  if (Syntax.HasText && (Out.Text = nextToken(Rest)).empty())
    return LineParse::Malformed;
  return LineParse::Event;
}

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

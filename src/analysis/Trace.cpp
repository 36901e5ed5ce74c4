//===- analysis/Trace.cpp - Recorded-trace reader ---------------------------===//

#include "analysis/Trace.h"

#include "interpose/TraceFormat.h"

#include <cstdio>
#include <cstring>
#include <memory>

using namespace dlf;
using namespace dlf::analysis;

namespace {

/// Bytes per fread, with stdio's own buffer off. Small, so reading adds
/// nothing measurable to an analysis's peak RSS (a buffered 64 KiB chunk
/// raised dlf-analyze's peak by about 0.09 MB on an 800k-event lock-storm
/// trace). A line that straddles two chunks, or is longer than one, is
/// carried over; the chunk itself never grows.
constexpr size_t ChunkBytes = 8 * 1024;

/// The one decode loop behind streamTrace and readTrace. A template, so
/// readTrace's collecting sink is inlined: through a std::function the
/// collecting read of an 800k-event storm trace took about 4% longer.
template <typename SinkFn>
TraceReadStatus decodeTrace(const std::string &Path, SinkFn &&Sink,
                            std::string *Error) {
  std::unique_ptr<FILE, int (*)(FILE *)> File(std::fopen(Path.c_str(), "rb"),
                                              &std::fclose);
  if (!File) {
    if (Error)
      *Error = "cannot open trace file " + Path;
    return TraceReadStatus::Unreadable;
  }
  std::setvbuf(File.get(), nullptr, _IONBF, 0);

  size_t LineNo = 0;
  uint64_t Events = 0;
  // Every event is decoded into this one buffer, so its Text keeps its
  // capacity and no event allocates.
  TraceEvent Ev;
  // Decodes one line and hands it on; false (with Error set) when it is
  // corrupt.
  auto Take = [&](std::string_view Line) {
    ++LineNo;
    interpose::TraceLine L;
    std::string Why;
    switch (interpose::parseTraceLine(Line, L)) {
    case interpose::LineParse::Event:
      Ev.K = L.K;
      Ev.A = L.A;
      Ev.B = L.B;
      Ev.Text.assign(L.Text);
      ++Events;
      Sink(Ev);
      return true;
    case interpose::LineParse::Skip:
      return true;
    case interpose::LineParse::Malformed:
      Why = std::string("malformed ") + traceSyntax(L.K).Name + " event";
      break;
    case interpose::LineParse::UnknownKind:
      Why = "unknown event kind";
      break;
    }
    if (Error)
      *Error = Path + ":" + std::to_string(LineNo) + ": " + Why + ": '" +
               std::string(Line) + "' (truncated or corrupt trace)";
    return false;
  };

  std::unique_ptr<char[]> Chunk(new char[ChunkBytes]);
  std::string Carry; // the unfinished last line of the chunks read so far
  while (size_t N = std::fread(Chunk.get(), 1, ChunkBytes, File.get())) {
    const char *P = Chunk.get();
    const char *End = P + N;
    while (const char *NL = static_cast<const char *>(
               std::memchr(P, '\n', static_cast<size_t>(End - P)))) {
      std::string_view Line(P, static_cast<size_t>(NL - P));
      if (!Carry.empty())
        Line = Carry.append(Line);
      if (!Take(Line))
        return TraceReadStatus::Unreadable;
      Carry.clear();
      P = NL + 1;
    }
    Carry.append(P, End);
  }

  if (std::ferror(File.get())) {
    if (Error)
      *Error = "read error on trace file " + Path;
    return TraceReadStatus::Unreadable;
  }
  // The last line may lack its newline.
  if (!Carry.empty() && !Take(Carry))
    return TraceReadStatus::Unreadable;
  if (Events == 0) {
    if (Error)
      *Error = "trace file " + Path +
               " contains no events (did the traced program run under "
               "LD_PRELOAD with DLF_PRELOAD_TRACE set?)";
    return TraceReadStatus::NoEvents;
  }
  return TraceReadStatus::Ok;
}

} // namespace

TraceReadStatus dlf::analysis::streamTrace(const std::string &Path,
                                           const TraceEventSink &Sink,
                                           std::string *Error) {
  return decodeTrace(Path, Sink, Error);
}

TraceReadStatus dlf::analysis::readTrace(const std::string &Path,
                                         TraceFile &Out, std::string *Error) {
  return decodeTrace(
      Path, [&Out](const TraceEvent &E) { Out.Events.push_back(E); }, Error);
}

//===- analysis/Trace.h - Recorded-trace reader -----------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader for the preload trace format (interpose/TraceFormat.h), shared by
/// dlf-analyze and the offline analysis passes. The reader streams: each
/// line is decoded into one reused event and handed straight to the
/// consumer (streamTrace), so an analysis that walks the trace once never
/// holds it; readTrace collects the events for callers that want them all.
/// Reading distinguishes three outcomes a caller must treat differently:
///
///   * Ok          — events parsed (there is something to analyze)
///   * NoEvents    — the file opened but carries no events (empty file,
///                   comments only): analyzing it is vacuous, not an error
///                   in the trace, but silently reporting "0 cycles" hides
///                   a misconfigured DLF_PRELOAD_TRACE run
///   * Unreadable  — the file cannot be opened, or a line is malformed
///                   (truncated write, unknown event kind, non-numeric id):
///                   the trace is corrupt and any analysis of it is suspect
///
/// dlf-analyze maps these to distinct exit codes (0 / 3 / 2) so scripts can
/// tell "program under test never synchronized" from "trace got truncated".
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_TRACE_H
#define DLF_ANALYSIS_TRACE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dlf {
namespace analysis {

/// One parsed trace event. Field use per kind:
///   ThreadNew:     A = tid, Text = abstraction
///   LockNew:       A = lid, Text = abstraction
///   Acquire:       A = tid, B = lid, Text = acquire site (exclusive)
///   Release:       A = tid, B = lid (exclusive)
///   SharedAcquire: A = tid, B = lid, Text = acquire site (rwlock read side)
///   SharedRelease: A = tid, B = lid (rwlock read side)
///   TryProbe:      A = tid, B = lid, Text = site (failed trylock; inert
///                  for the wait-for analysis, recorded for visibility)
///   CondNotify:    A = tid, B = cid (signal/broadcast; happens-before
///                  source for subsequent wakeups)
///   CondWake:      A = tid, B = cid (waiter resumed after a notify;
///                  happens-before sink)
///   Fork:          A = parent tid, B = child tid
///   Join:          A = joiner tid, B = joined tid (pthread_join returned:
///                  everything the joined thread did happens-before the
///                  joiner's next step)
///   ObjectNew:     A = oid, Text = abstraction
///   Read/Write:    A = tid, B = oid, Text = access site
struct TraceEvent {
  enum class Kind {
    ThreadNew,
    LockNew,
    Acquire,
    Release,
    SharedAcquire,
    SharedRelease,
    TryProbe,
    CondNotify,
    CondWake,
    Fork,
    Join,
    ObjectNew,
    Read,
    Write
  };
  Kind K = Kind::ThreadNew;
  uint64_t A = 0;
  uint64_t B = 0;
  std::string Text;
};

/// The trace-line grammar of one event kind: its letter, whether a B id
/// follows the A id, whether a text field follows the ids, and its name in
/// "malformed <Name> event" errors. interpose/TraceFormat encodes and
/// decodes every line through this table, so it is the one statement of
/// the line grammar.
struct TraceKindSyntax {
  char Letter;
  bool HasB;
  bool HasText;
  const char *Name;
};

/// Indexed by TraceEvent::Kind, in declaration order.
inline constexpr TraceKindSyntax TraceSyntax[] = {
    {'T', false, true, "thread"},         {'M', false, true, "lock"},
    {'A', true, true, "acquire"},         {'R', true, false, "release"},
    {'Q', true, true, "shared-acquire"},  {'U', true, false, "shared-release"},
    {'P', true, true, "trylock-probe"},   {'N', true, false, "cond-notify"},
    {'V', true, false, "cond-wake"},      {'F', true, false, "fork"},
    {'J', true, false, "join"},           {'O', false, true, "object"},
    {'L', true, true, "read"},            {'S', true, true, "write"}};
static_assert(std::size(TraceSyntax) ==
                  static_cast<size_t>(TraceEvent::Kind::Write) + 1,
              "one grammar entry per TraceEvent::Kind");

constexpr const TraceKindSyntax &traceSyntax(TraceEvent::Kind K) {
  return TraceSyntax[static_cast<size_t>(K)];
}

/// Outcome of reading a trace file (see file comment).
enum class TraceReadStatus { Ok, NoEvents, Unreadable };

/// A fully parsed trace.
struct TraceFile {
  std::vector<TraceEvent> Events;
};

/// Receives each decoded event, in trace order. The event is the reader's
/// one reused buffer: it (and its Text) is valid for the call only.
using TraceEventSink = std::function<void(const TraceEvent &)>;

/// Reads and decodes \p Path, handing each event to \p Sink as its line
/// is decoded; nothing is kept. On Unreadable, \p Error describes the
/// failure (including the offending line number for malformed lines), and
/// the sink has seen the events before that line: a caller that reports
/// as it consumes must hold its output until the read returns Ok.
TraceReadStatus streamTrace(const std::string &Path,
                            const TraceEventSink &Sink, std::string *Error);

/// streamTrace, collecting the events into \p Out.
TraceReadStatus readTrace(const std::string &Path, TraceFile &Out,
                          std::string *Error);

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_TRACE_H

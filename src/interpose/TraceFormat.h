//===- interpose/TraceFormat.h - Preload trace format ------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text trace format shared between the LD_PRELOAD runtime
/// (libdlf_preload.so) and the offline analyzer (dlf-analyze). One event
/// per line:
///
///   # comment
///   T <tid> <abs>               thread created; abstraction = <site>#<n>
///   M <lid> <abs>               lock first observed; abstraction = <site>#<n>
///   A <tid> <lid> <acq-site>    exclusive acquire executed (mutex, or the
///                               write side of a rwlock; 0->1 only)
///   R <tid> <lid>               exclusive release (1->0 transitions only)
///   Q <tid> <lid> <acq-site>    shared acquire (rwlock read side)
///   U <tid> <lid>               shared release (rwlock read side)
///   P <tid> <lid> <site>        failed trylock probe: the thread asked and
///                               bailed out without blocking. No wait-for
///                               edge; recorded so traces show the attempt
///   N <tid> <cid>               cond signal/broadcast (wakeup-edge source)
///   V <tid> <cid>               cond waiter woke after a notify
///                               (wakeup-edge sink; the reacquire of the
///                               wait mutex is a separate A line)
///   F <parent-tid> <child-tid>  pthread_create edge (happens-before)
///   J <joiner-tid> <joined-tid> pthread_join returned (happens-before)
///   O <oid> <abs>               shared object first observed (opt-in)
///   L <tid> <oid> <site>        shared-memory read (opt-in)
///   S <tid> <oid> <site>        shared-memory write (opt-in)
///
/// Q/U widen the alphabet for pthread_rwlock_*: the analyzer rebuilds held
/// sets with per-lock modes so read-read overlap is not treated as
/// exclusion, while any pair involving the write side still conflicts.
/// N/V carry the condvar wakeup edges into happens-before: V joins the
/// waiter's clock with the clock of the last N on the same condvar.
/// Mutex-only programs emit none of these lines, so their traces — and the
/// analyzer's stdout over them — are byte-identical to the narrow format.
///
/// F edges are written whenever tracing is on; they carry the fork-order
/// part of happens-before that both the cycle pruner and the race detector
/// consume. O/L/S lines appear only when DLF_TRACE_ACCESSES is also set:
/// a preload library cannot see loads and stores, so the program under
/// test (or its test fixture) calls the exported dlf_trace_read /
/// dlf_trace_write hooks at the accesses it wants checked — the C analogue
/// of the Java implementation's field-access instrumentation.
///
/// The letters and fields of every kind are written down once, in the
/// analysis::TraceSyntax table (analysis/Trace.h); appendTraceLine encodes
/// through it and parseTraceLine, the reader's only line decoder, decodes
/// through it.
///
/// The preload writes every line through appendTraceLine, from the events
/// of the one pthread event model (interpose/EventModel.h). The same model
/// rebuilds the stream from ring records in dlf-observe, so a ring capture
/// and a text capture name threads, locks, condvars and objects alike —
/// with one difference. Text and Phase II see a lock first at its acquire
/// attempt (Phase II must name a fresh lock before anyone holds it) and a
/// condvar when a wait starts; a ring-only capture takes no lock on the hot
/// path, so it sees a lock first at its grant and a condvar at its first
/// N/V. In combined mode (DLF_RING with DLF_PRELOAD_TRACE) the ring carries
/// the text path's first sightings and both streams are equal.
///
/// Sites are "symbol+0xoffset" strings resolved via dladdr, which are
/// stable across executions of the same binary (unlike raw return
/// addresses under ASLR). Because a preload library cannot observe
/// allocations or calls/returns, object abstractions use the
/// *first-event site + per-site occurrence count* scheme: the n-th thread
/// created at call site S is S#n, and the n-th lock first acquired at site
/// S is S#n. This is the preload analogue of the paper's abstractions —
/// deterministic programs give stable values across runs — and the
/// substitution is recorded in DESIGN.md.
///
/// The Phase II cycle specification (DLF_PRELOAD_CYCLE) is a ';'-separated
/// list of components, each "threadAbs|lockAbs|ctxSite1,ctxSite2,...",
/// where the context sites are the acquire sites of the held locks plus
/// the pending acquire, outermost first — exactly the C_i of an iGoodlock
/// report. encodeCycleSpec writes it (the "cycle-spec:" report lines) and
/// decodeCycleSpec reads it (the preload's Phase II); both depend only on
/// the standard library, so libdlf_preload.so compiles TraceFormat.cpp in.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_INTERPOSE_TRACEFORMAT_H
#define DLF_INTERPOSE_TRACEFORMAT_H

#include "analysis/Trace.h" // header-only TraceEvent::Kind; std-only

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dlf {
namespace interpose {

/// Environment variable: path of the Phase I trace to write.
inline constexpr const char *TraceEnvVar = "DLF_PRELOAD_TRACE";

/// Environment variable: Phase II cycle specification.
inline constexpr const char *CycleEnvVar = "DLF_PRELOAD_CYCLE";

/// Environment variable: total pause budget per matched acquire, in
/// milliseconds (default 200).
inline constexpr const char *PauseMsEnvVar = "DLF_PRELOAD_PAUSE_MS";

/// Environment variable: when set (any value) alongside the trace path,
/// the dlf_trace_read/dlf_trace_write hooks record O/L/S events for the
/// race detector (dlf-analyze --races). Opt-in: access recording grows
/// traces and is useless to the deadlock passes.
inline constexpr const char *AccessEnvVar = "DLF_TRACE_ACCESSES";

/// Exit code the preload runtime uses when it confirms a real deadlock
/// (chosen to be distinguishable from crashes and clean exits).
inline constexpr int DeadlockExitCode = 42;

/// First line of every preload trace.
inline constexpr const char *TraceHeader = "# dlf-preload trace v1\n";

/// One trace event as the event model emits it: analysis::TraceEvent's
/// fields, with Text borrowed for the duration of the call.
struct TraceLine {
  analysis::TraceEvent::Kind K = analysis::TraceEvent::Kind::ThreadNew;
  uint64_t A = 0;
  uint64_t B = 0;
  std::string_view Text;
};

/// Appends \p E to \p Out as one trace line, newline included.
void appendTraceLine(const TraceLine &E, std::string &Out);

/// What parseTraceLine made of one line.
enum class LineParse {
  Event,       ///< the line is an event, decoded into the TraceLine
  Skip,        ///< an empty line or a '#' comment
  Malformed,   ///< a known letter with a missing or bad field; K names it
  UnknownKind, ///< no event letter (this includes whitespace-only lines)
};

/// Decodes \p Line (without its '\n') into \p Out: the inverse of
/// appendTraceLine, and the only line decoder analysis::readTrace uses.
/// Out.Text borrows from \p Line. Fields are separated by C-locale
/// whitespace (so a CR before the newline is harmless), the letter may
/// follow leading whitespace and touch the first id, ids are plain decimal
/// digits that fit in 64 bits, the text is one whitespace-free token, and
/// tokens after the last field are ignored.
LineParse parseTraceLine(std::string_view Line, TraceLine &Out);

/// One component of a Phase II cycle specification.
struct CycleSpecComponent {
  std::string ThreadAbs;
  std::string LockAbs;
  /// Acquire sites of the held locks, then of the pending acquire.
  std::vector<std::string> Context;
};

/// Renders \p Cycle as a DLF_PRELOAD_CYCLE value.
std::string encodeCycleSpec(const std::vector<CycleSpecComponent> &Cycle);

/// Parses a DLF_PRELOAD_CYCLE value into \p Out. Empty components (a
/// trailing ';') are skipped. Returns false and describes the problem in
/// \p Error when the spec has no component, or a component is not
/// "thread|lock|ctx,..." with every field and context site non-empty.
bool decodeCycleSpec(const std::string &Text,
                     std::vector<CycleSpecComponent> &Out,
                     std::string *Error);

} // namespace interpose
} // namespace dlf

#endif // DLF_INTERPOSE_TRACEFORMAT_H

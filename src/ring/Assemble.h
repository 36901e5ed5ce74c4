//===- ring/Assemble.h - Ring records to trace events -----------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observer side of the ring: replays the raw, sequence-merged ring
/// records (ring/Ring.h) as capture ops through the preload's one event
/// model (interpose/EventModel.h). The ring writer keeps no model — one
/// record per interposed call, carrying the pthread object address, the
/// interned call-site id and the thread id — so the model that names
/// threads, locks, condvars and objects in the text trace names them here.
///
/// In combined mode (DLF_RING alongside DLF_PRELOAD_TRACE) the preload
/// writes each record in the critical section that applies the same op to
/// its own model, so the replay yields the event stream of the text trace
/// by construction — the equivalence the CI tier and the preload tests
/// assert.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RING_ASSEMBLE_H
#define DLF_RING_ASSEMBLE_H

#include "analysis/Trace.h"
#include "interpose/EventModel.h"
#include "ring/Ring.h"

#include <cstdint>
#include <vector>

namespace dlf {
namespace ring {

/// Applies \p Records (merged in ascending sequence order; each fed once,
/// in order, across calls) to \p Model and appends the resulting events to
/// \p Out. \p Reader resolves site ids. Returns the number of records
/// skipped because their kind is unknown (version skew).
uint64_t assemble(const RingReader &Reader, const std::vector<Record> &Records,
                  interpose::EventModel &Model,
                  std::vector<analysis::TraceEvent> &Out);

} // namespace ring
} // namespace dlf

#endif // DLF_RING_ASSEMBLE_H

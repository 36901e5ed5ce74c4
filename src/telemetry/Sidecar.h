//===- telemetry/Sidecar.h - cross-process metrics hand-off ------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-process telemetry hand-off: one line-based text section carrying
/// a metrics snapshot and timeline events. It has two carriers.
///
///  - Campaign children (Phase I and every Phase II attempt) append their
///    section to the sandbox result pipe, after the one-line JSON record
///    the journal stores. The campaign parent merges the section of each
///    committed child into the campaign-level report. Nothing touches the
///    file system.
///  - The LD_PRELOAD library writes its section at exit to the file named
///    by DLF_METRICS_SIDECAR (flushChildTelemetry), its documented output.
///
/// The format is deliberately line-based text rather than JSON: a section
/// cut short (a child killed mid-write, the sandbox payload cap, injected
/// sidecar.truncate) still yields every complete line. A trailing "end"
/// marker distinguishes whole sections from partial ones — the campaign
/// merges partial ones as far as they go and counts them in
/// dlf_campaign_sidecars_missing_total, never failing over them.
///
/// Grammar (space-separated tokens; names must not contain whitespace,
/// encodeSidecar sanitizes them):
///
///   # dlf-metrics-sidecar v1
///   c <name> <value>                       counter
///   g <name> <value>                       gauge
///   h <name> <count> <sum> <idx>:<val>...  histogram (sparse buckets)
///   e <ph> <pid> <tid> <ts> <dur> <name-to-end-of-line>   trace event
///   n <tid> <name-to-end-of-line>          thread display name
///   end
///
//===----------------------------------------------------------------------===//

#ifndef DLF_TELEMETRY_SIDECAR_H
#define DLF_TELEMETRY_SIDECAR_H

#include "telemetry/Metrics.h"
#include "telemetry/Timeline.h"

#include <map>
#include <string>
#include <vector>

namespace dlf {
namespace telemetry {

/// Environment variable naming the file the preload library dumps its
/// telemetry section to at exit.
inline constexpr const char *SidecarEnvVar = "DLF_METRICS_SIDECAR";

/// Renders \p Snap plus \p Events / \p ThreadNames as one section, from
/// the header line through the "end" marker.
std::string encodeSidecar(const MetricsSnapshot &Snap,
                          const std::vector<TraceEvent> &Events,
                          const std::map<uint32_t, std::string> &ThreadNames);

/// Parses a section, accumulating into the outputs (Snap merges, Events
/// appends). Returns false only when the header is missing (an empty or
/// foreign section); a cut tail parses as far as it goes. *Complete
/// (optional) reports whether the trailing "end" marker was seen.
bool decodeSidecar(const std::string &Section, MetricsSnapshot &Snap,
                   std::vector<TraceEvent> &Events,
                   std::map<uint32_t, std::string> &ThreadNames,
                   bool *Complete = nullptr);

/// Called by a forked child that inherited live telemetry: zeroes the
/// global registry and timeline so parent-side values are not
/// double-counted when this child's section is merged back.
void beginChildTelemetry();

/// Drains this process's global registry + timeline into one section,
/// with the sidecar.truncate / sidecar.missing faults applied. Empty when
/// telemetry is off.
std::string takeChildTelemetry();

/// The preload's exit hook: if DLF_METRICS_SIDECAR is set, writes
/// takeChildTelemetry() to that file.
void flushChildTelemetry();

} // namespace telemetry
} // namespace dlf

#endif // DLF_TELEMETRY_SIDECAR_H

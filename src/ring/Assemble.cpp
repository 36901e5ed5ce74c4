//===- ring/Assemble.cpp - Ring records to trace events ---------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ring/Assemble.h"

namespace dlf {
namespace ring {

uint64_t assemble(const RingReader &Reader, const std::vector<Record> &Records,
                  interpose::EventModel &Model,
                  std::vector<analysis::TraceEvent> &Out) {
  interpose::EventSink Emit = [&Out](const interpose::TraceLine &E) {
    Out.push_back({E.K, E.A, E.B, std::string(E.Text)});
  };
  uint64_t Unknown = 0;
  for (const Record &R : Records) {
    auto Kind = static_cast<RecordKind>(R.Kind);
    if (Kind == RecordKind::Invalid || Kind > RecordKind::Join) {
      ++Unknown; // Join is the last kind this reader knows
      continue;
    }
    std::string_view Site = Reader.siteName(R.Site);
    if (Site.empty())
      Site = "unknown"; // id 0: the writer's string table overflowed
    Model.apply({Kind, R.Tid, R.Addr, Site}, Emit);
  }
  return Unknown;
}

} // namespace ring
} // namespace dlf

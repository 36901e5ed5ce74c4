//===- campaign/Journal.h - Crash-safe campaign checkpointing ---*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign journal is JSON Lines: a header object on the first line,
/// then one record per event (phase-1 result, one per repetition,
/// quarantine, interruption, completion), each written and flushed to the
/// file as it commits.
///
/// Durability contract: one fsync per commit round. The campaign runner
/// commits records in rounds (the header, the phase-1 record, each pass of
/// the in-order commit over whatever repetitions are ready, the closing
/// record) and makes a round durable with one fsync at its end; a commit
/// is published (the status plane's /events) only once it is durable.
/// Process death loses nothing that was flushed. Machine death can lose
/// the records of the last, unsynced round; resume re-executes them
/// deterministically with the same seeds. Append-only means an
/// interrupted campaign (SIGKILL, machine death, exhausted wall-clock
/// budget) loses at most the repetitions in flight and that round; resume
/// replays the journaled prefix and continues.
///
/// Every record line carries a CRC32 integrity tag: `<json>\t<8 hex>\n`,
/// where the checksum covers the JSON text. A raw tab can never appear
/// inside the JSON (dump() escapes it as the two-character sequence `\t`),
/// so the last tab on a line unambiguously separates record from tag.
/// Loading salvages the longest valid prefix: the first torn or corrupt
/// line — wherever it is, not just at the tail — stops the scan, and the
/// caller gets a JournalSalvage report saying how many bytes are intact and
/// how many lines were dropped, so resume can quarantine the corrupt tail
/// and truncate the journal back to the valid prefix before appending.
/// Untagged lines (journals written before the tag existed) still load.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_CAMPAIGN_JOURNAL_H
#define DLF_CAMPAIGN_JOURNAL_H

#include "campaign/Json.h"

#include <cstdio>
#include <string>
#include <vector>

namespace dlf {
namespace campaign {

/// Appends one JSON object per line, flushing after each append; sync()
/// makes everything appended so far durable with one fsync, so a caller
/// that commits records in rounds pays one fsync per round, not one per
/// record.
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Opens \p Path for appending (\p Truncate starts a fresh journal).
  bool open(const std::string &Path, bool Truncate);

  /// Writes \p Record as one CRC-tagged line and flushes it to the file
  /// (every return value checked), so it survives the process but not yet
  /// the machine. Returns false on any I/O failure. The campaign runner
  /// reacts by degrading to in-memory results (the journaled prefix stays
  /// valid; it is just no longer growing).
  bool append(const JsonValue &Record);

  /// Makes every record appended since the last sync durable with one
  /// fsync; a no-op when there is none. Returns false when the sync fails
  /// (ENOSPC, EIO): those records may not have reached stable storage.
  bool sync();

  /// Human-readable description of the last open/append failure.
  const std::string &lastError() const { return LastError; }

  bool isOpen() const { return Stream != nullptr; }
  void close();

private:
  std::FILE *Stream = nullptr;
  /// Records appended since the last successful sync.
  bool Unsynced = false;
  std::string LastError;
};

/// A loaded journal: the header plus every intact record, in order.
struct JournalContents {
  JsonValue Header;
  std::vector<JsonValue> Records;
};

/// What the salvage pass found while loading a journal.
struct JournalSalvage {
  size_t TotalBytes = 0;   ///< File size at load time.
  size_t ValidBytes = 0;   ///< Length of the longest valid record prefix.
  unsigned Records = 0;    ///< Intact records loaded (excluding the header).
  unsigned DroppedLines = 0; ///< Torn/corrupt trailing lines not loaded.

  bool clean() const { return DroppedLines == 0; }
};

/// Parses \p Path, salvaging the longest valid prefix. Corrupt or torn
/// content after that prefix is dropped and counted in \p Salvage (when
/// provided) rather than failing the load. Returns false only when the file
/// cannot be read or no intact header line exists.
bool loadJournal(const std::string &Path, JournalContents &Out,
                 std::string *Error = nullptr,
                 JournalSalvage *Salvage = nullptr);

/// Moves the corrupt tail reported by \p Salvage out of the journal: the
/// bytes past the valid prefix are appended to `<Path>.corrupt` and the
/// journal is truncated back to the prefix, so subsequent appends extend a
/// fully valid file. No-op when the salvage report is clean.
bool quarantineJournalTail(const std::string &Path,
                           const JournalSalvage &Salvage,
                           std::string *Error = nullptr);

} // namespace campaign
} // namespace dlf

#endif // DLF_CAMPAIGN_JOURNAL_H

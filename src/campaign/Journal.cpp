//===- campaign/Journal.cpp - Crash-safe campaign checkpointing -------------===//

#include "campaign/Journal.h"

#include "faultinject/FaultInject.h"
#include "support/Hash.h"
#include "support/Retry.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

using namespace dlf;
using namespace dlf::campaign;

bool JournalWriter::open(const std::string &Path, bool Truncate) {
  close();
  LastError.clear();
  if (int E = faultinject::failErrno("journal.open", ENOSPC)) {
    LastError = Path + ": " + std::strerror(E) + " (injected)";
    return false;
  }
  Stream = std::fopen(Path.c_str(), Truncate ? "w" : "a");
  if (!Stream) {
    LastError = Path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

bool JournalWriter::append(const JsonValue &Record) {
  if (!Stream) {
    LastError = "journal is not open";
    return false;
  }
  std::string Json = Record.dump();
  char Tag[16];
  std::snprintf(Tag, sizeof(Tag), "\t%08x\n", crc32(Json.data(), Json.size()));
  std::string Line = Json + Tag;

  if (faultinject::fires("journal.torn")) {
    // Simulated death mid-write: half a record reaches the file, then the
    // process is gone. The salvage pass must recover everything before it.
    std::fwrite(Line.data(), 1, Line.size() / 2, Stream);
    std::fflush(Stream);
    ::_exit(122);
  }

  errno = 0;
  if (int E = faultinject::failErrno("journal.write", ENOSPC)) {
    LastError = std::string("write failed: ") + std::strerror(E) +
                " (injected)";
    return false;
  }
  if (std::fwrite(Line.data(), 1, Line.size(), Stream) != Line.size()) {
    LastError = std::string("write failed: ") + std::strerror(errno);
    return false;
  }
  if (std::fflush(Stream) != 0) {
    LastError = std::string("flush failed: ") + std::strerror(errno);
    return false;
  }
  Unsynced = true;
  return true;
}

bool JournalWriter::sync() {
  if (!Stream) {
    LastError = "journal is not open";
    return false;
  }
  if (!Unsynced)
    return true;
  // fsync so the records survive machine death, not just process death. A
  // failed sync (ENOSPC, EIO) means they are NOT durable: report it so the
  // campaign can degrade instead of journaling into the void.
  if (int E = faultinject::failErrno("journal.fsync", ENOSPC)) {
    LastError = std::string("fsync failed: ") + std::strerror(E) +
                " (injected)";
    return false;
  }
  if (retryEintr([&] { return fsync(fileno(Stream)); }) != 0) {
    LastError = std::string("fsync failed: ") + std::strerror(errno);
    return false;
  }
  Unsynced = false;
  return true;
}

void JournalWriter::close() {
  if (Stream) {
    std::fclose(Stream);
    Stream = nullptr;
  }
  Unsynced = false;
}

namespace {

/// Validates and parses one journal line. Tagged lines (`<json>\t<8 hex>`)
/// must pass the CRC check; a tab followed by anything else cannot come from
/// our writer (dump() escapes tabs) and is corruption. Untagged lines are
/// pre-CRC journals and are accepted as-is.
bool parseRecordLine(const std::string &Line, JsonValue &Out,
                     std::string &Reason) {
  std::string Json = Line;
  size_t Tab = Line.rfind('\t');
  if (Tab != std::string::npos) {
    std::string TagText = Line.substr(Tab + 1);
    bool Hex8 = TagText.size() == 8;
    for (char Ch : TagText)
      Hex8 = Hex8 && std::isxdigit(static_cast<unsigned char>(Ch));
    if (!Hex8) {
      Reason = "malformed integrity tag";
      return false;
    }
    Json = Line.substr(0, Tab);
    uint32_t Want =
        static_cast<uint32_t>(std::strtoul(TagText.c_str(), nullptr, 16));
    uint32_t Got = crc32(Json.data(), Json.size());
    if (Want != Got) {
      Reason = "crc mismatch";
      return false;
    }
  }
  std::string ParseError;
  if (!parseJson(Json, Out, &ParseError)) {
    Reason = ParseError;
    return false;
  }
  if (!Out.isObject()) {
    Reason = "not an object";
    return false;
  }
  return true;
}

bool readWholeFile(const std::string &Path, std::string &Out,
                   std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path + ": " + std::strerror(errno);
    return false;
  }
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok && Error)
    *Error = "cannot read " + Path;
  return Ok;
}

} // namespace

bool dlf::campaign::loadJournal(const std::string &Path, JournalContents &Out,
                                std::string *Error, JournalSalvage *Salvage) {
  Out.Header = JsonValue();
  Out.Records.clear();

  std::string Text;
  if (!readWholeFile(Path, Text, Error))
    return false;

  JournalSalvage S;
  S.TotalBytes = Text.size();

  bool HaveHeader = false;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t End = Nl == std::string::npos ? Text.size() : Nl;
    size_t Next = Nl == std::string::npos ? Text.size() : Nl + 1;
    std::string Line = Text.substr(Pos, End - Pos);
    if (Line.empty()) {
      Pos = Next;
      S.ValidBytes = Next;
      continue;
    }
    JsonValue V;
    std::string Reason;
    if (!parseRecordLine(Line, V, Reason))
      break; // Salvage stops at the first bad line; the rest is the tail.
    if (!HaveHeader) {
      Out.Header = std::move(V);
      HaveHeader = true;
    } else {
      Out.Records.push_back(std::move(V));
    }
    Pos = Next;
    S.ValidBytes = Next;
  }

  // Count what the salvage dropped: every remaining (non-empty) line,
  // including an unterminated partial one.
  for (size_t P = Pos; P < Text.size();) {
    size_t Nl = Text.find('\n', P);
    size_t End = Nl == std::string::npos ? Text.size() : Nl;
    if (End > P)
      ++S.DroppedLines;
    P = Nl == std::string::npos ? Text.size() : Nl + 1;
  }

  if (!HaveHeader) {
    if (Error)
      *Error = Path + ": no intact journal header";
    return false;
  }
  S.Records = static_cast<unsigned>(Out.Records.size());
  if (Salvage)
    *Salvage = S;
  return true;
}

bool dlf::campaign::quarantineJournalTail(const std::string &Path,
                                          const JournalSalvage &Salvage,
                                          std::string *Error) {
  if (Salvage.clean())
    return true;

  std::string Text;
  if (!readWholeFile(Path, Text, Error))
    return false;
  if (Text.size() < Salvage.ValidBytes) {
    if (Error)
      *Error = Path + ": shrank since salvage (" +
               std::to_string(Text.size()) + " < " +
               std::to_string(Salvage.ValidBytes) + " bytes)";
    return false;
  }

  std::string QuarantinePath = Path + ".corrupt";
  std::FILE *Q = std::fopen(QuarantinePath.c_str(), "ab");
  if (!Q) {
    if (Error)
      *Error = "cannot open " + QuarantinePath + ": " + std::strerror(errno);
    return false;
  }
  size_t TailLen = Text.size() - Salvage.ValidBytes;
  bool Ok = std::fwrite(Text.data() + Salvage.ValidBytes, 1, TailLen, Q) ==
                TailLen &&
            std::fflush(Q) == 0;
  std::fclose(Q);
  if (!Ok) {
    if (Error)
      *Error = "cannot write " + QuarantinePath + ": " + std::strerror(errno);
    return false;
  }

  if (::truncate(Path.c_str(), static_cast<off_t>(Salvage.ValidBytes)) != 0) {
    if (Error)
      *Error = "cannot truncate " + Path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

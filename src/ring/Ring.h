//===- ring/Ring.h - Lock-free shared-memory event ring ---------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The out-of-process observation transport (DESIGN.md §13): a shared-memory
/// ring the LD_PRELOAD interposer writes fixed-size binary event records
/// into, and a sidecar observer process (`dlf-observe`) drains, following
/// OrderLab's orbit model — all analysis cost moves out of the target
/// process, leaving the hot path a hard budget of one ring write per event.
///
/// Layout of the mapping (one file or memfd, created by whichever side
/// starts first):
///
///   RingHeader | StringTable | ShardCtl[Shards] | Slot[Shards * Slots]
///
/// * Per-thread SPSC shards. Each registered thread claims one shard for
///   its lifetime (a free-list of ShardCtl::Busy flags); shard 0 is the
///   designated overflow shard, shared by threads that arrive after the
///   pool is exhausted and serialized by a tiny spinlock. Everywhere else
///   there is exactly one writer and one reader per shard, so the hot path
///   is wait-free: no CAS, no lock, no syscall.
///
/// * 32-byte slots: an 8-byte seqlock stamp plus a 24-byte Record. The
///   stamp encodes the record's global sequence number and a phase
///   (claimed / in-progress / complete), so a reader can (a) detect a torn
///   or half-written slot by re-reading the stamp after copying the
///   payload, and (b) learn the sequence number of a record that is still
///   being written (the merge frontier below).
///
/// * Cached head/tail. The writer refreshes its private copy of the
///   reader's Tail only when the ring looks full, and the reader refreshes
///   its private copy of Head only when it looks empty — steady-state
///   traffic touches no cross-core cache line except the slots themselves.
///
/// * Overflow drops instead of blocking. A full shard increments a drop
///   counter and the event is lost; the target never stalls on a slow (or
///   absent) observer. Drops are counted per shard and surfaced through
///   telemetry (dlf_ring_dropped_total) and the observer's report.
///
/// * Monotonic global sequence numbers. Every record carries a sequence
///   from a single fetch-add counter in the header; the observer merges
///   shards by sorting on it. Causal safety: a record that happens-before
///   another (release before acquire, notify before wake, create before
///   first child event) is always *published* before the later record is
///   even claimed — the interposer writes source-side records before the
///   real operation and sink-side records after it — so feeding records in
///   sequence order below the safe frontier (RingReader::drainPass) never
///   reorders a cause after its effect.
///
/// This header (and Ring.cpp) depends only on the standard library and
/// POSIX: it is compiled both into libdlf and into the self-contained
/// LD_PRELOAD DSO, which must not drag in libdlf.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RING_RING_H
#define DLF_RING_RING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dlf {
namespace ring {

/// Environment variable: where the event ring lives. Either a filesystem
/// path (the writer creates/truncates it; put it on tmpfs for zero disk
/// I/O) or "fd:<n>" for a pre-created memfd inherited from `dlf-observe`.
inline constexpr const char *RingEnvVar = "DLF_RING";

/// Environment variables overriding the default geometry (powers of two).
inline constexpr const char *RingShardsEnvVar = "DLF_RING_SHARDS";
inline constexpr const char *RingSlotsEnvVar = "DLF_RING_SLOTS";

inline constexpr uint64_t RingMagic = 0x31474e4952464c44ull; // "DLFRING1"
inline constexpr uint32_t RingVersion = 1;

inline constexpr uint32_t DefaultShards = 64;
inline constexpr uint32_t DefaultSlotsPerShard = 4096;
inline constexpr uint32_t MaxShards = 512;
inline constexpr uint32_t MaxSlotsPerShard = 1u << 20;

/// String-table capacity: interned site strings ("symbol+0xoff"). Sites
/// are interned once per unique call site, so 4096 entries cover any
/// realistic target; overflow degrades to site id 0 ("site-overflow").
inline constexpr uint32_t MaxSites = 4096;
inline constexpr uint32_t SiteDataCap = 256 * 1024;

/// What one ring record describes: the raw capture-op vocabulary of the
/// preload. Every wrapper describes its call as one of these ops; the one
/// event model (interpose/EventModel.h) turns ops into trace events —
/// dense ids, recursion collapse, rwlock unlock sides, "site#n"
/// abstractions — in the preload for the text trace and Phase II, and in
/// dlf-observe for ring records, so the hot path carries no bookkeeping.
enum class RecordKind : uint16_t {
  Invalid = 0,
  ThreadSelf,    ///< Unregistered thread registered itself (Site: "main"...)
  ThreadFork,    ///< pthread_create: Addr = child tid, Site = create site
  LockSeen,      ///< Lock first sight at an acquire attempt (text and
                 ///< Phase II; in the ring only in combined mode)
  Acquire,       ///< Exclusive acquire executed (mutex or rwlock write side)
  Release,       ///< Mutex release (recursion is collapsed by the model)
  SharedAcquire, ///< rwlock read side acquired
  RwUnlock,      ///< rwlock unlocked (side resolved by the model)
  TryProbe,      ///< failed trylock: asked and bailed out, no wait-for edge
  CondSeen,      ///< Condvar first sight when a wait starts (text and
                 ///< Phase II; in the ring only in combined mode)
  CondNotify,    ///< cond signal/broadcast (Addr = condvar address)
  CondWake,      ///< cond waiter resumed after a notify
  LockDestroy,   ///< mutex/rwlock destroyed: the address binding ends
  AccessRead,    ///< opt-in shared-memory read (Addr = object address)
  AccessWrite,   ///< opt-in shared-memory write
  Join,          ///< pthread_join returned: Addr = joined (child) tid
};

/// One 24-byte event payload. Tid is the dense preload tid (threads beyond
/// 65535 are dropped with a counter — see RingWriter::write).
struct Record {
  uint64_t Seq = 0;  ///< Global sequence (also encoded in the slot stamp).
  uint64_t Addr = 0; ///< Lock/cond/object address, or child tid (ThreadFork).
  uint32_t Site = 0; ///< Interned site id (0 = none/overflow).
  uint16_t Kind = 0; ///< RecordKind.
  uint16_t Tid = 0;  ///< Writer thread id.
};
static_assert(sizeof(Record) == 24, "records are 24-byte payloads");

/// Slot stamp encoding (one atomic word per slot):
///   0                  never written
///   StampClaimed (1)   claimed, sequence not assigned yet (transient)
///   ((Seq+1)<<2) | 1   in-progress: payload being written, Seq known
///   ((Seq+1)<<2) | 2   complete: payload valid
inline constexpr uint64_t StampClaimed = 1;
inline constexpr uint64_t stampInProgress(uint64_t Seq) {
  return ((Seq + 1) << 2) | 1;
}
inline constexpr uint64_t stampComplete(uint64_t Seq) {
  return ((Seq + 1) << 2) | 2;
}
inline constexpr bool stampHasSeq(uint64_t S) { return (S >> 2) != 0; }
inline constexpr uint64_t stampSeq(uint64_t S) { return (S >> 2) - 1; }
inline constexpr unsigned stampPhase(uint64_t S) {
  return static_cast<unsigned>(S & 3);
}

struct Slot {
  std::atomic<uint64_t> Stamp;
  Record R;
};
static_assert(sizeof(Slot) == 32, "one slot is one 32-byte record");

/// Shared-memory header. All cross-process state is std::atomic on the
/// mapping (lock-free on every supported target; checked in Ring.cpp).
struct RingHeader {
  uint64_t Magic = 0;
  uint32_t Version = 0;
  uint32_t ShardCount = 0;
  uint32_t SlotsPerShard = 0;
  uint32_t RecordSize = 0;
  uint64_t TotalBytes = 0;
  /// Single global sequence counter; one fetch-add per record is the only
  /// cross-shard synchronization on the write path.
  std::atomic<uint64_t> GlobalSeq{0};
  /// Pid of the writer process (0 until a writer attaches) and its
  /// done-flag (set by the preload destructor).
  std::atomic<uint32_t> WriterPid{0};
  std::atomic<uint32_t> Done{0};
  /// Records dropped because the writer tid exceeded the 16-bit record
  /// field (kept here, not per shard: it is a property of the process).
  std::atomic<uint64_t> TidOverflowDrops{0};
};

struct SiteEntry {
  uint32_t Off = 0;
  uint32_t Len = 0;
};

/// Append-only interned-string table. Writers append under an in-process
/// mutex (all writers live in the target); readers snapshot Count with
/// acquire loads — entries below it are immutable.
struct StringTable {
  std::atomic<uint32_t> Count{0};
  std::atomic<uint32_t> DataUsed{0};
  SiteEntry Entries[MaxSites];
  char Data[SiteDataCap];
};

/// Per-shard control block: one writer-owned cache line and one
/// reader-owned cache line, so neither side's steady-state writes ping-pong
/// the other's.
struct ShardCtl {
  // -- writer line --
  std::atomic<uint64_t> Head{0};  ///< Records published (reader-visible).
  std::atomic<uint64_t> Drops{0}; ///< Records lost to overflow.
  std::atomic<uint32_t> Busy{0};  ///< Free-list flag / shard-0 spinlock.
  uint32_t Pad0 = 0;
  char Pad1[64 - 2 * sizeof(uint64_t) - 2 * sizeof(uint32_t)];
  // -- reader line --
  std::atomic<uint64_t> Tail{0}; ///< Records consumed (writer-visible).
  char Pad2[64 - sizeof(uint64_t)];
};
static_assert(sizeof(ShardCtl) == 128, "two cache lines per shard");

/// Geometry + offsets of a mapping; derived from the header.
struct RingGeometry {
  uint32_t Shards = DefaultShards;
  uint32_t Slots = DefaultSlotsPerShard;
  size_t totalBytes() const;
  size_t stringTableOff() const;
  size_t shardCtlOff() const;
  size_t slotsOff() const;
};

/// DLF_RING_SHARDS / DLF_RING_SLOTS, clamped and rounded up to a power of
/// two; the defaults when unset or unparsable.
uint32_t shardsFromEnv();
uint32_t slotsFromEnv();

/// Writer-side per-thread shard handle. CachedTail and the private head
/// mirror live here (in the writer process, not the mapping) so the hot
/// path reads no reader-owned shared line until the ring looks full.
struct ShardHandle {
  uint32_t Index = 0;
  bool SharedShard = false; ///< Shard 0: claim serialized by the spinlock.
  uint64_t LocalHead = 0;
  uint64_t CachedTail = 0;
};

/// The writer side, living inside the target process. Thread-safe: every
/// registered thread holds its own ShardHandle; interning and shard
/// claiming take an in-process mutex (both are once-per-thread or
/// once-per-site cold paths).
class RingWriter {
public:
  /// Creates (or re-initializes) the ring at \p Path. An existing file is
  /// reused only when it is a valid ring with no writer yet (the
  /// dlf-observe launch handshake); anything else is truncated and
  /// re-created. nullptr + \p Err on failure.
  static RingWriter *create(const std::string &Path, uint32_t Shards,
                            uint32_t Slots, std::string *Err);

  /// Attaches to an already-initialized ring through an inherited file
  /// descriptor (the memfd handshake: DLF_RING=fd:<n>).
  static RingWriter *attachFd(int Fd, std::string *Err);

  /// Opens from a DLF_RING value: "fd:<n>" attaches to an inherited
  /// descriptor, anything else is a path for create().
  static RingWriter *openSpec(const std::string &Spec, uint32_t Shards,
                              uint32_t Slots, std::string *Err);

  ~RingWriter();
  RingWriter(const RingWriter &) = delete;
  RingWriter &operator=(const RingWriter &) = delete;

  /// Claims a shard for the calling thread. Exclusive while any remain,
  /// else the shared overflow shard 0. Never fails.
  ShardHandle claimShard();
  /// Returns an exclusive shard to the free list (thread exit).
  void releaseShard(ShardHandle &H);

  /// The hot path: one fixed-size record, wait-free, drop-on-overflow.
  /// Returns false when the record was dropped (shard full, or \p Tid does
  /// not fit the 16-bit record field). \p Occupancy (optional) receives
  /// the shard occupancy observed at write time, for telemetry.
  bool write(ShardHandle &H, RecordKind Kind, uint32_t Tid, uint64_t Addr,
             uint32_t Site, uint64_t *Occupancy = nullptr);

  /// Interns \p Site (cold: once per unique call site). 0 on overflow.
  uint32_t internSite(const std::string &Site);

  /// Marks the stream finished (preload destructor).
  void markDone();

  uint64_t dropsTotal() const;
  const RingHeader *header() const { return Hdr; }
  uint32_t shardCount() const { return Geom.Shards; }

private:
  RingWriter() = default;
  static RingWriter *fromMapping(void *Mem, size_t Bytes, int Fd,
                                 std::string *Err);

  void *Mem = nullptr;
  size_t Bytes = 0;
  int Fd = -1;
  RingHeader *Hdr = nullptr;
  StringTable *Sites = nullptr;
  ShardCtl *Ctl = nullptr;
  Slot *Slots = nullptr;
  RingGeometry Geom;
  /// In-process writer state that must not live in the shared mapping —
  /// and must be per-instance, not process-global: a second writer in the
  /// same process (tests, or a re-opened ring) would otherwise satisfy
  /// interning from another ring's cache without ever writing the string
  /// into its own table.
  std::mutex LocalMu;
  std::unordered_map<std::string, uint32_t> SiteIds;
};

/// One drained record plus bookkeeping the observer reports.
struct DrainStats {
  uint64_t Drained = 0;       ///< Records handed to the caller so far.
  uint64_t Torn = 0;          ///< Slots whose stamp changed under the read.
  uint64_t Corrupt = 0;       ///< Stamp/payload sequence mismatches.
  uint64_t HalfWritten = 0;   ///< In-flight slots abandoned by a dead writer.
  uint64_t HeldBack = 0;      ///< Records buffered above the safe frontier.
  uint64_t Passes = 0;        ///< drainPass calls.
  uint64_t StalledPasses = 0; ///< Passes that saw a claim without a seq yet.
};

/// The reader side, living inside the observer process. Single-threaded.
class RingReader {
public:
  /// Maps an existing ring at \p Path; fails (nullptr + \p Err) unless the
  /// header validates. Use attachFd for a memfd the observer created.
  static RingReader *attach(const std::string &Path, std::string *Err);
  static RingReader *attachFd(int Fd, std::string *Err);

  /// Creates and initializes a ring on an anonymous memfd, returning the fd
  /// (for DLF_RING=fd:<n> inheritance) through \p FdOut. nullptr on
  /// failure (e.g. no memfd_create), with \p Err set.
  static RingReader *createMemfd(uint32_t Shards, uint32_t Slots, int *FdOut,
                                 std::string *Err);

  ~RingReader();
  RingReader(const RingReader &) = delete;
  RingReader &operator=(const RingReader &) = delete;

  /// One merge pass: drains every shard, then appends to \p Out — in
  /// ascending sequence order — every buffered record below the safe
  /// frontier (the smallest sequence number that could still appear in a
  /// not-yet-drained slot). Records above the frontier stay buffered for a
  /// later pass. Returns true if any record was appended.
  bool drainPass(std::vector<Record> &Out);

  /// Final drain once the writer is done or dead: drains what remains,
  /// counts abandoned in-flight slots as half-written, and flushes the
  /// entire hold-back buffer in sequence order.
  void finishDrain(std::vector<Record> &Out);

  bool writerDone() const;
  uint32_t writerPid() const;
  /// Sum of the per-shard overflow drop counters (plus tid overflows).
  uint64_t dropsTotal() const;
  /// Records currently published but not yet consumed, across all shards
  /// (the occupancy the dlf_ring_occupancy histogram samples).
  uint64_t occupancy() const;

  const DrainStats &stats() const { return Stats; }
  /// Site string for an interned id ("" for 0/unknown). Points into the
  /// mapping: interned entries never change, so it lives as long as the
  /// reader.
  std::string_view siteName(uint32_t Id) const;
  const RingHeader *header() const { return Hdr; }

private:
  RingReader() = default;
  static RingReader *fromMapping(void *Mem, size_t Bytes, int Fd,
                                 std::string *Err);
  /// Drains published records of shard \p S into the hold-back buffer;
  /// returns this shard's contribution to the safe frontier, or UINT64_MAX
  /// when the shard constrains nothing. Sets \p Unknown when the shard has
  /// a claimed slot whose sequence is not visible yet.
  uint64_t drainShard(uint32_t S, bool *Unknown);

  void *Mem = nullptr;
  size_t Bytes = 0;
  int Fd = -1;
  bool OwnsFd = false;
  RingHeader *Hdr = nullptr;
  StringTable *Sites = nullptr;
  ShardCtl *Ctl = nullptr;
  Slot *Slots = nullptr;
  RingGeometry Geom;

  std::vector<uint64_t> Consumed;     ///< Per-shard consumed count (== Tail).
  std::vector<uint64_t> LastSeq;      ///< Highest sequence drained per shard.
  std::vector<Record> HoldBack;       ///< Min-heap on Seq.
  DrainStats Stats;
};

} // namespace ring
} // namespace dlf

#endif // DLF_RING_RING_H

//===- ring/Ring.cpp - Lock-free shared-memory event ring -----------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ring/Ring.h"

#include "faultinject/FaultInject.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace dlf {
namespace ring {

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "the ring header lives in shared memory");
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "the ring header lives in shared memory");

//===----------------------------------------------------------------------===//
// Geometry
//===----------------------------------------------------------------------===//

static size_t alignUp(size_t N, size_t A) { return (N + A - 1) & ~(A - 1); }

size_t RingGeometry::stringTableOff() const {
  return alignUp(sizeof(RingHeader), 64);
}
size_t RingGeometry::shardCtlOff() const {
  return alignUp(stringTableOff() + sizeof(StringTable), 64);
}
size_t RingGeometry::slotsOff() const {
  return alignUp(shardCtlOff() + size_t(Shards) * sizeof(ShardCtl), 64);
}
size_t RingGeometry::totalBytes() const {
  return slotsOff() + size_t(Shards) * Slots * sizeof(Slot);
}

static uint32_t roundPow2(uint32_t N) {
  uint32_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

static uint32_t geomFromEnv(const char *Var, uint32_t Default, uint32_t Min,
                            uint32_t Max) {
  const char *Raw = ::getenv(Var);
  if (!Raw || !*Raw)
    return Default;
  char *End = nullptr;
  errno = 0;
  unsigned long V = ::strtoul(Raw, &End, 10);
  if (errno != 0 || !End || *End != '\0' || V == 0)
    return Default;
  uint32_t N = roundPow2(static_cast<uint32_t>(V > Max ? Max : V));
  if (N < Min)
    N = Min;
  if (N > Max)
    N = Max;
  return N;
}

uint32_t shardsFromEnv() {
  // At least two shards: shard 0 is reserved for overflow threads.
  return geomFromEnv(RingShardsEnvVar, DefaultShards, 2, MaxShards);
}
uint32_t slotsFromEnv() {
  return geomFromEnv(RingSlotsEnvVar, DefaultSlotsPerShard, 8,
                     MaxSlotsPerShard);
}

//===----------------------------------------------------------------------===//
// Mapping helpers
//===----------------------------------------------------------------------===//

static bool validHeader(const RingHeader *H, size_t MappedBytes,
                        std::string *Err) {
  if (H->Magic != RingMagic || H->Version != RingVersion) {
    if (Err)
      *Err = "not a DLF ring (bad magic/version)";
    return false;
  }
  if (H->ShardCount < 2 || H->ShardCount > MaxShards ||
      H->SlotsPerShard < 8 || H->SlotsPerShard > MaxSlotsPerShard ||
      (H->SlotsPerShard & (H->SlotsPerShard - 1)) != 0 ||
      H->RecordSize != sizeof(Slot)) {
    if (Err)
      *Err = "ring header has an impossible geometry";
    return false;
  }
  RingGeometry G;
  G.Shards = H->ShardCount;
  G.Slots = H->SlotsPerShard;
  if (H->TotalBytes != G.totalBytes() || MappedBytes < G.totalBytes()) {
    if (Err)
      *Err = "ring mapping is truncated";
    return false;
  }
  return true;
}

static void initMapping(void *Mem, const RingGeometry &G) {
  // The mapping is freshly zeroed (ftruncate-grown); all-zero bytes are the
  // correct representation for value 0 of every lock-free atomic here, so
  // initialization is just the non-zero header fields.
  auto *H = static_cast<RingHeader *>(Mem);
  H->Version = RingVersion;
  H->ShardCount = G.Shards;
  H->SlotsPerShard = G.Slots;
  H->RecordSize = sizeof(Slot);
  H->TotalBytes = G.totalBytes();
  // Publish the magic last: a reader that maps a half-initialized file sees
  // a bad magic, not a bad geometry.
  std::atomic_thread_fence(std::memory_order_release);
  H->Magic = RingMagic;
}

static void *mapFd(int Fd, size_t Bytes, std::string *Err) {
  void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd,
                     0);
  if (Mem == MAP_FAILED) {
    if (Err)
      *Err = std::string("mmap: ") + std::strerror(errno);
    return nullptr;
  }
  return Mem;
}

//===----------------------------------------------------------------------===//
// RingWriter
//===----------------------------------------------------------------------===//

RingWriter *RingWriter::fromMapping(void *M, size_t B, int Fd,
                                    std::string *Err) {
  auto *H = static_cast<RingHeader *>(M);
  if (!validHeader(H, B, Err)) {
    ::munmap(M, B);
    return nullptr;
  }
  auto *W = new RingWriter();
  W->Mem = M;
  W->Bytes = B;
  W->Fd = Fd;
  W->Hdr = H;
  W->Geom.Shards = H->ShardCount;
  W->Geom.Slots = H->SlotsPerShard;
  W->Sites = reinterpret_cast<StringTable *>(static_cast<char *>(M) +
                                             W->Geom.stringTableOff());
  W->Ctl = reinterpret_cast<ShardCtl *>(static_cast<char *>(M) +
                                        W->Geom.shardCtlOff());
  W->Slots = reinterpret_cast<Slot *>(static_cast<char *>(M) +
                                      W->Geom.slotsOff());
  H->WriterPid.store(static_cast<uint32_t>(::getpid()),
                     std::memory_order_release);
  return W;
}

RingWriter *RingWriter::create(const std::string &Path, uint32_t Shards,
                               uint32_t Slots, std::string *Err) {
  if (Shards < 2 || Shards > MaxShards || Slots < 8 ||
      Slots > MaxSlotsPerShard || (Slots & (Slots - 1)) != 0) {
    if (Err)
      *Err = "bad ring geometry";
    return nullptr;
  }
  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0) {
    if (Err)
      *Err = Path + ": " + std::strerror(errno);
    return nullptr;
  }

  // dlf-observe's launch handshake pre-creates the ring so it can attach
  // before the target starts; adopt such a file (valid ring, no writer yet)
  // instead of re-initializing it under the observer.
  struct stat St;
  if (::fstat(Fd, &St) == 0 &&
      St.st_size >= static_cast<off_t>(sizeof(RingHeader))) {
    void *Probe = mapFd(Fd, static_cast<size_t>(St.st_size), nullptr);
    if (Probe) {
      auto *H = static_cast<RingHeader *>(Probe);
      if (validHeader(H, static_cast<size_t>(St.st_size), nullptr) &&
          H->WriterPid.load(std::memory_order_acquire) == 0)
        return fromMapping(Probe, static_cast<size_t>(St.st_size), Fd, Err);
      ::munmap(Probe, static_cast<size_t>(St.st_size));
    }
  }

  RingGeometry G;
  G.Shards = Shards;
  G.Slots = Slots;
  size_t Total = G.totalBytes();
  // Shrink to zero first so a recycled file's stale contents cannot leak
  // into the fresh mapping.
  if (::ftruncate(Fd, 0) != 0 ||
      ::ftruncate(Fd, static_cast<off_t>(Total)) != 0) {
    if (Err)
      *Err = Path + ": ftruncate: " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  void *M = mapFd(Fd, Total, Err);
  if (!M) {
    ::close(Fd);
    return nullptr;
  }
  initMapping(M, G);
  return fromMapping(M, Total, Fd, Err);
}

RingWriter *RingWriter::attachFd(int Fd, std::string *Err) {
  struct stat St;
  if (::fstat(Fd, &St) != 0 ||
      St.st_size < static_cast<off_t>(sizeof(RingHeader))) {
    if (Err)
      *Err = "DLF_RING fd is not a ring";
    return nullptr;
  }
  void *M = mapFd(Fd, static_cast<size_t>(St.st_size), Err);
  if (!M)
    return nullptr;
  return fromMapping(M, static_cast<size_t>(St.st_size), Fd, Err);
}

RingWriter *RingWriter::openSpec(const std::string &Spec, uint32_t Shards,
                                 uint32_t Slots, std::string *Err) {
  if (Spec.rfind("fd:", 0) == 0) {
    char *End = nullptr;
    errno = 0;
    long Fd = ::strtol(Spec.c_str() + 3, &End, 10);
    if (errno != 0 || !End || *End != '\0' || Fd < 0) {
      if (Err)
        *Err = "bad DLF_RING fd spec: " + Spec;
      return nullptr;
    }
    return attachFd(static_cast<int>(Fd), Err);
  }
  return create(Spec, Shards, Slots, Err);
}

RingWriter::~RingWriter() {
  if (Mem)
    ::munmap(Mem, Bytes);
  if (Fd >= 0)
    ::close(Fd);
}

ShardHandle RingWriter::claimShard() {
  std::lock_guard<std::mutex> G(LocalMu);
  for (uint32_t I = 1; I < Geom.Shards; ++I) {
    uint32_t Free = 0;
    if (Ctl[I].Busy.load(std::memory_order_relaxed) == 0 &&
        Ctl[I].Busy.compare_exchange_strong(Free, 1,
                                            std::memory_order_acq_rel)) {
      ShardHandle H;
      H.Index = I;
      H.SharedShard = false;
      // A reused shard (its previous owner exited) keeps its history; pick
      // up where the old head left off.
      H.LocalHead = Ctl[I].Head.load(std::memory_order_relaxed);
      H.CachedTail = Ctl[I].Tail.load(std::memory_order_acquire);
      return H;
    }
  }
  // Pool exhausted: fall back to the shared overflow shard, serialized per
  // write by its spinlock.
  ShardHandle H;
  H.Index = 0;
  H.SharedShard = true;
  return H;
}

void RingWriter::releaseShard(ShardHandle &H) {
  if (!H.SharedShard && H.Index != 0)
    Ctl[H.Index].Busy.store(0, std::memory_order_release);
  H.Index = 0;
  H.SharedShard = true;
}

bool RingWriter::write(ShardHandle &H, RecordKind Kind, uint32_t Tid,
                       uint64_t Addr, uint32_t Site, uint64_t *Occupancy) {
  if (Tid > 0xFFFF) {
    Hdr->TidOverflowDrops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ShardCtl &C = Ctl[H.Index];
  if (H.SharedShard) {
    // Shard 0 has many writers; a tiny spinlock restores the SPSC
    // invariant. Only threads beyond the shard pool ever pay this.
    while (C.Busy.exchange(1, std::memory_order_acquire) != 0) {
    }
    H.LocalHead = C.Head.load(std::memory_order_relaxed);
    H.CachedTail = C.Tail.load(std::memory_order_relaxed);
  }

  if (H.LocalHead - H.CachedTail >= Geom.Slots) {
    // Looks full against the cached tail; refresh from the reader's line
    // (the only cross-core read on this path, and only when near-full).
    H.CachedTail = C.Tail.load(std::memory_order_acquire);
    if (H.LocalHead - H.CachedTail >= Geom.Slots) {
      C.Drops.fetch_add(1, std::memory_order_relaxed);
      if (Occupancy)
        *Occupancy = Geom.Slots;
      if (H.SharedShard)
        C.Busy.store(0, std::memory_order_release);
      return false;
    }
  }

  Slot &S =
      Slots[size_t(H.Index) * Geom.Slots + (H.LocalHead & (Geom.Slots - 1))];
  // Claim before taking a sequence number, seq_cst on both: the observer
  // snapshots GlobalSeq (S0) and then peeks this stamp; in the seq_cst
  // total order, a fetch-add ordered before the snapshot implies this
  // claim store is too, so a slot that still looks unclaimed cannot be
  // hiding a sequence below S0 (DESIGN.md §13.3).
  S.Stamp.store(StampClaimed, std::memory_order_seq_cst);
  uint64_t Seq = Hdr->GlobalSeq.fetch_add(1, std::memory_order_seq_cst);
  S.Stamp.store(stampInProgress(Seq), std::memory_order_relaxed);

  // Crash plane: die (from the ring's point of view) after claiming the
  // slot but before the payload — the observer must classify this slot as
  // half-written, not corrupt, and must not stall forever on it.
  if (faultinject::enabled() && faultinject::fires("ring.write.halfslot")) {
    if (H.SharedShard)
      C.Busy.store(0, std::memory_order_release);
    return true;
  }

  S.R.Seq = Seq;
  S.R.Addr = Addr;
  S.R.Site = Site;
  S.R.Kind = static_cast<uint16_t>(Kind);
  S.R.Tid = static_cast<uint16_t>(Tid);
  S.Stamp.store(stampComplete(Seq), std::memory_order_release);

  ++H.LocalHead;
  C.Head.store(H.LocalHead, std::memory_order_release);
  if (Occupancy)
    *Occupancy = H.LocalHead - H.CachedTail;
  if (H.SharedShard)
    C.Busy.store(0, std::memory_order_release);
  return true;
}

uint32_t RingWriter::internSite(const std::string &Site) {
  std::lock_guard<std::mutex> G(LocalMu);
  auto It = SiteIds.find(Site);
  if (It != SiteIds.end())
    return It->second;

  uint32_t N = Sites->Count.load(std::memory_order_relaxed);
  uint32_t Used = Sites->DataUsed.load(std::memory_order_relaxed);
  if (N >= MaxSites || Used + Site.size() > SiteDataCap) {
    SiteIds.emplace(Site, 0); // Overflow: degrade to "unknown site".
    return 0;
  }
  std::memcpy(Sites->Data + Used, Site.data(), Site.size());
  Sites->Entries[N].Off = Used;
  Sites->Entries[N].Len = static_cast<uint32_t>(Site.size());
  Sites->DataUsed.store(Used + static_cast<uint32_t>(Site.size()),
                        std::memory_order_relaxed);
  // Publish the entry by bumping Count last (readers acquire-load it and
  // never look past it).
  Sites->Count.store(N + 1, std::memory_order_release);
  uint32_t Id = N + 1; // Id 0 is reserved for "no site".
  SiteIds.emplace(Site, Id);
  return Id;
}

void RingWriter::markDone() { Hdr->Done.store(1, std::memory_order_release); }

uint64_t RingWriter::dropsTotal() const {
  uint64_t Total = Hdr->TidOverflowDrops.load(std::memory_order_relaxed);
  for (uint32_t I = 0; I < Geom.Shards; ++I)
    Total += Ctl[I].Drops.load(std::memory_order_relaxed);
  return Total;
}

//===----------------------------------------------------------------------===//
// RingReader
//===----------------------------------------------------------------------===//

RingReader *RingReader::fromMapping(void *M, size_t B, int Fd,
                                    std::string *Err) {
  auto *H = static_cast<RingHeader *>(M);
  if (!validHeader(H, B, Err)) {
    ::munmap(M, B);
    return nullptr;
  }
  auto *R = new RingReader();
  R->Mem = M;
  R->Bytes = B;
  R->Fd = Fd;
  R->Hdr = H;
  R->Geom.Shards = H->ShardCount;
  R->Geom.Slots = H->SlotsPerShard;
  R->Sites = reinterpret_cast<StringTable *>(static_cast<char *>(M) +
                                             R->Geom.stringTableOff());
  R->Ctl = reinterpret_cast<ShardCtl *>(static_cast<char *>(M) +
                                        R->Geom.shardCtlOff());
  R->Slots = reinterpret_cast<Slot *>(static_cast<char *>(M) +
                                      R->Geom.slotsOff());
  R->Consumed.resize(R->Geom.Shards, 0);
  R->LastSeq.resize(R->Geom.Shards, 0); // Stored as Seq+1; 0 = none yet.
  // Attaching mid-run: pick up from whatever the shards already consumed
  // (a previous observer) rather than re-reading overwritten slots.
  for (uint32_t I = 0; I < R->Geom.Shards; ++I)
    R->Consumed[I] = R->Ctl[I].Tail.load(std::memory_order_acquire);
  return R;
}

RingReader *RingReader::attach(const std::string &Path, std::string *Err) {
  int Fd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (Fd < 0) {
    if (Err)
      *Err = Path + ": " + std::strerror(errno);
    return nullptr;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 ||
      St.st_size < static_cast<off_t>(sizeof(RingHeader))) {
    if (Err)
      *Err = Path + ": not a ring file";
    ::close(Fd);
    return nullptr;
  }
  void *M = mapFd(Fd, static_cast<size_t>(St.st_size), Err);
  if (!M) {
    ::close(Fd);
    return nullptr;
  }
  RingReader *R = fromMapping(M, static_cast<size_t>(St.st_size), Fd, Err);
  if (R)
    R->OwnsFd = true;
  return R;
}

RingReader *RingReader::attachFd(int Fd, std::string *Err) {
  struct stat St;
  if (::fstat(Fd, &St) != 0 ||
      St.st_size < static_cast<off_t>(sizeof(RingHeader))) {
    if (Err)
      *Err = "fd is not a ring";
    return nullptr;
  }
  void *M = mapFd(Fd, static_cast<size_t>(St.st_size), Err);
  if (!M)
    return nullptr;
  return fromMapping(M, static_cast<size_t>(St.st_size), Fd, Err);
}

RingReader *RingReader::createMemfd(uint32_t Shards, uint32_t Slots,
                                    int *FdOut, std::string *Err) {
  if (Shards < 2 || Shards > MaxShards || Slots < 8 ||
      Slots > MaxSlotsPerShard || (Slots & (Slots - 1)) != 0) {
    if (Err)
      *Err = "bad ring geometry";
    return nullptr;
  }
  // No MFD_CLOEXEC: the fd must survive exec into the target, which finds
  // it through DLF_RING=fd:<n>.
  int Fd = ::memfd_create("dlf-ring", 0);
  if (Fd < 0) {
    if (Err)
      *Err = std::string("memfd_create: ") + std::strerror(errno);
    return nullptr;
  }
  RingGeometry G;
  G.Shards = Shards;
  G.Slots = Slots;
  size_t Total = G.totalBytes();
  if (::ftruncate(Fd, static_cast<off_t>(Total)) != 0) {
    if (Err)
      *Err = std::string("ftruncate: ") + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  void *M = mapFd(Fd, Total, Err);
  if (!M) {
    ::close(Fd);
    return nullptr;
  }
  initMapping(M, G);
  RingReader *R = fromMapping(M, Total, Fd, Err);
  if (R && FdOut)
    *FdOut = Fd;
  return R;
}

RingReader::~RingReader() {
  if (Mem)
    ::munmap(Mem, Bytes);
  if (Fd >= 0 && OwnsFd)
    ::close(Fd);
}

bool RingReader::writerDone() const {
  return Hdr->Done.load(std::memory_order_acquire) != 0;
}

uint32_t RingReader::writerPid() const {
  return Hdr->WriterPid.load(std::memory_order_acquire);
}

uint64_t RingReader::dropsTotal() const {
  uint64_t Total = Hdr->TidOverflowDrops.load(std::memory_order_relaxed);
  for (uint32_t I = 0; I < Geom.Shards; ++I)
    Total += Ctl[I].Drops.load(std::memory_order_relaxed);
  return Total;
}

uint64_t RingReader::occupancy() const {
  uint64_t Total = 0;
  for (uint32_t I = 0; I < Geom.Shards; ++I) {
    uint64_t Head = Ctl[I].Head.load(std::memory_order_relaxed);
    uint64_t Tail = Ctl[I].Tail.load(std::memory_order_relaxed);
    if (Head > Tail)
      Total += Head - Tail;
  }
  return Total;
}

std::string_view RingReader::siteName(uint32_t Id) const {
  if (Id == 0)
    return "";
  uint32_t N = Sites->Count.load(std::memory_order_acquire);
  if (Id > N)
    return "";
  const SiteEntry &E = Sites->Entries[Id - 1];
  if (E.Off + E.Len > SiteDataCap)
    return "";
  return std::string_view(Sites->Data + E.Off, E.Len);
}

namespace {
struct SeqGreater {
  bool operator()(const Record &A, const Record &B) const {
    return A.Seq > B.Seq;
  }
};
} // namespace

uint64_t RingReader::drainShard(uint32_t S, bool *Unknown) {
  ShardCtl &C = Ctl[S];
  uint64_t Head = C.Head.load(std::memory_order_acquire);
  uint64_t Tail = Consumed[S];

  for (; Tail != Head; ++Tail) {
    Slot &Sl = Slots[size_t(S) * Geom.Slots + (Tail & (Geom.Slots - 1))];
    // Seqlock read: published slots are stable in a healthy run (the
    // writer cannot lap the reader past Tail), so the re-read only fires
    // on a corrupted mapping or a writer that died mid-slot.
    uint64_t S1 = Sl.Stamp.load(std::memory_order_acquire);
    Record R = Sl.R;
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t S2 = Sl.Stamp.load(std::memory_order_relaxed);
    if (S1 != S2 || stampPhase(S1) == 1) {
      // Moved under us, or stably claimed/in-progress: a torn record (the
      // payload cannot be trusted), consumed but not believed.
      ++Stats.Torn;
      continue;
    }
    if (stampPhase(S1) != 2 || !stampHasSeq(S1) || stampSeq(S1) != R.Seq) {
      ++Stats.Corrupt;
      continue;
    }
    HoldBack.push_back(R);
    std::push_heap(HoldBack.begin(), HoldBack.end(), SeqGreater());
    LastSeq[S] = R.Seq + 1;
  }
  Consumed[S] = Tail;
  C.Tail.store(Tail, std::memory_order_release);

  // Merge frontier: peek the next unpublished slot. A claim marker with no
  // sequence yet means this shard might be about to publish any sequence
  // above its last one — hold the frontier there. A visible in-progress or
  // complete stamp names the pending sequence exactly. Anything else (empty
  // slot, or a stale stamp from the previous lap) constrains nothing:
  // future claims must take sequences at or above the S0 snapshot.
  uint64_t Peek =
      Slots[size_t(S) * Geom.Slots + (Head & (Geom.Slots - 1))].Stamp.load(
          std::memory_order_seq_cst);
  if (Peek == StampClaimed) {
    *Unknown = true;
    return LastSeq[S]; // Seq+1 of the last drained record; 0 if none.
  }
  if (stampHasSeq(Peek) && stampSeq(Peek) + 1 > LastSeq[S])
    return stampSeq(Peek);
  return UINT64_MAX;
}

bool RingReader::drainPass(std::vector<Record> &Out) {
  // Snapshot BEFORE scanning: every record claimed after this point has a
  // sequence >= S0, so S0 caps the frontier for slots that look empty.
  uint64_t S0 = Hdr->GlobalSeq.load(std::memory_order_seq_cst);
  uint64_t Safe = S0;
  bool Stalled = false;
  for (uint32_t S = 0; S < Geom.Shards; ++S) {
    bool Unknown = false;
    uint64_t Bound = drainShard(S, &Unknown);
    if (Bound < Safe)
      Safe = Bound;
    Stalled |= Unknown;
  }
  ++Stats.Passes;
  if (Stalled)
    ++Stats.StalledPasses;

  size_t Emitted = 0;
  while (!HoldBack.empty() && HoldBack.front().Seq < Safe) {
    std::pop_heap(HoldBack.begin(), HoldBack.end(), SeqGreater());
    Out.push_back(HoldBack.back());
    HoldBack.pop_back();
    ++Emitted;
  }
  Stats.Drained += Emitted;
  Stats.HeldBack = HoldBack.size();
  return Emitted != 0;
}

void RingReader::finishDrain(std::vector<Record> &Out) {
  std::vector<Record> Tmp;
  drainPass(Tmp);
  // The writer is done or dead: count in-flight slots it abandoned, then
  // release the whole hold-back buffer — no new sequences can appear.
  for (uint32_t S = 0; S < Geom.Shards; ++S) {
    uint64_t Head = Ctl[S].Head.load(std::memory_order_acquire);
    uint64_t Peek =
        Slots[size_t(S) * Geom.Slots + (Head & (Geom.Slots - 1))].Stamp.load(
            std::memory_order_acquire);
    if (Peek == StampClaimed ||
        (stampHasSeq(Peek) && stampPhase(Peek) == 1 &&
         stampSeq(Peek) + 1 > LastSeq[S]))
      ++Stats.HalfWritten;
  }
  // drainPass emitted everything below the frontier in ascending order;
  // heap pops release the rest (all above it) ascending too, so the
  // concatenation stays sorted by sequence.
  Stats.Drained += HoldBack.size();
  while (!HoldBack.empty()) {
    std::pop_heap(HoldBack.begin(), HoldBack.end(), SeqGreater());
    Tmp.push_back(HoldBack.back());
    HoldBack.pop_back();
  }
  Stats.HeldBack = 0;
  Out.insert(Out.end(), Tmp.begin(), Tmp.end());
}

} // namespace ring
} // namespace dlf

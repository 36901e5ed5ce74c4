//===- tests/RingTest.cpp - Shared-memory event ring unit tests -----------===//
//
// Edge cases of the ring transport (src/ring): wrap-around, overflow drop
// accounting, torn/corrupt record detection through the seqlock stamps, an
// observer attaching mid-run, a writer dying with a half-written slot
// (driven by the deterministic fault plane), cross-shard merge order, and
// the replay of ring records through the preload's event model.
//
//===----------------------------------------------------------------------===//

#include "analysis/Trace.h"
#include "faultinject/FaultInject.h"
#include "interpose/EventModel.h"
#include "ring/Assemble.h"
#include "ring/Ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace dlf;
using namespace dlf::ring;

namespace {

std::string tmpRing(const char *Name) {
  std::string Path = std::string(::testing::TempDir()) + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// A second, independent mapping of a ring file, for tampering with slot
/// stamps the way a corrupted mapping (or a dying writer) would.
struct RawRing {
  void *Mem = nullptr;
  size_t Bytes = 0;
  RingGeometry Geom;

  explicit RawRing(const std::string &Path) {
    int Fd = ::open(Path.c_str(), O_RDWR);
    if (Fd < 0)
      return;
    struct stat St;
    if (::fstat(Fd, &St) != 0) {
      ::close(Fd);
      return;
    }
    Bytes = static_cast<size_t>(St.st_size);
    Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
    ::close(Fd);
    if (Mem == MAP_FAILED) {
      Mem = nullptr;
      return;
    }
    auto *Hdr = static_cast<RingHeader *>(Mem);
    Geom.Shards = Hdr->ShardCount;
    Geom.Slots = Hdr->SlotsPerShard;
  }
  ~RawRing() {
    if (Mem)
      ::munmap(Mem, Bytes);
  }

  Slot &slot(uint32_t Shard, uint32_t Index) {
    auto *Base = reinterpret_cast<Slot *>(static_cast<char *>(Mem) +
                                          Geom.slotsOff());
    return Base[size_t(Shard) * Geom.Slots + Index];
  }
};

void expectAscending(const std::vector<Record> &Out) {
  for (size_t I = 1; I < Out.size(); ++I)
    EXPECT_LT(Out[I - 1].Seq, Out[I].Seq) << "merge order broken at " << I;
}

TEST(Ring, WrapAroundKeepsSequenceOrder) {
  const std::string Path = tmpRing("ring_wrap.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;
  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;

  ShardHandle H = W->claimShard();
  std::vector<Record> Out;
  // 6 records per round through an 8-slot shard: five full laps.
  for (int Round = 0; Round != 5; ++Round) {
    for (int I = 0; I != 6; ++I)
      ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x1000 + I, 0));
    R->drainPass(Out);
  }
  W->markDone();
  R->finishDrain(Out);

  EXPECT_EQ(Out.size(), 30u);
  expectAscending(Out);
  EXPECT_EQ(R->stats().Torn, 0u);
  EXPECT_EQ(R->stats().Corrupt, 0u);
  EXPECT_EQ(R->dropsTotal(), 0u);
}

TEST(Ring, OverflowDropsInsteadOfBlocking) {
  const std::string Path = tmpRing("ring_overflow.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;

  ShardHandle H = W->claimShard();
  for (int I = 0; I != 8; ++I)
    ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x10, 0));
  // Ring full, nobody draining: the writer must not block.
  uint64_t Occupancy = 0;
  for (int I = 0; I != 3; ++I)
    EXPECT_FALSE(W->write(H, RecordKind::Acquire, 1, 0x10, 0, &Occupancy));
  EXPECT_EQ(Occupancy, 8u);
  EXPECT_EQ(W->dropsTotal(), 3u);

  // A drain frees the shard: writes flow again (CachedTail refresh path).
  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;
  std::vector<Record> Out;
  R->drainPass(Out);
  EXPECT_EQ(Out.size(), 8u);
  EXPECT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x10, 0));
  EXPECT_EQ(W->dropsTotal(), 3u);
  EXPECT_EQ(R->dropsTotal(), 3u);
}

TEST(Ring, OversizedTidIsCountedDrop) {
  const std::string Path = tmpRing("ring_tid.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;
  ShardHandle H = W->claimShard();
  EXPECT_FALSE(W->write(H, RecordKind::Acquire, 1u << 17, 0x10, 0));
  EXPECT_EQ(W->dropsTotal(), 1u);
}

TEST(Ring, TornRecordDetectedBySeqlockReRead) {
  const std::string Path = tmpRing("ring_torn.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;
  ShardHandle H = W->claimShard();
  ASSERT_EQ(H.Index, 1u); // first exclusive claim: shard 1
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x10 + I, 0));

  // Regress the middle slot's stamp to in-progress: a stable phase-1 stamp
  // under a published Head is exactly what a record torn mid-write looks
  // like, and the re-read must refuse the payload.
  RawRing Raw(Path);
  ASSERT_TRUE(Raw.Mem);
  Raw.slot(1, 1).Stamp.store(stampInProgress(1));

  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;
  W->markDone();
  std::vector<Record> Out;
  R->finishDrain(Out);
  EXPECT_EQ(R->stats().Torn, 1u);
  EXPECT_EQ(Out.size(), 2u);
  expectAscending(Out);
}

TEST(Ring, CorruptStampPayloadMismatchDetected) {
  const std::string Path = tmpRing("ring_corrupt.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;
  ShardHandle H = W->claimShard();
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x10 + I, 0));

  // A complete stamp whose sequence disagrees with the payload's: the
  // mapping lies, and the record must be rejected as corrupt (not torn).
  RawRing Raw(Path);
  ASSERT_TRUE(Raw.Mem);
  Raw.slot(1, 1).Stamp.store(stampComplete(1 + 7));

  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;
  W->markDone();
  std::vector<Record> Out;
  R->finishDrain(Out);
  EXPECT_EQ(R->stats().Corrupt, 1u);
  EXPECT_EQ(R->stats().Torn, 0u);
  EXPECT_EQ(Out.size(), 2u);
}

TEST(Ring, ObserverAttachesMidRun) {
  const std::string Path = tmpRing("ring_midrun.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 64, &Err));
  ASSERT_TRUE(W) << Err;
  ShardHandle H = W->claimShard();
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x10, 0));

  // First observer consumes the prefix...
  {
    std::unique_ptr<RingReader> R1(RingReader::attach(Path, &Err));
    ASSERT_TRUE(R1) << Err;
    std::vector<Record> Out;
    R1->drainPass(Out);
    EXPECT_EQ(Out.size(), 5u);
  }

  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x20, 0));
  W->markDone();

  // ...and a second observer, attaching mid-run, resumes from the recorded
  // Tail instead of re-reading (or worse, re-believing) consumed slots.
  std::unique_ptr<RingReader> R2(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R2) << Err;
  std::vector<Record> Out;
  R2->finishDrain(Out);
  EXPECT_EQ(Out.size(), 3u);
  for (const Record &R : Out)
    EXPECT_EQ(R.Addr, 0x20u);
}

TEST(Ring, WriterCrashLeavesHalfWrittenSlot) {
  const std::string Path = tmpRing("ring_crash.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;
  ShardHandle H = W->claimShard();

  // The deterministic crash plane: the third write dies (from the ring's
  // point of view) after claiming its slot and sequence number but before
  // the payload.
  faultinject::FaultPlan P;
  std::string PlanErr;
  ASSERT_TRUE(P.parse("ring.write.halfslot@3", &PlanErr)) << PlanErr;
  faultinject::setPlan(std::move(P));
  ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x10, 0));
  ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x11, 0));
  ASSERT_TRUE(W->write(H, RecordKind::Acquire, 1, 0x12, 0)); // half-written
  faultinject::setPlan(faultinject::FaultPlan());

  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;
  std::vector<Record> Out;
  // While the slot is merely in-flight the frontier holds: a live writer
  // could still complete it. Nothing above sequence 1 may be released.
  R->drainPass(Out);
  EXPECT_EQ(Out.size(), 2u);

  // The writer is dead (no markDone): the final drain classifies the
  // abandoned slot as half-written and releases everything else.
  R->finishDrain(Out);
  EXPECT_EQ(Out.size(), 2u);
  EXPECT_EQ(R->stats().HalfWritten, 1u);
  EXPECT_EQ(R->stats().Torn, 0u);
  EXPECT_EQ(R->stats().Corrupt, 0u);
  expectAscending(Out);
}

TEST(Ring, TwoWritersMergeInSequenceOrder) {
  const std::string Path = tmpRing("ring_two_writers.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 4, 2048, &Err));
  ASSERT_TRUE(W) << Err;

  const int PerThread = 800;
  auto Writer = [&](uint32_t Tid) {
    ShardHandle H = W->claimShard();
    for (int I = 0; I != PerThread; ++I)
      ASSERT_TRUE(W->write(H, RecordKind::Acquire, Tid, 0x10, 0));
    W->releaseShard(H);
  };
  std::thread T1(Writer, 1), T2(Writer, 2);
  T1.join();
  T2.join();
  W->markDone();

  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;
  std::vector<Record> Out;
  R->finishDrain(Out);
  ASSERT_EQ(Out.size(), size_t(2 * PerThread));
  expectAscending(Out);
  // The global counter hands out a dense range: merged output is exactly
  // 0..N-1 with no gaps.
  for (size_t I = 0; I != Out.size(); ++I)
    EXPECT_EQ(Out[I].Seq, I);
}

TEST(Ring, SiteInterningRoundTrips) {
  const std::string Path = tmpRing("ring_sites.ring");
  std::string Err;
  std::unique_ptr<RingWriter> W(RingWriter::create(Path, 2, 8, &Err));
  ASSERT_TRUE(W) << Err;
  uint32_t A = W->internSite("alpha+0x10");
  uint32_t B = W->internSite("beta+0x20");
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
  EXPECT_EQ(W->internSite("alpha+0x10"), A); // idempotent

  std::unique_ptr<RingReader> R(RingReader::attach(Path, &Err));
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->siteName(A), "alpha+0x10");
  EXPECT_EQ(R->siteName(B), "beta+0x20");
  EXPECT_EQ(R->siteName(0), "");
  EXPECT_EQ(R->siteName(9999), "");
}

//===----------------------------------------------------------------------===//
// Assembler: ring records replayed through the preload's one event model.
//===----------------------------------------------------------------------===//

struct AssemblerFixture {
  std::unique_ptr<RingWriter> W;
  std::unique_ptr<RingReader> R;
  interpose::EventModel Model;
  uint32_t Main = 0, SiteA = 0, SiteB = 0, Create = 0;

  explicit AssemblerFixture(const char *Name) {
    std::string Err;
    W.reset(RingWriter::create(tmpRing(Name), 2, 64, &Err));
    if (!W)
      return;
    Main = W->internSite("main");
    SiteA = W->internSite("workerA+0x10");
    SiteB = W->internSite("workerB+0x20");
    Create = W->internSite("main+0x30");
    R.reset(RingReader::attach(
        std::string(::testing::TempDir()) + "/" + Name, &Err));
  }

  static Record rec(RecordKind K, uint16_t Tid, uint64_t Addr,
                    uint32_t Site) {
    Record Rc;
    Rc.Kind = static_cast<uint16_t>(K);
    Rc.Tid = Tid;
    Rc.Addr = Addr;
    Rc.Site = Site;
    return Rc;
  }

  std::vector<analysis::TraceEvent> feed(const std::vector<Record> &In) {
    std::vector<analysis::TraceEvent> Out;
    EXPECT_EQ(assemble(*R, In, Model, Out), 0u);
    return Out;
  }
};

using EK = analysis::TraceEvent::Kind;

TEST(Assembler, CollapsesRecursionAndAssignsDenseIds) {
  AssemblerFixture F("ring_asm_rec.ring");
  ASSERT_TRUE(F.R);
  std::vector<analysis::TraceEvent> Out = F.feed({
      F.rec(RecordKind::ThreadSelf, 1, 0, F.Main),
      F.rec(RecordKind::Acquire, 1, 0x1000, F.SiteA),
      F.rec(RecordKind::Acquire, 1, 0x1000, F.SiteA), // recursive
      F.rec(RecordKind::Release, 1, 0x1000, 0),       // inner
      F.rec(RecordKind::Release, 1, 0x1000, 0),       // outer
      F.rec(RecordKind::Release, 1, 0x2000, 0),       // never-seen lock
      F.rec(RecordKind::Acquire, 1, 0x1000, F.SiteA),
      F.rec(RecordKind::Release, 2, 0x1000, 0),       // not the owner
      F.rec(RecordKind::Release, 1, 0x1000, 0),
      F.rec(RecordKind::LockDestroy, 0, 0x1000, 0),
      F.rec(RecordKind::Acquire, 1, 0x1000, F.SiteA), // re-init, same address
  });

  ASSERT_EQ(Out.size(), 8u);
  EXPECT_EQ(Out[0].K, EK::ThreadNew);
  EXPECT_EQ(Out[0].A, 1u);
  EXPECT_EQ(Out[0].Text, "main#1");
  EXPECT_EQ(Out[1].K, EK::LockNew);
  EXPECT_EQ(Out[1].A, 1u); // dense id, not the address
  EXPECT_EQ(Out[1].Text, "workerA+0x10#1");
  EXPECT_EQ(Out[2].K, EK::Acquire);
  EXPECT_EQ(Out[2].B, 1u);
  EXPECT_EQ(Out[2].Text, "workerA+0x10");
  EXPECT_EQ(Out[3].K, EK::Release);
  EXPECT_EQ(Out[4].K, EK::Acquire);
  EXPECT_EQ(Out[5].K, EK::Release); // thread 2's stray release was dropped
  EXPECT_EQ(Out[5].A, 1u);
  // Destroy ended the binding: a new lock, a new id, a new M line.
  EXPECT_EQ(Out[6].K, EK::LockNew);
  EXPECT_EQ(Out[6].A, 2u);
  EXPECT_EQ(Out[6].Text, "workerA+0x10#2");
  EXPECT_EQ(Out[7].K, EK::Acquire);
  EXPECT_EQ(Out[7].B, 2u);
}

TEST(Assembler, ResolvesRwlockUnlockSides) {
  AssemblerFixture F("ring_asm_rw.ring");
  ASSERT_TRUE(F.R);
  std::vector<analysis::TraceEvent> Out = F.feed({
      F.rec(RecordKind::ThreadSelf, 1, 0, F.Main),
      F.rec(RecordKind::SharedAcquire, 1, 0x3000, F.SiteA),
      F.rec(RecordKind::RwUnlock, 1, 0x3000, 0), // read side held: U
      F.rec(RecordKind::Acquire, 1, 0x3000, F.SiteB),
      F.rec(RecordKind::RwUnlock, 1, 0x3000, 0), // write side held: R
      F.rec(RecordKind::Acquire, 1, 0x3000, F.SiteB),
      F.rec(RecordKind::RwUnlock, 1, 0x3000, 0), // write side first: R
      F.rec(RecordKind::SharedAcquire, 1, 0x3000, F.SiteA),
      F.rec(RecordKind::RwUnlock, 1, 0x3000, 0), // then the read side: U
      F.rec(RecordKind::RwUnlock, 1, 0x3000, 0), // nothing held: dropped
  });

  ASSERT_EQ(Out.size(), 10u);
  EXPECT_EQ(Out[2].K, EK::SharedAcquire);
  EXPECT_EQ(Out[3].K, EK::SharedRelease);
  EXPECT_EQ(Out[4].K, EK::Acquire);
  EXPECT_EQ(Out[5].K, EK::Release);
  EXPECT_EQ(Out[6].K, EK::Acquire);
  EXPECT_EQ(Out[7].K, EK::Release);
  EXPECT_EQ(Out[8].K, EK::SharedAcquire);
  EXPECT_EQ(Out[9].K, EK::SharedRelease);
}

TEST(Assembler, BumpsRepeatedSitesDeterministically) {
  AssemblerFixture F("ring_asm_bump.ring");
  ASSERT_TRUE(F.R);
  std::vector<analysis::TraceEvent> Out = F.feed({
      F.rec(RecordKind::ThreadSelf, 1, 0, F.Main),
      F.rec(RecordKind::ThreadFork, 1, 2, F.Create),
      F.rec(RecordKind::ThreadFork, 1, 3, F.Create),
  });

  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out[1].K, EK::ThreadNew);
  EXPECT_EQ(Out[1].A, 2u);
  EXPECT_EQ(Out[1].Text, "main+0x30#1");
  EXPECT_EQ(Out[2].K, EK::Fork);
  EXPECT_EQ(Out[2].A, 1u);
  EXPECT_EQ(Out[2].B, 2u);
  EXPECT_EQ(Out[3].Text, "main+0x30#2"); // second child at the same site
}

TEST(Assembler, TracksCondvarsByDenseId) {
  AssemblerFixture F("ring_asm_cond.ring");
  ASSERT_TRUE(F.R);
  std::vector<analysis::TraceEvent> Out = F.feed({
      F.rec(RecordKind::ThreadSelf, 1, 0, F.Main),
      F.rec(RecordKind::CondNotify, 1, 0xc0, 0),
      F.rec(RecordKind::CondWake, 1, 0xc0, 0),
      F.rec(RecordKind::CondNotify, 1, 0xd0, 0),
      // A recursive mutex across pthread_cond_wait: the wait releases and
      // re-acquires one level, which stays invisible.
      F.rec(RecordKind::Acquire, 1, 0x4000, F.SiteA),
      F.rec(RecordKind::Acquire, 1, 0x4000, F.SiteA),
      F.rec(RecordKind::CondSeen, 0, 0xe0, 0),
      F.rec(RecordKind::Release, 1, 0x4000, 0),
      F.rec(RecordKind::CondWake, 1, 0xe0, 0),
      F.rec(RecordKind::Acquire, 1, 0x4000, F.SiteA),
      F.rec(RecordKind::Release, 1, 0x4000, 0),
      F.rec(RecordKind::Release, 1, 0x4000, 0),
  });

  ASSERT_EQ(Out.size(), 8u);
  EXPECT_EQ(Out[1].K, EK::CondNotify);
  EXPECT_EQ(Out[1].B, 1u);
  EXPECT_EQ(Out[2].K, EK::CondWake);
  EXPECT_EQ(Out[2].B, 1u); // same condvar, same dense id
  EXPECT_EQ(Out[3].B, 2u); // different condvar
  EXPECT_EQ(Out[4].K, EK::LockNew);
  EXPECT_EQ(Out[5].K, EK::Acquire);
  EXPECT_EQ(Out[6].K, EK::CondWake);
  EXPECT_EQ(Out[6].B, 3u); // numbered when the wait started (CondSeen)
  EXPECT_EQ(Out[7].K, EK::Release);
}

} // namespace

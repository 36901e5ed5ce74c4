//===- igoodlock/IGoodlock.cpp - Algorithm 1 --------------------------------===//
//
// The iterative closure, rebuilt as a parallel, allocation-lean engine:
//
//  * Chains are built only over *live* entries: those whose acquired lock
//    shares a strongly connected component of the lock graph (an edge
//    h -> l for every entry holding h != l while acquiring l) with one of
//    their held locks. The prune is exact. Member i of any cycle holds
//    l_{i-1} != l_i and acquires l_i, so l_1 -> ... -> l_m -> l_1 is a
//    lock-graph cycle and every member is live, whatever the lock modes,
//    KeepGuardedCycles or the happens-before filter. A chain through a dead
//    entry therefore never closes. Entry indices and candidate order are
//    unchanged, so the cycle list, its order and its multiplicities are
//    those of the unpruned closure; only the chain counts shrink.
//  * Levels are flat arenas (one contiguous index buffer per level; every
//    chain of level k has exactly k entries, so slices are uniform) instead
//    of per-chain heap vectors.
//  * Held-set disjointness — the O(|Held|^2) inner loop of canExtend — is a
//    single AND of precomputed bitmasks. Lock ids are densified in
//    first-appearance order and folded modulo 64 into the mask: a clear AND
//    always proves disjointness, a set AND is an exact shared-lock witness
//    when the execution has <= 64 distinct locks, and only the rare set-AND
//    above 64 locks pays for a sorted-vector intersection.
//  * Each level's chains are sharded across AnalysisJobs workers. Workers
//    run the exact serial per-chain scan speculatively; a deterministic
//    in-order merge replays their outputs (extension counts locate the
//    MaxChains cut point exactly), so cycles, multiplicities, stats, and
//    truncation are byte-identical to serial for every job count. Levels
//    are natural barriers — the same structure the campaign runner's
//    commit frontier uses.
//  * Cycle dedup keys are rotation-minimal 128-bit structural hashes of
//    per-entry component data (each entry hashed once, no ostringstream),
//    and the happens-before filter memoizes pairwise clock comparisons.
//
//===----------------------------------------------------------------------===//

#include "igoodlock/IGoodlock.h"

#include "support/Hash.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace dlf;

namespace {

/// The held-set bit for a dense lock id: ids are folded modulo 64, so a
/// clear AND of two masks *always* proves disjointness, and a set AND is an
/// exact shared-lock witness precisely when the execution has at most 64
/// distinct locks (the mapping is then injective — RelationIndex::MaskExact).
uint64_t lockBit(uint32_t Dense) { return uint64_t(1) << (Dense & 63); }

/// Per-entry precomputed extension data over densified lock ids.
struct EntryMeta {
  /// Folded bits of the held set (see lockBit).
  uint64_t HeldMask = 0;
  /// Folded bits of the *exclusively* held subset. Two held sets conflict
  /// only when a common lock is held exclusively by at least one side —
  /// read-read overlap is not exclusion. For mutex-only logs this equals
  /// HeldMask, so the mode-aware tests degenerate to the old ones.
  uint64_t HeldMaskExcl = 0;
  uint32_t DenseAcquired = 0;
  /// Slice of RelationIndex::HeldSorted holding the sorted dense held set.
  uint32_t HeldBegin = 0;
  uint32_t HeldEnd = 0;
};

/// Per-chain accumulated state: the union of the members' held masks and
/// the last acquired lock (the link the next entry must hold), plus the
/// mode it was requested in (a shared wait is only blocked by an
/// exclusive hold).
struct ChainMeta {
  uint64_t HeldMask = 0;
  uint64_t HeldMaskExcl = 0;
  uint32_t LastDenseAcquired = 0;
  LockMode LastAcquiredMode = LockMode::Exclusive;
};

/// One closure level in flat-arena form: chain I occupies
/// Idx[I*Len, (I+1)*Len), and Meta[I] is its accumulated state.
struct ChainLevel {
  std::vector<uint32_t> Idx;
  std::vector<ChainMeta> Meta;
  unsigned Len = 1;

  size_t size() const { return Meta.size(); }
  const uint32_t *chain(size_t I) const { return Idx.data() + I * Len; }
};

/// Read-only per-relation index shared by all workers.
struct RelationIndex {
  std::vector<EntryMeta> Meta;
  /// All held sets as sorted dense ids, sliced by EntryMeta::HeldBegin/End.
  std::vector<uint32_t> HeldSorted;
  /// Parallel to HeldSorted: 1 when that occurrence is an exclusive hold
  /// (the >64-lock fallback needs per-occurrence modes, not just masks).
  std::vector<uint8_t> HeldSortedExcl;
  /// CSR candidate index: for dense lock id L, CandData[CandOffsets[L],
  /// CandOffsets[L+1]) are the live entries whose held set contains L, in
  /// entry order — the extension candidates for a chain whose last acquired lock
  /// is L. Built per held *occurrence* so candidate iteration order (and
  /// thus discovery order) matches the pre-arena engine exactly.
  std::vector<uint32_t> CandOffsets;
  std::vector<uint32_t> CandData;
  /// Parallel to CandData: the mode of the held occurrence that put the
  /// entry on the candidate list. A chain whose last acquire is Shared
  /// only waits on candidates whose hold of that lock is Exclusive.
  std::vector<LockMode> CandMode;
  /// Live[I]: entry I can lie on a cycle (see the file comment). Dead
  /// entries head no chain and sit on no candidate list.
  std::vector<uint8_t> Live;
  uint32_t NumLocks = 0;
  /// True when lockBit is injective (<= 64 distinct locks): mask tests are
  /// then exact in both directions and the sorted fallback is never needed.
  bool MaskExact = true;
};

/// Tarjan's strongly connected components of the lock graph, read off the
/// CSR candidate index: lock h has an edge to the acquired lock of every
/// entry on h's candidate list. Returns a component id per dense lock. The
/// call stack is explicit, so deep lock graphs cannot overflow the native
/// one.
std::vector<uint32_t> lockComponents(const RelationIndex &Ix) {
  constexpr uint32_t None = UINT32_MAX;
  std::vector<uint32_t> Order(Ix.NumLocks, None), Low(Ix.NumLocks),
      Comp(Ix.NumLocks, None), Stack;
  std::vector<std::pair<uint32_t, uint32_t>> Calls; // (lock, next slot)
  uint32_t Visited = 0, Comps = 0;
  auto Visit = [&](uint32_t V) {
    Order[V] = Low[V] = Visited++;
    Stack.push_back(V);
    Calls.emplace_back(V, Ix.CandOffsets[V]);
  };
  for (uint32_t Root = 0; Root != Ix.NumLocks; ++Root) {
    if (Order[Root] != None)
      continue;
    Visit(Root);
    while (!Calls.empty()) {
      auto [V, Slot] = Calls.back();
      if (Slot != Ix.CandOffsets[V + 1]) {
        ++Calls.back().second;
        uint32_t W = Ix.Meta[Ix.CandData[Slot]].DenseAcquired;
        if (Order[W] == None)
          Visit(W);
        else if (Comp[W] == None) // W is still on the Tarjan stack
          Low[V] = std::min(Low[V], Order[W]);
        continue;
      }
      Calls.pop_back();
      if (!Calls.empty())
        Low[Calls.back().first] = std::min(Low[Calls.back().first], Low[V]);
      if (Low[V] != Order[V])
        continue;
      uint32_t W;
      do {
        W = Stack.back();
        Stack.pop_back();
        Comp[W] = Comps;
      } while (W != V);
      ++Comps;
    }
  }
  return Comp;
}

RelationIndex buildIndex(const std::vector<DependencyEntry> &D) {
  RelationIndex Ix;
  std::unordered_map<uint64_t, uint32_t> DenseLock;
  auto Densify = [&](LockId L) {
    auto [It, Inserted] = DenseLock.try_emplace(L.Raw, Ix.NumLocks);
    if (Inserted)
      ++Ix.NumLocks;
    return It->second;
  };

  // Entries without recorded modes (legacy logs) default to Exclusive,
  // which reproduces the pre-mode engine exactly.
  auto HeldModeOf = [](const DependencyEntry &E, size_t K) {
    return K < E.HeldModes.size() ? E.HeldModes[K] : LockMode::Exclusive;
  };

  size_t HeldTotal = 0;
  for (const DependencyEntry &E : D)
    HeldTotal += E.Held.size();
  Ix.Meta.resize(D.size());
  Ix.HeldSorted.reserve(HeldTotal);
  Ix.HeldSortedExcl.reserve(HeldTotal);
  std::vector<std::pair<uint32_t, uint8_t>> HeldBuf;
  for (uint32_t I = 0; I != D.size(); ++I) {
    EntryMeta &M = Ix.Meta[I];
    M.HeldBegin = static_cast<uint32_t>(Ix.HeldSorted.size());
    HeldBuf.clear();
    for (size_t K = 0; K != D[I].Held.size(); ++K) {
      uint32_t Dense = Densify(D[I].Held[K]);
      bool Excl = HeldModeOf(D[I], K) == LockMode::Exclusive;
      HeldBuf.emplace_back(Dense, Excl ? 1 : 0);
      M.HeldMask |= lockBit(Dense);
      if (Excl)
        M.HeldMaskExcl |= lockBit(Dense);
    }
    std::sort(HeldBuf.begin(), HeldBuf.end());
    for (auto [Dense, Excl] : HeldBuf) {
      Ix.HeldSorted.push_back(Dense);
      Ix.HeldSortedExcl.push_back(Excl);
    }
    M.HeldEnd = static_cast<uint32_t>(Ix.HeldSorted.size());
    M.DenseAcquired = Densify(D[I].Acquired);
  }
  Ix.MaskExact = Ix.NumLocks <= 64;

  // CSR fill: counts, prefix sum, then a second pass placing entry indices
  // (ascending I per lock, preserving candidate order).
  Ix.CandOffsets.assign(Ix.NumLocks + 1, 0);
  for (const DependencyEntry &E : D)
    for (LockId Held : E.Held)
      ++Ix.CandOffsets[DenseLock[Held.Raw] + 1];
  for (uint32_t L = 0; L != Ix.NumLocks; ++L)
    Ix.CandOffsets[L + 1] += Ix.CandOffsets[L];
  Ix.CandData.resize(HeldTotal);
  Ix.CandMode.resize(HeldTotal);
  std::vector<uint32_t> Cursor(Ix.CandOffsets.begin(),
                               Ix.CandOffsets.end() - 1);
  for (uint32_t I = 0; I != D.size(); ++I)
    for (size_t K = 0; K != D[I].Held.size(); ++K) {
      uint32_t Slot = Cursor[DenseLock[D[I].Held[K].Raw]]++;
      Ix.CandData[Slot] = I;
      Ix.CandMode[Slot] = HeldModeOf(D[I], K);
    }

  // An entry is live when one of its held locks h != Acquired shares
  // Acquired's component. Dead entries then leave the candidate lists, in
  // place and in order.
  std::vector<uint32_t> Comp = lockComponents(Ix);
  Ix.Live.assign(D.size(), 0);
  for (uint32_t I = 0; I != D.size(); ++I) {
    const EntryMeta &M = Ix.Meta[I];
    for (uint32_t H = M.HeldBegin; H != M.HeldEnd && !Ix.Live[I]; ++H)
      Ix.Live[I] = Ix.HeldSorted[H] != M.DenseAcquired &&
                   Comp[Ix.HeldSorted[H]] == Comp[M.DenseAcquired];
  }
  uint32_t Kept = 0;
  for (uint32_t L = 0; L != Ix.NumLocks; ++L) {
    uint32_t Begin = Ix.CandOffsets[L], End = Ix.CandOffsets[L + 1];
    Ix.CandOffsets[L] = Kept;
    for (uint32_t Slot = Begin; Slot != End; ++Slot)
      if (Ix.Live[Ix.CandData[Slot]]) {
        Ix.CandData[Kept] = Ix.CandData[Slot];
        Ix.CandMode[Kept++] = Ix.CandMode[Slot];
      }
  }
  Ix.CandOffsets[Ix.NumLocks] = Kept;
  Ix.CandData.resize(Kept);
  Ix.CandMode.resize(Kept);
  return Ix;
}

/// Would acquiring \p DenseLock in \p WantMode block on \p M's holds? An
/// exclusive want conflicts with any hold; a shared want only with an
/// exclusive hold. Clear folded bits are exact "no"s; set bits fall back
/// to the sorted slice only when the fold is lossy.
bool heldConflicts(const RelationIndex &Ix, const EntryMeta &M,
                   uint32_t DenseLock, LockMode WantMode) {
  uint64_t Mask =
      WantMode == LockMode::Exclusive ? M.HeldMask : M.HeldMaskExcl;
  if (!(Mask & lockBit(DenseLock)))
    return false;
  if (Ix.MaskExact)
    return true;
  auto Begin = Ix.HeldSorted.begin() + M.HeldBegin;
  auto End = Ix.HeldSorted.begin() + M.HeldEnd;
  auto Range = std::equal_range(Begin, End, DenseLock);
  for (auto It = Range.first; It != Range.second; ++It)
    if (WantMode == LockMode::Exclusive ||
        Ix.HeldSortedExcl[static_cast<size_t>(It - Ix.HeldSorted.begin())])
      return true;
  return false;
}

/// Exact mode-aware held-set compatibility of two entries via sorted-merge
/// intersection (the >= 64-dense-ids fallback): a common lock is only a
/// violation when at least one side holds it exclusively.
bool sortedConflictFree(const RelationIndex &Ix, uint32_t AIdx,
                        uint32_t BIdx) {
  const EntryMeta &A = Ix.Meta[AIdx];
  const EntryMeta &B = Ix.Meta[BIdx];
  uint32_t I = A.HeldBegin, J = B.HeldBegin;
  while (I != A.HeldEnd && J != B.HeldEnd) {
    uint32_t AV = Ix.HeldSorted[I], BV = Ix.HeldSorted[J];
    if (AV == BV) {
      bool AnyExcl = false;
      while (I != A.HeldEnd && Ix.HeldSorted[I] == AV)
        AnyExcl |= Ix.HeldSortedExcl[I] != 0, ++I;
      while (J != B.HeldEnd && Ix.HeldSorted[J] == BV)
        AnyExcl |= Ix.HeldSortedExcl[J] != 0, ++J;
      if (AnyExcl)
        return false;
    } else if (AV < BV)
      ++I;
    else
      ++J;
  }
  return true;
}

/// Definition 2 for appending entry \p EIdx to chain \p CI, including the
/// §2.2.3 duplicate suppression (the chain's first thread id is minimal).
/// Thread and acquired-lock distinctness scan the chain (at most
/// MaxCycleLength comparisons); held disjointness is the bitmask path.
bool canExtend(const std::vector<DependencyEntry> &D, const RelationIndex &Ix,
               const ChainLevel &Cur, size_t CI, uint32_t EIdx,
               bool KeepGuardedCycles) {
  const DependencyEntry &E = D[EIdx];
  const EntryMeta &EM = Ix.Meta[EIdx];
  const ChainMeta &CM = Cur.Meta[CI];
  const uint32_t *C = Cur.chain(CI);
  // 1. distinct threads; duplicate suppression: first thread is minimal.
  if (E.Thread < D[C[0]].Thread)
    return false;
  for (unsigned I = 0; I != Cur.Len; ++I) {
    const DependencyEntry &Prev = D[C[I]];
    if (Prev.Thread == E.Thread)
      return false;
    // 2. acquired locks pairwise distinct.
    if (Prev.Acquired == E.Acquired)
      return false;
  }
  // 3. (previous acquired lock held by this entry, in a conflicting mode)
  // is checked at the candidate loop via CandMode: the CSR list for
  // CM.LastDenseAcquired only contains entries holding that lock, and the
  // per-occurrence mode filter rejects shared-wait-on-shared-hold there.
  // 4. held sets pairwise compatible: a conflict needs a common lock held
  // exclusively by at least one side, so the test ANDs each side's full
  // mask against the other's exclusive mask (for all-exclusive logs both
  // masks coincide and this is the old disjointness test). A clear result
  // is always exact; a set bit is an exact reject when the fold is
  // injective, otherwise the sorted intersection decides. With
  // KeepGuardedCycles the requirement is waived — the overlap is exactly a
  // guard lock, and the pruner downstream classifies (and names) it.
  if (!KeepGuardedCycles &&
      ((CM.HeldMaskExcl & EM.HeldMask) | (CM.HeldMask & EM.HeldMaskExcl))) {
    if (Ix.MaskExact)
      return false;
    for (unsigned I = 0; I != Cur.Len; ++I)
      if (!sortedConflictFree(Ix, C[I], EIdx))
        return false;
  }
  return true;
}

/// Memoizes pairwise clock comparisons per worker: the HB filter re-derives
/// the same member-pair orderings for every cycle those members close.
class HbCache {
public:
  explicit HbCache(const std::vector<DependencyEntry> &D) : D(D) {}

  bool concurrent(uint32_t I, uint32_t J) {
    uint64_t Key = I < J ? (uint64_t(I) << 32) | J : (uint64_t(J) << 32) | I;
    auto [It, Inserted] = Memo.try_emplace(Key, false);
    if (Inserted)
      It->second = vcConcurrent(D[I].Clock, D[J].Clock);
    return It->second;
  }

private:
  const std::vector<DependencyEntry> &D;
  std::unordered_map<uint64_t, bool> Memo;
};

/// Happens-before feasibility of chain + closing entry: every member pair
/// concurrent (pair order matches the serial engine, though only the
/// boolean result matters).
bool hbFeasible(const uint32_t *C, unsigned Len, uint32_t Closing,
                HbCache &Hb) {
  for (unsigned I = 0; I != Len; ++I) {
    for (unsigned J = I + 1; J != Len; ++J)
      if (!Hb.concurrent(C[I], C[J]))
        return false;
    if (!Hb.concurrent(C[I], Closing))
      return false;
  }
  return true;
}

/// A potential cycle discovered by a worker, with enough ordering
/// information (ExtsBefore) for the merge to replay the serial engine's
/// MaxChains cut exactly.
struct CycleRec {
  uint32_t ChainIdx; ///< global index into the current level
  uint32_t Closing;  ///< closing dependency entry
  uint64_t ExtsBefore; ///< worker-local extensions emitted before this cycle
  bool HbOk;
};

/// One worker's speculative output for a shard of the current level.
struct WorkerOut {
  std::vector<uint32_t> NextIdx;
  std::vector<ChainMeta> NextMeta;
  std::vector<CycleRec> Cycles;
  /// Cumulative extension count after each chain of the shard (locates the
  /// MaxChains cut chain at merge time).
  std::vector<uint64_t> ExtsAfterChain;
  size_t ShardBegin = 0;
  size_t ShardEnd = 0;
};

/// The serial per-chain scan over [Begin, End) of the current level. This
/// is the only place extension work happens; the parallel engine runs it
/// once per shard and the serial engine runs it once with one shard, so
/// their per-chain behavior is identical by construction.
void processShard(const std::vector<DependencyEntry> &D,
                  const RelationIndex &Ix, const ChainLevel &Cur,
                  const IGoodlockOptions &Opts, size_t Begin, size_t End,
                  WorkerOut &Out) {
  HbCache Hb(D);
  Out.ShardBegin = Begin;
  Out.ShardEnd = End;
  Out.ExtsAfterChain.reserve(End - Begin);
  const unsigned Len = Cur.Len;
  uint64_t Exts = 0;
  for (size_t CI = Begin; CI != End; ++CI) {
    const ChainMeta &CM = Cur.Meta[CI];
    const uint32_t *Chain = Cur.chain(CI);
    const EntryMeta &Head = Ix.Meta[Chain[0]];
    uint32_t CandBegin = Ix.CandOffsets[CM.LastDenseAcquired];
    uint32_t CandEnd = Ix.CandOffsets[CM.LastDenseAcquired + 1];
    for (uint32_t Cand = CandBegin; Cand != CandEnd; ++Cand) {
      uint32_t EIdx = Ix.CandData[Cand];
      // The wait-for link: the chain's pending acquire must actually block
      // on this candidate's hold. Only a shared wait on a shared hold
      // fails (mutex-only logs never skip here).
      if (!lockModesConflict(CM.LastAcquiredMode, Ix.CandMode[Cand]))
        continue;
      if (!canExtend(D, Ix, Cur, CI, EIdx, Opts.KeepGuardedCycles))
        continue;
      const EntryMeta &EM = Ix.Meta[EIdx];
      // Definition 3: cycle when the new acquired lock is held by the
      // chain's first thread in a conflicting mode. Cycles are reported,
      // not extended (no complex cycles, §2.2.2).
      if (heldConflicts(Ix, Head, EM.DenseAcquired, D[EIdx].AcquiredMode)) {
        bool HbOk = !Opts.FilterByHappensBefore ||
                    hbFeasible(Chain, Len, EIdx, Hb);
        Out.Cycles.push_back(
            {static_cast<uint32_t>(CI), EIdx, Exts, HbOk});
        continue;
      }
      Out.NextIdx.insert(Out.NextIdx.end(), Chain, Chain + Len);
      Out.NextIdx.push_back(EIdx);
      Out.NextMeta.push_back({CM.HeldMask | EM.HeldMask,
                              CM.HeldMaskExcl | EM.HeldMaskExcl,
                              EM.DenseAcquired, D[EIdx].AcquiredMode});
      ++Exts;
    }
    Out.ExtsAfterChain.push_back(Exts);
  }
}

} // namespace

std::vector<AbstractCycle> dlf::runIGoodlock(const LockDependencyLog &Log,
                                             const IGoodlockOptions &Opts,
                                             IGoodlockStats *Stats) {
  auto StartTime = std::chrono::steady_clock::now();
  const std::vector<DependencyEntry> &D = Log.entries();

  IGoodlockStats LocalStats;
  LocalStats.Entries = D.size();
  unsigned Jobs =
      Opts.AnalysisJobs
          ? Opts.AnalysisJobs
          : std::max(1u, std::thread::hardware_concurrency());
  LocalStats.JobsUsed = Jobs;

  RelationIndex Ix = buildIndex(D);
  std::vector<AbstractCycle> Cycles;

  // Per-entry component hashes — the cycle dedup key material, equivalent
  // to the old string key(ExecutionIndex, UseContext=true) — computed
  // lazily so an entry is hashed once no matter how many cycles it closes.
  std::vector<Hash128> CompHash(D.size());
  std::vector<bool> CompHashReady(D.size(), false);
  auto componentHash = [&](uint32_t EIdx) {
    if (!CompHashReady[EIdx]) {
      const DependencyEntry &E = D[EIdx];
      const Abstraction &T =
          Log.threadInfo(E.Thread).Abs.select(AbstractionKind::ExecutionIndex);
      const Abstraction &L =
          Log.lockInfo(E.Acquired).Abs.select(AbstractionKind::ExecutionIndex);
      Hasher128 H;
      // Variable-length sequences are length-framed so (thread, lock,
      // context) element streams cannot alias each other.
      H.add(T.Elements.size());
      for (uint32_t El : T.Elements)
        H.add(El);
      H.add(L.Elements.size());
      for (uint32_t El : L.Elements)
        H.add(El);
      H.add(E.Context.size());
      for (Label Site : E.Context)
        H.add(Site.raw());
      CompHash[EIdx] = H.finish();
      CompHashReady[EIdx] = true;
    }
    return CompHash[EIdx];
  };

  // Collapse abstract duplicates, keyed by the rotation-minimal structural
  // hash (ties between rotations yield identical sequences, so any minimal
  // choice streams the same key).
  std::unordered_map<Hash128, size_t> CycleKeyToIdx;
  std::vector<Hash128> MemberBuf;
  auto ReportCycle = [&](const uint32_t *Chain, unsigned Len,
                         uint32_t Closing) {
    const size_t M = Len + 1;
    MemberBuf.clear();
    for (unsigned I = 0; I != Len; ++I)
      MemberBuf.push_back(componentHash(Chain[I]));
    MemberBuf.push_back(componentHash(Closing));
    size_t Best = 0;
    for (size_t R = 1; R != M; ++R)
      for (size_t I = 0; I != M; ++I) {
        const Hash128 &A = MemberBuf[(R + I) % M];
        const Hash128 &B = MemberBuf[(Best + I) % M];
        if (A != B) {
          if (A < B)
            Best = R;
          break;
        }
      }
    Hasher128 H;
    H.add(M);
    for (size_t I = 0; I != M; ++I) {
      const Hash128 &Part = MemberBuf[(Best + I) % M];
      H.add(Part.Hi);
      H.add(Part.Lo);
    }
    auto [It, Inserted] = CycleKeyToIdx.try_emplace(H.finish(), Cycles.size());
    if (!Inserted) {
      ++Cycles[It->second].Multiplicity;
      return;
    }
    AbstractCycle Cycle;
    auto AddComponent = [&](const DependencyEntry &E) {
      CycleComponent Comp;
      Comp.Thread = E.Thread;
      Comp.ThreadName = Log.threadInfo(E.Thread).Name;
      Comp.ThreadAbs = Log.threadInfo(E.Thread).Abs;
      Comp.Lock = E.Acquired;
      Comp.LockName = Log.lockInfo(E.Acquired).Name;
      Comp.LockAbs = Log.lockInfo(E.Acquired).Abs;
      Comp.Context = E.Context;
      Cycle.Components.push_back(std::move(Comp));
    };
    for (unsigned I = 0; I != Len; ++I)
      AddComponent(D[Chain[I]]);
    AddComponent(D[Closing]);
    Cycles.push_back(std::move(Cycle));
  };

  // D_1 = the live entries of D (an entry off every lock-graph cycle,
  // including one with an empty held set, can never close a chain).
  ChainLevel Current;
  Current.Len = 1;
  for (uint32_t I = 0; I != D.size(); ++I) {
    if (!Ix.Live[I])
      continue;
    Current.Idx.push_back(I);
    Current.Meta.push_back({Ix.Meta[I].HeldMask, Ix.Meta[I].HeldMaskExcl,
                            Ix.Meta[I].DenseAcquired, D[I].AcquiredMode});
  }
  LocalStats.ChainsExplored += Current.size();

  // Iterate: all cycles of length k are found before any of length k+1.
  for (unsigned Len = 1; Len < Opts.MaxCycleLength && Current.size() != 0;
       ++Len) {
    ++LocalStats.Iterations;

    // Shard the level across workers. Tiny levels stay on one shard — the
    // single-shard path *is* the serial engine, so results are identical
    // either way.
    const size_t NumChains = Current.size();
    size_t Shards = 1;
    if (Jobs > 1 && Opts.MinChainsPerShard &&
        NumChains >= 2 * Opts.MinChainsPerShard)
      Shards = std::min<size_t>(Jobs, NumChains / Opts.MinChainsPerShard);
    Shards = std::max<size_t>(Shards, 1);
    std::vector<WorkerOut> Outs(Shards);
    auto RunShard = [&](size_t S) {
      processShard(D, Ix, Current, Opts, NumChains * S / Shards,
                   NumChains * (S + 1) / Shards, Outs[S]);
    };
    {
      std::vector<std::thread> Workers;
      Workers.reserve(Shards - 1);
      for (size_t S = 1; S < Shards; ++S)
        Workers.emplace_back(RunShard, S);
      RunShard(0);
      for (std::thread &W : Workers)
        W.join();
    }

    // Deterministic in-order merge. The serial engine aborts the whole
    // level at the first extension attempt past MaxChains; the replay
    // commits exactly the extensions serial would have, keeps the cycles
    // discovered before the aborting attempt, and counts every chain from
    // the cut chain on as dropped.
    ChainLevel Next;
    Next.Len = Len + 1;
    bool LevelCut = false;
    uint64_t NextCount = 0;
    for (size_t S = 0; S != Shards; ++S) {
      WorkerOut &Out = Outs[S];
      const size_t ShardChains = Out.ShardEnd - Out.ShardBegin;
      if (LevelCut) {
        LocalStats.ChainsDropped += ShardChains;
        continue;
      }
      const uint64_t TotalExts =
          Out.ExtsAfterChain.empty() ? 0 : Out.ExtsAfterChain.back();
      const uint64_t Capacity = Opts.MaxChains - NextCount;
      uint64_t KeptExts = TotalExts;
      if (TotalExts > Capacity) {
        KeptExts = Capacity;
        LevelCut = true;
        LocalStats.Truncated = true;
        size_t CutChain = static_cast<size_t>(
            std::upper_bound(Out.ExtsAfterChain.begin(),
                             Out.ExtsAfterChain.end(), Capacity) -
            Out.ExtsAfterChain.begin());
        LocalStats.ChainsDropped += ShardChains - CutChain;
      }
      Next.Idx.insert(Next.Idx.end(), Out.NextIdx.begin(),
                      Out.NextIdx.begin() +
                          static_cast<size_t>(KeptExts) * Next.Len);
      Next.Meta.insert(Next.Meta.end(), Out.NextMeta.begin(),
                       Out.NextMeta.begin() + static_cast<size_t>(KeptExts));
      for (const CycleRec &R : Out.Cycles) {
        // Cycles examined at or past the aborting extension attempt were
        // never reached by the serial engine.
        if (NextCount + R.ExtsBefore > Opts.MaxChains)
          break;
        if (!R.HbOk) {
          ++LocalStats.FilteredByHb;
        } else if (Cycles.size() < Opts.MaxCycles) {
          ReportCycle(Current.chain(R.ChainIdx), Len, R.Closing);
        } else {
          LocalStats.Truncated = true;
          ++LocalStats.CyclesDropped;
        }
      }
      NextCount += KeptExts;
    }
    LocalStats.ChainsExplored += NextCount;
    if (telemetry::enabled())
      telemetry::Registry::global()
          .histogram("dlf_igoodlock_level_chains")
          .observe(NextCount);
    Current = std::move(Next);
  }

  LocalStats.ElapsedMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
  if (telemetry::enabled()) {
    // Bulk-record from the stats the closure already keeps, so telemetry
    // stays an exact mirror of IGoodlockStats (and jobs-invariant, since
    // the merged stats themselves are).
    telemetry::Registry &R = telemetry::Registry::global();
    R.counter("dlf_igoodlock_runs_total").inc();
    R.counter("dlf_igoodlock_entries_total").inc(LocalStats.Entries);
    R.counter("dlf_igoodlock_chains_total").inc(LocalStats.ChainsExplored);
    R.counter("dlf_igoodlock_cycles_total").inc(Cycles.size());
    R.counter("dlf_igoodlock_chains_dropped_total")
        .inc(LocalStats.ChainsDropped);
    R.counter("dlf_igoodlock_cycles_dropped_total")
        .inc(LocalStats.CyclesDropped);
    R.counter("dlf_igoodlock_hb_filtered_total").inc(LocalStats.FilteredByHb);
    R.histogram("dlf_igoodlock_elapsed_us").observe(LocalStats.ElapsedMicros);
  }
  if (Stats)
    *Stats = LocalStats;
  return Cycles;
}

//===- bench/MicroRing.cpp - Event-ring transport micro-benchmarks ---------===//
//
// Measures the shared-memory event ring (src/ring): the per-record cost of
// the wait-free writer hot path, the observer's drain/merge throughput,
// and the per-event cost of the preload's text-trace path (cached site,
// state lock, event model, line encoder, stdio) against one ring write with
// a cached site id.
//
//===----------------------------------------------------------------------===//

#include "interpose/EventModel.h"
#include "interpose/TraceFormat.h"
#include "ring/Ring.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <cstdio>
#include <dlfcn.h>
#include <pthread.h>

using namespace dlf;
using namespace dlf::ring;

namespace {

struct BenchRing {
  std::unique_ptr<RingReader> Reader;
  std::unique_ptr<RingWriter> Writer;

  explicit BenchRing(uint32_t Slots) {
    std::string Err;
    int Fd = -1;
    Reader.reset(RingReader::createMemfd(4, Slots, &Fd, &Err));
    if (Reader)
      Writer.reset(RingWriter::attachFd(Fd, &Err));
  }
};

/// One ring write per iteration, with a background drainer keeping the
/// shard from filling: the steady-state hot path of a preloaded target
/// under an attached observer.
void BM_RingWrite(benchmark::State &State) {
  BenchRing B(1u << 16);
  if (!B.Writer) {
    State.SkipWithError("ring setup failed");
    return;
  }
  std::atomic<bool> Stop{false};
  std::thread Drainer([&] {
    std::vector<Record> Out;
    while (!Stop.load(std::memory_order_relaxed)) {
      Out.clear();
      B.Reader->drainPass(Out);
    }
  });

  ShardHandle H = B.Writer->claimShard();
  uint32_t Site = B.Writer->internSite("bench+0x10");
  for (auto _ : State)
    benchmark::DoNotOptimize(
        B.Writer->write(H, RecordKind::Acquire, 1, 0x1000, Site));
  Stop.store(true, std::memory_order_relaxed);
  Drainer.join();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RingWrite);

/// Drain throughput: merge-sorting one full batch of records out of the
/// shards, per-record cost.
void BM_RingDrain(benchmark::State &State) {
  const uint32_t Batch = static_cast<uint32_t>(State.range(0));
  BenchRing B(1u << 16);
  if (!B.Writer) {
    State.SkipWithError("ring setup failed");
    return;
  }
  ShardHandle H = B.Writer->claimShard();
  std::vector<Record> Out;
  for (auto _ : State) {
    State.PauseTiming();
    for (uint32_t I = 0; I != Batch; ++I)
      B.Writer->write(H, RecordKind::Acquire, 1, 0x1000, 0);
    Out.clear();
    State.ResumeTiming();
    B.Reader->drainPass(Out);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * Batch);
}
BENCHMARK(BM_RingDrain)->Arg(1024)->Arg(4096);

/// Per-event cost of the preload's two capture paths. Arg(0) is the text
/// trace path as the preload runs it per event: the per-thread site cache
/// lookup (dladdr + snprintf only on its first miss), the global state
/// lock, the one event model, then the line encoder and stdio and the
/// held-stack update. Arg(1) is
/// the ring-only path: one wait-free fixed-size write, site id cached.
/// Compare the two ns/op numbers in BENCH_ring.json.
void BM_PreloadEventTextVsRing(benchmark::State &State) {
  if (State.range(0) == 0) {
    pthread_mutex_t Lock = PTHREAD_MUTEX_INITIALIZER;
    FILE *Sink = std::fopen("/dev/null", "w");
    if (!Sink) {
      State.SkipWithError("cannot open /dev/null");
      return;
    }
    interpose::EventModel Model;
    std::string Line;
    std::vector<std::pair<uint64_t, std::string>> Held;
    interpose::EventSink Write = [&](const interpose::TraceLine &E) {
      Line.clear();
      interpose::appendTraceLine(E, Line);
      std::fwrite(Line.data(), 1, Line.size(), Sink);
      // The held stack that Phase II and the blocked-acquire check search.
      if (E.K == analysis::TraceEvent::Kind::Acquire)
        Held.emplace_back(E.B, E.Text);
      else if (E.K == analysis::TraceEvent::Kind::Release)
        Held.pop_back();
    };
    std::unordered_map<void *, std::string> Sites;
    void *Caller = reinterpret_cast<void *>(&BM_RingWrite);
    for (auto _ : State) {
      auto [It, Fresh] = Sites.try_emplace(Caller);
      if (Fresh) {
        Dl_info Info;
        char Site[128];
        if (dladdr(Caller, &Info) && Info.dli_sname)
          std::snprintf(Site, sizeof(Site), "%s+0x%zx", Info.dli_sname,
                        static_cast<size_t>(
                            reinterpret_cast<char *>(Caller) -
                            reinterpret_cast<char *>(Info.dli_saddr)));
        else
          std::snprintf(Site, sizeof(Site), "addr+0x%zx",
                        reinterpret_cast<size_t>(Caller));
        It->second = Site;
      }
      // Alternate acquire and release so every op is one trace line.
      pthread_mutex_lock(&Lock);
      benchmark::DoNotOptimize(Model.apply(
          {Held.empty() ? RecordKind::Acquire : RecordKind::Release, 1,
           0x1000, It->second},
          Write));
      pthread_mutex_unlock(&Lock);
    }
    std::fclose(Sink);
  } else {
    BenchRing B(1u << 16);
    if (!B.Writer) {
      State.SkipWithError("ring setup failed");
      return;
    }
    std::atomic<bool> Stop{false};
    std::thread Drainer([&] {
      std::vector<Record> Out;
      while (!Stop.load(std::memory_order_relaxed)) {
        Out.clear();
        B.Reader->drainPass(Out);
      }
    });
    ShardHandle H = B.Writer->claimShard();
    uint32_t Site = B.Writer->internSite("bench+0x10");
    for (auto _ : State)
      benchmark::DoNotOptimize(
          B.Writer->write(H, RecordKind::Acquire, 1, 0x1000, Site));
    Stop.store(true, std::memory_order_relaxed);
    Drainer.join();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PreloadEventTextVsRing)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("ring");

} // namespace

BENCHMARK_MAIN();

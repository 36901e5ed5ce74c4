//===- tests/TelemetryTest.cpp - Unified telemetry subsystem ------------------===//
//
// Exercises the telemetry layer bottom-up: histogram bucket geometry, the
// lock-free thread-sharded counter merge, telemetry-section round trips
// including cut and missing sections, Chrome trace-event rendering, and the
// campaign-level aggregation contracts — merged counter totals identical
// for every --jobs value, and a crashed child's missing section degrading
// to a counter instead of failing the campaign.
//
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"
#include "campaign/Json.h"
#include "runtime/Mutex.h"
#include "runtime/Thread.h"
#include "telemetry/Metrics.h"
#include "telemetry/Sidecar.h"
#include "telemetry/Timeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

using namespace dlf;
using namespace dlf::telemetry;

class TempFile {
public:
  explicit TempFile(const char *Suffix) {
    Path = ::testing::TempDir() + "dlf-telemetry-" +
           std::to_string(getpid()) + "-" + Suffix;
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// RAII telemetry arming: tests must not leak the global enabled flag (or
/// global registry contents) into each other.
struct ScopedTelemetry {
  ScopedTelemetry() { setEnabled(true); }
  ~ScopedTelemetry() {
    setEnabled(false);
    Registry::global().reset();
  }
};

// -- Histogram geometry ------------------------------------------------------

TEST(TelemetryHistogram, BucketEdgesArePowersOfTwo) {
  // Bucket 0 holds exactly {0}; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(histBucketFor(0), 0u);
  EXPECT_EQ(histBucketUpperBound(0), 0u);
  EXPECT_EQ(histBucketFor(1), 1u);
  EXPECT_EQ(histBucketFor(2), 2u);
  EXPECT_EQ(histBucketFor(3), 2u);
  EXPECT_EQ(histBucketFor(4), 3u);
  for (unsigned B = 1; B != HistBucketCount - 1; ++B) {
    uint64_t Lo = uint64_t(1) << (B - 1);
    uint64_t Hi = (uint64_t(1) << B) - 1;
    EXPECT_EQ(histBucketFor(Lo), B) << "lower edge of bucket " << B;
    EXPECT_EQ(histBucketFor(Hi), B) << "upper edge of bucket " << B;
    EXPECT_EQ(histBucketUpperBound(B), Hi);
  }
  // The last bucket absorbs everything from 2^62 up.
  EXPECT_EQ(histBucketFor(uint64_t(1) << 62), HistBucketCount - 1);
  EXPECT_EQ(histBucketFor(UINT64_MAX), HistBucketCount - 1);
  EXPECT_EQ(histBucketUpperBound(HistBucketCount - 1), UINT64_MAX);
}

TEST(TelemetryHistogram, PrometheusBucketsAreCumulativeWithExplicitInf) {
  MetricsSnapshot S;
  HistogramData H;
  H.observe(0);
  H.observe(1);
  H.observe(5);
  H.observe(5);
  S.Histograms["dlf_test_hist"] = H;
  std::string Text = S.toPrometheus();
  EXPECT_NE(Text.find("# TYPE dlf_test_hist histogram"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dlf_test_hist_bucket{le=\"0\"} 1"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dlf_test_hist_bucket{le=\"1\"} 2"), std::string::npos)
      << Text;
  // 5 lands in bucket 3 ([4,7]); the cumulative count there is all four.
  EXPECT_NE(Text.find("dlf_test_hist_bucket{le=\"7\"} 4"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dlf_test_hist_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dlf_test_hist_sum 11"), std::string::npos) << Text;
  EXPECT_NE(Text.find("dlf_test_hist_count 4"), std::string::npos) << Text;
}

// -- Registry ----------------------------------------------------------------

TEST(TelemetryRegistry, ThreadShardedCountersMergeExactly) {
  ScopedTelemetry Arm;
  Registry R;
  Counter C = R.counter("dlf_test_sharded_total");
  constexpr unsigned Threads = 8;
  constexpr unsigned Incs = 10000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&C] {
      for (unsigned I = 0; I != Incs; ++I)
        C.inc();
    });
  for (std::thread &W : Workers)
    W.join();
  // Joined writers are quiescent: retired totals plus live shards must sum
  // to exactly Threads * Incs, with no lost updates.
  MetricsSnapshot S = R.snapshot();
  EXPECT_EQ(S.Counters.at("dlf_test_sharded_total"),
            uint64_t(Threads) * Incs);
}

TEST(TelemetryRegistry, SameNameInternsToTheSameSlot) {
  ScopedTelemetry Arm;
  Registry R;
  Counter A = R.counter("dlf_test_interned_total");
  Counter B = R.counter("dlf_test_interned_total");
  A.inc();
  B.inc(2);
  EXPECT_EQ(R.snapshot().Counters.at("dlf_test_interned_total"), 3u);
}

TEST(TelemetryRegistry, DisabledHandlesRecordNothing) {
  setEnabled(false);
  Registry R;
  Counter C = R.counter("dlf_test_disabled_total");
  C.inc(5);
  Histogram H = R.histogram("dlf_test_disabled_hist");
  H.observe(42);
  MetricsSnapshot S = R.snapshot();
  EXPECT_EQ(S.Counters.at("dlf_test_disabled_total"), 0u);
  EXPECT_EQ(S.Histograms.at("dlf_test_disabled_hist").Count, 0u);
}

TEST(TelemetrySnapshot, MergeAddsCountersAndHistogramsAndMaxesGauges) {
  MetricsSnapshot A;
  A.Counters["c"] = 3;
  A.Gauges["g"] = 7;
  HistogramData HA;
  HA.observe(2);
  A.Histograms["h"] = HA;

  MetricsSnapshot B;
  B.Counters["c"] = 4;
  B.Counters["only_b"] = 1;
  B.Gauges["g"] = 5;
  HistogramData HB;
  HB.observe(2);
  HB.observe(100);
  B.Histograms["h"] = HB;

  A.merge(B);
  EXPECT_EQ(A.Counters.at("c"), 7u);
  EXPECT_EQ(A.Counters.at("only_b"), 1u);
  EXPECT_EQ(A.Gauges.at("g"), 7);
  EXPECT_EQ(A.Histograms.at("h").Count, 3u);
  EXPECT_EQ(A.Histograms.at("h").Sum, 104u);
  EXPECT_EQ(A.Histograms.at("h").Buckets[histBucketFor(2)], 2u);
}

// -- Sidecar -----------------------------------------------------------------

TEST(TelemetrySidecar, RoundTripPreservesSnapshotEventsAndNames) {
  MetricsSnapshot S;
  S.Counters["dlf_test_a_total"] = 7;
  S.Gauges["dlf_test_g"] = 3;
  HistogramData H;
  H.observe(0);
  H.observe(9);
  S.Histograms["dlf_test_h"] = H;

  std::vector<TraceEvent> Events;
  TraceEvent Span;
  Span.Ph = 'X';
  Span.Tid = 2;
  Span.TsUs = 10;
  Span.DurUs = 5;
  Span.Name = "span one"; // names run to end-of-line: spaces survive
  Events.push_back(Span);
  TraceEvent Instant;
  Instant.Ph = 'i';
  Instant.Tid = 1;
  Instant.TsUs = 3;
  Instant.Name = "thrash";
  Events.push_back(Instant);
  std::map<uint32_t, std::string> Names{{1, "worker 1"}};

  std::string Section = encodeSidecar(S, Events, Names);

  MetricsSnapshot S2;
  std::vector<TraceEvent> E2;
  std::map<uint32_t, std::string> N2;
  bool Complete = false;
  ASSERT_TRUE(decodeSidecar(Section, S2, E2, N2, &Complete));
  EXPECT_TRUE(Complete);
  EXPECT_EQ(S2.Counters, S.Counters);
  EXPECT_EQ(S2.Gauges, S.Gauges);
  EXPECT_EQ(S2.Histograms.at("dlf_test_h").Count, 2u);
  EXPECT_EQ(S2.Histograms.at("dlf_test_h").Sum, 9u);
  ASSERT_EQ(E2.size(), 2u);
  EXPECT_EQ(E2[0].Ph, 'X');
  EXPECT_EQ(E2[0].Name, "span one");
  EXPECT_EQ(E2[0].DurUs, 5u);
  EXPECT_EQ(E2[1].Name, "thrash");
  EXPECT_EQ(N2.at(1), "worker 1");
}

TEST(TelemetrySidecar, TruncatedSectionYieldsCompleteLinesWithoutEndMarker) {
  MetricsSnapshot S;
  S.Counters["dlf_test_first_total"] = 1;
  S.Counters["dlf_test_second_total"] = 2;
  std::string Section = encodeSidecar(S, {}, {});

  // Chop the section mid-line, the way a SIGKILLed child (or the sandbox
  // payload cap) would leave it: the "end" marker and the torn final line
  // must both be discarded.
  size_t SecondLine = Section.find("c dlf_test_second_total");
  ASSERT_NE(SecondLine, std::string::npos);
  Section.resize(SecondLine + 5);

  MetricsSnapshot S2;
  std::vector<TraceEvent> E2;
  std::map<uint32_t, std::string> N2;
  bool Complete = true;
  ASSERT_TRUE(decodeSidecar(Section, S2, E2, N2, &Complete));
  EXPECT_FALSE(Complete);
  EXPECT_EQ(S2.Counters.count("dlf_test_first_total"), 1u);
  EXPECT_EQ(S2.Counters.count("dlf_test_second_total"), 0u);
}

TEST(TelemetrySidecar, MissingSectionReadsAsFailureNotCrash) {
  // A child that crashed before its telemetry (or ran under
  // sidecar.missing) leaves nothing after its record line.
  MetricsSnapshot S;
  std::vector<TraceEvent> E;
  std::map<uint32_t, std::string> N;
  bool Complete = true;
  EXPECT_FALSE(decodeSidecar("", S, E, N, &Complete));
  EXPECT_FALSE(Complete);
  EXPECT_TRUE(S.empty());
}

// -- Timeline ----------------------------------------------------------------

TEST(TelemetryTimeline, RecordsOnlyWhileEnabled) {
  Timeline TL;
  TL.instant("ignored", 0);
  TL.setEnabled(true);
  TL.instant("thrash", 1);
  uint64_t Start = TL.nowUs();
  TL.complete("schedule", 0, Start, TL.nowUs());
  TL.nameThread(1, "w1");
  std::vector<TraceEvent> Events;
  std::map<uint32_t, std::string> Names;
  TL.take(Events, Names);
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Ph, 'i');
  EXPECT_EQ(Events[0].Name, "thrash");
  EXPECT_EQ(Events[1].Ph, 'X');
  EXPECT_EQ(Names.at(1), "w1");
}

TEST(TelemetryTimeline, DroppedEventsSurfaceAsRegistryCounter) {
  ScopedTelemetry Arm;
  Timeline TL;
  TL.setEnabled(true);
  TL.setMaxEvents(4);
  for (int I = 0; I < 5; ++I)
    TL.instant("ev" + std::to_string(I), 0);
  TL.complete("late-span", 0, 0, 1);

  // Two events hit the cap: one instant, one span. Both the local drop
  // count and the scrape-visible counter must see them.
  EXPECT_EQ(TL.dropped(), 2u);
  MetricsSnapshot S = Registry::global().snapshot();
  EXPECT_EQ(S.Counters.at("dlf_timeline_dropped_total"), 2u);

  std::vector<TraceEvent> Events;
  std::map<uint32_t, std::string> Names;
  TL.take(Events, Names);
  EXPECT_EQ(Events.size(), 4u);
}

TEST(TelemetryTimeline, RenderedChromeTraceIsWellFormedJson) {
  std::vector<TraceEvent> Events;
  TraceEvent Instant;
  Instant.Ph = 'i';
  Instant.Pid = 1;
  Instant.Tid = 2;
  Instant.TsUs = 17;
  Instant.Name = "pause:\"we\\ird\"\tname"; // must be JSON-escaped
  Events.push_back(Instant);
  TraceEvent Span;
  Span.Ph = 'X';
  Span.TsUs = 5;
  Span.DurUs = 12;
  Span.Name = "schedule";
  Events.push_back(Span);
  std::map<uint32_t, std::string> Proc{{0, "dlf-run"}, {1, "child"}};
  std::map<uint64_t, std::string> Threads{{(uint64_t(1) << 32) | 2,
                                           "worker \"2\""}};

  std::string Text =
      Timeline::renderChromeTrace(Events, Proc, Threads);
  campaign::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(campaign::parseJson(Text, Doc, &Error)) << Error << "\n"
                                                      << Text;
  ASSERT_TRUE(Doc.has("traceEvents"));
  unsigned Instants = 0;
  unsigned Spans = 0;
  unsigned Meta = 0;
  for (const campaign::JsonValue &E : Doc["traceEvents"].items()) {
    const std::string &Ph = E["ph"].asString();
    if (Ph == "M") {
      ++Meta;
    } else if (Ph == "i") {
      ++Instants;
      // Escaped name round-trips through a strict JSON parser.
      EXPECT_EQ(E["name"].asString(), "pause:\"we\\ird\"\tname");
      EXPECT_EQ(E["s"].asString(), "t"); // thread-scoped instant
    } else if (Ph == "X") {
      ++Spans;
      EXPECT_EQ(E["dur"].asUInt(), 12u);
    }
  }
  EXPECT_EQ(Instants, 1u);
  EXPECT_EQ(Spans, 1u);
  EXPECT_GE(Meta, 3u); // two process names + one thread name
}

// -- Campaign aggregation ----------------------------------------------------

void telemetryAbbaProgram() {
  Mutex A("tel-a", DLF_SITE());
  Mutex B("tel-b", DLF_SITE());
  Thread T1([&] {
    MutexGuard First(A, DLF_NAMED_SITE("tel:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("tel:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("tel:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("tel:t2a"));
  });
  T1.join();
  T2.join();
}

campaign::CampaignConfig telemetryConfig(const std::string &JournalPath) {
  campaign::CampaignConfig CC;
  CC.BenchmarkName = "telemetry-test-abba";
  CC.Entry = telemetryAbbaProgram;
  CC.Tester.PhaseTwoReps = 4;
  CC.BackoffBaseMs = 1;
  CC.JournalPath = JournalPath;
  CC.Telemetry = true;
  return CC;
}

TEST(TelemetryCampaign, MergedCounterTotalsAreJobsInvariant) {
  ScopedTelemetry Arm;
  std::map<std::string, uint64_t> Baseline;
  // 0 = hardware concurrency; the merged counter map must be identical to
  // the serial one in every case (the §10 determinism contract — only
  // counters are claimed, not wall-clock histograms or gauges).
  for (unsigned Jobs : {1u, 2u, 4u, 0u}) {
    TempFile Journal(
        ("jobs-" + std::to_string(Jobs) + ".jsonl").c_str());
    campaign::CampaignConfig CC = telemetryConfig(Journal.path());
    CC.Jobs = Jobs;
    campaign::CampaignReport R =
        campaign::CampaignRunner(std::move(CC)).run();
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    ASSERT_TRUE(R.CampaignComplete);
    ASSERT_FALSE(R.Metrics.Counters.empty());
    EXPECT_EQ(R.Metrics.Counters.at("dlf_campaign_reps_total"), 4u);
    EXPECT_EQ(R.Metrics.Counters.count("dlf_campaign_sidecars_missing_total"),
              0u);
    // Child telemetry rides the result pipe: nothing lands beside the
    // journal.
    EXPECT_NE(access((Journal.path() + ".sidecars").c_str(), F_OK), 0);
    // The children count is operational: batch sizes follow --jobs (one
    // 4-rep child at --jobs 1, four 1-rep children at --jobs 4), so it is
    // the one counter left out of the comparison.
    ASSERT_EQ(R.Metrics.Counters.count("dlf_campaign_children_total"), 1u);
    EXPECT_EQ(R.Metrics.Counters.at("dlf_campaign_children_total"),
              R.PhaseTwoChildren);
    R.Metrics.Counters.erase("dlf_campaign_children_total");
    if (Jobs == 1)
      Baseline = R.Metrics.Counters;
    else
      EXPECT_EQ(Baseline, R.Metrics.Counters) << "jobs=" << Jobs;
  }
}

TEST(TelemetryCampaign, CrashedChildMissingSidecarDegradesToACounter) {
  ScopedTelemetry Arm;
  TempFile Journal("crash.jsonl");
  campaign::CampaignConfig CC = telemetryConfig(Journal.path());
  CC.MaxRetries = 0;
  // Rep 0's child dies before it can send its telemetry; the campaign must
  // commit the crash outcome, count the missing section, and keep going.
  CC.ChildFaultHook = [](unsigned, unsigned Rep, unsigned) {
    if (Rep == 0)
      abort();
  };
  campaign::CampaignReport R =
      campaign::CampaignRunner(std::move(CC)).run();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.CampaignComplete);
  EXPECT_EQ(R.Metrics.Counters.at("dlf_campaign_reps_total"), 4u);
  EXPECT_GE(R.Metrics.Counters.at("dlf_campaign_sidecars_missing_total"),
            1u);
}

} // namespace

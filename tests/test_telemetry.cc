// Unit tests for the telemetry subsystem (DESIGN.md §11): concurrent
// counter exactness, histogram bucket boundaries, snapshot merging, and
// the trace recorder's JSON shape / ring-overflow behavior.
#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mm/telemetry/metrics.h"
#include "mm/telemetry/report.h"
#include "mm/telemetry/trace.h"

namespace mm::telemetry {
namespace {

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("mm.test.a_count");
  Counter* b = reg.GetCounter("mm.test.b_count");
  EXPECT_NE(a, b);
  // Same name -> same object, regardless of how many metrics were
  // registered in between (deque storage, no reallocation).
  for (int i = 0; i < 1000; ++i) {
    reg.GetCounter("mm.test.filler" + std::to_string(i) + "_count");
  }
  EXPECT_EQ(reg.GetCounter("mm.test.a_count"), a);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve inside the thread: registration itself must also be safe
      // under concurrency.
      Counter* c = reg.GetCounter("mm.test.contended_count");
      Gauge* g = reg.GetGauge("mm.test.level_count");
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        g->Add(1);
        g->Add(-1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("mm.test.contended_count")->value(),
            std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(reg.GetGauge("mm.test.level_count")->value(), 0);
}

TEST(Histogram, BucketBoundaries) {
  // Buckets: (-inf,10], (10,100], (100,+inf).
  Histogram h({10.0, 100.0});
  h.Observe(10.0);   // on the bound -> first bucket (<= semantics)
  h.Observe(10.5);   // second bucket
  h.Observe(100.0);  // second bucket
  h.Observe(1e9);    // overflow bucket
  h.Observe(-5.0);   // below the first bound -> first bucket
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 3u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 10.0 + 10.5 + 100.0 + 1e9 - 5.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), snap.sum / 5.0);
}

TEST(MetricsSnapshot, MergeAccumulates) {
  MetricsRegistry a, b;
  a.GetCounter("mm.test.x_count")->Inc(3);
  b.GetCounter("mm.test.x_count")->Inc(4);
  b.GetCounter("mm.test.only_b_count")->Inc(1);
  a.GetGauge("mm.test.g_bytes")->Set(10);
  b.GetGauge("mm.test.g_bytes")->Set(32);
  a.GetHistogram("mm.test.h_ns", {1.0})->Observe(0.5);
  b.GetHistogram("mm.test.h_ns", {1.0})->Observe(2.0);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("mm.test.x_count"), 7u);
  EXPECT_EQ(merged.counters.at("mm.test.only_b_count"), 1u);
  EXPECT_EQ(merged.gauges.at("mm.test.g_bytes"), 42);
  EXPECT_EQ(merged.histograms.at("mm.test.h_ns").count, 2u);
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder rec(16);
  rec.Complete("span", "test", 0, 0, 0.0, 1.0);
  rec.Instant("mark", "test", 0, 0, 0.5);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, JsonShapeAndVirtualTimestamps) {
  TraceRecorder rec(16);
  rec.set_enabled(true);
  rec.Complete("read", "tier", /*node=*/2, /*tid=*/1, 0.001, 0.003);
  rec.Instant("mark", "prefetch", /*node=*/0, /*tid=*/0, 0.002);
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Virtual seconds -> trace microseconds.
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1000.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 2000.0);
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].pid, 2);
  EXPECT_EQ(events[1].ph, 'i');

  std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"tier\""), std::string::npos) << json;
  // Balanced braces: crude but catches truncated serialization.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceRecorder, RingOverflowDropsOldest) {
  TraceRecorder rec(4);
  rec.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    rec.Instant("e" + std::to_string(i), "test", 0, 0, double(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first order, holding the newest four events.
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
  // Timestamps stay monotonic across the wrap.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(EpochReporter, DeltasBetweenEpochs) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("mm.test.ops_count");
  Gauge* g = reg.GetGauge("mm.test.level_bytes");
  EpochReporter reporter;

  c->Inc(5);
  g->Set(100);
  ClusterSnapshot snap1{reg.Snapshot(), {reg.Snapshot()}};
  std::string line1 = reporter.Epoch(snap1, 1.0);
  EXPECT_NE(line1.find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(line1.find("\"mm.test.ops_count\":5"), std::string::npos);

  c->Inc(2);
  g->Set(70);
  ClusterSnapshot snap2{reg.Snapshot(), {reg.Snapshot()}};
  std::string line2 = reporter.Epoch(snap2, 2.0);
  // Counter reported as delta, gauge as absolute.
  EXPECT_NE(line2.find("\"mm.test.ops_count\":2"), std::string::npos) << line2;
  EXPECT_NE(line2.find("\"mm.test.level_bytes\":70"), std::string::npos);
  EXPECT_EQ(reporter.epochs(), 2);
}

}  // namespace
}  // namespace mm::telemetry

// The observability layer on its own: metrics registry (counters, gauges,
// fixed-bucket histograms with percentile extraction), the trace ring and
// slow-op log, span nesting and observers, the Prometheus/JSON exposition
// renderers and the structural Prometheus validator, thread-safety of
// concurrent recording (the TSan target in ci/check.sh runs this file), and
// the one-counter-store rule: components count only into their bundle.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "core/database.h"
#include "ddl/parser.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "shell/dispatcher.h"
#include "util/json_writer.h"
#include "wal/wal.h"

namespace caddb {
namespace obs {
namespace {

// ---- Registry ----

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("caddb_test_total", "help one");
  Counter* b = registry.GetCounter("caddb_test_total", "help two (ignored)");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "caddb_test_total");
  EXPECT_EQ(snapshot.counters[0].help, "help one");
  EXPECT_EQ(snapshot.counters[0].value, 3u);
}

TEST(MetricsRegistryTest, SnapshotIsOrderedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("caddb_b_total")->Increment();
  registry.GetCounter("caddb_a_total")->Increment(2);
  registry.GetGauge("caddb_lag")->Set(-7);
  registry.GetHistogram("caddb_lat_us")->Record(5);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "caddb_a_total");
  EXPECT_EQ(snapshot.counters[1].name, "caddb_b_total");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -7);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].data.count, 1u);
  EXPECT_EQ(snapshot.histograms[0].data.sum, 5u);

  EXPECT_NE(snapshot.FindCounter("caddb_a_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("caddb_missing"), nullptr);
  EXPECT_NE(snapshot.FindGauge("caddb_lag"), nullptr);
  EXPECT_NE(snapshot.FindHistogram("caddb_lat_us"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsEntries) {
  MetricsRegistry registry;
  registry.GetCounter("caddb_c_total")->Increment(10);
  registry.GetHistogram("caddb_h_us")->Record(100);
  registry.Reset();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters[0].value, 0u);
  EXPECT_EQ(snapshot.histograms[0].data.count, 0u);
}

// ---- Histogram ----

TEST(HistogramTest, BucketsAndPercentiles) {
  Histogram hist;
  // 100 observations spread over a known shape: 50 at 3us, 45 at 100us,
  // 5 at 5000us.
  for (int i = 0; i < 50; ++i) hist.Record(3);
  for (int i = 0; i < 45; ++i) hist.Record(100);
  for (int i = 0; i < 5; ++i) hist.Record(5000);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 50u * 3 + 45u * 100 + 5u * 5000);
  // p50 lands in the bucket holding the 3us observations (2, 4].
  EXPECT_LE(snap.Percentile(0.50), 4.0);
  // p95 lands with the 100us observations (64, 128].
  EXPECT_GT(snap.Percentile(0.95), 64.0);
  EXPECT_LE(snap.Percentile(0.95), 128.0);
  // p99 lands with the 5000us observations (4096, 8192].
  EXPECT_GT(snap.Percentile(0.99), 4096.0);
  EXPECT_LE(snap.Percentile(0.99), 8192.0);
}

TEST(HistogramTest, ZeroOverflowAndEmpty) {
  Histogram hist;
  EXPECT_EQ(hist.Snapshot().Percentile(0.5), 0.0);

  hist.Record(0);  // lands in the first bucket, not before it
  HistogramSnapshot one = hist.Snapshot();
  EXPECT_EQ(one.counts[0], 1u);

  // An observation beyond the last bound lands in the overflow bucket and
  // quantiles there report the last finite bound, not an invented value.
  Histogram overflow;
  overflow.Record(1ull << 40);
  HistogramSnapshot snap = overflow.Snapshot();
  EXPECT_EQ(snap.counts.back(), 1u);
  EXPECT_EQ(snap.Percentile(0.99), double(snap.bounds.back()));
}

TEST(HistogramTest, FirstBucketPercentileFollowsItsValues) {
  // Constant-1 (e.g. one commit per fsync) and constant-0 distributions
  // both land in the first bucket [0, 1]; each must report its own value.
  Histogram ones;
  Histogram zeros;
  for (int i = 0; i < 40; ++i) {
    ones.Record(1);
    zeros.Record(0);
  }
  EXPECT_EQ(ones.Snapshot().Percentile(0.50), 1.0);
  EXPECT_EQ(ones.Snapshot().Percentile(0.99), 1.0);
  EXPECT_EQ(zeros.Snapshot().Percentile(0.50), 0.0);
  EXPECT_EQ(zeros.Snapshot().Percentile(0.99), 0.0);

  // A later bucket does not pull the first one's estimate off its values.
  Histogram skewed;
  for (int i = 0; i < 9; ++i) skewed.Record(1);
  skewed.Record(100);
  EXPECT_EQ(skewed.Snapshot().Percentile(0.50), 1.0);
}

TEST(HistogramTest, CustomBounds) {
  Histogram hist({10, 20, 30});
  hist.Record(15);
  hist.Record(25);
  hist.Record(99);
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 0u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
}

// ---- Tracer / spans ----

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer tracer;
  {
    Span span(&tracer, "test.op");
    EXPECT_FALSE(span.recording());
    span.AddAttribute("ignored", uint64_t{1});
  }
  EXPECT_EQ(tracer.total_spans(), 0u);
  EXPECT_TRUE(tracer.Dump().empty());
}

TEST(TracerTest, EnabledSpansLandInRingWithAttributes) {
  Tracer tracer;
  tracer.Enable();
  {
    Span span(&tracer, "test.op");
    EXPECT_TRUE(span.recording());
    span.AddAttribute("key", "value");
    span.AddAttribute("n", uint64_t{42});
  }
  std::vector<SpanRecord> spans = tracer.Dump();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.op");
  EXPECT_EQ(spans[0].parent_id, 0u);
  ASSERT_EQ(spans[0].attributes.size(), 2u);
  EXPECT_EQ(spans[0].attributes[0].first, "key");
  EXPECT_EQ(spans[0].attributes[0].second, "value");
  EXPECT_EQ(spans[0].attributes[1].second, "42");
  EXPECT_EQ(tracer.total_spans(), 1u);
}

TEST(TracerTest, NestedSpansLinkParentToChild) {
  Tracer tracer;
  tracer.Enable();
  {
    Span outer(&tracer, "outer.op");
    { Span inner(&tracer, "inner.op"); }
    { Span sibling(&tracer, "sibling.op"); }
  }
  std::vector<SpanRecord> spans = tracer.Dump();
  ASSERT_EQ(spans.size(), 3u);
  // Children finish first; the outer span closes last.
  EXPECT_EQ(spans[0].name, "inner.op");
  EXPECT_EQ(spans[1].name, "sibling.op");
  EXPECT_EQ(spans[2].name, "outer.op");
  EXPECT_EQ(spans[0].parent_id, spans[2].id);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  EXPECT_EQ(spans[2].parent_id, 0u);
}

TEST(TraceContextTest, RootsMintDistinctNonZeroTraceIds) {
  EXPECT_NE(Tracer::NewTraceId(), 0u);
  EXPECT_NE(Tracer::NewTraceId(), Tracer::NewTraceId());

  Tracer tracer;
  tracer.Enable();
  { Span a(&tracer, "a.op"); }
  { Span b(&tracer, "b.op"); }
  std::vector<SpanRecord> spans = tracer.Dump();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].trace_id, 0u);
  EXPECT_NE(spans[1].trace_id, 0u);
  EXPECT_NE(spans[0].trace_id, spans[1].trace_id)
      << "unrelated roots must not share a trace";
}

TEST(TraceContextTest, ChildrenInheritTheRootsTraceId) {
  Tracer tracer;
  tracer.Enable();
  TraceContext root_ctx;
  {
    Span outer(&tracer, "outer.op");
    root_ctx = outer.context();
    EXPECT_TRUE(root_ctx.valid());
    { Span inner(&tracer, "inner.op"); }
  }
  std::vector<SpanRecord> spans = tracer.Dump();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, root_ctx.trace_id);
  EXPECT_EQ(spans[1].trace_id, root_ctx.trace_id);
  EXPECT_EQ(tracer.CurrentContext().trace_id, 0u)
      << "no open span -> invalid current context";
}

TEST(TraceContextTest, ExplicitParentOutranksTheThreadLocalStack) {
  Tracer tracer;
  tracer.Enable();
  const TraceContext remote{0xfeed, 0xbeef};
  {
    Span ambient(&tracer, "ambient.op");
    // The explicit parent wins even with a different span open here —
    // this is the worker-pool hand-off: the decoding thread's context
    // travels with the request, not the executing thread's stack.
    Span adopted(&tracer, "adopted.op", remote);
    EXPECT_EQ(adopted.context().trace_id, 0xfeedu);
  }
  std::vector<SpanRecord> spans = tracer.Dump();
  const SpanRecord* adopted = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.name == "adopted.op") adopted = &span;
  }
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted->trace_id, 0xfeedu);
  EXPECT_EQ(adopted->parent_id, 0xbeefu);

  // An invalid explicit parent degrades to a stack walk / fresh root.
  { Span fallback(&tracer, "fallback.op", TraceContext{}); }
  spans = tracer.Dump();
  EXPECT_NE(spans.back().trace_id, 0u);
  EXPECT_EQ(spans.back().parent_id, 0u);
}

TEST(TraceContextTest, ExplicitParentPropagatesAcrossThreads) {
  Tracer tracer;
  tracer.Enable();
  TraceContext handoff;
  {
    Span root(&tracer, "reader.op");
    handoff = root.context();
  }
  std::thread worker([&tracer, handoff] {
    Span span(&tracer, "worker.op", handoff);
  });
  worker.join();
  std::vector<SpanRecord> spans = tracer.Dump();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
}

TEST(TracerTest, RingIsBoundedOldestEvictedFirst) {
  Tracer tracer(/*ring_capacity=*/4, /*slow_capacity=*/2);
  tracer.Enable();
  for (int i = 0; i < 10; ++i) {
    Span span(&tracer, "test.op");
    span.AddAttribute("i", static_cast<uint64_t>(i));
  }
  std::vector<SpanRecord> spans = tracer.Dump();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().attributes[0].second, "6");
  EXPECT_EQ(spans.back().attributes[0].second, "9");
  EXPECT_EQ(tracer.total_spans(), 10u);
}

TEST(TracerTest, SlowSpansAreRetainedSeparately) {
  Tracer tracer(/*ring_capacity=*/2, /*slow_capacity=*/8);
  tracer.Enable();
  tracer.set_slow_threshold_us(0);  // everything is slow
  { Span a(&tracer, "slow.a"); }
  { Span b(&tracer, "slow.b"); }
  tracer.set_slow_threshold_us(1ull << 40);  // nothing is slow
  { Span c(&tracer, "fast.c"); }
  { Span d(&tracer, "fast.d"); }
  { Span e(&tracer, "fast.e"); }

  // Fast spans flooded the tiny ring, but the slow log still holds both
  // slow ones.
  std::vector<SpanRecord> slow = tracer.Dump(/*slow_only=*/true);
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].name, "slow.a");
  EXPECT_TRUE(slow[0].slow);
  EXPECT_EQ(slow[1].name, "slow.b");
  std::vector<SpanRecord> ring = tracer.Dump();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].name, "fast.d");

  tracer.Clear();
  EXPECT_TRUE(tracer.Dump().empty());
  EXPECT_TRUE(tracer.Dump(true).empty());
}

TEST(TracerTest, AlwaysTimeFillsHistogramWhileDisabled) {
  Tracer tracer;
  Histogram hist;
  { Span span(&tracer, "wal.fsync", &hist, /*always_time=*/true); }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_TRUE(tracer.Dump().empty()) << "disabled tracing must not record";

  // A histogram without always_time only fills while tracing is enabled.
  Histogram gated;
  { Span span(&tracer, "inherit.get_attribute", &gated); }
  EXPECT_EQ(gated.count(), 0u);
  tracer.Enable();
  { Span span(&tracer, "inherit.get_attribute", &gated); }
  EXPECT_EQ(gated.count(), 1u);
}

TEST(TracerTest, ObserversFireOnCompletionAndDetach) {
  Tracer tracer;
  tracer.Enable();
  std::vector<std::string> seen;
  int token = tracer.AddObserver(
      [&seen](const SpanRecord& span) { seen.push_back(span.name); });
  { Span span(&tracer, "observed.op"); }
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "observed.op");
  tracer.RemoveObserver(token);
  { Span span(&tracer, "unobserved.op"); }
  EXPECT_EQ(seen.size(), 1u);
}

// ---- Concurrency (the TSan target) ----

TEST(ObsConcurrencyTest, ConcurrentCountersHistogramsAndSpans) {
  Observability obs;
  obs.trace.Enable();
  obs.trace.set_slow_threshold_us(0);  // exercise the slow log too
  Counter* counter = obs.metrics.GetCounter("caddb_tsan_total");
  Histogram* hist = obs.metrics.GetHistogram("caddb_tsan_us");
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&obs, counter, hist, t] {
      for (int i = 0; i < kIterations; ++i) {
        Span span(&obs.trace, "tsan.op", hist);
        span.AddAttribute("thread", static_cast<uint64_t>(t));
        counter->Increment();
      }
    });
  }
  // A reader snapshotting and dumping while writers hammer the registry.
  std::thread reader([&obs, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snapshot = obs.metrics.Snapshot();
      (void)snapshot.FindCounter("caddb_tsan_total");
      (void)obs.trace.Dump();
      (void)obs.trace.Dump(true);
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter->value(), uint64_t{kThreads} * kIterations);
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kIterations);
  EXPECT_EQ(obs.trace.total_spans(), uint64_t{kThreads} * kIterations);
  EXPECT_LE(obs.trace.Dump().size(), obs.trace.ring_capacity());
}

// ---- Exposition ----

MetricsSnapshot GoldenSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("caddb_wal_appends_total", "Records appended")
      ->Increment(12);
  registry.GetGauge("caddb_replication_replica_lag", "Lag in records")
      ->Set(3);
  Histogram* hist =
      registry.GetHistogram("caddb_wal_fsync_us", "fsync wall time",
                            {100, 1000, 10000});
  hist->Record(50);
  hist->Record(50);
  hist->Record(500);
  hist->Record(99999);
  return registry.Snapshot();
}

TEST(ExpositionTest, PrometheusGolden) {
  const std::string text = RenderPrometheus(GoldenSnapshot());
  const std::string expected =
      "# HELP caddb_wal_appends_total Records appended\n"
      "# TYPE caddb_wal_appends_total counter\n"
      "caddb_wal_appends_total 12\n"
      "# HELP caddb_replication_replica_lag Lag in records\n"
      "# TYPE caddb_replication_replica_lag gauge\n"
      "caddb_replication_replica_lag 3\n"
      "# HELP caddb_wal_fsync_us fsync wall time\n"
      "# TYPE caddb_wal_fsync_us histogram\n"
      "caddb_wal_fsync_us_bucket{le=\"100\"} 2\n"
      "caddb_wal_fsync_us_bucket{le=\"1000\"} 3\n"
      "caddb_wal_fsync_us_bucket{le=\"10000\"} 3\n"
      "caddb_wal_fsync_us_bucket{le=\"+Inf\"} 4\n"
      "caddb_wal_fsync_us_sum 100599\n"
      "caddb_wal_fsync_us_count 4\n";
  EXPECT_EQ(text, expected);

  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, &error)) << error;
}

TEST(ExpositionTest, ValidatorRejectsMalformedText) {
  std::string error;
  // Sample with no preceding TYPE.
  EXPECT_FALSE(ValidatePrometheusText("caddb_x_total 1\n", &error));
  EXPECT_FALSE(error.empty());
  // Non-cumulative buckets.
  EXPECT_FALSE(ValidatePrometheusText(
      "# TYPE caddb_h histogram\n"
      "caddb_h_bucket{le=\"1\"} 5\n"
      "caddb_h_bucket{le=\"2\"} 3\n"
      "caddb_h_bucket{le=\"+Inf\"} 5\n"
      "caddb_h_sum 1\n"
      "caddb_h_count 5\n",
      &error));
  // Missing +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText(
      "# TYPE caddb_h histogram\n"
      "caddb_h_bucket{le=\"1\"} 5\n"
      "caddb_h_sum 1\n"
      "caddb_h_count 5\n",
      &error));
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText(
      "# TYPE caddb_h histogram\n"
      "caddb_h_bucket{le=\"+Inf\"} 5\n"
      "caddb_h_sum 1\n"
      "caddb_h_count 6\n",
      &error));
  // Bad metric name.
  EXPECT_FALSE(ValidatePrometheusText(
      "# TYPE bad-name counter\nbad-name 1\n", &error));
}

TEST(ExpositionTest, JsonRendersAndEmbeds) {
  MetricsSnapshot snapshot = GoldenSnapshot();
  const std::string json = RenderMetricsJson(snapshot);
  EXPECT_NE(json.find("\"caddb_wal_appends_total\":12"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"caddb_replication_replica_lag\":3"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":4"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);

  // The streaming form embeds the same object under a key.
  JsonWriter w;
  w.BeginObject();
  w.Key("metrics");
  WriteMetricsJson(snapshot, &w);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"metrics\":" + json + "}");
}

TEST(ExpositionTest, FirstBucketPercentilesInShellTextAndJson) {
  // The shell's `metrics` text truncates percentiles to integers, so a
  // constant-1 histogram (commits per fsync under one writer) printed
  // p50=0 while its first-bucket estimate was 0.5.
  Database db;
  Histogram* ones = db.observability()->metrics.GetHistogram(
      "caddb_test_ones", "Always 1");
  Histogram* zeros = db.observability()->metrics.GetHistogram(
      "caddb_test_zeros", "Always 0");
  for (int i = 0; i < 8; ++i) {
    ones->Record(1);
    zeros->Record(0);
  }
  shell::Dispatcher shell(&db);
  std::istringstream in("metrics\n");
  std::ostringstream out;
  shell.Run(in, out);
  EXPECT_EQ(shell.error_count(), 0u) << out.str();
  EXPECT_NE(out.str().find("caddb_test_ones count=8 p50=1 p95=1 p99=1"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("caddb_test_zeros count=8 p50=0 p95=0 p99=0"),
            std::string::npos)
      << out.str();

  const std::string json =
      RenderMetricsJson(db.observability()->metrics.Snapshot());
  EXPECT_NE(json.find("\"caddb_test_ones\":{\"count\":8,\"sum\":8,"
                      "\"p50\":1,\"p95\":1,\"p99\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"caddb_test_zeros\":{\"count\":8,\"sum\":0,"
                      "\"p50\":0,\"p95\":0,\"p99\":0"),
            std::string::npos)
      << json;
}

// ---- One counter store: each component counts into its bundle ----

std::string TestDir(const std::string& name) {
  const auto dir = std::filesystem::current_path() / "obs_test_tmp" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(BundleTest, WalAppendAndCommitLatencyIsTimedWithTracingOff) {
  Observability bundle;
  ASSERT_FALSE(bundle.trace.enabled());
  wal::WalOptions options;
  options.sync = wal::SyncPolicy::kNone;
  options.obs = &bundle;
  auto log = wal::Wal::Open(TestDir("append_us"), options, 1);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->Append(wal::Record::Begin(1)).ok());
  ASSERT_TRUE((*log)->AppendCommit(wal::Record::Commit(1)).ok());
  Result<uint64_t> lsn = (*log)->AppendCommitRecord(wal::Record::Commit(2));
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*log)->FinishCommit(*lsn).ok());
  EXPECT_EQ(bundle.metrics.GetHistogram("caddb_wal_append_us")->count(), 3u);
  EXPECT_EQ(bundle.trace.total_spans(), 0u);
  ASSERT_TRUE((*log)->Close().ok());
}

TEST(BundleTest, StandaloneWalsKeepSeparateCounts) {
  auto a = wal::Wal::Open(TestDir("wal_a"), {}, 1);
  auto b = wal::Wal::Open(TestDir("wal_b"), {}, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  for (uint64_t txn = 1; txn <= 3; ++txn) {
    ASSERT_TRUE((*a)->AppendCommit(wal::Record::Commit(txn)).ok());
  }
  ASSERT_TRUE((*b)->AppendCommit(wal::Record::Commit(1)).ok());
  EXPECT_EQ((*a)->stats().commits, 3u);
  EXPECT_EQ((*b)->stats().commits, 1u);
  EXPECT_EQ((*b)->stats().records_appended, 1u);
}

TEST(BundleTest, StandaloneCatalogsKeepSeparateCounts) {
  Catalog a;
  Catalog b;
  const char* kSchema = "obj-type Plate = attributes: T: integer; end Plate;";
  ASSERT_TRUE(ddl::Parser::ParseSchema(kSchema, &a).ok());
  ASSERT_TRUE(ddl::Parser::ParseSchema(kSchema, &b).ok());
  const uint64_t b_probes = b.schema_cache_hits() + b.schema_cache_misses();
  const uint64_t a_hits = a.schema_cache_hits();
  ASSERT_TRUE(a.EffectiveSchemaFor("Plate").ok());
  ASSERT_TRUE(a.EffectiveSchemaFor("Plate").ok());
  EXPECT_GE(a.schema_cache_hits(), a_hits + 1);
  EXPECT_EQ(b.schema_cache_hits() + b.schema_cache_misses(), b_probes);
}

}  // namespace
}  // namespace obs
}  // namespace caddb

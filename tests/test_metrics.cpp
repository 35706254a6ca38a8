// Observability layer: registry semantics, log-histogram bucketing,
// scoped-timer accumulation, JSON round-trips, heartbeat cadence, and the
// key invariant that instrumentation never changes the model's output.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/profiler.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "trace/trace_reader.h"
#include "trace/workload_factory.h"
#include "trace/zipf.h"
#include "util/stopwatch.h"

namespace krr {
namespace {

using obs::Json;
using obs::LogHistogram;

TEST(Counter, IncrementsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(LogHistogramTest, BucketIndexBoundaries) {
  EXPECT_EQ(LogHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(4), 3u);
  EXPECT_EQ(LogHistogram::bucket_index(7), 3u);
  EXPECT_EQ(LogHistogram::bucket_index(8), 4u);
  EXPECT_EQ(LogHistogram::bucket_index(std::numeric_limits<std::uint64_t>::max()),
            64u);
  // Every value lands in the bucket whose [lo, hi] range contains it.
  for (std::uint64_t v : {0ull, 1ull, 5ull, 1000ull, 123456789ull}) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_GE(v, LogHistogram::bucket_lo(i));
    EXPECT_LE(v, LogHistogram::bucket_hi(i));
  }
}

TEST(LogHistogramTest, ExtremeValueBucketEdges) {
  // 0, 1, and UINT64_MAX are the degenerate corners of the log bucketing:
  // each must land in a bucket whose [lo, hi] range contains it, and
  // recording them must not disturb count/sum accounting.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, kMax}) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_GE(v, LogHistogram::bucket_lo(i)) << v;
    EXPECT_LE(v, LogHistogram::bucket_hi(i)) << v;
  }
  // The 0 and 1 buckets are exact singletons.
  EXPECT_EQ(LogHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_hi(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_lo(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_hi(1), 1u);
  // The top bucket's hi edge is saturated, not overflowed to 0.
  EXPECT_EQ(LogHistogram::bucket_hi(LogHistogram::bucket_index(kMax)), kMax);

  LogHistogram h;
  h.record(0);
  h.record(1);
  h.record(kMax);
  EXPECT_EQ(h.count(), 3u);
  // Sum wraps mod 2^64 by design (unsigned); the count is what must hold.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_GE(h.quantile(1.0), 1.0);
}

TEST(LogHistogramTest, CountSumMeanAndQuantiles) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Quantiles are bucket-resolution approximations: monotone in q and
  // within the recorded range.
  double last = 0.0;
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double val = h.quantile(q);
    EXPECT_GE(val, last);
    EXPECT_LE(val, 128.0);  // hi bound of the bucket containing 100
    last = val;
  }
  // The median of 1..100 must sit in the bucket [32, 63].
  EXPECT_GE(h.quantile(0.5), 32.0);
  EXPECT_LE(h.quantile(0.5), 63.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(MetricsRegistry, SameNameSameInstance) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x.count");
  obs::Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  // Namespaces are per metric kind: a gauge may share a counter's name.
  obs::Gauge& g = registry.gauge("x.count");
  g.set(1.5);
  EXPECT_EQ(registry.counter("x.count").value(), 3u);
  EXPECT_NE(static_cast<void*>(&g), static_cast<void*>(&a));
}

TEST(MetricsRegistry, StableAddressesAcrossRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("first");
  for (int i = 0; i < 100; ++i) {
    registry.counter("c" + std::to_string(i));
  }
  EXPECT_EQ(&first, &registry.counter("first"));
}

TEST(MetricsRegistry, JsonRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("profiler.accesses").inc(123456789012345ull);
  registry.gauge("filter.rate").set(0.001);
  LogHistogram& h = registry.histogram("stack.update_ns");
  h.record(0);
  h.record(100);
  h.record(100000);

  std::ostringstream os;
  registry.write_json(os);
  std::string error;
  auto parsed = Json::parse(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const Json* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("profiler.accesses"), nullptr);
  EXPECT_EQ(counters->find("profiler.accesses")->as_uint(), 123456789012345ull);
  const Json* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("filter.rate")->as_double(), 0.001);
  const Json* histograms = parsed->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* hist = histograms->find("stack.update_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_uint(), 3u);
  EXPECT_EQ(hist->find("sum")->as_uint(), 100100u);
  // Bucket triples [lo, hi, count] must re-sum to the recorded count.
  const Json* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets->size(); ++i) {
    total += buckets->at(i).at(2).as_uint();
  }
  EXPECT_EQ(total, 3u);
}

TEST(MetricsRegistry, TableOutputMentionsEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").inc();
  registry.gauge("b.value").set(2.0);
  registry.histogram("c.dist").record(7);
  std::ostringstream os;
  registry.write_table(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("b.value"), std::string::npos);
  EXPECT_NE(text.find("c.dist"), std::string::npos);
}

TEST(JsonTest, ScalarAndStructureRoundTrip) {
  Json root = Json::object();
  root.set("u64_max", Json(std::numeric_limits<std::uint64_t>::max()));
  root.set("negative", Json(std::int64_t{-42}));
  root.set("pi", Json(3.25));
  root.set("flag", Json(true));
  root.set("nothing", Json());
  root.set("text", Json("quote \" backslash \\ newline \n tab \t"));
  Json arr = Json::array();
  arr.push_back(Json(std::uint64_t{1}));
  arr.push_back(Json("two"));
  root.set("arr", std::move(arr));

  std::string error;
  auto parsed = Json::parse(root.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("u64_max")->as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parsed->find("negative")->as_int(), -42);
  EXPECT_DOUBLE_EQ(parsed->find("pi")->as_double(), 3.25);
  EXPECT_TRUE(parsed->find("flag")->as_bool());
  EXPECT_TRUE(parsed->find("nothing")->is_null());
  EXPECT_EQ(parsed->find("text")->as_string(),
            "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(parsed->find("arr")->size(), 2u);
  EXPECT_EQ(parsed->find("arr")->at(1).as_string(), "two");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "{\"a\":1} extra",
        "\"unterminated", "{\"a\":}", "[1 2]", "nul"}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, DeepNestingIsBoundedNotFatal) {
  std::string bomb(10000, '[');
  EXPECT_FALSE(Json::parse(bomb).has_value());
}

TEST(JsonTest, NestingAcceptedUpToTheDepthGuard) {
  // Just under the parser's recursion guard must round-trip; at or past it
  // must be rejected (not crash). The guard is 64 levels.
  const auto nested = [](int depth) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s += "1";
    s.append(static_cast<std::size_t>(depth), ']');
    return s;
  };
  auto ok = Json::parse(nested(63));
  ASSERT_TRUE(ok.has_value());
  const Json* inner = &*ok;
  for (int i = 0; i < 63; ++i) inner = &inner->at(0);
  EXPECT_EQ(inner->as_uint(), 1u);
  EXPECT_FALSE(Json::parse(nested(65)).has_value());
}

TEST(JsonTest, UnicodeEscapesRoundTrip) {
  // \u escapes decode to UTF-8, including surrogate pairs; the dumper
  // re-escapes control characters so the result re-parses to the same text.
  auto parsed = Json::parse("\"a\\u0041\\u00e9\\u4e2d\\ud83d\\ude00\\u0000z\"");
  ASSERT_TRUE(parsed.has_value());
  const std::string decoded = parsed->as_string();
  EXPECT_EQ(decoded,
            std::string("aA\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80\0z", 13));
  auto reparsed = Json::parse(parsed->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), decoded);
  // Malformed escapes are rejected, not mangled.
  EXPECT_FALSE(Json::parse("\"\\u12\"").has_value());
  EXPECT_FALSE(Json::parse("\"\\ud83d\"").has_value());  // lone surrogate
}

TEST(JsonTest, IntegerBoundariesKeepTheirLane) {
  // INT64_MIN, -1, and UINT64_MAX each exercise a numeric lane boundary:
  // negatives must parse into the int lane, values past INT64_MAX into the
  // uint lane, and all must survive a dump/parse round trip exactly.
  Json root = Json::object();
  root.set("i64_min", Json(std::numeric_limits<std::int64_t>::min()));
  root.set("i64_max_plus1",
           Json(std::uint64_t{1} << 63));
  root.set("u64_max", Json(std::numeric_limits<std::uint64_t>::max()));
  root.set("minus_one", Json(std::int64_t{-1}));
  auto parsed = Json::parse(root.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("i64_min")->as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parsed->find("i64_max_plus1")->as_uint(), std::uint64_t{1} << 63);
  EXPECT_EQ(parsed->find("u64_max")->as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parsed->find("minus_one")->as_int(), -1);
}

TEST(StopwatchTest, IsSteadyAndMonotonicNanos) {
  static_assert(Stopwatch::is_steady, "obs timing requires a steady clock");
  Stopwatch w;
  const std::uint64_t a = w.nanos();
  // Burn a little time so the reading must advance on any realistic clock.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const std::uint64_t b = w.nanos();
  EXPECT_GE(b, a);
  EXPECT_GT(b, 0u);
}

TEST(ScopedTimerTest, AccumulatesAcrossScopes) {
  double total = 0.0;
  {
    ScopedTimer t(total);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  const double first = total;
  EXPECT_GT(first, 0.0);
  {
    ScopedTimer t(total);
    EXPECT_GE(t.elapsed_seconds(), 0.0);
  }
  EXPECT_GE(total, first);
}

TEST(HeartbeatTest, BeatsOnStrideWithZeroInterval) {
  std::ostringstream os;
  obs::Heartbeat hb(0.0, os);
  obs::HeartbeatSnapshot snap;
  int snapshots_built = 0;
  for (std::uint64_t i = 0; i < obs::Heartbeat::kStride * 3; ++i) {
    hb.tick([&] {
      ++snapshots_built;
      snap.records = i + 1;
      return snap;
    });
  }
  EXPECT_EQ(hb.beats(), 3u);
  EXPECT_EQ(snapshots_built, 3);
  EXPECT_NE(os.str().find("records="), std::string::npos);
}

TEST(HeartbeatTest, LongIntervalSkipsSnapshotWork) {
  std::ostringstream os;
  obs::Heartbeat hb(3600.0, os);
  int snapshots_built = 0;
  for (std::uint64_t i = 0; i < obs::Heartbeat::kStride * 3; ++i) {
    hb.tick([&] {
      ++snapshots_built;
      return obs::HeartbeatSnapshot{};
    });
  }
  EXPECT_EQ(hb.beats(), 0u);
  EXPECT_EQ(snapshots_built, 0);
  EXPECT_TRUE(os.str().empty());
}

TEST(HeartbeatTest, FinishFoldsInTheFinalPartialStride) {
  // The last periodic beat can trail the end of input by up to one stride;
  // the caller's final snapshot may be equally stale. finish() must still
  // report the true processed count: one tick per record means
  // ticks() == records, and the summary reconciles against it.
  std::ostringstream os;
  obs::Heartbeat hb(0.0, os);
  const std::uint64_t processed = obs::Heartbeat::kStride * 2 + 123;
  for (std::uint64_t i = 0; i < processed; ++i) {
    hb.tick([&] {
      obs::HeartbeatSnapshot s;
      s.records = i + 1;
      return s;
    });
  }
  ASSERT_EQ(hb.ticks(), processed);
  // A stale snapshot: what a caller whose counter lags the loop would pass.
  obs::HeartbeatSnapshot stale;
  stale.records = obs::Heartbeat::kStride * 2;  // the last stride boundary
  hb.finish(stale);
  const std::string text = os.str();
  const std::string want = "records=" + std::to_string(processed);
  EXPECT_NE(text.find(want), std::string::npos)
      << "summary must report the true count, got:\n" << text;
}

TEST(HeartbeatTest, FinishAddsTheResumeBaseline) {
  // A resumed run's heartbeat only witnesses the post-resume records; the
  // baseline restores the absolute position in the summary.
  std::ostringstream os;
  obs::Heartbeat hb(3600.0, os);
  hb.set_baseline(5000);
  for (int i = 0; i < 250; ++i) hb.tick([] { return obs::HeartbeatSnapshot{}; });
  hb.finish(obs::HeartbeatSnapshot{});
  EXPECT_NE(os.str().find("records=5250"), std::string::npos) << os.str();
}

TEST(HeartbeatTest, FinishAlwaysEmitsSummary) {
  std::ostringstream os;
  obs::Heartbeat hb(3600.0, os);
  obs::HeartbeatSnapshot snap;
  snap.records = 7;
  hb.finish(snap);
  EXPECT_EQ(hb.beats(), 1u);
  EXPECT_NE(os.str().find("done"), std::string::npos);
  EXPECT_NE(os.str().find("records=7"), std::string::npos);
}

TEST(PipelineMetricsTest, RegistersTheDocumentedNames) {
  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  const Json snapshot = registry.to_json();
  const Json* counters = snapshot.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"profiler.accesses", "filter.passed", "filter.dropped",
        "filter.halvings", "profiler.degradations", "stack.cold_misses",
        "stack.swaps"}) {
    EXPECT_NE(counters->find(name), nullptr) << name;
  }
  const Json* histograms = snapshot.find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->find("stack.chain_len"), nullptr);
  EXPECT_NE(histograms->find("stack.update_ns"), nullptr);
  ASSERT_NE(metrics.stack.swaps, nullptr);
}

std::vector<Request> zipf_trace(std::size_t n, std::uint64_t footprint,
                                std::uint64_t seed) {
  ZipfianGenerator gen(footprint, 0.9, seed, /*scrambled=*/true);
  return materialize(gen, n);
}

TEST(ProfilerMetricsTest, CountersMatchProfilerAccounting) {
  const auto trace = zipf_trace(50000, 5000, 3);
  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.sampling_rate = 0.25;
  KrrProfiler profiler(cfg);
  profiler.attach_metrics(&metrics);
  for (const Request& r : trace) profiler.access(r);
  profiler.refresh_metrics_gauges();

  EXPECT_EQ(metrics.accesses->value(), profiler.processed());
  EXPECT_EQ(metrics.filter_passed->value(), profiler.sampled());
  EXPECT_EQ(metrics.filter_passed->value() + metrics.filter_dropped->value(),
            profiler.processed());
  EXPECT_EQ(metrics.stack.cold_misses->value(), profiler.stack_depth());
  EXPECT_EQ(metrics.stack.chain_len->count(), profiler.sampled());
  // Every kTimingStride-th stack access is timed.
  EXPECT_EQ(metrics.stack.update_ns->count(),
            (profiler.sampled() + KrrStack::kTimingStride - 1) /
                KrrStack::kTimingStride);
  EXPECT_DOUBLE_EQ(registry.gauge("stack.depth").value(),
                   static_cast<double>(profiler.stack_depth()));
  EXPECT_DOUBLE_EQ(registry.gauge("filter.rate").value(),
                   profiler.current_sampling_rate());

  // The access path keeps its counts in the profiler; each refresh
  // publishes what was counted since the previous one, so a mid-run
  // refresh followed by more records and a second refresh counts every
  // record once.
  const auto expect_counted = [](const obs::PipelineMetrics& m,
                                 std::uint64_t accesses, std::uint64_t passed) {
    EXPECT_EQ(m.accesses->value(), accesses);
    EXPECT_EQ(m.filter_passed->value(), passed);
    EXPECT_EQ(m.filter_dropped->value(), accesses - passed);
  };
  const std::size_t half = trace.size() / 2;
  {
    SCOPED_TRACE("mid-run refresh");
    obs::MetricsRegistry mid_registry;
    obs::PipelineMetrics mid_metrics(mid_registry);
    KrrProfiler mid(cfg);
    mid.attach_metrics(&mid_metrics);
    for (std::size_t i = 0; i < half; ++i) mid.access(trace[i]);
    mid.refresh_metrics_gauges();
    expect_counted(mid_metrics, half, mid.sampled());
    for (std::size_t i = half; i < trace.size(); ++i) mid.access(trace[i]);
    mid.refresh_metrics_gauges();
    mid.refresh_metrics_gauges();
    expect_counted(mid_metrics, trace.size(), mid.sampled());
    EXPECT_EQ(mid.sampled(), profiler.sampled());
  }
  {
    // A resumed run counts only the records it processes itself, not the
    // ones its checkpoint already covers.
    SCOPED_TRACE("load_state then attach");
    KrrProfiler first(cfg);
    for (std::size_t i = 0; i < half; ++i) first.access(trace[i]);
    std::string payload;
    ASSERT_TRUE(first.save_state(&payload).is_ok());
    KrrProfiler resumed(cfg);
    ASSERT_TRUE(resumed.load_state(payload).is_ok());
    obs::MetricsRegistry resumed_registry;
    obs::PipelineMetrics resumed_metrics(resumed_registry);
    resumed.attach_metrics(&resumed_metrics);
    for (std::size_t i = half; i < trace.size(); ++i) resumed.access(trace[i]);
    resumed.refresh_metrics_gauges();
    EXPECT_EQ(resumed.processed(), trace.size());
    expect_counted(resumed_metrics, trace.size() - half,
                   resumed.sampled() - first.sampled());
  }
}

TEST(ProfilerMetricsTest, SwapCounterMatchesFigure54Instrumentation) {
  const auto trace = zipf_trace(20000, 2000, 5);
  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  KrrStackConfig cfg;
  cfg.k = corrected_k(5);
  KrrStack stack(cfg);
  stack.attach_metrics(&metrics.stack);
  for (const Request& r : trace) stack.access(r.key);
  stack.flush_metrics();
  EXPECT_EQ(metrics.stack.swaps->value(), stack.swaps_performed());
}

// The stack keeps swaps, cold misses and chain lengths in its own fields
// and folds them into the shared metrics on the timing stride and whenever
// they are published: a flush, a detach, and the krr estimator's finish()
// leave every count exact, whatever the access count's remainder mod the
// stride.
TEST(ProfilerMetricsTest, StackFoldsHeldCountsWhenPublished) {
  const auto trace = zipf_trace(3 * KrrStack::kTimingStride + 37, 500, 9);
  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  KrrStackConfig cfg;
  cfg.k = corrected_k(5);
  KrrStack stack(cfg);
  stack.attach_metrics(&metrics.stack);
  std::array<std::uint64_t, LogHistogram::kBuckets> want{};
  std::uint64_t cold = 0;
  const auto drive = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t before = stack.swaps_performed();
      cold += stack.access(trace[i].key).cold ? 1 : 0;
      ++want[LogHistogram::bucket_index(stack.swaps_performed() - before)];
    }
  };
  const auto expect_exact = [&](std::uint64_t accesses) {
    EXPECT_EQ(metrics.stack.swaps->value(), stack.swaps_performed());
    EXPECT_EQ(metrics.stack.cold_misses->value(), cold);
    EXPECT_EQ(metrics.stack.chain_len->count(), accesses);
    EXPECT_EQ(metrics.stack.chain_len->sum(), stack.swaps_performed());
    for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
      EXPECT_EQ(metrics.stack.chain_len->bucket_count(b), want[b]) << "bucket " << b;
    }
  };
  const std::size_t half = trace.size() / 2;
  drive(0, half);
  // Between publishes the counts since the last stride fold are held back.
  EXPECT_LT(metrics.stack.swaps->value(), stack.swaps_performed());
  EXPECT_LT(metrics.stack.chain_len->count(), half);
  stack.flush_metrics();
  expect_exact(half);
  drive(half, trace.size());
  stack.attach_metrics(nullptr);
  expect_exact(trace.size());
  // Detached accesses are not counted, and nothing is folded twice.
  stack.access(trace.front().key);
  stack.flush_metrics();
  EXPECT_EQ(metrics.stack.chain_len->count(), trace.size());

  // The registry's krr model folds at finish(), with no gauge refresh.
  obs::MetricsRegistry model_registry;
  obs::PipelineMetrics model_metrics(model_registry);
  auto options = EstimatorOptions::parse("k=5,seed=3");
  ASSERT_TRUE(options.is_ok());
  auto est = EstimatorRegistry::instance().create("krr", *options);
  ASSERT_TRUE(est.is_ok());
  (*est)->attach_metrics(&model_metrics);
  for (const Request& r : trace) (*est)->access(r);
  (*est)->finish();
  EXPECT_EQ(model_metrics.stack.chain_len->count(), trace.size());
  EXPECT_EQ(model_metrics.stack.chain_len->sum(), model_metrics.stack.swaps->value());
  EXPECT_EQ(model_metrics.stack.cold_misses->value(),
            static_cast<std::uint64_t>((*est)->model_gauges().depth));
}

TEST(ProfilerMetricsTest, DegradationEventsAreCounted) {
  const auto trace = zipf_trace(80000, 60000, 7);
  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.max_stack_bytes = 64 * 1024;
  KrrProfiler profiler(cfg);
  profiler.attach_metrics(&metrics);
  for (const Request& r : trace) profiler.access(r);
  ASSERT_GT(profiler.degradation_events(), 0u) << "trace too small to degrade";
  EXPECT_EQ(metrics.degradations->value(), profiler.degradation_events());
  EXPECT_EQ(metrics.filter_halvings->value(), profiler.degradation_events());
}

// The observability invariant: attaching metrics must not perturb the
// model. Same trace, same seed, metrics attached vs detached — bit-identical
// MRC, for every instrumented path: the serial stack (unit and byte
// granularity) and the sharded fan-out.
TEST(ProfilerMetricsTest, MetricsOnAndOffProduceIdenticalMrc) {
  WorkloadFactoryOptions wf;
  wf.seed = 11;
  wf.footprint = 8000;
  struct Case {
    const char* model;
    const char* options;
    const char* workload;
  };
  for (const Case& c : {Case{"krr", "k=5,rate=0.5,seed=42", "zipf:0.9"},
                        Case{"krr", "k=5,rate=0.5,seed=42,bytes=1", "msr:web"},
                        Case{"krr_sharded",
                             "k=5,rate=0.5,seed=42,shards=4,threads=2",
                             "zipf:0.9"}}) {
    SCOPED_TRACE(std::string(c.model) + " " + c.options + " on " + c.workload);
    auto gen = try_make_workload(c.workload, wf);
    ASSERT_TRUE(gen.is_ok());
    const auto trace = materialize(**gen, 60000);
    auto options = EstimatorOptions::parse(c.options);
    ASSERT_TRUE(options.is_ok());
    const auto run = [&](obs::PipelineMetrics* metrics) {
      auto est = EstimatorRegistry::instance().create(c.model, *options);
      EXPECT_TRUE(est.is_ok()) << est.status().message();
      (*est)->attach_metrics(metrics);
      for (const Request& r : trace) (*est)->access(r);
      (*est)->finish();
      return std::pair((*est)->mrc(), (*est)->model_gauges());
    };

    const auto [a, plain] = run(nullptr);
    obs::MetricsRegistry registry;
    obs::PipelineMetrics metrics(registry);
    const auto [b, instrumented] = run(&metrics);
    EXPECT_GT(metrics.accesses->value() + metrics.sharded.enqueued->value(),
              0u)
        << "instrumentation was not exercised";

    ASSERT_EQ(a.points().size(), b.points().size());
    for (std::size_t i = 0; i < a.points().size(); ++i) {
      EXPECT_EQ(a.points()[i].size, b.points()[i].size);
      EXPECT_EQ(a.points()[i].miss_ratio, b.points()[i].miss_ratio);
    }
    EXPECT_EQ(plain.depth, instrumented.depth);
    EXPECT_EQ(plain.samples, instrumented.samples);
  }
}

TEST(RunReportTest, ZeroAccessRunReportsConfiguredRate) {
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.sampling_rate = 0.25;  // realized exactly by the 2^24 modulus
  KrrProfiler profiler(cfg);
  const RunReport report = profiler.run_report();
  EXPECT_DOUBLE_EQ(report.configured_sampling_rate, 0.25);
  EXPECT_DOUBLE_EQ(report.final_sampling_rate, 0.25);
  EXPECT_EQ(report.records_read, 0u);
  EXPECT_EQ(report.stack_depth, 0u);
}

TEST(RunReportTest, JsonCarriesEveryField) {
  RunReport report;
  report.records_read = 10;
  report.configured_sampling_rate = 0.5;
  report.final_sampling_rate = 0.25;
  const Json j = to_json(report);
  for (const char* key :
       {"records_read", "records_skipped", "checksum_failures",
        "truncated_tail", "degradation_events", "configured_sampling_rate",
        "final_sampling_rate", "stack_depth", "space_overhead_bytes"}) {
    EXPECT_NE(j.find(key), nullptr) << key;
  }
  EXPECT_EQ(j.find("records_read")->as_uint(), 10u);
  EXPECT_DOUBLE_EQ(j.find("final_sampling_rate")->as_double(), 0.25);
}

TEST(IngestMetricsTest, FoldMirrorsTheReadReport) {
  const auto trace = zipf_trace(2000, 200, 13);
  std::stringstream stream;
  write_trace_binary_v2(stream, trace, 256);
  const std::string bytes = stream.str();

  TraceReadReport report;
  auto result = read_trace(stream, {.policy = RecoveryPolicy::kStrict}, &report);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(report.records_read, trace.size());
  EXPECT_EQ(report.bytes_read, bytes.size());

  obs::MetricsRegistry registry;
  fold_ingest_metrics(report, registry);
  EXPECT_EQ(registry.counter("ingest.records_read").value(), trace.size());
  EXPECT_EQ(registry.counter("ingest.bytes_read").value(), bytes.size());
  EXPECT_EQ(registry.counter("ingest.records_skipped").value(), 0u);
  EXPECT_EQ(registry.counter("ingest.checksum_failures").value(), 0u);
}

TEST(SpatialFilterMetricsTest, HalvingsCountOnlyRealHalvings) {
  SpatialFilter f(1.0, 8);
  EXPECT_EQ(f.halvings(), 0u);
  f.halve();  // 8 -> 4
  f.halve();  // 4 -> 2
  f.halve();  // 2 -> 1
  EXPECT_EQ(f.halvings(), 3u);
  f.halve();  // bottomed out: no-op
  EXPECT_EQ(f.halvings(), 3u);
  EXPECT_EQ(f.threshold(), 1u);
}

}  // namespace
}  // namespace krr

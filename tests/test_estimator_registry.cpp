// Conformance suite for the polymorphic estimator registry: every
// registered model is driven through the same MrcEstimator contract and
// must produce a sane curve. These are interface tests — model accuracy is
// covered per-model elsewhere; here we pin the invariants the pipeline
// layers (CLI, bench, zoo) rely on for *any* model.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "trace/request.h"
#include "trace/workload_factory.h"
#include "util/mrc.h"

namespace krr {
namespace {

std::vector<Request> small_zipf_trace() {
  WorkloadFactoryOptions wf;
  wf.seed = 7;
  wf.footprint = 500;
  auto gen = try_make_workload("zipf:0.9", wf);
  EXPECT_TRUE(gen.is_ok());
  return materialize(**gen, 4000);
}

std::unique_ptr<MrcEstimator> make(const std::string& name,
                                   const EstimatorOptions& options = {}) {
  auto est = EstimatorRegistry::instance().create(name, options);
  EXPECT_TRUE(est.is_ok()) << name << ": " << est.status().message();
  return std::move(*est);
}

MissRatioCurve run(MrcEstimator& est, const std::vector<Request>& trace,
                   const std::vector<double>& sizes = {}) {
  for (const Request& r : trace) est.access(r);
  est.finish();
  return est.mrc(sizes);
}

class RegistryConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryConformance, CurveIsAValidMrc) {
  const auto trace = small_zipf_trace();
  auto est = make(GetParam());
  const MissRatioCurve curve = run(*est, trace, {100, 200, 300, 400, 500});
  ASSERT_FALSE(curve.points().empty()) << GetParam();
  double prev_size = -1.0;
  double prev_ratio = 2.0;
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0) << GetParam() << " at size " << size;
    EXPECT_LE(ratio, 1.0) << GetParam() << " at size " << size;
    EXPECT_GT(size, prev_size) << GetParam() << ": sizes must increase";
    // Miss ratios never increase with cache size (monotone non-increasing).
    EXPECT_LE(ratio, prev_ratio + 1e-9) << GetParam() << " at size " << size;
    prev_size = size;
    prev_ratio = ratio;
  }
}

TEST_P(RegistryConformance, DeterministicUnderFixedSeed) {
  const auto trace = small_zipf_trace();
  EstimatorOptions options;
  options.set("seed", "42");
  auto a = make(GetParam(), options);
  auto b = make(GetParam(), options);
  const MissRatioCurve ca = run(*a, trace);
  const MissRatioCurve cb = run(*b, trace);
  ASSERT_EQ(ca.points().size(), cb.points().size()) << GetParam();
  for (std::size_t i = 0; i < ca.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(ca.points()[i].size, cb.points()[i].size) << GetParam();
    EXPECT_DOUBLE_EQ(ca.points()[i].miss_ratio, cb.points()[i].miss_ratio)
        << GetParam();
  }
}

TEST_P(RegistryConformance, SafeOnEmptyTrace) {
  auto est = make(GetParam());
  est->finish();
  const MissRatioCurve curve = est->mrc();
  EXPECT_EQ(est->processed(), 0u) << GetParam();
  // An empty curve eval()s to 1.0 (everything misses): the contract for
  // zero input. A non-empty curve would be fine too, as long as it is
  // still within [0, 1] — but no model should crash here.
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0) << GetParam();
    EXPECT_LE(ratio, 1.0) << GetParam();
  }
  const RunReport report = est->run_report();
  EXPECT_EQ(report.records_skipped, 0u) << GetParam();
}

TEST_P(RegistryConformance, CountsEveryProcessedReference) {
  const auto trace = small_zipf_trace();
  auto est = make(GetParam());
  for (const Request& r : trace) est->access(r);
  est->finish();
  EXPECT_EQ(est->processed(), trace.size()) << GetParam();
  // The defaulted observability hooks must be callable on any model.
  const obs::HeartbeatSnapshot snap = est->snapshot();
  EXPECT_EQ(snap.records, trace.size()) << GetParam();
  est->refresh_metrics_gauges();
  EXPECT_EQ(est->info().name, GetParam());
}

std::vector<std::string> registered_names() {
  std::vector<std::string> names;
  for (const auto& info : EstimatorRegistry::instance().list()) {
    names.push_back(info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllModels, RegistryConformance,
                         ::testing::ValuesIn(registered_names()),
                         [](const auto& info) { return info.param; });

// --- Byte-granularity battery: every model that advertises the `bytes`
// capability must hold the same contract over variable object sizes. Sizes
// are a per-key pure function so the trace stays deterministic and an
// object never changes size mid-trace.

std::vector<Request> sized_zipf_trace() {
  auto trace = small_zipf_trace();
  for (Request& r : trace) {
    r.size = 1 + static_cast<std::uint32_t>((r.key * 2654435761ULL) % 256);
  }
  return trace;
}

std::vector<std::string> byte_capable_names() {
  std::vector<std::string> names;
  for (const auto& info : EstimatorRegistry::instance().list()) {
    if (info.caps.byte_granularity) names.push_back(info.name);
  }
  return names;
}

class ByteGranularityConformance
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ByteGranularityConformance, ByteCurveIsAValidMrc) {
  const auto trace = sized_zipf_trace();
  EstimatorOptions options;
  options.set("bytes", "1");
  auto est = make(GetParam(), options);
  const MissRatioCurve curve =
      run(*est, trace, {4096, 16384, 65536});
  ASSERT_FALSE(curve.points().empty()) << GetParam();
  double prev_size = -1.0;
  double prev_ratio = 2.0;
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0) << GetParam() << " at " << size << " bytes";
    EXPECT_LE(ratio, 1.0) << GetParam() << " at " << size << " bytes";
    EXPECT_GT(size, prev_size) << GetParam() << ": sizes must increase";
    EXPECT_LE(ratio, prev_ratio + 1e-9) << GetParam() << " at " << size;
    prev_size = size;
    prev_ratio = ratio;
  }
  // Byte curves must extend to byte scale: the largest breakpoint covers
  // more than the object count (sizes average far above 1 byte).
  EXPECT_GT(curve.max_size(), 600.0) << GetParam();
}

TEST_P(ByteGranularityConformance, ByteModeIsDeterministic) {
  const auto trace = sized_zipf_trace();
  EstimatorOptions options;
  options.set("bytes", "1");
  options.set("seed", "42");
  auto a = make(GetParam(), options);
  auto b = make(GetParam(), options);
  const MissRatioCurve ca = run(*a, trace);
  const MissRatioCurve cb = run(*b, trace);
  ASSERT_EQ(ca.points().size(), cb.points().size()) << GetParam();
  for (std::size_t i = 0; i < ca.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(ca.points()[i].size, cb.points()[i].size) << GetParam();
    EXPECT_DOUBLE_EQ(ca.points()[i].miss_ratio, cb.points()[i].miss_ratio)
        << GetParam();
  }
}

TEST_P(ByteGranularityConformance, ByteModeSafeOnEmptyTrace) {
  EstimatorOptions options;
  options.set("bytes", "1");
  auto est = make(GetParam(), options);
  est->finish();
  const MissRatioCurve curve = est->mrc();
  EXPECT_EQ(est->processed(), 0u) << GetParam();
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0) << GetParam();
    EXPECT_LE(ratio, 1.0) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(ByteCapableModels, ByteGranularityConformance,
                         ::testing::ValuesIn(byte_capable_names()),
                         [](const auto& info) { return info.param; });

TEST(EstimatorRegistry, HasEveryExpectedBuiltin) {
  auto& registry = EstimatorRegistry::instance();
  EXPECT_GE(registry.size(), 17u);
  for (const char* name :
       {"krr", "krr_sharded", "krr_windowed", "naive_stack", "lru_stack",
        "olken_tree", "priority_stack", "shards", "shards_fixed", "aet",
        "counter_stacks", "statstack", "mimir", "hotl", "shards_sharded",
        "shards_fixed_sharded", "aet_sharded"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const EstimatorInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->description.empty()) << name;
    EXPECT_FALSE(info->policy.empty()) << name;
  }
}

TEST(EstimatorRegistry, UnknownNameIsInvalidArgument) {
  auto est = EstimatorRegistry::instance().create("no_such_model");
  ASSERT_FALSE(est.is_ok());
  EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
  // The error lists the registered names so CLI users can self-correct.
  EXPECT_NE(est.status().message().find("krr"), std::string::npos);
}

TEST(EstimatorRegistry, UndeclaredOptionKeyIsRejected) {
  EstimatorOptions options;
  options.set("window", "1000");  // krr_windowed's key, not krr's
  auto est = EstimatorRegistry::instance().create("krr", options);
  ASSERT_FALSE(est.is_ok());
  EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
}

TEST(EstimatorRegistry, CommonKeysAcceptedByEveryModel) {
  EstimatorOptions options;
  options.set("k", "5");
  options.set("seed", "3");
  options.set("quantum", "1");
  for (const auto& info : EstimatorRegistry::instance().list()) {
    auto est = EstimatorRegistry::instance().create(info.name, options);
    EXPECT_TRUE(est.is_ok()) << info.name << ": " << est.status().message();
  }
}

TEST(EstimatorRegistry, BadOptionValueIsInvalidArgument) {
  EstimatorOptions options;
  options.set("rate", "2.0");  // outside (0, 1]
  auto est = EstimatorRegistry::instance().create("shards", options);
  ASSERT_FALSE(est.is_ok());
  EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
}

TEST(EstimatorRegistry, DuplicateRegistrationThrows) {
  auto& registry = EstimatorRegistry::instance();
  EXPECT_THROW(registry.add({.name = "krr",
                             .policy = "K-LRU",
                             .description = "dup",
                             .caps = {},
                             .option_keys = {}},
                            [](const EstimatorOptions&) {
                              return std::unique_ptr<MrcEstimator>();
                            }),
               std::logic_error);
}

TEST(EstimatorRegistry, CapabilityFlagsMatchTheModelFamilies) {
  auto& registry = EstimatorRegistry::instance();
  EXPECT_TRUE(registry.find("krr")->caps.models_klru);
  EXPECT_TRUE(registry.find("krr")->caps.spatial_sampling);
  EXPECT_TRUE(registry.find("krr_sharded")->caps.sharded);
  EXPECT_TRUE(registry.find("naive_stack")->caps.reference_oracle);
  EXPECT_TRUE(registry.find("priority_stack")->caps.reference_oracle);
  EXPECT_FALSE(registry.find("shards")->caps.models_klru);
  EXPECT_TRUE(registry.find("shards")->caps.spatial_sampling);
  // AET's reuse-time histogram is built from a spatially thinned stream, so
  // it composes with hash sharding just like SHARDS does.
  EXPECT_TRUE(registry.find("aet")->caps.spatial_sampling);
  for (const char* name : {"krr_sharded", "shards_sharded",
                           "shards_fixed_sharded", "aet_sharded"}) {
    const EstimatorInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_TRUE(info->caps.sharded) << name;
    EXPECT_TRUE(info->caps.spatial_sampling) << name;
    EXPECT_TRUE(info->caps.governed_memory) << name;
    // Composite quiesce-then-snapshot checkpointing (DESIGN.md §13).
    EXPECT_TRUE(info->caps.checkpoint) << name;
  }
  // Every serial sampling model serializes through the tagged-section
  // codec; the exact-stack oracles and the windowed KRR wrapper stay
  // checkpoint-free.
  for (const char* name :
       {"krr", "shards", "shards_fixed", "aet", "statstack", "hotl"}) {
    const EstimatorInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_TRUE(info->caps.checkpoint) << name;
  }
  for (const char* name :
       {"lru_stack", "naive_stack", "priority_stack", "krr_windowed"}) {
    const EstimatorInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->caps.checkpoint) << name;
  }
}

TEST(EstimatorOptions, ParsesSpecsAndConvertsTypes) {
  auto parsed = EstimatorOptions::parse("k=5,rate=0.01,bytes,strategy=linear");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->get_int("k", 0), 5);
  EXPECT_DOUBLE_EQ(parsed->get_double("rate", 1.0), 0.01);
  EXPECT_TRUE(parsed->get_bool("bytes", false));  // bare flag == 1
  EXPECT_EQ(parsed->get_string("strategy", ""), "linear");
  EXPECT_EQ(parsed->get_int("absent", 9), 9);
  EXPECT_TRUE(EstimatorOptions::parse("")->empty());
  EXPECT_FALSE(EstimatorOptions::parse("=3").is_ok());
}

TEST(EstimatorOptions, MalformedValuesThrow) {
  EstimatorOptions options;
  options.set("k", "five");
  EXPECT_THROW(options.get_int("k", 0), std::invalid_argument);
  EXPECT_THROW(options.get_double("k", 0.0), std::invalid_argument);
  options.set("flag", "maybe");
  EXPECT_THROW(options.get_bool("flag", false), std::invalid_argument);
}

TEST(EstimatorOptions, MergeOverwrites) {
  EstimatorOptions base;
  base.set("k", "5");
  base.set("rate", "0.1");
  EstimatorOptions wins;
  wins.set("rate", "0.5");
  base.merge(wins);
  EXPECT_DOUBLE_EQ(base.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(base.get_int("k", 0), 5);
}

// The KRR adapter must be configured exactly like a hand-built profiler:
// the CLI's byte-identity guarantee rests on this.
TEST(EstimatorRegistry, KrrAdapterMatchesDirectProfiler) {
  const auto trace = small_zipf_trace();
  KrrProfiler direct{KrrProfilerConfig{}};
  for (const Request& r : trace) direct.access(r);
  auto est = make("krr");
  const MissRatioCurve via_registry = run(*est, trace);
  const MissRatioCurve expected = direct.mrc();
  ASSERT_EQ(via_registry.points().size(), expected.points().size());
  for (std::size_t i = 0; i < expected.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(via_registry.points()[i].size,
                     expected.points()[i].size);
    EXPECT_DOUBLE_EQ(via_registry.points()[i].miss_ratio,
                     expected.points()[i].miss_ratio);
  }
  const RunReport report = est->run_report();
  EXPECT_EQ(report.records_read, trace.size());
  EXPECT_EQ(report.stack_depth, direct.stack_depth());
}

// Sharding through the interface: shard count shapes the model, thread
// count must not, and the post-finish snapshot reports exact aggregates.
TEST(EstimatorRegistry, ShardedAdapterIsThreadCountInvariant) {
  const auto trace = small_zipf_trace();
  EstimatorOptions two_shards;
  two_shards.set("shards", "2");
  EstimatorOptions two_shards_threaded;
  two_shards_threaded.set("shards", "2");
  two_shards_threaded.set("threads", "2");
  auto inline_est = make("krr_sharded", two_shards);
  auto threaded_est = make("krr_sharded", two_shards_threaded);
  const MissRatioCurve ci = run(*inline_est, trace);
  const MissRatioCurve ct = run(*threaded_est, trace);
  ASSERT_EQ(ci.points().size(), ct.points().size());
  for (std::size_t i = 0; i < ci.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(ci.points()[i].miss_ratio, ct.points()[i].miss_ratio);
  }
  const obs::HeartbeatSnapshot si = inline_est->snapshot();
  const obs::HeartbeatSnapshot st = threaded_est->snapshot();
  EXPECT_EQ(si.records, trace.size());
  EXPECT_EQ(st.records, trace.size());
  EXPECT_EQ(si.sampled, st.sampled);
  EXPECT_EQ(si.stack_depth, st.stack_depth);
}

// AET is the one builtin that solves at caller-provided sizes: the grid
// hint must be honored, and an empty hint must still produce a curve.
TEST(EstimatorRegistry, SizeGridHintIsHonored) {
  const auto trace = small_zipf_trace();
  auto est = make("aet");
  const std::vector<double> grid = {50, 150, 250};
  const MissRatioCurve curve = run(*est, trace, grid);
  // AET anchors the curve at (0, 1) and then evaluates exactly at the
  // requested sizes — every grid size must be a breakpoint.
  ASSERT_EQ(curve.points().size(), grid.size() + 1);
  EXPECT_DOUBLE_EQ(curve.points()[0].size, 0.0);
  EXPECT_DOUBLE_EQ(curve.points()[0].miss_ratio, 1.0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve.points()[i + 1].size, grid[i]);
  }
}

}  // namespace
}  // namespace krr

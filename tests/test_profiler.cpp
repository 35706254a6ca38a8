#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "core/profiler.h"
#include "sim/sweep.h"
#include "trace/generator.h"
#include "trace/msr.h"
#include "trace/synthetic.h"
#include "trace/twitter.h"
#include "trace/ycsb.h"
#include "trace/zipf.h"

namespace krr {
namespace {

MissRatioCurve krr_predict(const std::vector<Request>& trace, KrrProfilerConfig cfg) {
  KrrProfiler profiler(cfg);
  for (const Request& r : trace) profiler.access(r);
  return profiler.mrc();
}

// ---- The paper's headline claim (§5.3): KRR predicts the K-LRU MRC. ----

struct AccuracyCase {
  std::string name;
  std::function<std::unique_ptr<TraceGenerator>()> make;
  std::uint32_t k;
  double tolerance;  // MAE bound
};

// Prints a case by name. gtest's fallback dumps the object's bytes, which
// include the std::string's heap pointer, so the printed test IDs would
// shift with every change to the test binary's memory layout.
void PrintTo(const AccuracyCase& c, std::ostream* os) { *os << c.name; }

class KrrAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(KrrAccuracy, MaeAgainstSimulatedKLruIsSmall) {
  const AccuracyCase& c = GetParam();
  auto gen = c.make();
  const auto trace = materialize(*gen, 60000);
  KrrProfilerConfig cfg;
  cfg.k_sample = c.k;
  cfg.seed = 3;
  const MissRatioCurve predicted = krr_predict(trace, cfg);
  const auto sizes = capacity_grid_objects(trace, 20);
  const MissRatioCurve actual = sweep_klru(trace, sizes, c.k, true, 7);
  EXPECT_LT(predicted.mae(actual, sizes), c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, KrrAccuracy,
    ::testing::Values(
        AccuracyCase{"zipf_k1",
                     [] { return std::make_unique<ZipfianGenerator>(5000, 0.9, 11, true); },
                     1, 0.01},
        AccuracyCase{"zipf_k4",
                     [] { return std::make_unique<ZipfianGenerator>(5000, 0.9, 11, true); },
                     4, 0.015},
        AccuracyCase{"zipf_k16",
                     [] { return std::make_unique<ZipfianGenerator>(5000, 0.9, 11, true); },
                     16, 0.02},
        AccuracyCase{"ycsb_c_k5",
                     [] { return std::make_unique<YcsbWorkloadC>(8000, 0.99, 13); }, 5,
                     0.015},
        AccuracyCase{"ycsb_e_k8",
                     [] {
                       return std::make_unique<YcsbWorkloadE>(3000, 1.5, 17,
                                                              /*max_scan=*/3000);
                     },
                     8, 0.03},
        AccuracyCase{"msr_web_k2",
                     [] {
                       return std::make_unique<MsrGenerator>(msr_profile("web"), 19,
                                                             4000, 1);
                     },
                     2, 0.02},
        AccuracyCase{"msr_usr_k8",
                     [] {
                       return std::make_unique<MsrGenerator>(msr_profile("usr"), 23,
                                                             6000, 1);
                     },
                     8, 0.02},
        AccuracyCase{"twitter_k5",
                     [] {
                       return std::make_unique<TwitterGenerator>(
                           twitter_profile("cluster34.1"), 29, 5000, 1);
                     },
                     5, 0.02},
        AccuracyCase{"uniform_k3",
                     [] { return std::make_unique<UniformGenerator>(3000, 31); }, 3,
                     0.015}),
    [](const auto& info) { return info.param.name; });

// ---- Correction ablation (§4.2): on the adversarial loop pattern the
// K' = K^1.4 correction must make the model strictly better. ----
TEST(KrrProfiler, CorrectionHelpsOnLoopPattern) {
  LoopGenerator gen(2000);
  const auto trace = materialize(gen, 60000);
  const auto sizes = capacity_grid_objects(trace, 20);
  const std::uint32_t k = 8;
  const MissRatioCurve actual = sweep_klru(trace, sizes, k, true, 5);

  KrrProfilerConfig corrected;
  corrected.k_sample = k;
  corrected.apply_correction = true;
  KrrProfilerConfig raw = corrected;
  raw.apply_correction = false;

  const double mae_corrected = krr_predict(trace, corrected).mae(actual, sizes);
  const double mae_raw = krr_predict(trace, raw).mae(actual, sizes);
  EXPECT_LT(mae_corrected, mae_raw);
  EXPECT_LT(mae_corrected, 0.05);
}

// ---- Spatial sampling (§5.3): accuracy survives R << 1. ----
TEST(KrrProfiler, SpatialSamplingKeepsMrcAccurate) {
  YcsbWorkloadC gen(30000, 0.99, 37);
  const auto trace = materialize(gen, 200000);
  const std::uint32_t k = 5;
  const auto sizes = capacity_grid_objects(trace, 20);
  const MissRatioCurve actual = sweep_klru(trace, sizes, k, true, 9);

  KrrProfilerConfig cfg;
  cfg.k_sample = k;
  cfg.sampling_rate = adaptive_sampling_rate(0.001, count_distinct(trace), 4000);
  KrrProfiler profiler(cfg);
  for (const Request& r : trace) profiler.access(r);
  // Hot keys falling in the sample can over-represent references relative
  // to the rate, so bound loosely.
  EXPECT_LT(profiler.sampled(), trace.size() / 2);
  EXPECT_LT(profiler.mrc().mae(actual, sizes), 0.03);
}

TEST(KrrProfiler, SamplingReducesStackDepthByTheRate) {
  ZipfianGenerator gen(50000, 0.5, 41);
  const auto trace = materialize(gen, 100000);
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.sampling_rate = 0.01;
  KrrProfiler profiler(cfg);
  for (const Request& r : trace) profiler.access(r);
  const double distinct = static_cast<double>(count_distinct(trace));
  EXPECT_NEAR(static_cast<double>(profiler.stack_depth()), distinct * 0.01,
              distinct * 0.01 * 0.5);
}

// ---- var-KRR (§5.4): byte-granularity MRC vs byte-capacity simulator. ----
TEST(KrrProfiler, VarKrrPredictsByteCapacityKLru) {
  MsrGenerator gen(msr_profile("src2"), 43, 3000);
  const auto trace = materialize(gen, 60000);
  const std::uint32_t k = 8;
  const auto sizes = capacity_grid_bytes(trace, 16);
  const MissRatioCurve actual = sweep_klru(trace, sizes, k, true, 11);

  KrrProfilerConfig cfg;
  cfg.k_sample = k;
  cfg.byte_granularity = true;
  EXPECT_LT(krr_predict(trace, cfg).mae(actual, sizes), 0.03);
}

TEST(KrrProfiler, UniKrrMispredictsVariableSizeWorkloadsWorse) {
  // Fig. 5.3(A): the uniform-size assumption degrades accuracy on strongly
  // variable sizes. Compare var-KRR and uni-KRR against the byte-capacity
  // ground truth (uni-KRR distances converted via mean object size).
  TwitterGenerator gen(twitter_profile("cluster26.0"), 47, 4000);
  const auto trace = materialize(gen, 60000);
  const std::uint32_t k = 8;
  const auto sizes = capacity_grid_bytes(trace, 16);
  const MissRatioCurve actual = sweep_klru(trace, sizes, k, true, 13);

  KrrProfilerConfig var_cfg;
  var_cfg.k_sample = k;
  var_cfg.byte_granularity = true;
  const double mae_var = krr_predict(trace, var_cfg).mae(actual, sizes);

  // uni-KRR: object-count curve stretched by the mean object size.
  KrrProfilerConfig uni_cfg;
  uni_cfg.k_sample = k;
  KrrProfiler uni(uni_cfg);
  for (const Request& r : trace) uni.access(r);
  const double mean_size = static_cast<double>(working_set_bytes(trace)) /
                           static_cast<double>(count_distinct(trace));
  const MissRatioCurve uni_objects = uni.mrc();
  MissRatioCurve uni_curve;
  for (const auto& p : uni_objects.points()) {
    uni_curve.add_point(p.size * mean_size, p.miss_ratio);
  }
  const double mae_uni = uni_curve.mae(actual, sizes);
  EXPECT_LT(mae_var, mae_uni);
  EXPECT_LT(mae_var, 0.04);
}

// ---- Strategy invariance: the profiler's output distribution does not
// depend on the update strategy. ----
TEST(KrrProfiler, StrategiesYieldMatchingMrcs) {
  ZipfianGenerator gen(3000, 1.0, 53);
  const auto trace = materialize(gen, 60000);
  const auto sizes = capacity_grid_objects(trace, 20);
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.strategy = UpdateStrategy::kBackward;
  const auto backward = krr_predict(trace, cfg);
  cfg.strategy = UpdateStrategy::kTopDown;
  cfg.seed = 99;
  const auto top_down = krr_predict(trace, cfg);
  EXPECT_LT(backward.mae(top_down, sizes), 0.01);
}

TEST(KrrProfiler, AbsorbSumsEachShardsAdjustedHistogram) {
  // The sharded merge: each operand's SHARDS-adj is applied against its
  // own expectation, then the histograms add; mrc() must not adjust again.
  ZipfianGenerator gen(20000, 0.9, 5, /*scrambled=*/true);
  const auto trace = materialize(gen, 60000);
  KrrProfilerConfig cfg;
  cfg.sampling_rate = 0.1;
  cfg.shard_count = 2;
  KrrProfiler a(cfg), b(cfg);
  for (const Request& r : trace) (r.key % 2 == 0 ? a : b).access(r);
  DistanceHistogram expected = a.adjusted_histogram();
  expected.merge(b.adjusted_histogram());
  a.absorb(b);
  const auto same = [](const MissRatioCurve& x, const MissRatioCurve& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x.points()[i].size, y.points()[i].size);
      EXPECT_EQ(x.points()[i].miss_ratio, y.points()[i].miss_ratio);
    }
  };
  same(a.mrc(), expected.to_mrc());
  a.scale_mass(1.5);
  expected.scale(1.5);
  same(a.mrc(), expected.to_mrc());
  std::string blob;
  EXPECT_FALSE(a.save_state(&blob).is_ok());
}

TEST(KrrProfiler, ModelKReflectsCorrectionFlag) {
  KrrProfilerConfig cfg;
  cfg.k_sample = 4.0;
  EXPECT_NEAR(KrrProfiler(cfg).model_k(), std::pow(4.0, 1.4), 1e-12);
  cfg.apply_correction = false;
  EXPECT_DOUBLE_EQ(KrrProfiler(cfg).model_k(), 4.0);
}

TEST(KrrProfiler, SpaceOverheadScalesWithStackDepth) {
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  KrrProfiler profiler(cfg);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    profiler.access(Request{key, 1, Op::kGet});
  }
  const auto bytes = profiler.space_overhead_bytes();
  EXPECT_GE(bytes, 1000u * 50u);
  EXPECT_LE(bytes, 1000u * 100u);
}

}  // namespace
}  // namespace krr

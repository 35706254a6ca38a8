// Sharded runner conformance: every registry model declaring
// spatial_sampling (krr included) runs behind the one ShardFanout
// pipeline, and the contract carries over — results depend only on
// (options, trace), never on the thread count; the merged curve tracks the
// serial model statistically; shard failures propagate (strict) or degrade
// the run (best-effort with survivor rescale); memory budgets are enforced
// per shard from the consuming thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/sharded_estimator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "trace/generator.h"
#include "trace/msr.h"
#include "trace/zipf.h"
#include "util/faultpoint.h"
#include "util/mrc.h"
#include "util/status.h"

namespace krr {
namespace {

// The spatial_sampling models the runner wraps, paired with their
// registry-level sharded adapters.
const std::string kBaseModels[] = {"krr", "shards", "shards_fixed", "aet"};

std::string sharded_name(const std::string& base) { return base + "_sharded"; }

std::vector<Request> zipf_trace(std::size_t n, std::uint64_t footprint,
                                double alpha = 0.9, std::uint64_t seed = 3) {
  ZipfianGenerator gen(footprint, alpha, seed, /*scrambled=*/true);
  return materialize(gen, n);
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

void expect_identical(const MissRatioCurve& a, const MissRatioCurve& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.points()[i].size, b.points()[i].size) << context;
    ASSERT_DOUBLE_EQ(a.points()[i].miss_ratio, b.points()[i].miss_ratio)
        << context;
  }
}

double mae_on_grid(const MissRatioCurve& a, const MissRatioCurve& b,
                   std::size_t n_sizes = 40) {
  const std::vector<double> sizes = evenly_spaced_sizes(a.max_size(), n_sizes);
  return a.mae(b, sizes);
}

class ShardedZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedZoo, SingleShardInlineIsBitIdenticalToSerialBase) {
  // shards=1, threads=1 must be the serial model: one shard sees the whole
  // stream, shard_count=1 makes every rescale a multiply by 1.0, and the
  // merge is a no-op on a single survivor.
  const auto trace = zipf_trace(40000, 3000);
  EstimatorOptions base;
  base.set("seed", "11");
  auto serial = make(GetParam(), base);
  EstimatorOptions sharded_opts = base;
  sharded_opts.set("shards", "1");
  sharded_opts.set("threads", "1");
  auto sharded = make(sharded_name(GetParam()), sharded_opts);
  const MissRatioCurve expected = run(*serial, trace);
  const MissRatioCurve got = run(*sharded, trace);
  expect_identical(expected, got, GetParam());
}

TEST_P(ShardedZoo, ResultsNeverDependOnTheThreadCount) {
  const auto trace = zipf_trace(60000, 5000);
  EstimatorOptions base;
  base.set("seed", "7");
  base.set("shards", "4");
  MissRatioCurve reference;
  for (unsigned threads : {1u, 2u, 4u}) {
    EstimatorOptions opts = base;
    opts.set("threads", std::to_string(threads));
    auto est = make(sharded_name(GetParam()), opts);
    const MissRatioCurve curve = run(*est, trace);
    if (threads == 1) {
      reference = curve;
      continue;
    }
    expect_identical(reference, curve,
                     GetParam() + " threads=" + std::to_string(threads));
  }
}

TEST_P(ShardedZoo, MergedCurveTracksSerialOnZipf) {
  const auto trace = zipf_trace(200000, 10000);
  auto serial = make(GetParam());
  const MissRatioCurve serial_curve = run(*serial, trace);
  for (std::uint32_t shards : {2u, 4u}) {
    EstimatorOptions opts;
    opts.set("shards", std::to_string(shards));
    opts.set("threads", "2");
    auto est = make(sharded_name(GetParam()), opts);
    const MissRatioCurve merged = run(*est, trace);
    EXPECT_LE(mae_on_grid(serial_curve, merged), 0.02)
        << GetParam() << " shards=" << shards;
  }
}

TEST_P(ShardedZoo, MergedCurveTracksSerialOnMsrTrace) {
  MsrGenerator gen(msr_profile("web"), 5, 12000, 1);
  const auto trace = materialize(gen, 150000);
  auto serial = make(GetParam());
  const MissRatioCurve serial_curve = run(*serial, trace);
  EstimatorOptions opts;
  opts.set("shards", "4");
  opts.set("threads", "3");
  auto est = make(sharded_name(GetParam()), opts);
  const MissRatioCurve merged = run(*est, trace);
  EXPECT_LE(mae_on_grid(serial_curve, merged), 0.02) << GetParam();
}

TEST_P(ShardedZoo, RunReportAggregatesAcrossShards) {
  const auto trace = zipf_trace(30000, 2000);
  EstimatorOptions opts;
  opts.set("shards", "3");
  opts.set("threads", "2");
  auto est = make(sharded_name(GetParam()), opts);
  run(*est, trace);
  const RunReport report = est->run_report();
  EXPECT_EQ(report.records_read, trace.size());
  EXPECT_EQ(report.shards_failed, 0u);
  EXPECT_GT(report.configured_sampling_rate, 0.0);
  const obs::HeartbeatSnapshot snap = est->snapshot();
  EXPECT_EQ(snap.records, trace.size());
}

TEST_P(ShardedZoo, CheckpointRoundTripResumesBitIdentical) {
  // Composite quiesce-then-snapshot checkpointing: a mid-stream save from
  // the producer thread, restored into a fresh estimator that consumes the
  // rest of the stream, must land on exactly the uninterrupted curve.
  const auto trace = zipf_trace(60000, 5000);
  const std::size_t cut = 36000;
  EstimatorOptions opts;
  opts.set("seed", "11");
  opts.set("shards", "3");
  opts.set("threads", "2");
  auto uninterrupted = make(sharded_name(GetParam()), opts);
  const MissRatioCurve expected = run(*uninterrupted, trace);
  auto first = make(sharded_name(GetParam()), opts);
  for (std::size_t i = 0; i < cut; ++i) first->access(trace[i]);
  std::string blob;
  ASSERT_TRUE(first->save_state(&blob).is_ok()) << GetParam();
  auto resumed = make(sharded_name(GetParam()), opts);
  ASSERT_TRUE(resumed->load_state(blob).is_ok()) << GetParam();
  for (std::size_t i = cut; i < trace.size(); ++i) resumed->access(trace[i]);
  resumed->finish();
  EXPECT_EQ(resumed->processed(), trace.size()) << GetParam();
  expect_identical(expected, resumed->mrc(), GetParam());
}

TEST_P(ShardedZoo, CheckpointRefusedAfterMerge) {
  // mrc() folds the shards together in place; a snapshot taken afterwards
  // would capture the merged aggregate as if it were shard state.
  EstimatorOptions opts;
  opts.set("shards", "2");
  auto est = make(sharded_name(GetParam()), opts);
  const auto trace = zipf_trace(5000, 500);
  run(*est, trace);
  std::string blob;
  const Status saved = est->save_state(&blob);
  ASSERT_FALSE(saved.is_ok()) << GetParam();
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(SpatialSamplingModels, ShardedZoo,
                         ::testing::ValuesIn(kBaseModels),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Replay recovery: a shard worker killed mid-run by a deterministic fault
// plan is resurrected from its mini-checkpoint + journal tail, and the
// merged curve is exactly the unfaulted run's — across the zoo and across
// thread counts. Fault plans are process-global, so every test arms after
// its clean baseline run and disarms on exit.
// ---------------------------------------------------------------------------

const std::string kRecoveryModels[] = {"krr", "shards", "aet"};

class RecoveryZoo : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { faults::disarm(); }
};

TEST_P(RecoveryZoo, ReplayResurrectionIsBitIdenticalToUnfaulted) {
  const auto trace = zipf_trace(60000, 5000);
  for (unsigned threads : {1u, 4u}) {
    EstimatorOptions opts;
    opts.set("seed", "11");
    opts.set("shards", "4");
    opts.set("threads", std::to_string(threads));
    faults::disarm();
    auto clean = make(sharded_name(GetParam()), opts);
    const MissRatioCurve expected = run(*clean, trace);

    EstimatorOptions replay_opts = opts;
    replay_opts.set("failure_mode", "replay");
    ASSERT_TRUE(faults::arm("sharded.worker#2@hit=4000").is_ok());
    auto faulted = make(sharded_name(GetParam()), replay_opts);
    const MissRatioCurve got = run(*faulted, trace);
    faults::disarm();

    const std::string context =
        GetParam() + " threads=" + std::to_string(threads);
    expect_identical(expected, got, context);
    const RunReport report = faulted->run_report();
    EXPECT_EQ(report.shards_resurrected, 1u) << context;
    EXPECT_EQ(report.shards_failed, 0u) << context;
    EXPECT_GT(report.replayed_records, 0u) << context;
    EXPECT_EQ(report.recovery, "replayed") << context;
    EXPECT_EQ(report.dropped_records, 0u) << context;
  }
}

TEST_P(RecoveryZoo, ExceededJournalWindowFallsBackToSurvivorRescale) {
  // An 8-record journal with snapshots effectively disabled cannot cover
  // the 4000 records pending at the crash, so replay must give up, drop the
  // shard, and rescale the survivors — a degraded but still-sound curve.
  const auto trace = zipf_trace(100000, 8000);
  EstimatorOptions opts;
  opts.set("seed", "11");
  opts.set("shards", "4");
  opts.set("threads", "2");
  faults::disarm();
  auto clean = make(sharded_name(GetParam()), opts);
  const MissRatioCurve expected = run(*clean, trace);

  EstimatorOptions replay_opts = opts;
  replay_opts.set("failure_mode", "replay");
  replay_opts.set("journal_records", "8");
  replay_opts.set("snapshot_stride", "1000000");
  ASSERT_TRUE(faults::arm("sharded.worker#2@hit=4000").is_ok());
  auto faulted = make(sharded_name(GetParam()), replay_opts);
  const MissRatioCurve got = run(*faulted, trace);
  faults::disarm();

  const RunReport report = faulted->run_report();
  EXPECT_EQ(report.shards_resurrected, 0u) << GetParam();
  EXPECT_EQ(report.shards_failed, 1u) << GetParam();
  EXPECT_EQ(report.recovery, "rescaled") << GetParam();
  EXPECT_GT(report.dropped_records, 0u) << GetParam();
  EXPECT_LE(mae_on_grid(expected, got), 0.02) << GetParam();
}

TEST_P(RecoveryZoo, RepeatedCrashesOnOneShardAllReplay) {
  // every=K keeps killing the same worker; each crash replays from the
  // latest snapshot and the result still matches the unfaulted run.
  const auto trace = zipf_trace(40000, 3000);
  EstimatorOptions opts;
  opts.set("seed", "3");
  opts.set("shards", "2");
  opts.set("threads", "2");
  faults::disarm();
  auto clean = make(sharded_name(GetParam()), opts);
  const MissRatioCurve expected = run(*clean, trace);

  EstimatorOptions replay_opts = opts;
  replay_opts.set("failure_mode", "replay");
  ASSERT_TRUE(faults::arm("sharded.worker#0@every=5000").is_ok());
  auto faulted = make(sharded_name(GetParam()), replay_opts);
  const MissRatioCurve got = run(*faulted, trace);
  faults::disarm();

  expect_identical(expected, got, GetParam());
  const RunReport report = faulted->run_report();
  EXPECT_GE(report.shards_resurrected, 2u) << GetParam();
  EXPECT_EQ(report.recovery, "replayed") << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ReplayModels, RecoveryZoo,
                         ::testing::ValuesIn(kRecoveryModels),
                         [](const auto& info) { return info.param; });

TEST(ShardRecovery, QueuePushFaultDropsRecordUnderRecoveringModes) {
  const auto trace = zipf_trace(20000, 2000);
  for (const char* mode : {"replay", "best_effort"}) {
    EstimatorOptions opts;
    opts.set("shards", "2");
    opts.set("threads", "2");
    opts.set("failure_mode", mode);
    ASSERT_TRUE(faults::arm("sharded.queue_push@hit=100").is_ok());
    auto est = make("shards_sharded", opts);
    for (const Request& r : trace) est->access(r);
    EXPECT_NO_THROW(est->finish()) << mode;
    faults::disarm();
    const RunReport report = est->run_report();
    EXPECT_EQ(report.dropped_records, 1u) << mode;
    EXPECT_EQ(report.shards_failed, 0u) << mode;
  }
}

TEST(ShardRecovery, QueuePushFaultIsFatalUnderStrict) {
  const auto trace = zipf_trace(20000, 2000);
  EstimatorOptions opts;
  opts.set("shards", "2");
  opts.set("threads", "2");
  ASSERT_TRUE(faults::arm("sharded.queue_push@hit=100").is_ok());
  auto est = make("shards_sharded", opts);
  EXPECT_THROW(
      {
        for (const Request& r : trace) est->access(r);
        est->finish();
      },
      faults::FaultInjectedError);
  // The producer threw before finish(), so the workers are still polling
  // the fault plan; join them before disarming it.
  est.reset();
  faults::disarm();
}

TEST(ShardRecovery, ReplayJournalIsChargedAgainstTheMemoryBudget) {
  // The per-shard stack budget shrinks by the journal footprint, so a
  // replay-mode run degrades at least as eagerly as a strict run with the
  // same global ceiling.
  const auto trace = zipf_trace(60000, 20000, 0.7);
  EstimatorOptions opts;
  opts.set("max_stack_bytes", "65536");
  opts.set("shards", "2");
  opts.set("threads", "2");
  opts.set("rate", "1.0");
  opts.set("failure_mode", "replay");
  opts.set("journal_records", "1024");  // 16 KiB of the 32 KiB shard share
  auto est = make("shards_sharded", opts);
  run(*est, trace);
  const RunReport report = est->run_report();
  EXPECT_GT(report.degradation_events, 0u);
}

TEST(ShardedEstimator, RejectsZeroShardsOrThreads) {
  for (const char* key : {"shards", "threads"}) {
    EstimatorOptions opts;
    opts.set(key, "0");
    auto est = EstimatorRegistry::instance().create("shards_sharded", opts);
    ASSERT_FALSE(est.is_ok()) << key;
    EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument) << key;
  }
}

TEST(ShardedEstimator, ShardUnawareBaseModelIsRejectedAtConstruction) {
  // The runner injects shard_count into every per-shard factory call, and
  // models that cannot rescale for sharding don't declare that key — so a
  // shard-unaware base fails fast at construction instead of producing a
  // silently unscaled merge.
  ShardedEstimator::Config cfg;
  cfg.base_model = "lru_stack";
  cfg.shards = 2;
  cfg.fanout.threads = 1;
  EXPECT_THROW(ShardedEstimator est(cfg), std::invalid_argument);
}

TEST(ShardedEstimator, StrictWorkerExceptionPropagatesFromFinish) {
  const auto trace = zipf_trace(80000, 5000);
  ShardedEstimator::Config cfg;
  cfg.base_model = "shards";
  cfg.shards = 4;
  cfg.fanout.threads = 2;
  cfg.fanout.queue_capacity = 256;  // small ring: the producer backs up
  std::atomic<std::uint64_t> seen{0};
  cfg.fanout.before_access_hook = [&seen](std::uint32_t shard,
                                          const Request&) {
    if (shard == 1 && seen.fetch_add(1) == 100) {
      throw std::runtime_error("shard worker fault injection");
    }
  };
  ShardedEstimator est(cfg);
  for (const Request& r : trace) est.access(r);
  EXPECT_THROW(est.finish(), std::runtime_error);
  // Idempotent after the rethrow; the object destructs without deadlock.
  est.finish();
}

TEST(ShardedEstimator, BestEffortDropsFailedShardAndRescalesSurvivors) {
  const auto trace = zipf_trace(80000, 5000);
  ShardedEstimator::Config cfg;
  cfg.base_model = "shards";
  cfg.shards = 4;
  cfg.fanout.threads = 2;
  cfg.fanout.queue_capacity = 256;
  cfg.fanout.failure_mode = ShardFailureMode::kBestEffort;
  std::atomic<std::uint64_t> seen{0};
  cfg.fanout.before_access_hook = [&seen](std::uint32_t shard,
                                          const Request&) {
    if (shard == 1 && seen.fetch_add(1) == 100) {
      throw std::runtime_error("shard worker fault injection");
    }
  };
  ShardedEstimator est(cfg);
  for (const Request& r : trace) est.access(r);
  EXPECT_NO_THROW(est.finish());
  EXPECT_EQ(est.shards_failed(), 1u);
  EXPECT_GT(est.dropped_records(), 0u);
  EXPECT_EQ(est.processed(), trace.size());
  const MissRatioCurve curve = est.mrc();
  ASSERT_FALSE(curve.points().empty());
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
  EXPECT_EQ(est.run_report().shards_failed, 1u);
  obs::MetricsRegistry registry;
  est.export_gauges(registry);
  EXPECT_EQ(registry.gauge("sharded.shard1.failed").value(), 1.0);
  EXPECT_EQ(registry.gauge("sharded.shard0.failed").value(), 0.0);
}

TEST(ShardedEstimator, ResumeRejectsShardCountMismatch) {
  EstimatorOptions opts;
  opts.set("shards", "2");
  auto est = make("shards_sharded", opts);
  const auto trace = zipf_trace(2000, 200);
  for (const Request& r : trace) est->access(r);
  std::string blob;
  ASSERT_TRUE(est->save_state(&blob).is_ok());
  EstimatorOptions other;
  other.set("shards", "3");
  auto mismatched = make("shards_sharded", other);
  const Status loaded = mismatched->load_state(blob);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEstimator, ResumeRequiresFreshEstimator) {
  EstimatorOptions opts;
  opts.set("shards", "2");
  auto est = make("shards_sharded", opts);
  const auto trace = zipf_trace(2000, 200);
  for (const Request& r : trace) est->access(r);
  std::string blob;
  ASSERT_TRUE(est->save_state(&blob).is_ok());
  // Loading over an estimator that has already consumed records would
  // silently merge two histories; it must refuse instead.
  const Status loaded = est->load_state(blob);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEstimator, BestEffortResumePreservesDeadShards) {
  // A shard that died before the snapshot stays dead after it: the resumed
  // run keeps bit-bucketing its records and the merge still applies the
  // survivor rescale.
  const auto trace = zipf_trace(80000, 5000);
  const std::size_t cut = 60000;
  ShardedEstimator::Config cfg;
  cfg.base_model = "shards";
  cfg.shards = 4;
  cfg.fanout.threads = 2;
  cfg.fanout.queue_capacity = 256;
  cfg.fanout.failure_mode = ShardFailureMode::kBestEffort;
  std::atomic<std::uint64_t> seen{0};
  cfg.fanout.before_access_hook = [&seen](std::uint32_t shard,
                                          const Request&) {
    if (shard == 1 && seen.fetch_add(1) == 100) {
      throw std::runtime_error("shard worker fault injection");
    }
  };
  ShardedEstimator first(cfg);
  for (std::size_t i = 0; i < cut; ++i) first.access(trace[i]);
  std::string blob;
  ASSERT_TRUE(first.save_state(&blob).is_ok());
  EXPECT_EQ(first.shards_failed(), 1u);
  ShardedEstimator::Config resume_cfg = cfg;
  resume_cfg.fanout.before_access_hook = nullptr;  // resumed run: no fault
  ShardedEstimator resumed(resume_cfg);
  ASSERT_TRUE(resumed.load_state(blob).is_ok());
  for (std::size_t i = cut; i < trace.size(); ++i) resumed.access(trace[i]);
  EXPECT_NO_THROW(resumed.finish());
  EXPECT_EQ(resumed.shards_failed(), 1u);
  EXPECT_EQ(resumed.processed(), trace.size());
  EXPECT_GT(resumed.dropped_records(), 0u);
  const MissRatioCurve curve = resumed.mrc();
  ASSERT_FALSE(curve.points().empty());
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
}

TEST(ShardedEstimator, BestEffortWithEveryShardDeadIsARealFailure) {
  ShardedEstimator::Config cfg;
  cfg.base_model = "shards";
  cfg.shards = 2;
  cfg.fanout.threads = 1;
  cfg.fanout.failure_mode = ShardFailureMode::kBestEffort;
  cfg.fanout.before_access_hook = [](std::uint32_t, const Request&) {
    throw std::runtime_error("injected");
  };
  ShardedEstimator est(cfg);
  const auto trace = zipf_trace(1000, 100);
  for (const Request& r : trace) est.access(r);
  EXPECT_EQ(est.shards_failed(), 2u);
  EXPECT_THROW(est.finish(), StatusError);
}

TEST(ShardedEstimator, MemoryBudgetIsEnforcedPerShard) {
  // The global budget is split across shards and enforced from the
  // consuming thread; degradations show up in the aggregated report.
  const auto trace = zipf_trace(60000, 20000, 0.7);
  EstimatorOptions opts;
  opts.set("max_stack_bytes", "32768");
  opts.set("shards", "2");
  opts.set("threads", "2");
  opts.set("rate", "1.0");  // start unsampled so the budget has to bite
  auto est = make("shards_sharded", opts);
  run(*est, trace);
  const RunReport report = est->run_report();
  EXPECT_GT(report.degradation_events, 0u);
  EXPECT_LT(report.final_sampling_rate, report.configured_sampling_rate);
}

TEST(ShardedEstimator, ThreadedAccessorsRequireFinish) {
  EstimatorOptions opts;
  opts.set("shards", "2");
  opts.set("threads", "2");
  auto est = make("shards_sharded", opts);
  EXPECT_THROW(est->mrc(), std::logic_error);
  EXPECT_THROW(est->run_report(), std::logic_error);
  est->finish();
  EXPECT_NO_THROW(est->mrc());
}

TEST(ShardedEstimator, ShardRoutingIsAPureDisjointPartition) {
  EstimatorOptions opts;
  opts.set("shards", "7");
  ShardedEstimator::Config cfg;
  cfg.base_model = "shards";
  cfg.shards = 7;
  ShardedEstimator est(cfg);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::uint32_t s = est.shard_of(key);
    ASSERT_LT(s, 7u);
    ASSERT_EQ(s, est.shard_of(key));  // pure function of the key
  }
}

// ---------------------------------------------------------------------------
// krr_sharded: the paper's model behind the same runner. The suite keeps
// the test IDs it had when krr ran on a dedicated sharded profiler, so the
// history of each case stays traceable; every case now drives the generic
// ShardedEstimator with base model "krr".
// ---------------------------------------------------------------------------

ShardedEstimator::Config krr_config(std::uint32_t shards, unsigned threads) {
  ShardedEstimator::Config cfg;
  cfg.base_model = "krr";
  cfg.base_options.set("k", "5");
  cfg.shards = shards;
  cfg.fanout.threads = threads;
  return cfg;
}

EstimatorOptions krr_options(std::uint32_t shards, unsigned threads) {
  EstimatorOptions opts;
  opts.set("k", "5");
  opts.set("shards", std::to_string(shards));
  opts.set("threads", std::to_string(threads));
  return opts;
}

MissRatioCurve serial_krr(const std::vector<Request>& trace,
                          EstimatorOptions opts) {
  opts.set("k", "5");
  auto est = make("krr", opts);
  return run(*est, trace);
}

// Fails shard 1 on its 101st record, from inside the shard's worker.
void inject_shard1_fault(ShardFanout::Config& fanout,
                         std::atomic<std::uint64_t>& seen) {
  fanout.before_access_hook = [&seen](std::uint32_t shard, const Request&) {
    if (shard == 1 && seen.fetch_add(1) == 100) {
      throw std::runtime_error("shard worker fault injection");
    }
  };
}

TEST(ShardedKrrProfiler, ShardRoutingIsAPureDisjointPartition) {
  ShardedEstimator est(krr_config(7, 1));
  std::vector<std::uint64_t> per_shard(7, 0);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::uint32_t s = est.shard_of(key);
    ASSERT_LT(s, 7u);
    ASSERT_EQ(s, est.shard_of(key));  // pure function of the key
    ++per_shard[s];
  }
  // Every shard owns part of the keyspace.
  for (std::uint32_t s = 0; s < 7; ++s) EXPECT_GT(per_shard[s], 0u) << s;
}

TEST(ShardedKrrProfiler, SingleShardInlineIsBitIdenticalToSerial) {
  const auto trace = zipf_trace(50000, 4000);
  EstimatorOptions base;
  base.set("rate", "0.5");
  base.set("seed", "11");
  const MissRatioCurve serial = serial_krr(trace, base);
  EstimatorOptions opts = krr_options(1, 1);
  opts.set("rate", "0.5");
  opts.set("seed", "11");
  auto sharded = make("krr_sharded", opts);
  expect_identical(serial, run(*sharded, trace), "S=1 T=1");
}

TEST(ShardedKrrProfiler, DeterministicUnderFixedSeedAndShardCount) {
  const auto trace = zipf_trace(60000, 5000);
  EstimatorOptions opts = krr_options(4, 1);
  opts.set("seed", "7");
  auto first = make("krr_sharded", opts);
  const MissRatioCurve reference = run(*first, trace);
  // Same shard count, any thread count (including re-runs): identical MRC.
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    opts.set("threads", std::to_string(threads));
    auto est = make("krr_sharded", opts);
    expect_identical(reference, run(*est, trace),
                     "threads=" + std::to_string(threads));
  }
}

TEST(ShardedKrrProfiler, MergedMrcMatchesSerialOnZipf) {
  const auto trace = zipf_trace(200000, 10000);
  const MissRatioCurve serial = serial_krr(trace, {});
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    auto est = make("krr_sharded", krr_options(shards, 2));
    EXPECT_LE(mae_on_grid(serial, run(*est, trace)), 0.01)
        << "shards=" << shards;
  }
}

TEST(ShardedKrrProfiler, MergedMrcMatchesSerialOnMsrTrace) {
  MsrGenerator gen(msr_profile("web"), 5, 12000, 1);
  const auto trace = materialize(gen, 150000);
  const MissRatioCurve serial = serial_krr(trace, {});
  auto est = make("krr_sharded", krr_options(4, 3));
  EXPECT_LE(mae_on_grid(serial, run(*est, trace)), 0.01);
}

TEST(ShardedKrrProfiler, MergedMrcMatchesSerialUnderSpatialSampling) {
  // Sampling + sharding compose: each shard applies the SHARDS-adj against
  // its own expectation before the merge, and the merged curve still
  // tracks the serial sampled run.
  const auto trace = zipf_trace(200000, 20000);
  EstimatorOptions rate;
  rate.set("rate", "0.1");
  const MissRatioCurve serial = serial_krr(trace, rate);
  EstimatorOptions opts = krr_options(4, 2);
  opts.set("rate", "0.1");
  auto est = make("krr_sharded", opts);
  EXPECT_LE(mae_on_grid(serial, run(*est, trace)), 0.02);
}

TEST(ShardedKrrProfiler, StackDepthSumsToDistinctKeysAtFullRate) {
  const auto trace = zipf_trace(40000, 3000);
  auto est = make("krr_sharded", krr_options(8, 2));
  run(*est, trace);
  // Disjoint shards at rate 1.0 together track every distinct key once.
  EXPECT_EQ(est->run_report().stack_depth, count_distinct(trace));
  const obs::HeartbeatSnapshot snap = est->snapshot();
  EXPECT_EQ(snap.stack_depth, count_distinct(trace));
  EXPECT_EQ(snap.sampled, trace.size());
  EXPECT_EQ(est->processed(), trace.size());
}

TEST(ShardedKrrProfiler, WorkerExceptionPropagatesFromFinish) {
  const auto trace = zipf_trace(80000, 5000);
  ShardedEstimator::Config cfg = krr_config(4, 2);
  cfg.fanout.queue_capacity = 256;  // small ring: the producer backs up
  std::atomic<std::uint64_t> seen{0};
  inject_shard1_fault(cfg.fanout, seen);
  ShardedEstimator est(cfg);
  // The producer must not hang even though shard 1's consumer dies with
  // its queue full; poisoned-run records are dropped.
  for (const Request& r : trace) est.access(r);
  EXPECT_THROW(est.finish(), std::runtime_error);
  // Clean shutdown: a second finish() no longer throws and the estimator
  // destructs without deadlock.
  est.finish();
}

TEST(ShardedKrrProfiler, WorkerExceptionInInlineModePropagatesImmediately) {
  ShardedEstimator::Config cfg = krr_config(2, 1);
  cfg.fanout.before_access_hook = [](std::uint32_t, const Request&) {
    throw std::runtime_error("inline fault");
  };
  ShardedEstimator est(cfg);
  EXPECT_THROW(est.access(Request{1, 1, Op::kGet}), std::runtime_error);
}

TEST(ShardedKrrProfiler, BestEffortDropsFailedShardAndKeepsRunAlive) {
  const auto trace = zipf_trace(80000, 5000);
  ShardedEstimator::Config cfg = krr_config(4, 2);
  cfg.fanout.queue_capacity = 256;
  cfg.fanout.failure_mode = ShardFailureMode::kBestEffort;
  std::atomic<std::uint64_t> seen{0};
  inject_shard1_fault(cfg.fanout, seen);
  ShardedEstimator est(cfg);
  for (const Request& r : trace) est.access(r);
  // The run survives: finish() joins cleanly instead of rethrowing.
  EXPECT_NO_THROW(est.finish());
  EXPECT_EQ(est.shards_failed(), 1u);
  EXPECT_GT(est.dropped_records(), 0u);
  EXPECT_EQ(est.processed(), trace.size());
  EXPECT_FALSE(est.mrc().points().empty());
  EXPECT_EQ(est.run_report().shards_failed, 1u);
  obs::MetricsRegistry registry;
  est.export_gauges(registry);
  EXPECT_EQ(registry.gauge("sharded.shard1.failed").value(), 1.0);
  EXPECT_EQ(registry.gauge("sharded.shard0.failed").value(), 0.0);
}

TEST(ShardedKrrProfiler, BestEffortRescaledCurveTracksTheFullRun) {
  // Each shard is an unbiased 1/S spatial sample, so dropping one and
  // rescaling the survivors by S/(S-1) must land near the no-failure curve.
  const auto trace = zipf_trace(120000, 8000);
  ShardedEstimator::Config cfg = krr_config(6, 1);  // inline: fixed fault point
  ShardedEstimator healthy(cfg);
  const MissRatioCurve full = run(healthy, trace);
  cfg.fanout.failure_mode = ShardFailureMode::kBestEffort;
  cfg.fanout.before_access_hook = [](std::uint32_t shard, const Request&) {
    if (shard == 2) throw std::runtime_error("injected");
  };
  ShardedEstimator degraded(cfg);
  const MissRatioCurve rescaled = run(degraded, trace);
  EXPECT_EQ(degraded.shards_failed(), 1u);
  // Extrapolated total mass stays close: the histogram was rescaled by 6/5.
  EXPECT_NEAR(rescaled.max_size() / full.max_size(), 1.0, 0.15);
  EXPECT_LT(mae_on_grid(full, rescaled), 0.05);
}

TEST(ShardedKrrProfiler, BestEffortWithEveryShardDeadIsARealFailure) {
  ShardedEstimator::Config cfg = krr_config(2, 1);
  cfg.fanout.failure_mode = ShardFailureMode::kBestEffort;
  cfg.fanout.before_access_hook = [](std::uint32_t, const Request&) {
    throw std::runtime_error("injected");
  };
  ShardedEstimator est(cfg);
  const auto trace = zipf_trace(1000, 100);
  for (const Request& r : trace) est.access(r);
  EXPECT_EQ(est.shards_failed(), 2u);
  // No survivor to extrapolate from: this is not a recoverable run.
  EXPECT_THROW(est.finish(), StatusError);
}

TEST(ShardedKrrProfiler, StrictModeIsTheDefault) {
  EXPECT_EQ(krr_config(2, 1).fanout.failure_mode, ShardFailureMode::kStrict);
}

TEST(ShardedKrrProfiler, MemoryCeilingDegradesPerShard) {
  const auto trace = zipf_trace(60000, 20000, 0.7);
  ShardedEstimator::Config cfg = krr_config(4, 2);
  cfg.max_stack_bytes = 64 << 10;  // global ceiling, split across shards
  ShardedEstimator est(cfg);
  for (const Request& r : trace) est.access(r);
  est.finish();
  // Every shard degraded against its own slice of the ceiling and ends
  // within it.
  std::uint64_t events = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const obs::HeartbeatSnapshot snap = est.shard(s).snapshot();
    EXPECT_GT(snap.degradation_events, 0u) << "shard " << s;
    EXPECT_LT(snap.sampling_rate, 1.0) << "shard " << s;
    EXPECT_LE(est.shard(s).space_overhead_bytes(), (64u << 10) / 4) << s;
    events += snap.degradation_events;
  }
  const RunReport report = est.run_report();
  EXPECT_LT(report.final_sampling_rate, report.configured_sampling_rate);
  EXPECT_EQ(report.degradation_events, events);
}

TEST(ShardedKrrProfiler, MemoryBudgetIsSplitOnceAcrossShards) {
  // Serial krr fits this trace's ~12k distinct keys (~56 B each) in 1 MiB.
  // Four shards hold a quarter of the keys each against a quarter of the
  // budget, so they fit too — a budget divided by S twice would not.
  const auto trace = zipf_trace(200000, 20000);
  EstimatorOptions opts;
  opts.set("max_stack_bytes", "1048576");
  auto serial = make("krr", opts);
  run(*serial, trace);
  ASSERT_EQ(serial->run_report().degradation_events, 0u);
  opts.set("shards", "4");
  opts.set("threads", "1");
  auto sharded = make("krr_sharded", opts);
  run(*sharded, trace);
  const RunReport report = sharded->run_report();
  EXPECT_EQ(report.degradation_events, 0u);
  EXPECT_EQ(report.final_sampling_rate, report.configured_sampling_rate);
  EXPECT_EQ(report.stack_depth, count_distinct(trace));
}

TEST(ShardedKrrProfiler, RunReportAndSnapshotAggregate) {
  const auto trace = zipf_trace(30000, 2000);
  ShardedEstimator est(krr_config(3, 2));
  for (const Request& r : trace) est.access(r);
  est.finish();
  std::uint64_t depth = 0, sampled = 0, bytes = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const obs::HeartbeatSnapshot shard = est.shard(s).snapshot();
    depth += shard.stack_depth;
    sampled += shard.sampled;
    bytes += shard.resident_bytes;
  }
  const RunReport report = est.run_report();
  EXPECT_EQ(report.records_read, trace.size());
  EXPECT_EQ(report.stack_depth, depth);
  EXPECT_EQ(report.space_overhead_bytes, bytes);
  const obs::HeartbeatSnapshot snap = est.snapshot();
  EXPECT_EQ(snap.records, trace.size());
  EXPECT_EQ(snap.sampled, sampled);
  EXPECT_EQ(snap.stack_depth, depth);
}

TEST(ShardedKrrProfiler, ThreadedAccessorsRequireFinish) {
  ShardedEstimator est(krr_config(2, 2));
  EXPECT_THROW(est.mrc(), std::logic_error);
  EXPECT_THROW(est.run_report(), std::logic_error);
  EXPECT_THROW(est.shard(0), std::logic_error);
  est.finish();
  EXPECT_NO_THROW(est.mrc());
}

TEST(ShardedKrrProfiler, ExportsPerShardGauges) {
  const auto trace = zipf_trace(20000, 1000);
  auto est = make("krr_sharded", krr_options(2, 1));
  run(*est, trace);
  obs::MetricsRegistry registry;
  est->export_gauges(registry);
  const double d0 = registry.gauge("sharded.shard0.stack_depth").value();
  const double d1 = registry.gauge("sharded.shard1.stack_depth").value();
  EXPECT_EQ(static_cast<std::uint64_t>(d0 + d1),
            est->run_report().stack_depth);
}

// ---------------------------------------------------------------------------
// Filter before fan-out (DESIGN.md §12): at R < 1 the producer queues only
// the records some shard can sample and hands each shard the count of the
// rest with its next entry, or in a skip-only entry at quiesce()/finish().
// ---------------------------------------------------------------------------

void expect_same_bytes(const MissRatioCurve& expected,
                       const MissRatioCurve& got, const std::string& context) {
  ASSERT_EQ(expected.points().size(), got.points().size()) << context;
  EXPECT_EQ(std::memcmp(expected.points().data(), got.points().data(),
                        expected.points().size() *
                            sizeof(MissRatioCurve::Point)),
            0)
      << context;
}

// Runs krr_sharded (S=4, T=2, R=0.01) over `trace`, checkpointing after
// `cut` records and finishing on a freshly loaded instance. `fault_plan`,
// when set, is armed for the resumed half only.
MissRatioCurve checkpointed_low_rate_run(const std::vector<Request>& trace,
                                         std::size_t cut,
                                         const EstimatorOptions& opts,
                                         const char* fault_plan,
                                         RunReport* report) {
  std::string blob;
  {
    auto first = make("krr_sharded", opts);
    for (std::size_t i = 0; i < cut; ++i) first->access(trace[i]);
    EXPECT_TRUE(first->save_state(&blob).is_ok());
  }
  auto resumed = make("krr_sharded", opts);
  EXPECT_TRUE(resumed->load_state(blob).is_ok());
  if (fault_plan != nullptr) {
    EXPECT_TRUE(faults::arm(fault_plan).is_ok());
  }
  for (std::size_t i = cut; i < trace.size(); ++i) resumed->access(trace[i]);
  resumed->finish();
  faults::disarm();
  *report = resumed->run_report();
  return resumed->mrc();
}

EstimatorOptions low_rate_options() {
  EstimatorOptions opts = krr_options(4, 2);
  opts.set("rate", "0.01");
  return opts;
}

TEST(ShardedKrrProfiler, LowRateMidRunCheckpointResumesBitIdentically) {
  // The checkpoint lands between gated records: unless quiesce() flushes
  // the producer's pending rejected counts, the saved shards under-count
  // their references and the resumed SHARDS-adj correction drifts.
  const auto trace = zipf_trace(2'000'000, 200'000, 0.7);
  auto full = make("krr_sharded", low_rate_options());
  const MissRatioCurve expected = run(*full, trace);
  RunReport report;
  const MissRatioCurve got = checkpointed_low_rate_run(
      trace, 700'001, low_rate_options(), nullptr, &report);
  expect_same_bytes(expected, got, "cut at 700001");
  EXPECT_EQ(report.records_read, trace.size());
}

TEST(ShardedKrrProfiler, LowRateReplayAfterResumeIsBitIdentical) {
  // A worker crash soon after the resume, before the shard's first
  // mini-checkpoint of the new run: the replay must rebuild from the
  // resumed state, then re-apply the journal's record and skip entries.
  const auto trace = zipf_trace(2'000'000, 200'000, 0.7);
  auto full = make("krr_sharded", low_rate_options());
  const MissRatioCurve expected = run(*full, trace);
  EstimatorOptions opts = low_rate_options();
  opts.set("failure_mode", "replay");
  RunReport report;
  const MissRatioCurve got = checkpointed_low_rate_run(
      trace, 700'001, opts, "sharded.worker#1@hit=50", &report);
  expect_same_bytes(expected, got, "replay after resume");
  EXPECT_EQ(report.shards_resurrected, 1u);
  EXPECT_EQ(report.shards_failed, 0u);
}

TEST(ShardedKrrProfiler, GateQueuesOnlySampledRecords) {
  // Inline (threads=1) and threaded fan-outs. The producer publishes its
  // counts at a gauge refresh and at finish, each time by their growth
  // since the last publish: a mid-run refresh, and the refresh a CLI makes
  // after finish, leave every total exact.
  const auto trace = zipf_trace(200000, 20000);
  const std::size_t half = trace.size() / 2;
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EstimatorOptions opts = krr_options(4, threads);
    opts.set("rate", "0.01");
    auto est = make("krr_sharded", opts);
    obs::MetricsRegistry registry;
    obs::PipelineMetrics metrics(registry);
    est->attach_metrics(&metrics);
    for (std::size_t i = 0; i < half; ++i) est->access(trace[i]);
    est->refresh_metrics_gauges();
    EXPECT_EQ(registry.counter("profiler.accesses").value(), half);
    EXPECT_GT(registry.counter("sharded.enqueued").value(), 0u);
    for (std::size_t i = half; i < trace.size(); ++i) est->access(trace[i]);
    est->finish();
    est->refresh_metrics_gauges();
    const obs::HeartbeatSnapshot totals = est->snapshot();
    EXPECT_EQ(totals.records, trace.size());
    EXPECT_GT(totals.sampled, 0u);
    EXPECT_EQ(registry.counter("sharded.enqueued").value(), totals.sampled);
    EXPECT_EQ(registry.counter("filter.passed").value(), totals.sampled);
    EXPECT_EQ(registry.counter("profiler.accesses").value(), trace.size());
    EXPECT_EQ(registry.counter("filter.dropped").value(),
              trace.size() - totals.sampled);
  }
}

TEST(ShardFanout, QueueStallSpansAreStrideGated) {
  // A 2-entry ring behind a slow worker stalls the producer on most pushes.
  // One span per stall would overflow the producer's small trace ring and
  // push out the events a trace validation looks for.
  obs::Tracer tracer(/*ring_capacity=*/256);
  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  ShardedEstimator::Config cfg = krr_config(2, 2);
  cfg.fanout.queue_capacity = 2;
  cfg.fanout.before_access_hook = [](std::uint32_t, const Request&) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  };
  ShardedEstimator est(cfg);
  est.attach_metrics(&metrics);
  est.attach_tracer(&tracer);
  run(est, zipf_trace(3000, 500));
  const std::uint64_t stalls =
      registry.counter("sharded.producer_stalls").value();
  std::uint64_t stall_spans = 0;
  const obs::Json root = tracer.to_json();
  const obs::Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (std::size_t i = 0; i < events->size(); ++i) {
    if (events->at(i).find("name")->as_string() == "sharded.queue_stall") {
      ++stall_spans;
    }
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_GT(stall_spans, 0u);
  EXPECT_LT(stall_spans, stalls);
}

}  // namespace
}  // namespace krr

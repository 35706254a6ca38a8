// Run-lifecycle governance suite: the MrcEstimator governance hooks
// (space accounting + degrade), the RunGovernor (budget / deadline /
// checkpoint cadence), and the KRRSNAP checkpoint container. These are
// contract tests over the whole registry — every model that advertises
// `governed_memory` must actually shed state on demand, every model that
// does not must reject the budget option instead of silently ignoring it,
// and a checkpointed run must resume bit-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/estimator.h"
#include "core/governor.h"
#include "obs/metrics.h"
#include "trace/generator.h"
#include "trace/zipf.h"
#include "util/mrc.h"
#include "util/status.h"

namespace krr {
namespace {

std::vector<Request> zipf_trace(std::size_t n, std::uint64_t footprint = 4000,
                                double alpha = 0.8, std::uint64_t seed = 11) {
  ZipfianGenerator gen(footprint, alpha, seed, /*scrambled=*/true);
  return materialize(gen, n);
}

std::unique_ptr<MrcEstimator> make(const std::string& name,
                                   const EstimatorOptions& options = {}) {
  auto est = EstimatorRegistry::instance().create(name, options);
  EXPECT_TRUE(est.is_ok()) << name << ": " << est.status().message();
  return std::move(*est);
}

std::vector<std::string> names_with(bool EstimatorCapabilities::*flag,
                                    bool value) {
  std::vector<std::string> names;
  for (const auto& info : EstimatorRegistry::instance().list()) {
    if (info.caps.*flag == value) names.push_back(info.name);
  }
  return names;
}

void expect_curves_equal(const MissRatioCurve& a, const MissRatioCurve& b,
                         const std::string& label) {
  ASSERT_EQ(a.points().size(), b.points().size()) << label;
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].size, b.points()[i].size) << label;
    EXPECT_DOUBLE_EQ(a.points()[i].miss_ratio, b.points()[i].miss_ratio)
        << label;
  }
}

// --- Satellite (a): budget-option conformance across the registry. A model
// accepts `max_stack_bytes` exactly when it advertises governed_memory;
// everything else must fail construction (the CLI maps that onto exit 2)
// rather than run with a budget it will never honor.

TEST(LifecycleConformance, BudgetOptionAcceptedIffGoverned) {
  EstimatorOptions budget;
  budget.set("max_stack_bytes", "1048576");
  for (const auto& info : EstimatorRegistry::instance().list()) {
    auto est = EstimatorRegistry::instance().create(info.name, budget);
    if (info.caps.governed_memory) {
      EXPECT_TRUE(est.is_ok()) << info.name << ": " << est.status().message();
    } else {
      ASSERT_FALSE(est.is_ok()) << info.name
                                << " accepted a budget it cannot honor";
      EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument)
          << info.name;
    }
  }
}

TEST(LifecycleConformance, UngovernedModelsExistAndIncludeLruStack) {
  const auto ungoverned = names_with(&EstimatorCapabilities::governed_memory,
                                     false);
  ASSERT_FALSE(ungoverned.empty());
  EXPECT_NE(std::find(ungoverned.begin(), ungoverned.end(), "lru_stack"),
            ungoverned.end());
  // The default hooks: no space accounting, no degradation.
  auto est = make("lru_stack");
  EXPECT_EQ(est->space_overhead_bytes(), 0u);
  EXPECT_FALSE(est->degrade());
}

// --- Degrade contract: after real input, every governed model reports a
// nonzero footprint and can shed at least one increment of state without
// growing. Sharded pipelines (caps.sharded) are the documented exception —
// their producer-side hooks are inert (a worker races the caller) and
// governance runs inside the shards instead, which the dedicated tests
// below pin for krr_sharded and shards_sharded.

class GovernedDegrade : public ::testing::TestWithParam<std::string> {};

TEST_P(GovernedDegrade, SpaceIsAccountedAndDegradeShrinks) {
  const auto trace = zipf_trace(20000);
  auto est = make(GetParam());
  for (const Request& r : trace) est->access(r);
  const std::uint64_t before = est->space_overhead_bytes();
  ASSERT_GT(before, 0u) << GetParam();
  EXPECT_TRUE(est->degrade()) << GetParam()
                              << " refused to degrade with live state";
  EXPECT_LE(est->space_overhead_bytes(), before) << GetParam();
  // Degradation must not corrupt the model: the curve stays a valid MRC.
  est->finish();
  const MissRatioCurve curve = est->mrc();
  for (const auto& [size, ratio] : curve.points()) {
    EXPECT_GE(ratio, 0.0) << GetParam() << " at size " << size;
    EXPECT_LE(ratio, 1.0) << GetParam() << " at size " << size;
  }
}

std::vector<std::string> externally_governed_names() {
  auto names = names_with(&EstimatorCapabilities::governed_memory, true);
  names.erase(
      std::remove_if(names.begin(), names.end(),
                     [](const std::string& name) {
                       return EstimatorRegistry::instance().find(name)->caps
                           .sharded;
                     }),
      names.end());
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllGovernedModels, GovernedDegrade,
                         ::testing::ValuesIn(externally_governed_names()),
                         [](const auto& info) { return info.param; });

TEST(LifecycleConformance, ShardedGovernsInternally) {
  // External hooks are deliberately inert (the producer thread would race
  // the shard workers); the budget option still bites inside the shards.
  EstimatorOptions options;
  options.set("max_stack_bytes", "32768");
  options.set("shards", "2");
  auto est = make("krr_sharded", options);
  EXPECT_EQ(est->space_overhead_bytes(), 0u);
  EXPECT_FALSE(est->degrade());
  const auto trace = zipf_trace(60000, 20000, 0.7);
  for (const Request& r : trace) est->access(r);
  est->finish();
  const RunReport report = est->run_report();
  EXPECT_GT(report.degradation_events, 0u);
  EXPECT_LT(report.final_sampling_rate, report.configured_sampling_rate);
}

TEST(LifecycleConformance, GenericShardedGovernsInternally) {
  // The same runner contract on a non-KRR base: inert external hooks, with
  // the global budget split evenly and enforced from the consuming threads
  // (space check + degrade every 4096 accesses).
  EstimatorOptions options;
  options.set("max_stack_bytes", "32768");
  options.set("shards", "2");
  options.set("rate", "1.0");  // start unsampled so the budget has to bite
  auto est = make("shards_sharded", options);
  EXPECT_EQ(est->space_overhead_bytes(), 0u);
  EXPECT_FALSE(est->degrade());
  const auto trace = zipf_trace(60000, 20000, 0.7);
  for (const Request& r : trace) est->access(r);
  est->finish();
  const RunReport report = est->run_report();
  EXPECT_GT(report.degradation_events, 0u);
  EXPECT_LT(report.final_sampling_rate, report.configured_sampling_rate);
}

// --- RunGovernor: the budget limb degrades until the estimator fits (or
// flags exhaustion), the deadline limb stops the run, the checkpoint limb
// fires on its cadence, and everything lands in the GovernanceReport and
// the metrics registry.

TEST(RunGovernor, EnforcesMemoryBudget) {
  const auto trace = zipf_trace(60000, 30000, 0.7);
  EstimatorOptions options;
  options.set("rate", "1.0");  // start unsampled so the budget has to bite
  auto est = make("shards", options);
  RunGovernorConfig cfg;
  cfg.max_stack_bytes = 64 << 10;
  cfg.check_stride = 1024;
  obs::MetricsRegistry registry;
  RunGovernor governor(cfg, est.get(), &registry);
  for (const Request& r : trace) {
    est->access(r);
    ASSERT_TRUE(governor.on_access());
  }
  governor.finalize();
  const GovernanceReport& report = governor.report();
  EXPECT_GT(report.checks, 0u);
  EXPECT_GT(report.degrade_steps, 0u);
  EXPECT_GT(report.peak_space_bytes, cfg.max_stack_bytes);
  EXPECT_FALSE(report.deadline_hit);
  if (!report.budget_exhausted) {
    EXPECT_LE(est->space_overhead_bytes(), cfg.max_stack_bytes);
  }
  EXPECT_EQ(registry.counter("governor.budget_checks").value(),
            report.checks);
  EXPECT_EQ(registry.counter("governor.degrade_steps").value(),
            report.degrade_steps);
}

TEST(RunGovernor, BudgetExhaustionIsReportedNotFatal) {
  // lru_stack cannot degrade; a governor around it must flag exhaustion
  // and keep the run alive rather than spin or throw.
  const auto trace = zipf_trace(8000);
  auto est = make("lru_stack");
  RunGovernorConfig cfg;
  cfg.max_stack_bytes = 1;  // unsatisfiable
  cfg.check_stride = 512;
  RunGovernor governor(cfg, est.get());
  for (const Request& r : trace) {
    est->access(r);
    ASSERT_TRUE(governor.on_access());
  }
  governor.finalize();
  // space_overhead_bytes() == 0 for ungoverned models, so the budget is
  // trivially met — the governor must not count that as exhaustion.
  EXPECT_FALSE(governor.report().budget_exhausted);
  EXPECT_EQ(governor.report().degrade_steps, 0u);
}

TEST(RunGovernor, DeadlineStopsTheRun) {
  const auto trace = zipf_trace(50000);
  auto est = make("krr");
  RunGovernorConfig cfg;
  cfg.deadline_secs = 1e-9;
  cfg.check_stride = 64;
  RunGovernor governor(cfg, est.get());
  std::uint64_t fed = 0;
  bool stopped = false;
  for (const Request& r : trace) {
    est->access(r);
    ++fed;
    if (!governor.on_access()) {
      stopped = true;
      break;
    }
  }
  ASSERT_TRUE(stopped);
  EXPECT_LT(fed, trace.size());
  EXPECT_TRUE(governor.report().deadline_hit);
  // Once expired, the governor keeps saying stop.
  EXPECT_FALSE(governor.on_access());
  // The partial state still yields a valid curve.
  est->finish();
  EXPECT_FALSE(est->mrc().points().empty());
}

TEST(RunGovernor, CheckpointCadenceAndFailurePropagation) {
  const auto trace = zipf_trace(10000);
  auto est = make("krr");
  RunGovernorConfig cfg;
  cfg.checkpoint_every = 2000;
  std::vector<std::uint64_t> at_records;
  cfg.checkpoint_fn =
      [&at_records](std::uint64_t records) -> StatusOr<std::uint64_t> {
    at_records.push_back(records);
    return std::uint64_t{64};  // pretend snapshot size, echoed in the report
  };
  RunGovernor governor(cfg, est.get());
  for (const Request& r : trace) {
    est->access(r);
    ASSERT_TRUE(governor.on_access());
  }
  governor.finalize();
  ASSERT_GE(at_records.size(), 4u);
  for (std::size_t i = 1; i < at_records.size(); ++i) {
    EXPECT_GE(at_records[i] - at_records[i - 1], cfg.checkpoint_every);
  }
  EXPECT_EQ(governor.report().checkpoints_written, at_records.size());
  EXPECT_EQ(governor.report().last_checkpoint_records, at_records.back());
  EXPECT_EQ(governor.report().last_checkpoint_bytes, 64u);
  EXPECT_GE(governor.report().checkpoint_seconds, 0.0);

  // A checkpoint the caller asked for but cannot write aborts the run:
  // resuming from it would silently lose work.
  auto est2 = make("krr");
  RunGovernorConfig bad = cfg;
  bad.checkpoint_fn = [](std::uint64_t) -> StatusOr<std::uint64_t> {
    return io_error("disk full (injected)");
  };
  RunGovernor doomed(bad, est2.get());
  bool threw = false;
  for (const Request& r : trace) {
    est2->access(r);
    try {
      doomed.on_access();
    } catch (const StatusError&) {
      threw = true;
      break;
    }
  }
  EXPECT_TRUE(threw);
}

// --- Checkpoint container + estimator save/load round trip.

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Checkpoint, ContainerRoundTripsHeaderAndPayload) {
  const std::string path = temp_path("krr_ckpt_roundtrip.bin");
  CheckpointHeader header;
  header.config_crc = 0xDEADBEEF;
  header.records = 12345;
  const std::string payload = "profiler state bytes \x01\x02\x03";
  ASSERT_TRUE(write_checkpoint_atomic(path, header, payload).is_ok());
  std::string restored;
  auto read = read_checkpoint(path, &restored);
  ASSERT_TRUE(read.is_ok()) << read.status().message();
  EXPECT_EQ(read->version, kCheckpointVersion);
  EXPECT_EQ(read->config_crc, header.config_crc);
  EXPECT_EQ(read->records, header.records);
  EXPECT_EQ(restored, payload);
  // Atomicity: no temp file is left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptionIsDetected) {
  const std::string path = temp_path("krr_ckpt_corrupt.bin");
  CheckpointHeader header;
  header.records = 7;
  ASSERT_TRUE(write_checkpoint_atomic(path, header, "payload").is_ok());

  // Flip one payload byte: the trailing CRC must catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(36);  // inside the payload (after the 32-byte header + magic)
    char c;
    f.seekg(36);
    f.get(c);
    f.seekp(36);
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto flipped = read_checkpoint(path, nullptr);
  ASSERT_FALSE(flipped.is_ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kChecksumMismatch);

  // Truncation.
  ASSERT_TRUE(write_checkpoint_atomic(path, header, "payload").is_ok());
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "KRRSNAP1shortened";
  }
  auto truncated = read_checkpoint(path, nullptr);
  ASSERT_FALSE(truncated.is_ok());

  // Not a snapshot at all.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "definitely not a checkpoint file, padded to minimum length....";
  }
  auto bad_magic = read_checkpoint(path, nullptr);
  ASSERT_FALSE(bad_magic.is_ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kCorruptHeader);

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(read_checkpoint(path, nullptr).is_ok());
}

TEST(Checkpoint, FingerprintIsCanonicalAndConfigSensitive) {
  EstimatorOptions a;
  a.set("k", "5");
  a.set("rate", "0.01");
  EstimatorOptions b;  // same entries, set in the other order
  b.set("rate", "0.01");
  b.set("k", "5");
  EXPECT_EQ(checkpoint_fingerprint("krr", a), checkpoint_fingerprint("krr", b));
  EstimatorOptions c = a;
  c.set("k", "6");
  EXPECT_NE(checkpoint_fingerprint("krr", a), checkpoint_fingerprint("krr", c));
  EXPECT_NE(checkpoint_fingerprint("krr", a),
            checkpoint_fingerprint("shards", a));
}

TEST(Checkpoint, KrrSaveLoadResumesBitIdentically) {
  const auto trace = zipf_trace(24000);
  const std::size_t cut = trace.size() / 2;

  // Uninterrupted reference run.
  auto reference = make("krr");
  for (const Request& r : trace) reference->access(r);
  reference->finish();

  // Interrupted run: snapshot at the cut...
  auto first = make("krr");
  for (std::size_t i = 0; i < cut; ++i) first->access(trace[i]);
  std::string payload;
  ASSERT_TRUE(first->save_state(&payload).is_ok());

  // ...restored into a fresh instance that finishes the trace.
  auto resumed = make("krr");
  ASSERT_TRUE(resumed->load_state(payload).is_ok());
  for (std::size_t i = cut; i < trace.size(); ++i) resumed->access(trace[i]);
  resumed->finish();

  expect_curves_equal(reference->mrc(), resumed->mrc(), "resumed mrc");
  const RunReport ref_report = reference->run_report();
  const RunReport res_report = resumed->run_report();
  EXPECT_EQ(ref_report.stack_depth, res_report.stack_depth);
  EXPECT_EQ(ref_report.space_overhead_bytes, res_report.space_overhead_bytes);
  EXPECT_EQ(ref_report.final_sampling_rate, res_report.final_sampling_rate);
}

TEST(Checkpoint, SaveLoadRoundTripsUnderSamplingAndDegradation) {
  // The snapshot must carry the spatial filter's threshold and the
  // degradation history, not just the stack: resume mid-degradation and
  // the continuation must still match the uninterrupted run exactly.
  EstimatorOptions options;
  options.set("rate", "0.5");
  options.set("max_stack_bytes", "16384");
  const auto trace = zipf_trace(40960, 20000, 0.7);
  // The cut sits on a check-stride boundary so the resumed run's governor
  // (which restarts its access counter) checks at the same absolute trace
  // positions as the uninterrupted run — a requirement for bit-identity
  // when degradation is active, and exactly how the CLI's --checkpoint-every
  // (a stride multiple) lines up in practice.
  const std::size_t cut = 30720;

  auto run_with_budget = [&](MrcEstimator& est, std::size_t from,
                             std::size_t to) {
    RunGovernorConfig cfg;
    cfg.max_stack_bytes = 16384;
    cfg.check_stride = 1024;
    RunGovernor governor(cfg, &est);
    for (std::size_t i = from; i < to; ++i) {
      est.access(trace[i]);
      governor.on_access();
    }
    governor.finalize();
  };

  auto reference = make("krr", options);
  run_with_budget(*reference, 0, trace.size());
  reference->finish();
  ASSERT_GT(reference->run_report().degradation_events, 0u)
      << "budget too large to exercise degradation";

  auto first = make("krr", options);
  run_with_budget(*first, 0, cut);
  std::string payload;
  ASSERT_TRUE(first->save_state(&payload).is_ok());

  auto resumed = make("krr", options);
  ASSERT_TRUE(resumed->load_state(payload).is_ok());
  run_with_budget(*resumed, cut, trace.size());
  resumed->finish();

  expect_curves_equal(reference->mrc(), resumed->mrc(), "degraded resume");
  EXPECT_EQ(reference->run_report().final_sampling_rate,
            resumed->run_report().final_sampling_rate);
}

TEST(Checkpoint, GarbagePayloadIsRejectedNotCrashed) {
  auto est = make("krr");
  EXPECT_FALSE(est->load_state("not a profiler snapshot").is_ok());
  EXPECT_FALSE(est->load_state("").is_ok());
  // A valid snapshot truncated mid-structure must fail cleanly too.
  auto donor = make("krr");
  const auto trace = zipf_trace(2000);
  for (const Request& r : trace) donor->access(r);
  std::string payload;
  ASSERT_TRUE(donor->save_state(&payload).is_ok());
  EXPECT_FALSE(est->load_state(payload.substr(0, payload.size() / 2)).is_ok());
}

TEST(Checkpoint, LegacyFlatKrrPayloadIsRejected) {
  // The krr payload before the tagged-section codec: counters, filter
  // epoch, histogram and stack concatenated with no framing. Its first
  // word is the processed count, which the stream reader takes for an
  // unknown format version — a classified refusal, not a misread state.
  std::string legacy;
  ckpt::append_u64(legacy, 4000);      // processed
  ckpt::append_u64(legacy, 4000);      // sampled
  ckpt::append_u64(legacy, 0);         // degradation events
  ckpt::append_u64(legacy, 0);         // processed at the last rate change
  ckpt::append_double(legacy, 1.0);    // configured rate
  ckpt::append_double(legacy, 0.0);    // expected-sampled base
  ckpt::append_u64(legacy, 1u << 24);  // filter modulus
  ckpt::append_u64(legacy, 1u << 24);  // filter threshold
  ckpt::append_u64(legacy, 0);         // filter halvings
  ckpt::append_u64(legacy, 0);         // histogram bins
  ckpt::append_double(legacy, 0.0);    // infinite weight
  ckpt::append_double(legacy, 0.0);    // total weight
  ckpt::append_u64(legacy, 0);         // stack depth
  for (std::uint64_t word = 1; word <= 5; ++word) {
    ckpt::append_u64(legacy, word);    // swap count, then the PRNG state
  }
  auto est = make("krr");
  const Status loaded = est->load_state(legacy);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.code(), StatusCode::kUnsupportedVersion);
}

TEST(Checkpoint, OnlyCheckpointCapableModelsSaveState) {
  for (const auto& info : EstimatorRegistry::instance().list()) {
    auto est = make(info.name);
    std::string payload;
    const Status s = est->save_state(&payload);
    if (info.caps.checkpoint) {
      EXPECT_TRUE(s.is_ok()) << info.name << ": " << s.message();
    } else {
      ASSERT_FALSE(s.is_ok()) << info.name;
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << info.name;
    }
  }
}

// --- Tagged-section state codec (DESIGN.md §13): the framing every model
// payload now rides in. Per-section length + CRC, version gate, unknown
// sections skippable for forward compatibility.

TEST(StateStream, RoundTripsTaggedSections) {
  std::string stream;
  ckpt::StateWriter writer(stream);
  writer.add_section(ckpt::kSectionModelCore, "core bytes");
  writer.add_section(ckpt::kSectionLruStack, std::string("\x00\x01\x02", 3));
  writer.add_section(ckpt::kSectionShardState, "shard 0");
  writer.add_section(ckpt::kSectionShardState, "shard 1");
  auto parsed = ckpt::StateReader::parse(stream);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const ckpt::StateReader& reader = *parsed;
  ASSERT_EQ(reader.section_count(), 4u);
  ASSERT_NE(reader.find(ckpt::kSectionModelCore), nullptr);
  EXPECT_EQ(*reader.find(ckpt::kSectionModelCore), "core bytes");
  ASSERT_NE(reader.find(ckpt::kSectionLruStack), nullptr);
  EXPECT_EQ(reader.find(ckpt::kSectionLruStack)->size(), 3u);
  // find() returns the first match; find_all preserves write order.
  const auto shards = reader.find_all(ckpt::kSectionShardState);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(*shards[0], "shard 0");
  EXPECT_EQ(*shards[1], "shard 1");
  // Unknown tags simply aren't found — a reader ignores sections it does
  // not understand instead of failing the whole parse.
  EXPECT_EQ(reader.find(ckpt::kSectionCollector), nullptr);
  EXPECT_TRUE(reader.find_all(ckpt::kSectionCollector).empty());
}

TEST(StateStream, EmptyStreamHasNoSections) {
  std::string stream;
  ckpt::StateWriter writer(stream);
  auto parsed = ckpt::StateReader::parse(stream);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->section_count(), 0u);
}

TEST(StateStream, DamageIsClassified) {
  std::string stream;
  ckpt::StateWriter writer(stream);
  writer.add_section(ckpt::kSectionModelCore, "some model state body");

  // Version word from the future.
  std::string future = stream;
  future[0] = static_cast<char>(ckpt::kStateStreamVersion + 1);
  auto v = ckpt::StateReader::parse(future);
  ASSERT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnsupportedVersion);

  // Truncations: inside the version word, the section header, and the body.
  for (const std::size_t keep : {2ul, 9ul, stream.size() - 3}) {
    auto t = ckpt::StateReader::parse(stream.substr(0, keep));
    ASSERT_FALSE(t.is_ok()) << "kept " << keep;
    EXPECT_EQ(t.status().code(), StatusCode::kTruncated) << "kept " << keep;
  }

  // A flipped body byte fails the per-section CRC.
  std::string corrupt = stream;
  corrupt[20] = static_cast<char>(corrupt[20] ^ 0x40);
  auto c = ckpt::StateReader::parse(corrupt);
  ASSERT_FALSE(c.is_ok());
  EXPECT_EQ(c.status().code(), StatusCode::kChecksumMismatch);
}

// --- Tentpole acceptance: the registry-wide resume conformance battery.
// Every model whose caps advertise `checkpoint` — serial baselines and the
// composite sharded adapters alike — must round-trip through save/load with
// bit-identical curves and reject damaged payloads.

EstimatorOptions battery_options(const std::string& name) {
  EstimatorOptions opts;
  if (EstimatorRegistry::instance().find(name)->caps.sharded) {
    // Exercise the composite path for real: multiple shards, threaded, so
    // the snapshot has to quiesce the fan-out first.
    opts.set("shards", "2");
    opts.set("threads", "2");
  }
  return opts;
}

class CheckpointBattery : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckpointBattery, RoundTripResumesBitIdentically) {
  const auto trace = zipf_trace(24000);
  const std::size_t cut = trace.size() / 2;
  const EstimatorOptions options = battery_options(GetParam());

  auto reference = make(GetParam(), options);
  for (const Request& r : trace) reference->access(r);
  reference->finish();

  auto first = make(GetParam(), options);
  for (std::size_t i = 0; i < cut; ++i) first->access(trace[i]);
  std::string payload;
  ASSERT_TRUE(first->save_state(&payload).is_ok()) << GetParam();

  auto resumed = make(GetParam(), options);
  ASSERT_TRUE(resumed->load_state(payload).is_ok()) << GetParam();
  for (std::size_t i = cut; i < trace.size(); ++i) resumed->access(trace[i]);
  resumed->finish();

  expect_curves_equal(reference->mrc(), resumed->mrc(), GetParam());
  EXPECT_EQ(reference->run_report().final_sampling_rate,
            resumed->run_report().final_sampling_rate)
      << GetParam();
}

TEST_P(CheckpointBattery, TruncatedPayloadIsRejected) {
  const auto trace = zipf_trace(4000);
  const EstimatorOptions options = battery_options(GetParam());
  auto donor = make(GetParam(), options);
  for (const Request& r : trace) donor->access(r);
  std::string payload;
  ASSERT_TRUE(donor->save_state(&payload).is_ok()) << GetParam();
  auto est = make(GetParam(), options);
  EXPECT_FALSE(est->load_state(payload.substr(0, payload.size() / 2)).is_ok())
      << GetParam();
  EXPECT_FALSE(est->load_state("").is_ok()) << GetParam();
}

TEST_P(CheckpointBattery, CorruptSectionIsRejected) {
  const auto trace = zipf_trace(4000);
  const EstimatorOptions options = battery_options(GetParam());
  auto donor = make(GetParam(), options);
  for (const Request& r : trace) donor->access(r);
  std::string payload;
  ASSERT_TRUE(donor->save_state(&payload).is_ok()) << GetParam();
  // Flip one byte mid-payload: inside some section's body (or, rarely, its
  // header) — either way the tagged-section framing must refuse the load.
  std::string corrupt = payload;
  const std::size_t at = corrupt.size() / 2;
  corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
  auto est = make(GetParam(), options);
  EXPECT_FALSE(est->load_state(corrupt).is_ok()) << GetParam();
}

TEST_P(CheckpointBattery, FingerprintKeysOnModelAndOptions) {
  const EstimatorOptions options = battery_options(GetParam());
  EstimatorOptions changed = options;
  changed.set("sub_buckets", "512");
  EXPECT_NE(checkpoint_fingerprint(GetParam(), options),
            checkpoint_fingerprint(GetParam(), changed))
      << GetParam();
  EXPECT_NE(checkpoint_fingerprint(GetParam(), options),
            checkpoint_fingerprint(GetParam() + "x", options))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllCheckpointCapableModels, CheckpointBattery,
    ::testing::ValuesIn(names_with(&EstimatorCapabilities::checkpoint, true)),
    [](const auto& info) { return info.param; });

// --- Mid-degradation resume across the serial checkpoint-capable governed
// models: the snapshot must carry the sampling/degradation state, not just
// the structure, so a stride-aligned interrupt continues bit-identically.
// (The sharded adapters govern internally and are pinned by the fan-out
// suite instead.)

std::vector<std::string> serial_governed_checkpoint_names() {
  auto names = names_with(&EstimatorCapabilities::checkpoint, true);
  names.erase(std::remove_if(names.begin(), names.end(),
                             [](const std::string& name) {
                               const auto* info =
                                   EstimatorRegistry::instance().find(name);
                               return info->caps.sharded ||
                                      !info->caps.governed_memory;
                             }),
              names.end());
  return names;
}

class DegradedResumeBattery : public ::testing::TestWithParam<std::string> {};

TEST_P(DegradedResumeBattery, StrideAlignedCutResumesBitIdentically) {
  EstimatorOptions options;
  // Rate-configurable models start unsampled so the budget has to bite;
  // models without an initial rate ignore the (common) key and track
  // everything by default anyway.
  options.set("rate", "1.0");
  const auto trace = zipf_trace(40960, 20000, 0.7);
  const std::size_t cut = 30720;  // check-stride aligned (see krr test above)

  auto run_with_budget = [&](MrcEstimator& est, std::size_t from,
                             std::size_t to) {
    RunGovernorConfig cfg;
    cfg.max_stack_bytes = 16384;
    cfg.check_stride = 1024;
    RunGovernor governor(cfg, &est);
    for (std::size_t i = from; i < to; ++i) {
      est.access(trace[i]);
      governor.on_access();
    }
    governor.finalize();
  };

  auto reference = make(GetParam(), options);
  run_with_budget(*reference, 0, trace.size());
  reference->finish();
  // snapshot() (not the ingest-oriented run_report()) carries the
  // per-model degradation counter for the whole zoo.
  ASSERT_GT(reference->snapshot().degradation_events, 0u)
      << GetParam() << ": budget too large to exercise degradation";

  auto first = make(GetParam(), options);
  run_with_budget(*first, 0, cut);
  std::string payload;
  ASSERT_TRUE(first->save_state(&payload).is_ok()) << GetParam();

  auto resumed = make(GetParam(), options);
  ASSERT_TRUE(resumed->load_state(payload).is_ok()) << GetParam();
  run_with_budget(*resumed, cut, trace.size());
  resumed->finish();

  expect_curves_equal(reference->mrc(), resumed->mrc(), GetParam());
  EXPECT_EQ(reference->snapshot().degradation_events,
            resumed->snapshot().degradation_events)
      << GetParam();
  EXPECT_EQ(reference->snapshot().sampling_rate,
            resumed->snapshot().sampling_rate)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SerialGovernedModels, DegradedResumeBattery,
                         ::testing::ValuesIn(serial_governed_checkpoint_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace krr

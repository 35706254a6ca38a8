// Self-healing machinery in isolation: the deterministic fault-injection
// subsystem (trigger grammar, firing semantics, accounting), the shared
// RetryPolicy/Backoff, the checkpoint-write and trace-read fault points
// with their retry loops, and a corruption battery over the ckpt state
// codec — every single-bit flip, every truncation boundary, and a
// randomized multi-byte stomp must yield a *classified* error (or a clean
// smaller parse), never a crash, hang, or kInternal.
//
// Runs under ASan/UBSan via the `sanitize` ctest label alongside the trace
// fault-injection harness. Fault plans are process-global: every test that
// arms one disarms in TearDown so batteries stay independent.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/estimator.h"
#include "core/governor.h"
#include "core/profiler.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "trace/zipf.h"
#include "util/faultpoint.h"
#include "util/prng.h"
#include "util/retry.h"

namespace krr {
namespace {

class FaultPlan : public ::testing::Test {
 protected:
  void TearDown() override { faults::disarm(); }
};

TEST_F(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad :
       {"bogus", "point@", "@hit=1", "p@hit=", "p@hit=0", "p@every=0",
        "p@never", "p#@hit=1", "p#x@hit=1", "p@hit=18446744073709551616"}) {
    const Status s = faults::arm(bad);
    EXPECT_FALSE(s.is_ok()) << bad;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
  }
  // A failed arm leaves the subsystem disarmed.
  EXPECT_FALSE(faults::armed());
}

TEST_F(FaultPlan, HitNFiresExactlyOnceAtTheNthHit) {
  ASSERT_TRUE(faults::arm("p@hit=3").is_ok());
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(faults::should_fire("p"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false,
                                      false, false, false, false}));
  EXPECT_EQ(faults::hits("p"), 10u);
  EXPECT_EQ(faults::fires("p"), 1u);
  EXPECT_EQ(faults::total_fires(), 1u);
}

TEST_F(FaultPlan, EveryKFiresPeriodically) {
  ASSERT_TRUE(faults::arm("p@every=4").is_ok());
  int fires = 0;
  for (int i = 1; i <= 12; ++i) {
    if (faults::should_fire("p")) {
      ++fires;
      EXPECT_EQ(i % 4, 0) << "fired off-period at hit " << i;
    }
  }
  EXPECT_EQ(fires, 3);
}

TEST_F(FaultPlan, OnceIsHitOne) {
  ASSERT_TRUE(faults::arm("p@once").is_ok());
  EXPECT_TRUE(faults::should_fire("p"));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(faults::should_fire("p"));
}

TEST_F(FaultPlan, DetailFiltersAndCountsIndependently) {
  ASSERT_TRUE(faults::arm("p#2@hit=2").is_ok());
  // Detail 1 hits never match the trigger; detail 2's second hit fires.
  EXPECT_FALSE(faults::should_fire("p", 1));
  EXPECT_FALSE(faults::should_fire("p", 2));
  EXPECT_FALSE(faults::should_fire("p", 1));
  EXPECT_TRUE(faults::should_fire("p", 2));
  EXPECT_EQ(faults::hits("p"), 2u);  // only matching hits are counted
}

TEST_F(FaultPlan, MultiTriggerPlansAndBothSeparators) {
  ASSERT_TRUE(faults::arm("a@hit=1;b@hit=2,c@every=1").is_ok());
  EXPECT_TRUE(faults::should_fire("a"));
  EXPECT_FALSE(faults::should_fire("b"));
  EXPECT_TRUE(faults::should_fire("b"));
  EXPECT_TRUE(faults::should_fire("c"));
  EXPECT_TRUE(faults::should_fire("c"));
  EXPECT_EQ(faults::total_fires(), 4u);
}

TEST_F(FaultPlan, DisarmStopsFiringAndZeroesAccounting) {
  ASSERT_TRUE(faults::arm("p@every=1").is_ok());
  EXPECT_TRUE(faults::should_fire("p"));
  faults::disarm();
  EXPECT_FALSE(faults::armed());
  EXPECT_FALSE(faults::should_fire("p"));
  EXPECT_EQ(faults::hits("p"), 0u);
  EXPECT_EQ(faults::total_fires(), 0u);
}

TEST_F(FaultPlan, MaybeFireThrowsWithPointAndDetail) {
  ASSERT_TRUE(faults::arm("p#7@once").is_ok());
  EXPECT_NO_THROW(faults::maybe_fire("p", 3));
  try {
    faults::maybe_fire("p", 7);
    FAIL() << "expected FaultInjectedError";
  } catch (const faults::FaultInjectedError& e) {
    EXPECT_EQ(std::string(e.what()), "injected fault at p#7");
  }
}

TEST(RetryPolicy, DelaysAreDeterministicExponentialAndJittered) {
  RetryPolicy policy;
  policy.base_delay_ms = 2.0;
  policy.max_delay_ms = 16.0;
  policy.seed = 42;
  RetryPolicy twin = policy;
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    const double delay = policy.delay_ms(attempt);
    // Same (seed, attempt) → same delay; different seeds decorrelate.
    EXPECT_DOUBLE_EQ(delay, twin.delay_ms(attempt)) << attempt;
    // Jitter keeps the delay in [0.5, 1.0] of the exponential step, and the
    // step itself is capped at max_delay_ms.
    const double step =
        std::min(2.0 * static_cast<double>(1u << (attempt - 1)), 16.0);
    EXPECT_GE(delay, 0.5 * step) << attempt;
    EXPECT_LE(delay, step) << attempt;
  }
  RetryPolicy other = policy;
  other.seed = 43;
  EXPECT_NE(other.delay_ms(1), policy.delay_ms(1));
}

TEST(RetryPolicy, RetryStatusStopsOnSuccessAndExhaustsOnFailure) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.0;  // no real sleeping in tests
  int calls = 0;
  Status ok = retry_status(policy, [&] {
    ++calls;
    return calls < 3 ? io_error("transient") : Status::ok();
  });
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  int retries = 0;
  Status failed = retry_status(
      policy,
      [&] {
        ++calls;
        return io_error("permanent");
      },
      [&](unsigned, const Status& s) {
        ++retries;
        EXPECT_EQ(s.code(), StatusCode::kIoError);
      });
  EXPECT_FALSE(failed.is_ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(RetryPolicy, BackoffEscalatesSpinYieldSleep) {
  Backoff backoff(/*spin_limit=*/2, /*yield_limit=*/2,
                  std::chrono::nanoseconds(1), std::chrono::nanoseconds(4));
  // First spin_limit + yield_limit pauses are cheap (return false), then
  // every pause sleeps (returns true) — that is the producer's metric.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(backoff.pause()) << i;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(backoff.pause()) << i;
  backoff.reset();
  EXPECT_FALSE(backoff.pause());
}

// ---------------------------------------------------------------------------
// ckpt::StateReader corruption battery.
// ---------------------------------------------------------------------------

/// A state stream exercising every section tag the codec defines,
/// including a repeated tag (shard state) and an empty body.
std::string codec_corpus() {
  std::string out;
  ckpt::StateWriter writer(out);
  writer.add_section(ckpt::kSectionModelCore, "core-counters");
  writer.add_section(ckpt::kSectionLruStack, std::string(64, '\x5a'));
  writer.add_section(ckpt::kSectionCollector, "");
  writer.add_section(ckpt::kSectionAdapter, "adapter{k=5,rate=0.1}");
  writer.add_section(ckpt::kSectionShardMeta, std::string("\x02\x00\x00\x00", 4));
  writer.add_section(ckpt::kSectionShardState, "shard-0-state");
  writer.add_section(ckpt::kSectionShardState, "shard-1-state");
  return out;
}

/// The only outcomes a damaged stream may have: a clean (possibly smaller)
/// parse, or one of the corruption codes the callers classify on. Anything
/// else — kInternal, kOk with torn sections, a crash — is a codec bug.
void expect_classified(const StatusOr<ckpt::StateReader>& result,
                       const std::string& context) {
  if (result.is_ok()) return;
  const StatusCode code = result.status().code();
  EXPECT_TRUE(code == StatusCode::kTruncated ||
              code == StatusCode::kChecksumMismatch ||
              code == StatusCode::kUnsupportedVersion)
      << context << ": unclassified " << result.status().to_string();
}

TEST(StateCodecBattery, EverySingleBitFlipIsClassified) {
  const std::string clean = codec_corpus();
  ASSERT_TRUE(ckpt::StateReader::parse(clean).is_ok());
  std::string bytes = clean;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      const auto result = ckpt::StateReader::parse(bytes);
      const std::string context =
          "byte " + std::to_string(i) + " bit " + std::to_string(bit);
      expect_classified(result, context);
      // The version word and every section body/CRC byte are covered by a
      // checksum or an exact match, so flips there can never parse clean.
      // (Flips in tag/length fields may re-frame into a stream that is
      // still internally consistent; find() simply misses the section.)
      if (i < 4) {
        ASSERT_FALSE(result.is_ok()) << context;
        EXPECT_EQ(result.status().code(), StatusCode::kUnsupportedVersion)
            << context;
      }
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
  ASSERT_EQ(bytes, clean);
}

TEST(StateCodecBattery, SectionBodyAndCrcFlipsAlwaysFailTheChecksum) {
  // Frame offsets: 4-byte version, then per section 4 (tag) + 8 (length) +
  // body + 4 (CRC). Walk the frames and flip one bit in every body byte
  // and every CRC byte — each must be a checksum mismatch, the exact code
  // load_state callers map to "snapshot is damaged".
  const std::string clean = codec_corpus();
  std::size_t offset = 4;
  while (offset < clean.size()) {
    const std::uint64_t length =
        static_cast<std::uint64_t>(
            static_cast<unsigned char>(clean[offset + 4])) |
        (static_cast<std::uint64_t>(
             static_cast<unsigned char>(clean[offset + 5]))
         << 8);
    const std::size_t body = offset + 12;
    for (std::size_t i = body; i < body + length + 4; ++i) {
      std::string bytes = clean;
      bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
      const auto result = ckpt::StateReader::parse(bytes);
      ASSERT_FALSE(result.is_ok()) << "byte " << i;
      EXPECT_EQ(result.status().code(), StatusCode::kChecksumMismatch)
          << "byte " << i;
    }
    offset = body + length + 4;
  }
}

TEST(StateCodecBattery, TruncationAtEveryBoundaryIsTruncatedOrSmaller) {
  const std::string clean = codec_corpus();
  const std::size_t full_sections =
      ckpt::StateReader::parse(clean)->section_count();
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const auto result = ckpt::StateReader::parse(clean.substr(0, len));
    if (result.is_ok()) {
      // A cut exactly on a section boundary parses as a shorter stream;
      // it must never claim more sections than the bytes hold.
      EXPECT_LT(result->section_count(), full_sections) << "length " << len;
    } else {
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kTruncated ||
                  code == StatusCode::kUnsupportedVersion)
          << "length " << len << ": " << result.status().to_string();
    }
  }
}

TEST(StateCodecBattery, RandomizedMultiByteStompsNeverCrashOrMisclassify) {
  const std::string clean = codec_corpus();
  Xoshiro256ss rng(20260809);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = clean;
    const std::uint64_t stomps = 1 + rng.next_below(8);
    for (std::uint64_t s = 0; s < stomps; ++s) {
      bytes[rng.next_below(bytes.size())] =
          static_cast<char>(rng.next_below(256));
    }
    expect_classified(ckpt::StateReader::parse(bytes),
                      "round " + std::to_string(round));
  }
}

TEST(StateCodecBattery, CheckpointFileBitFlipsAreAlwaysDetected) {
  // End to end through the KRRSNAP container with a real model payload:
  // the trailing CRC covers the whole file and is validated before any
  // field past the magic is trusted, so EVERY single-bit flip must be
  // rejected — magic flips as kCorruptHeader, everything else as
  // kChecksumMismatch. There is no flip position that loads clean.
  ZipfianGenerator gen(300, 0.9, 5, true);
  const auto trace = materialize(gen, 5000);
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  KrrProfiler profiler(cfg);
  for (const Request& r : trace) profiler.access(r);
  std::string payload;
  ASSERT_TRUE(profiler.save_state(&payload).is_ok());
  CheckpointHeader header;
  header.config_crc = 0xfeedface;
  header.records = trace.size();
  const std::string path = ::testing::TempDir() + "bitflip.snap";
  ASSERT_TRUE(write_checkpoint_atomic(path, header, payload).is_ok());
  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_TRUE(read_checkpoint(path, nullptr).is_ok());
  std::set<StatusCode> seen;
  for (std::size_t i = 0; i < clean.size(); i += 13) {  // stride: keep it fast
    for (int bit : {0, 7}) {
      std::string damaged = clean;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
      }
      const auto result = read_checkpoint(path, nullptr);
      ASSERT_FALSE(result.is_ok()) << "byte " << i << " bit " << bit;
      const StatusCode code = result.status().code();
      if (i < 8) {
        EXPECT_EQ(code, StatusCode::kCorruptHeader)
            << "magic byte " << i << " bit " << bit;
      } else {
        EXPECT_EQ(code, StatusCode::kChecksumMismatch)
            << "byte " << i << " bit " << bit;
      }
      seen.insert(code);
    }
  }
  EXPECT_TRUE(seen.count(StatusCode::kCorruptHeader));
  EXPECT_TRUE(seen.count(StatusCode::kChecksumMismatch));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint-write and trace-read fault points + retry loops.
// ---------------------------------------------------------------------------

class FaultedIo : public ::testing::Test {
 protected:
  void TearDown() override { faults::disarm(); }
  std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
  }
};

TEST_F(FaultedIo, CheckpointWriteFaultSurfacesAsIoError) {
  const std::string path = temp_path("ckpt_fault.snap");
  CheckpointHeader header;
  header.config_crc = 1;
  header.records = 10;
  ASSERT_TRUE(faults::arm("checkpoint.write@hit=1").is_ok());
  const Status first = write_checkpoint_atomic(path, header, "payload");
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  // The trigger was one-shot: the very next write lands.
  ASSERT_TRUE(write_checkpoint_atomic(path, header, "payload").is_ok());
  std::string payload;
  const auto read = read_checkpoint(path, &payload);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(payload, "payload");
  std::remove(path.c_str());
}

TEST_F(FaultedIo, GovernorRetriesTransientCheckpointFailures) {
  auto est = EstimatorRegistry::instance().create("krr", {});
  ASSERT_TRUE(est.is_ok());
  RunGovernorConfig cfg;
  cfg.checkpoint_every = 100;
  cfg.checkpoint_retry.max_attempts = 3;
  cfg.checkpoint_retry.base_delay_ms = 0.0;
  int attempts = 0;
  cfg.checkpoint_fn = [&](std::uint64_t) -> StatusOr<std::uint64_t> {
    ++attempts;
    if (faults::should_fire(faults::kCheckpointWrite)) {
      return io_error("injected");
    }
    return std::uint64_t{128};
  };
  ASSERT_TRUE(faults::arm("checkpoint.write@hit=1").is_ok());
  RunGovernor governor(cfg, est->get());
  for (int i = 0; i < 100; ++i) {
    (*est)->access({static_cast<std::uint64_t>(i), 1, Op::kGet});
    ASSERT_TRUE(governor.on_access());
  }
  EXPECT_EQ(attempts, 2);  // failed once, retried once, succeeded
  EXPECT_EQ(governor.report().checkpoint_retries, 1u);
  EXPECT_EQ(governor.report().checkpoints_written, 1u);
}

TEST_F(FaultedIo, GovernorStillAbortsWhenRetriesExhaust) {
  auto est = EstimatorRegistry::instance().create("krr", {});
  ASSERT_TRUE(est.is_ok());
  RunGovernorConfig cfg;
  cfg.checkpoint_every = 10;
  cfg.checkpoint_retry.max_attempts = 2;
  cfg.checkpoint_retry.base_delay_ms = 0.0;
  cfg.checkpoint_fn = [&](std::uint64_t) -> StatusOr<std::uint64_t> {
    if (faults::should_fire(faults::kCheckpointWrite)) {
      return io_error("injected");
    }
    return std::uint64_t{128};
  };
  ASSERT_TRUE(faults::arm("checkpoint.write@every=1").is_ok());
  RunGovernor governor(cfg, est->get());
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) {
          (*est)->access({static_cast<std::uint64_t>(i), 1, Op::kGet});
          governor.on_access();
        }
      },
      StatusError);
  EXPECT_EQ(governor.report().checkpoint_retries, 1u);
  EXPECT_EQ(governor.report().checkpoints_written, 0u);
}

TEST_F(FaultedIo, LoadTraceFileRetriesInjectedReadFaults) {
  ZipfianGenerator gen(100, 0.9, 7, true);
  const auto trace = materialize(gen, 500);
  const std::string path = temp_path("read_fault.bin");
  {
    std::ofstream os(path, std::ios::binary);
    write_trace_binary_v2(os, trace, 64);
  }
  TraceReaderOptions options;
  options.read_retry.max_attempts = 3;
  options.read_retry.base_delay_ms = 0.0;
  TraceReadReport report;
  ASSERT_TRUE(faults::arm("trace.read@hit=1").is_ok());
  const auto result = load_trace_file(path, options, &report);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(*result, trace);
  EXPECT_EQ(report.read_retries, 1u);
  std::remove(path.c_str());
}

TEST_F(FaultedIo, LoadTraceFileFailsWhenReadRetriesExhaust) {
  ZipfianGenerator gen(100, 0.9, 7, true);
  const auto trace = materialize(gen, 200);
  const std::string path = temp_path("read_fault_exhaust.bin");
  {
    std::ofstream os(path, std::ios::binary);
    write_trace_binary_v2(os, trace, 64);
  }
  TraceReaderOptions options;
  options.read_retry.max_attempts = 2;
  options.read_retry.base_delay_ms = 0.0;
  ASSERT_TRUE(faults::arm("trace.read@every=1").is_ok());
  const auto result = load_trace_file(path, options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST_F(FaultedIo, CorruptInputIsNeverRetried) {
  // Retrying can only help transient I/O; a checksum mismatch is a
  // property of the bytes and must fail on the first attempt even with a
  // generous retry budget.
  ZipfianGenerator gen(100, 0.9, 7, true);
  const auto trace = materialize(gen, 200);
  const std::string path = temp_path("corrupt_no_retry.bin");
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_binary_v2(ss, trace, 64);
  std::string bytes = ss.str();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  TraceReaderOptions options;
  options.policy = RecoveryPolicy::kStrict;
  options.read_retry.max_attempts = 5;
  TraceReadReport report;
  const auto result = load_trace_file(path, options, &report);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(report.read_retries, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace krr

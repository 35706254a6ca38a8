#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "baselines/lru_stack.h"
#include "baselines/naive_stack.h"
#include "core/checkpoint.h"
#include "core/krr_stack.h"
#include "trace/generator.h"
#include "trace/msr.h"
#include "trace/zipf.h"

namespace krr {
namespace {

KrrStackConfig config(double k, UpdateStrategy strategy = UpdateStrategy::kBackward,
                      std::uint64_t seed = 1) {
  KrrStackConfig cfg;
  cfg.k = k;
  cfg.strategy = strategy;
  cfg.seed = seed;
  return cfg;
}

TEST(CorrectedK, FollowsPowerLaw) {
  EXPECT_DOUBLE_EQ(corrected_k(1.0), 1.0);
  EXPECT_NEAR(corrected_k(5.0), std::pow(5.0, 1.4), 1e-12);
  EXPECT_GT(corrected_k(2.0), 2.0);
  EXPECT_THROW(corrected_k(0.5), std::invalid_argument);
}

TEST(KrrStack, ColdAndWarmAccessesAreDistinguished) {
  KrrStack stack(config(2.0));
  auto r1 = stack.access(1);
  EXPECT_TRUE(r1.cold);
  EXPECT_EQ(r1.position, 1u);
  auto r2 = stack.access(1);
  EXPECT_FALSE(r2.cold);
  EXPECT_EQ(r2.position, 1u);
}

TEST(KrrStack, ReferencedObjectAlwaysMovesToTop) {
  KrrStack stack(config(3.0));
  for (std::uint64_t k = 1; k <= 100; ++k) stack.access(k);
  for (std::uint64_t k : {57ULL, 3ULL, 99ULL}) {
    stack.access(k);
    EXPECT_EQ(stack.key_at(1), k);
  }
}

TEST(KrrStack, StackRemainsAPermutationUnderChurn) {
  KrrStack stack(config(4.0, UpdateStrategy::kBackward, 5));
  std::set<std::uint64_t> seen;
  ZipfianGenerator gen(400, 0.7, 9);
  for (int i = 0; i < 20000; ++i) {
    const auto key = gen.next().key;
    seen.insert(key);
    stack.access(key);
  }
  EXPECT_EQ(stack.depth(), seen.size());
  std::set<std::uint64_t> on_stack(stack.stack().begin(), stack.stack().end());
  EXPECT_EQ(on_stack, seen);
  // Position map consistency: every key is where the map says it is.
  for (std::uint64_t pos = 1; pos <= stack.depth(); ++pos) {
    const std::uint64_t key = stack.key_at(pos);
    const auto result_pos = pos;  // re-access would report this
    EXPECT_EQ(stack.stack()[result_pos - 1], key);
  }
}

TEST(KrrStack, LinearStrategyMatchesGenericMattsonDrawForDraw) {
  // The Linear sampler consumes the PRNG identically to the generic
  // Mattson implementation, so with equal seeds the two stacks evolve
  // identically — a strong end-to-end check of the swap semantics.
  const double k = 2.7;
  KrrStack fast(config(k, UpdateStrategy::kLinear, 42));
  auto naive = GenericMattsonStack::krr(k, 42);
  ZipfianGenerator gen(300, 0.9, 3);
  for (int i = 0; i < 20000; ++i) {
    const Request r = gen.next();
    const auto result = fast.access(r.key);
    const auto naive_dist = naive.access(r);
    if (result.cold) {
      ASSERT_EQ(naive_dist, 0u) << "at access " << i;
    } else {
      ASSERT_EQ(result.position, naive_dist) << "at access " << i;
    }
  }
  EXPECT_EQ(fast.stack(), naive.stack());
}

class KrrStackStrategies : public ::testing::TestWithParam<UpdateStrategy> {};

TEST_P(KrrStackStrategies, DistanceDistributionsAgreeAcrossStrategies) {
  // All strategies sample the same swap process, so long-run distance
  // histograms must agree within statistical noise. Compare each strategy
  // against the backward reference on a fixed workload.
  const double k = 4.0;
  auto run = [&](UpdateStrategy s, std::uint64_t seed) {
    KrrStack stack(config(k, s, seed));
    ZipfianGenerator gen(200, 0.9, 21);
    double sum = 0.0;
    std::uint64_t count = 0;
    for (int i = 0; i < 40000; ++i) {
      const auto r = stack.access(gen.next().key);
      if (!r.cold) {
        sum += static_cast<double>(r.position);
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  const double mean_ref = run(UpdateStrategy::kBackward, 101);
  const double mean_this = run(GetParam(), 202);
  EXPECT_NEAR(mean_this, mean_ref, mean_ref * 0.03);
}

TEST_P(KrrStackStrategies, HugeKDegeneratesToLruDistances) {
  KrrStack stack(config(1e9, GetParam(), 3));
  LruStackProfiler lru;
  ZipfianGenerator gen(150, 0.8, 31);
  for (int i = 0; i < 10000; ++i) {
    const Request r = gen.next();
    const auto result = stack.access(r.key);
    const auto expected = lru.access(r);
    if (result.cold) {
      ASSERT_EQ(expected, 0u);
    } else {
      ASSERT_EQ(result.position, expected) << "at access " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, KrrStackStrategies,
                         ::testing::Values(UpdateStrategy::kLinear,
                                           UpdateStrategy::kTopDown,
                                           UpdateStrategy::kBackward),
                         [](const auto& info) { return to_string(info.param); });

TEST(KrrStack, SwapsPerformedAccumulates) {
  KrrStack stack(config(1.0));
  for (std::uint64_t k = 1; k <= 10; ++k) stack.access(k);
  EXPECT_GT(stack.swaps_performed(), 0u);
}

std::uint32_t size_of(std::uint64_t key) { return 1 + static_cast<std::uint32_t>(key % 7); }

TEST(KrrStack, SlotIndexSurvivesRetainAndCheckpoint) {
  KrrStackConfig cfg = config(corrected_k(5.0), UpdateStrategy::kBackward, 21);
  cfg.track_bytes = true;
  KrrStack stack(cfg);
  ZipfianGenerator gen(3000, 0.9, 4);
  // Every access must report the position the key held just before it
  // (the stack length it lands at when cold), found here by a scan of the
  // public stack view, and must leave the key on top.
  const auto drive = [&](KrrStack& s, int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = gen.next().key;
      const std::vector<std::uint64_t>& keys = s.stack();
      const auto found = std::find(keys.begin(), keys.end(), key);
      const bool cold = found == keys.end();
      const auto position = static_cast<std::uint64_t>(found - keys.begin()) + 1;
      const auto result = s.access(key, size_of(key));
      ASSERT_EQ(result.cold, cold);
      ASSERT_EQ(result.position, position);
      ASSERT_EQ(s.key_at(1), key);
    }
  };
  drive(stack, 20000);
  const std::vector<std::uint64_t> before = stack.stack();
  const std::uint64_t evicted = stack.retain([](std::uint64_t key) { return key % 2 == 0; });
  ASSERT_GT(evicted, 0u);
  for (const std::uint64_t key : stack.stack()) ASSERT_EQ(key % 2, 0u);
  // Evicted keys come back cold; survivors are found where they now sit.
  std::uint64_t odd = 0, even = 0;
  for (const std::uint64_t key : before) (key % 2 == 1 ? odd : even) = key;
  const std::uint64_t survivor_depth = stack.depth();
  EXPECT_TRUE(stack.access(odd, size_of(odd)).cold);
  EXPECT_EQ(stack.depth(), survivor_depth + 1);
  const auto warm = stack.access(even, size_of(even));
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(stack.key_at(1), even);
  drive(stack, 20000);

  std::string payload;
  stack.save_state(payload);
  KrrStack resumed(cfg);
  ckpt::ByteReader reader(payload);
  ASSERT_TRUE(resumed.load_state(reader));
  EXPECT_EQ(resumed.stack(), stack.stack());
  EXPECT_EQ(resumed.swaps_performed(), stack.swaps_performed());
  EXPECT_EQ(resumed.total_bytes(), stack.total_bytes());
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t key = gen.next().key;
    const auto a = stack.access(key, size_of(key));
    const auto b = resumed.access(key, size_of(key));
    ASSERT_EQ(a.cold, b.cold) << "access " << i;
    ASSERT_EQ(a.position, b.position) << "access " << i;
    ASSERT_EQ(a.byte_distance, b.byte_distance) << "access " << i;
    ASSERT_EQ(resumed.key_at(1), key);
  }
  EXPECT_EQ(resumed.stack(), stack.stack());
  EXPECT_EQ(resumed.swaps_performed(), stack.swaps_performed());
}

TEST(KrrStack, LoadStateRejectsRepeatedKeyAndLeavesStackEmpty) {
  KrrStack stack(config(2.0));
  std::string payload;
  ckpt::append_u64(payload, 2);  // depth
  for (int i = 0; i < 2; ++i) {
    ckpt::append_u64(payload, 42);  // the same key twice
    ckpt::append_u32(payload, 1);
  }
  ckpt::append_u64(payload, 9);  // swaps performed
  for (std::uint64_t word = 1; word <= 4; ++word) ckpt::append_u64(payload, word);
  ckpt::ByteReader reader(payload);
  EXPECT_FALSE(stack.load_state(reader));
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.swaps_performed(), 0u);
  EXPECT_TRUE(stack.access(42).cold);
  EXPECT_EQ(stack.depth(), 1u);
}

TEST(KrrStack, TruncatedLoadClearsAUsedByteTrackingStack) {
  KrrStackConfig cfg = config(2.0);
  cfg.track_bytes = true;
  KrrStack source(cfg);
  for (std::uint64_t key = 1; key <= 20; ++key) source.access(key, 10);
  std::string payload;
  source.save_state(payload);
  payload.resize(payload.size() / 2);

  KrrStack stack(cfg);
  stack.access(1, 100);
  stack.access(2, 200);
  stack.access(3, 50);
  ASSERT_EQ(stack.total_bytes(), 350u);
  ckpt::ByteReader reader(payload);
  EXPECT_FALSE(stack.load_state(reader));
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.total_bytes(), 0u);
  EXPECT_EQ(stack.swaps_performed(), 0u);
  // The emptied stack is usable: the old residents are gone.
  const auto result = stack.access(2, 200);
  EXPECT_TRUE(result.cold);
  EXPECT_EQ(result.position, 1u);
  EXPECT_EQ(result.byte_distance, 200u);
  EXPECT_EQ(stack.total_bytes(), 200u);
}

TEST(KrrStack, ByteTrackingRequiresFlag) {
  KrrStackConfig cfg = config(2.0);
  cfg.track_bytes_exact = true;
  EXPECT_THROW(KrrStack{cfg}, std::invalid_argument);
}

TEST(KrrStack, ByteDistanceOfTopObjectIsItsOwnSize) {
  KrrStackConfig cfg = config(2.0);
  cfg.track_bytes = true;
  KrrStack stack(cfg);
  stack.access(1, 100);
  const auto r = stack.access(1, 100);
  EXPECT_EQ(r.byte_distance, 100u);
}

TEST(KrrStack, TotalBytesTracksDistinctObjectSizes) {
  KrrStackConfig cfg = config(3.0);
  cfg.track_bytes = true;
  KrrStack stack(cfg);
  stack.access(1, 10);
  stack.access(2, 20);
  stack.access(3, 30);
  EXPECT_EQ(stack.total_bytes(), 60u);
  stack.access(2, 20);  // re-reference: no size change
  EXPECT_EQ(stack.total_bytes(), 60u);
  stack.access(1, 50);  // resize
  EXPECT_EQ(stack.total_bytes(), 100u);
}

TEST(KrrStack, ExactByteDistanceMatchesBruteForceStackWalk) {
  // Drive the stack with a variable-size workload, then probe objects at
  // known positions: the exact tracker's reported byte distance must equal
  // a brute-force prefix-size sum over the public stack view taken just
  // before the probe. Sizes are deterministic per key, so the view plus
  // size_for_key reconstructs the byte layout.
  KrrStackConfig cfg = config(2.5, UpdateStrategy::kBackward, 77);
  cfg.track_bytes = true;
  cfg.track_bytes_exact = true;
  KrrStack stack(cfg);
  MsrGenerator gen(msr_profile("hm"), 5, 200);
  for (int i = 0; i < 4000; ++i) {
    const Request r = gen.next();
    stack.access(r.key, r.size);
  }
  ASSERT_GT(stack.depth(), 20u);
  Xoshiro256ss probe_rng(9);
  for (int probe = 0; probe < 25; ++probe) {
    const std::uint64_t pos = 1 + probe_rng.next_below(stack.depth());
    std::uint64_t expected = 0;
    for (std::uint64_t j = 1; j <= pos; ++j) {
      expected += gen.size_for_key(stack.key_at(j));
    }
    const std::uint64_t key = stack.key_at(pos);
    stack.access(key, gen.size_for_key(key));
    ASSERT_TRUE(stack.last_exact_byte_distance().has_value());
    EXPECT_EQ(*stack.last_exact_byte_distance(), expected) << "position " << pos;
  }
}

}  // namespace
}  // namespace krr

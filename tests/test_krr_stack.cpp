#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/lru_stack.h"
#include "baselines/naive_stack.h"
#include "core/checkpoint.h"
#include "core/krr_stack.h"
#include "trace/generator.h"
#include "trace/msr.h"
#include "trace/zipf.h"
#include "util/histogram.h"

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

namespace krr {
namespace {

// The stack update as a sampled chain plus a second rotation pass: draw the
// whole ascending chain with SwapSampler::sample, then walk it back down,
// moving the resident of chain[j] to chain[j+1], and put the reference on
// top. A backward chain is also redrawn one uniform per step, on a second
// generator kept in step, so the reference does not share the sampler's
// block draws and rewinds. The byte distances are recomputed from the
// sizes: a SizeArray replayed from the current stack holds exact prefix
// sums at its boundaries, which is the invariant the incremental one
// keeps, and the exact distance is a prefix sum. KrrStack must match this
// on every access, whatever order and pass structure its own update uses.
class ChainThenRotateStack {
 public:
  explicit ChainThenRotateStack(const KrrStackConfig& cfg)
      : cfg_(cfg),
        sampler_(cfg.strategy, cfg.k, cfg.sampling_model),
        rng_(cfg.seed),
        one_draw_rng_(cfg.seed) {}

  KrrStack::AccessResult access(std::uint64_t key, std::uint32_t size) {
    KrrStack::AccessResult result{};
    const auto found = std::find(keys_.begin(), keys_.end(), key);
    result.cold = found == keys_.end();
    if (result.cold) {
      keys_.push_back(key);
      sizes_.push_back(size);
    }
    const auto phi =
        static_cast<std::uint64_t>(std::find(keys_.begin(), keys_.end(), key) - keys_.begin()) +
        1;
    sizes_[phi - 1] = size;
    result.position = phi;
    if (cfg_.track_bytes) {
      SizeArray replayed(cfg_.size_array_base);
      for (std::size_t i = 0; i < sizes_.size(); ++i) replayed.on_append(sizes_[i], i + 1);
      result.byte_distance = replayed.byte_distance(phi);
      exact_ = 0;
      for (std::uint64_t i = 0; i < phi; ++i) exact_ += sizes_[i];
    }
    sampler_.sample(phi, rng_, chain_);
    if (cfg_.strategy == UpdateStrategy::kBackward) {
      // The reference's own Alg. 2, one draw per step, so the chain and
      // the PRNG stream do not rest on the sampler's batching.
      std::vector<std::uint64_t> one_draw = {phi};
      for (std::uint64_t i = phi; i > 1;) {
        i = one_draw_step(i, one_draw_rng_.next_double_open0());
        one_draw.push_back(i);
      }
      std::reverse(one_draw.begin(), one_draw.end());
      if (one_draw != chain_ || words(one_draw_rng_) != words(rng_)) one_draw_mismatch_ = true;
    }
    swaps_ += chain_.size();
    if (phi == 1) return result;
    for (std::size_t j = chain_.size(); j-- > 1;) {
      keys_[chain_[j] - 1] = keys_[chain_[j - 1] - 1];
      sizes_[chain_[j] - 1] = sizes_[chain_[j - 1] - 1];
    }
    keys_[0] = key;
    sizes_[0] = size;
    return result;
  }

  /// The KrrStack::save_state payload this state must produce.
  std::string payload() const {
    std::string out;
    ckpt::append_u64(out, keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      ckpt::append_u64(out, keys_[i]);
      ckpt::append_u32(out, sizes_[i]);
    }
    ckpt::append_u64(out, swaps_);
    std::uint64_t words[4];
    rng_.save_state(words);
    for (const std::uint64_t word : words) ckpt::append_u64(out, word);
    return out;
  }

  const std::vector<std::uint64_t>& keys() const { return keys_; }
  std::uint64_t swaps() const { return swaps_; }
  std::uint64_t exact_byte_distance() const { return exact_; }
  /// True once a backward chain or the stream after it differed from the
  /// one-draw-at-a-time walk.
  bool one_draw_mismatch() const { return one_draw_mismatch_; }

 private:
  static std::array<std::uint64_t, 4> words(const Xoshiro256ss& rng) {
    std::array<std::uint64_t, 4> out{};
    rng.save_state(out.data());
    return out;
  }

  /// Alg. 2's step from boundary i with uniform r: the largest swap
  /// position below i, by the inverse CDF P(X <= x) = no_swap(x+1, i-1).
  std::uint64_t one_draw_step(std::uint64_t i, double r) const {
    if (cfg_.sampling_model == SamplingModel::kPlacingBack) {
      const double scaled = std::pow(r, 1.0 / cfg_.k) * static_cast<double>(i - 1);
      return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::ceil(scaled)), 1,
                                       i - 1);
    }
    std::uint64_t lo = 1, hi = i - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (sampler_.no_swap_probability(mid + 1, i - 1) >= r) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  KrrStackConfig cfg_;
  SwapSampler sampler_;
  Xoshiro256ss rng_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> sizes_;
  std::vector<std::uint64_t> chain_;
  std::uint64_t swaps_ = 0;
  std::uint64_t exact_ = 0;
  Xoshiro256ss one_draw_rng_;
  bool one_draw_mismatch_ = false;
};

enum class Tracking { kUniform, kBytes, kBytesExact };

// A churny trace: a skewed working set of ~300 keys that keeps admitting
// new keys, and (when sizes are tracked) a set with a new size on ~1 in 8
// references, so resizes hit residents at every depth.
void drive_against_reference(UpdateStrategy strategy, SamplingModel model, double k,
                             Tracking tracking) {
  KrrStackConfig cfg;
  cfg.k = k;
  cfg.strategy = strategy;
  cfg.sampling_model = model;
  cfg.seed = 1234;
  cfg.track_bytes = tracking != Tracking::kUniform;
  cfg.track_bytes_exact = tracking == Tracking::kBytesExact;
  auto stack = std::make_unique<KrrStack>(cfg);
  ChainThenRotateStack reference(cfg);
  Xoshiro256ss trace_rng(99);
  std::uint64_t next_new_key = 300;
  std::vector<std::uint32_t> key_size(4096, 1);
  constexpr int kAccesses = 2400;
  for (int i = 0; i < kAccesses; ++i) {
    SCOPED_TRACE(i);
    std::uint64_t key;
    if (trace_rng.next_double() < 0.05) {
      key = next_new_key++ % key_size.size();
    } else {
      const double u = trace_rng.next_double();
      key = static_cast<std::uint64_t>(u * u * 300.0);
    }
    if (cfg.track_bytes && trace_rng.next_double() < 0.125) {
      key_size[key] = 1 + static_cast<std::uint32_t>(trace_rng.next_below(4000));
    }
    const std::uint32_t size = cfg.track_bytes ? key_size[key] : 1;
    const KrrStack::AccessResult want = reference.access(key, size);
    ASSERT_FALSE(reference.one_draw_mismatch());
    const KrrStack::AccessResult got = stack->access(key, size);
    ASSERT_EQ(got.cold, want.cold);
    ASSERT_EQ(got.position, want.position);
    ASSERT_EQ(got.byte_distance, want.byte_distance);
    if (cfg.track_bytes_exact) {
      ASSERT_EQ(stack->last_exact_byte_distance(), reference.exact_byte_distance());
    }
    ASSERT_EQ(stack->stack(), reference.keys());
    ASSERT_EQ(stack->swaps_performed(), reference.swaps());
    std::string payload;  // sizes, swap count and the PRNG words
    stack->save_state(payload);
    ASSERT_EQ(payload, reference.payload());
    if (i == kAccesses / 2) {
      // Resume mid-run from a checkpoint: the rest of the run must not see
      // the difference.
      auto resumed = std::make_unique<KrrStack>(cfg);
      ckpt::ByteReader reader(payload);
      ASSERT_TRUE(resumed->load_state(reader));
      stack = std::move(resumed);
    }
  }
}

void drive_every_configuration(UpdateStrategy strategy) {
  for (const SamplingModel model :
       {SamplingModel::kPlacingBack, SamplingModel::kNoPlacingBack}) {
    for (const double k : {1.0, corrected_k(5.0), corrected_k(16.0)}) {
      for (const Tracking tracking :
           {Tracking::kUniform, Tracking::kBytes, Tracking::kBytesExact}) {
        SCOPED_TRACE(to_string(model) + " K'=" + std::to_string(k) + " tracking " +
                     std::to_string(static_cast<int>(tracking)));
        drive_against_reference(strategy, model, k, tracking);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(KrrStackFusedRotation, BackwardMatchesChainThenRotate) {
  drive_every_configuration(UpdateStrategy::kBackward);
}

TEST(KrrStackFusedRotation, TopDownMatchesChainThenRotate) {
  drive_every_configuration(UpdateStrategy::kTopDown);
}

TEST(KrrStackFusedRotation, LinearMatchesChainThenRotate) {
  drive_every_configuration(UpdateStrategy::kLinear);
}

// The placing-back walk draws its uniforms a block at a time and carries
// the unconsumed ones to the next access. A checkpoint stores the generator
// as if every draw had been taken one at a time, and a restored stack
// starts a fresh block from there: taken with the block half used or used
// up, the restored run must be the uninterrupted one, access by access, in
// its distances, its save_state payload and its curve.
TEST(KrrStackCarriedDraws, CheckpointMidBlockAndAtABlockEdgeResumeBitIdentically) {
  ZipfianGenerator gen(2000, 0.9, 5, /*scrambled=*/true);
  const std::vector<Request> trace = materialize(gen, 3000);
  const auto size_of_key = [](std::uint64_t key) {
    return 1 + static_cast<std::uint32_t>(key % 1000);
  };
  for (const double k : {1.0, corrected_k(5.0)}) {
    for (const bool track_bytes : {false, true}) {
      SCOPED_TRACE("K'=" + std::to_string(k) + (track_bytes ? " bytes" : " uniform"));
      KrrStackConfig cfg = config(k);
      cfg.seed = 77;
      cfg.track_bytes = track_bytes;

      // Uninterrupted: after every access the payload's generator is the
      // seed's advanced by the draws consumed so far, one per swap position
      // below phi (a reference at phi == 1 draws none).
      KrrStack whole(cfg);
      Xoshiro256ss one_draw(cfg.seed);
      std::uint64_t consumed = 0;
      std::vector<std::uint64_t> consumed_after;
      for (const Request& r : trace) {
        const std::uint64_t swaps_before = whole.swaps_performed();
        const KrrStack::AccessResult result = whole.access(r.key, size_of_key(r.key));
        if (result.position >= 2) {
          for (std::uint64_t n = whole.swaps_performed() - swaps_before - 1; n > 0; --n) {
            one_draw();
            ++consumed;
          }
        }
        consumed_after.push_back(consumed);
        std::string payload;
        whole.save_state(payload);
        std::string words;
        std::uint64_t state[4];
        one_draw.save_state(state);
        for (const std::uint64_t word : state) ckpt::append_u64(words, word);
        ASSERT_EQ(payload.substr(payload.size() - words.size()), words)
            << "access " << consumed_after.size();
      }

      std::size_t mid_block = 0;
      std::size_t block_edge = 0;
      for (std::size_t i = 500; i < trace.size() && (mid_block == 0 || block_edge == 0); ++i) {
        const bool at_edge = consumed_after[i] % swap_kernel::kBlock == 0;
        if (at_edge && block_edge == 0) block_edge = i;
        if (!at_edge && mid_block == 0) mid_block = i;
      }
      ASSERT_NE(mid_block, 0u);
      ASSERT_NE(block_edge, 0u);

      for (const std::size_t checkpoint : {mid_block, block_edge}) {
        SCOPED_TRACE("checkpoint after access " + std::to_string(checkpoint));
        KrrStack uninterrupted(cfg);
        DistanceHistogram uninterrupted_hist;
        const auto record = [](DistanceHistogram& hist, const KrrStack::AccessResult& result) {
          if (result.cold) {
            hist.record_infinite();
          } else {
            hist.record(result.position);
          }
        };
        for (std::size_t i = 0; i <= checkpoint; ++i) {
          record(uninterrupted_hist,
                 uninterrupted.access(trace[i].key, size_of_key(trace[i].key)));
        }
        std::string payload;
        uninterrupted.save_state(payload);
        KrrStack restored(cfg);
        ckpt::ByteReader reader(payload);
        ASSERT_TRUE(restored.load_state(reader));
        DistanceHistogram restored_hist = uninterrupted_hist;
        for (std::size_t i = checkpoint + 1; i < trace.size(); ++i) {
          SCOPED_TRACE(i);
          const std::uint32_t size = size_of_key(trace[i].key);
          const KrrStack::AccessResult want = uninterrupted.access(trace[i].key, size);
          const KrrStack::AccessResult got = restored.access(trace[i].key, size);
          ASSERT_EQ(got.cold, want.cold);
          ASSERT_EQ(got.position, want.position);
          ASSERT_EQ(got.byte_distance, want.byte_distance);
          record(uninterrupted_hist, want);
          record(restored_hist, got);
          std::string want_payload;
          std::string got_payload;
          uninterrupted.save_state(want_payload);
          restored.save_state(got_payload);
          ASSERT_EQ(got_payload, want_payload);
          const MissRatioCurve want_curve = uninterrupted_hist.to_mrc();
          const MissRatioCurve got_curve = restored_hist.to_mrc();
          ASSERT_EQ(got_curve.points().size(), want_curve.points().size());
          for (std::size_t p = 0; p < want_curve.points().size(); ++p) {
            ASSERT_EQ(got_curve.points()[p].size, want_curve.points()[p].size);
            ASSERT_EQ(got_curve.points()[p].miss_ratio, want_curve.points()[p].miss_ratio);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace krr

namespace krr {
namespace {

// The sizeArray rotation as it was first written: begin_rotation finds the
// boundaries below phi by a scan, and each move charges, one branch per
// boundary, every boundary from its swap position up to the previous one.
// KrrStack charges the same boundaries once per rotation, so both must
// hold the same sums and give the same byte distances.
class PendingLoopSizeArray {
 public:
  explicit PendingLoopSizeArray(std::uint32_t base) : base_(base) {}

  void on_append(std::uint32_t size, std::uint64_t new_length) {
    for (std::size_t j = boundaries_.size(); j-- > 0;) {
      if (boundaries_[j] < new_length) break;
      sums_[j] += size;
    }
    total_ += size;
    covered_length_ = new_length;
    if (boundaries_.empty()) {
      boundaries_.push_back(1);
      sums_.push_back(total_);
    }
    while (boundaries_.back() < new_length) {
      boundaries_.push_back(boundaries_.back() * base_);
      sums_.push_back(total_);
    }
  }

  void begin_rotation(std::uint64_t phi, std::uint32_t ref_size) {
    std::size_t below = 0;
    while (below < boundaries_.size() && boundaries_[below] < phi) ++below;
    pending_ = below;
    ref_size_ = ref_size;
  }

  void on_move(std::uint64_t x, std::uint32_t size) {
    while (pending_ > 0 && boundaries_[pending_ - 1] >= x) {
      std::uint64_t& sum = sums_[--pending_];
      sum += ref_size_;
      sum -= size;
    }
  }

  void on_resize(std::uint64_t position, std::uint32_t old_size, std::uint32_t new_size) {
    const std::int64_t delta =
        static_cast<std::int64_t>(new_size) - static_cast<std::int64_t>(old_size);
    for (std::size_t j = 0; j < boundaries_.size(); ++j) {
      if (boundaries_[j] >= position) {
        sums_[j] = static_cast<std::uint64_t>(static_cast<std::int64_t>(sums_[j]) + delta);
      }
    }
    total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) + delta);
  }

  std::uint64_t byte_distance(std::uint64_t phi) const {
    std::size_t index = 0;
    while (index + 1 < boundaries_.size() && boundaries_[index + 1] <= phi) ++index;
    const std::uint64_t sd_low = boundaries_[index];
    const std::uint64_t sum_low = sums_[index];
    if (sd_low == phi) return sum_low;
    std::uint64_t sd_high;
    std::uint64_t sum_high;
    if (index + 1 < boundaries_.size() && boundaries_[index + 1] <= covered_length_) {
      sd_high = boundaries_[index + 1];
      sum_high = sums_[index + 1];
    } else {
      sd_high = covered_length_;
      sum_high = total_;
    }
    if (sd_high <= sd_low) return sum_low;
    const double frac = static_cast<double>(phi - sd_low) /
                        static_cast<double>(sd_high - sd_low);
    return sum_low + static_cast<std::uint64_t>(static_cast<double>(sum_high - sum_low) * frac);
  }

 private:
  std::uint32_t base_;
  std::vector<std::uint64_t> boundaries_;
  std::vector<std::uint64_t> sums_;
  std::uint64_t covered_length_ = 0;
  std::uint64_t total_ = 0;
  std::size_t pending_ = 0;
  std::uint32_t ref_size_ = 0;
};

// A byte-tracking stack on PendingLoopSizeArray: the chain is drawn whole
// by SwapSampler::sample on its own generator, then rotated deepest first.
class PendingLoopStack {
 public:
  explicit PendingLoopStack(const KrrStackConfig& cfg)
      : cfg_(cfg),
        sampler_(cfg.strategy, cfg.k, cfg.sampling_model),
        rng_(cfg.seed),
        size_array_(cfg.size_array_base) {}

  KrrStack::AccessResult access(std::uint64_t key, std::uint32_t size) {
    KrrStack::AccessResult result{};
    auto found = std::find(keys_.begin(), keys_.end(), key);
    result.cold = found == keys_.end();
    if (result.cold) {
      keys_.push_back(key);
      sizes_.push_back(size);
      size_array_.on_append(size, keys_.size());
      found = keys_.end() - 1;
    }
    const auto phi = static_cast<std::uint64_t>(found - keys_.begin()) + 1;
    if (sizes_[phi - 1] != size) {
      size_array_.on_resize(phi, sizes_[phi - 1], size);
      sizes_[phi - 1] = size;
    }
    result.position = phi;
    result.byte_distance = size_array_.byte_distance(phi);
    sampler_.sample(phi, rng_, chain_);
    swaps_ += chain_.size();
    if (phi == 1) return result;
    size_array_.begin_rotation(phi, size);
    for (std::size_t j = chain_.size() - 1; j-- > 0;) {
      size_array_.on_move(chain_[j], sizes_[chain_[j] - 1]);
      keys_[chain_[j + 1] - 1] = keys_[chain_[j] - 1];
      sizes_[chain_[j + 1] - 1] = sizes_[chain_[j] - 1];
    }
    keys_[0] = key;
    sizes_[0] = size;
    return result;
  }

  /// KrrStack::retain: survivors keep their order, the sizeArray is
  /// replayed from them.
  void retain(const std::function<bool(std::uint64_t)>& keep) {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> sizes;
    size_array_ = PendingLoopSizeArray(cfg_.size_array_base);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!keep(keys_[i])) continue;
      keys.push_back(keys_[i]);
      sizes.push_back(sizes_[i]);
      size_array_.on_append(sizes_[i], keys.size());
    }
    keys_ = std::move(keys);
    sizes_ = std::move(sizes);
  }

  /// The KrrStack::save_state payload this state must produce.
  std::string payload() const {
    std::string out;
    ckpt::append_u64(out, keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      ckpt::append_u64(out, keys_[i]);
      ckpt::append_u32(out, sizes_[i]);
    }
    ckpt::append_u64(out, swaps_);
    std::uint64_t words[4];
    rng_.save_state(words);
    for (const std::uint64_t word : words) ckpt::append_u64(out, word);
    return out;
  }

 private:
  KrrStackConfig cfg_;
  SwapSampler sampler_;
  Xoshiro256ss rng_;
  PendingLoopSizeArray size_array_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> sizes_;
  std::vector<std::uint64_t> chain_;
  std::uint64_t swaps_ = 0;
};

// Byte distances and the checkpoint payload after every access, for the
// table bases as well as base 2, on a churny trace with in-place resizes,
// across a retain() that evicts a third of the keys and a resume from a
// checkpoint.
TEST(KrrStackByteTracking, MatchesPendingLoopRotationAcrossRetainAndResume) {
  for (const std::uint32_t base : {2u, 3u, 10u}) {
    for (const UpdateStrategy strategy :
         {UpdateStrategy::kBackward, UpdateStrategy::kTopDown, UpdateStrategy::kLinear}) {
      SCOPED_TRACE("base " + std::to_string(base) + " " + to_string(strategy));
      KrrStackConfig cfg = config(corrected_k(5.0), strategy, 4321);
      cfg.track_bytes = true;
      cfg.size_array_base = base;
      auto stack = std::make_unique<KrrStack>(cfg);
      PendingLoopStack reference(cfg);
      Xoshiro256ss trace_rng(base);
      std::vector<std::uint32_t> key_size(3000, 1);
      std::uint64_t next_new_key = 400;
      constexpr int kAccesses = 3000;
      for (int i = 0; i < kAccesses; ++i) {
        SCOPED_TRACE(i);
        std::uint64_t key;
        if (trace_rng.next_double() < 0.08) {
          key = next_new_key++ % key_size.size();
        } else {
          const double u = trace_rng.next_double();
          key = static_cast<std::uint64_t>(u * u * 400.0);
        }
        if (trace_rng.next_double() < 0.125) {
          key_size[key] = 1 + static_cast<std::uint32_t>(trace_rng.next_below(5000));
        }
        const KrrStack::AccessResult want = reference.access(key, key_size[key]);
        const KrrStack::AccessResult got = stack->access(key, key_size[key]);
        ASSERT_EQ(got.cold, want.cold);
        ASSERT_EQ(got.position, want.position);
        ASSERT_EQ(got.byte_distance, want.byte_distance);
        std::string payload;
        stack->save_state(payload);
        ASSERT_EQ(payload, reference.payload());
        if (i == kAccesses / 3) {
          const auto keep = [](std::uint64_t k) { return k % 3 != 0; };
          ASSERT_GT(stack->retain(keep), 0u);
          reference.retain(keep);
        }
        if (i == 2 * kAccesses / 3) {
          auto resumed = std::make_unique<KrrStack>(cfg);
          ckpt::ByteReader reader(payload);
          ASSERT_TRUE(resumed->load_state(reader));
          stack = std::move(resumed);
        }
      }
    }
  }
}

}  // namespace
}  // namespace krr

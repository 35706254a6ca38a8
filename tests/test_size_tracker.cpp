#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/size_tracker.h"
#include "core/swap_sampler.h"
#include "util/prng.h"

namespace krr {
namespace {

// Reference model: an explicit stack of sizes, rotated the same way the
// KRR stack rotates objects.
class MirrorStack {
 public:
  void append(std::uint32_t size) { sizes_.push_back(size); }

  void rotate(const std::vector<std::uint64_t>& chain, std::uint32_t ref_size) {
    if (chain.size() < 2) {
      if (!sizes_.empty()) sizes_[0] = ref_size;
      return;
    }
    for (std::size_t j = chain.size(); j-- > 1;) {
      sizes_[chain[j] - 1] = sizes_[chain[j - 1] - 1];
    }
    sizes_[0] = ref_size;
  }

  void resize(std::uint64_t position, std::uint32_t size) { sizes_[position - 1] = size; }

  std::uint64_t prefix(std::uint64_t phi) const {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < phi; ++i) sum += sizes_[i];
    return sum;
  }

  const std::vector<std::uint32_t>& sizes() const { return sizes_; }

 private:
  std::vector<std::uint32_t> sizes_;
};

// Drives SizeArray + ExactByteTracker + MirrorStack through the same random
// sequence of appends and rotations.
struct Harness {
  explicit Harness(std::uint32_t base) : size_array(base) {}

  void append(std::uint32_t size) {
    mirror.append(size);
    const std::uint64_t len = mirror.sizes().size();
    size_array.on_append(size, len);
    exact.on_append(size, len);
  }

  void rotate(const std::vector<std::uint64_t>& chain, std::uint32_t ref_size) {
    size_array.on_rotate(chain, mirror.sizes(), ref_size);
    exact.on_rotate(chain, mirror.sizes(), ref_size);
    mirror.rotate(chain, ref_size);
  }

  void resize(std::uint64_t position, std::uint32_t size) {
    const std::uint32_t old_size = mirror.sizes()[position - 1];
    size_array.on_resize(position, old_size, size);
    exact.on_resize(position, old_size, size);
    mirror.resize(position, size);
  }

  SizeArray size_array;
  ExactByteTracker exact;
  MirrorStack mirror;
};

TEST(SizeArray, RejectsBadBase) {
  EXPECT_THROW(SizeArray(0), std::invalid_argument);
  EXPECT_THROW(SizeArray(1), std::invalid_argument);
}

TEST(SizeArray, AppendAccumulatesTotals) {
  SizeArray arr(2);
  arr.on_append(10, 1);
  arr.on_append(20, 2);
  arr.on_append(30, 3);
  EXPECT_EQ(arr.total_bytes(), 60u);
  EXPECT_EQ(arr.covered_length(), 3u);
  // boundary 1 covers only the first position (still the first object).
  EXPECT_EQ(arr.entry(0), 10u);
  // boundary 2 covers positions 1..2.
  EXPECT_EQ(arr.entry(1), 30u);
  // boundary 4 covers the whole 3-deep stack.
  EXPECT_EQ(arr.entry(2), 60u);
}

TEST(SizeArray, ByteDistanceThrowsOutOfRange) {
  SizeArray arr(2);
  arr.on_append(10, 1);
  EXPECT_THROW(arr.byte_distance(0), std::out_of_range);
  EXPECT_THROW(arr.byte_distance(2), std::out_of_range);
}

TEST(SizeArray, BoundariesBelowCountsPowersUnderPosition) {
  for (const std::uint32_t base : {2u, 3u, 4u, 5u, 7u, 10u, 16u, 255u, 1000u, 65536u,
                                   4294967295u}) {
    SCOPED_TRACE("base " + std::to_string(base));
    std::vector<std::uint64_t> powers;
    for (std::uint64_t p = 1;; p *= base) {
      powers.push_back(p);
      if (p > ~std::uint64_t{0} / base) break;
    }
    const auto brute = [&powers](std::uint64_t v) {
      return static_cast<std::size_t>(
          std::count_if(powers.begin(), powers.end(), [v](std::uint64_t p) { return p < v; }));
    };
    const SizeArray arr(base);
    std::vector<std::uint64_t> probes;
    for (std::uint64_t v = 1; v <= 3000; ++v) probes.push_back(v);
    for (const std::uint64_t p : powers) {
      for (const std::uint64_t v : {p - 1, p, p + 1}) {
        if (v >= 1) probes.push_back(v);
      }
      if (p < std::uint64_t{1} << 62) probes.insert(probes.end(), {2 * p - 1, 2 * p, 2 * p + 1});
    }
    for (const std::uint64_t v : probes) {
      ASSERT_EQ(arr.boundaries_below(v), brute(v)) << "v " << v;
    }
  }
}

// At every power-of-b position the estimate must be exact, on any update
// history: that is the sizeArray invariant (Fig. 4.4). Every accumulator
// is checked, not only those inside the stack, after every append,
// in-place resize and rotation: entry j holds the bytes at positions
// [1, min(b^j, stack length)]. Bases 3 and 10 put some power-of-two
// buckets without a boundary, so a rotation's moves leave boundaries that
// no destination lands just above; the top-down carry must charge them.
TEST(SizeArray, ExactAtBoundaries) {
  for (const std::uint32_t base : {2u, 3u, 4u, 8u, 10u}) {
    for (const UpdateStrategy strategy : {UpdateStrategy::kBackward, UpdateStrategy::kTopDown}) {
      SCOPED_TRACE("base " + std::to_string(base) + " " + to_string(strategy));
      Harness h(base);
      SwapSampler sampler(strategy, 2.5);
      Xoshiro256ss rng(base * 31 + 1);
      std::vector<std::uint64_t> chain;
      for (int step = 0; step < 4000; ++step) {
        const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(1000));
        std::uint64_t phi;
        if (h.mirror.sizes().empty() || rng.next_double() < 0.2) {
          h.append(size);
          phi = h.mirror.sizes().size();
        } else {
          phi = 1 + rng.next_below(h.mirror.sizes().size());
          if (rng.next_double() < 0.25) h.resize(phi, size);
        }
        sampler.sample(phi, rng, chain);
        h.rotate(chain, h.mirror.sizes()[phi - 1]);
        const std::uint64_t len = h.mirror.sizes().size();
        ASSERT_EQ(h.size_array.total_bytes(), h.mirror.prefix(len));
        for (std::size_t j = 0; j < h.size_array.entry_count(); ++j) {
          const std::uint64_t covered = std::min(h.size_array.boundary(j), len);
          ASSERT_EQ(h.size_array.entry(j), h.mirror.prefix(covered))
              << "boundary " << h.size_array.boundary(j) << " step " << step;
        }
        for (std::uint64_t p = 1; p <= len; p += 1 + len / 16) {
          ASSERT_EQ(h.exact.byte_distance(p), h.mirror.prefix(p));
        }
      }
    }
  }
}

TEST(SizeArray, InterpolationIsBracketedByExactAnchors) {
  Harness h(2);
  SwapSampler sampler(UpdateStrategy::kBackward, 2.0);
  Xoshiro256ss rng(5);
  std::vector<std::uint64_t> chain;
  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(64));
    std::uint64_t phi;
    if (h.mirror.sizes().empty() || rng.next_double() < 0.4) {
      h.append(size);
      phi = h.mirror.sizes().size();
    } else {
      phi = 1 + rng.next_below(h.mirror.sizes().size());
    }
    sampler.sample(phi, rng, chain);
    h.rotate(chain, h.mirror.sizes()[phi - 1]);
  }
  // Estimates are monotone in phi and bracketed by the true prefix sums of
  // the bracketing boundaries.
  const std::uint64_t len = h.mirror.sizes().size();
  std::uint64_t prev_estimate = 0;
  for (std::uint64_t phi = 1; phi <= len; ++phi) {
    const std::uint64_t est = h.size_array.byte_distance(phi);
    EXPECT_GE(est, prev_estimate) << "phi " << phi;
    prev_estimate = est;
    const std::uint64_t exact = h.exact.byte_distance(phi);
    // The estimate lies within the span of the bracketing anchors, so its
    // error is bounded by the anchor gap; sanity-bound it loosely here.
    const double rel = std::abs(static_cast<double>(est) - static_cast<double>(exact)) /
                       std::max<double>(1.0, static_cast<double>(exact));
    EXPECT_LT(rel, 0.60) << "phi " << phi;
  }
}

TEST(SizeArray, EstimateErrorIsSmallOnAverage) {
  Harness h(2);
  SwapSampler sampler(UpdateStrategy::kBackward, 4.0);
  Xoshiro256ss rng(6);
  std::vector<std::uint64_t> chain;
  for (int step = 0; step < 5000; ++step) {
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(256));
    std::uint64_t phi;
    if (h.mirror.sizes().empty() || rng.next_double() < 0.25) {
      h.append(size);
      phi = h.mirror.sizes().size();
    } else {
      phi = 1 + rng.next_below(h.mirror.sizes().size());
    }
    sampler.sample(phi, rng, chain);
    h.rotate(chain, h.mirror.sizes()[phi - 1]);
  }
  double rel_sum = 0.0;
  const std::uint64_t len = h.mirror.sizes().size();
  for (std::uint64_t phi = 1; phi <= len; ++phi) {
    const double est = static_cast<double>(h.size_array.byte_distance(phi));
    const double exact = static_cast<double>(h.exact.byte_distance(phi));
    rel_sum += std::abs(est - exact) / std::max(1.0, exact);
  }
  // With i.i.d. sizes the interpolation error averages out well below 10%.
  EXPECT_LT(rel_sum / static_cast<double>(len), 0.10);
}

TEST(SizeArray, ResizeAdjustsCoveringPrefixes) {
  SizeArray arr(2);
  arr.on_append(10, 1);
  arr.on_append(10, 2);
  arr.on_append(10, 3);
  arr.on_resize(2, 10, 50);
  EXPECT_EQ(arr.entry(0), 10u);   // boundary 1 unaffected
  EXPECT_EQ(arr.entry(1), 60u);   // boundary 2 covers position 2
  EXPECT_EQ(arr.total_bytes(), 70u);
}

TEST(ExactByteTracker, MatchesMirrorEverywhere) {
  Harness h(2);
  SwapSampler sampler(UpdateStrategy::kTopDown, 2.0);
  Xoshiro256ss rng(7);
  std::vector<std::uint64_t> chain;
  for (int step = 0; step < 1500; ++step) {
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(1000));
    std::uint64_t phi;
    if (h.mirror.sizes().empty() || rng.next_double() < 0.3) {
      h.append(size);
      phi = h.mirror.sizes().size();
    } else {
      phi = 1 + rng.next_below(h.mirror.sizes().size());
    }
    sampler.sample(phi, rng, chain);
    h.rotate(chain, h.mirror.sizes()[phi - 1]);
    if (step % 50 == 0) {
      for (std::uint64_t p = 1; p <= h.mirror.sizes().size(); p += 13) {
        ASSERT_EQ(h.exact.byte_distance(p), h.mirror.prefix(p)) << "step " << step;
      }
    }
  }
}

TEST(ExactByteTracker, ResizeAdjustsPosition) {
  ExactByteTracker t;
  t.on_append(10, 1);
  t.on_append(20, 2);
  t.on_resize(2, 20, 80);
  EXPECT_EQ(t.byte_distance(1), 10u);
  EXPECT_EQ(t.byte_distance(2), 90u);
}

}  // namespace
}  // namespace krr

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/krr_stack.h"
#include "core/swap_kernel.h"
#include "core/swap_sampler.h"
#include "util/prng.h"

namespace krr {
namespace {

class SwapSamplerStrategies : public ::testing::TestWithParam<UpdateStrategy> {};

TEST_P(SwapSamplerStrategies, ChainIsAscendingAndBracketed) {
  SwapSampler sampler(GetParam(), 3.0);
  Xoshiro256ss rng(1);
  std::vector<std::uint64_t> chain;
  for (std::uint64_t phi : {2ULL, 3ULL, 10ULL, 257ULL, 1024ULL}) {
    for (int rep = 0; rep < 200; ++rep) {
      sampler.sample(phi, rng, chain);
      ASSERT_GE(chain.size(), 2u);
      EXPECT_EQ(chain.front(), 1u);
      EXPECT_EQ(chain.back(), phi);
      for (std::size_t j = 1; j < chain.size(); ++j) {
        ASSERT_LT(chain[j - 1], chain[j]) << "phi=" << phi;
      }
    }
  }
}

TEST_P(SwapSamplerStrategies, PhiOneYieldsTrivialChain) {
  SwapSampler sampler(GetParam(), 2.0);
  Xoshiro256ss rng(2);
  std::vector<std::uint64_t> chain;
  sampler.sample(1, rng, chain);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], 1u);
}

TEST_P(SwapSamplerStrategies, PhiTwoHasNoInteriorPositions) {
  SwapSampler sampler(GetParam(), 5.0);
  Xoshiro256ss rng(3);
  std::vector<std::uint64_t> chain;
  for (int rep = 0; rep < 100; ++rep) {
    sampler.sample(2, rng, chain);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], 1u);
    EXPECT_EQ(chain[1], 2u);
  }
}

// Each interior position i must be a swap with probability 1-((i-1)/i)^K,
// independently — verified against the marginal with 5-sigma tolerance.
TEST_P(SwapSamplerStrategies, MarginalSwapProbabilityMatchesTheLaw) {
  constexpr std::uint64_t kPhi = 32;
  constexpr double kK = 4.0;
  constexpr int kTrials = 60000;
  SwapSampler sampler(GetParam(), kK);
  Xoshiro256ss rng(7);
  std::vector<std::uint64_t> chain;
  std::vector<int> swap_count(kPhi + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    sampler.sample(kPhi, rng, chain);
    for (std::uint64_t v : chain) ++swap_count[v];
  }
  for (std::uint64_t i = 2; i < kPhi; ++i) {
    const double p = 1.0 - std::pow(static_cast<double>(i - 1) / static_cast<double>(i), kK);
    const double observed = static_cast<double>(swap_count[i]) / kTrials;
    const double sigma = std::sqrt(p * (1.0 - p) / kTrials);
    EXPECT_NEAR(observed, p, 5.0 * sigma) << "position " << i;
  }
  EXPECT_EQ(swap_count[1], kTrials);
  EXPECT_EQ(swap_count[kPhi], kTrials);
}

// Pairwise-joint check: the largest interior swap position's distribution
// is the eviction law of Eq. 4.2 restricted to a cache boundary. For a
// boundary C < phi, the resident crossing out of prefix [1, C] is the
// largest swap <= C, with P(cross at i) = (i^K - (i-1)^K)/C^K.
TEST_P(SwapSamplerStrategies, CrossingLawMatchesEquation42) {
  constexpr std::uint64_t kPhi = 64;
  constexpr std::uint64_t kBoundary = 24;
  constexpr double kK = 3.0;
  constexpr int kTrials = 60000;
  SwapSampler sampler(GetParam(), kK);
  Xoshiro256ss rng(11);
  std::vector<std::uint64_t> chain;
  std::vector<int> crossing(kBoundary + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    sampler.sample(kPhi, rng, chain);
    std::uint64_t largest = 1;
    for (std::uint64_t v : chain) {
      if (v <= kBoundary) largest = v;
    }
    ++crossing[largest];
  }
  const double ck = std::pow(static_cast<double>(kBoundary), kK);
  for (std::uint64_t i = 1; i <= kBoundary; ++i) {
    const double p = (std::pow(static_cast<double>(i), kK) -
                      std::pow(static_cast<double>(i - 1), kK)) /
                     ck;
    const double observed = static_cast<double>(crossing[i]) / kTrials;
    const double sigma = std::sqrt(p * (1.0 - p) / kTrials);
    EXPECT_NEAR(observed, p, 5.0 * sigma + 1e-12) << "position " << i;
  }
}

// Corollary 1: the mean chain length matches the analytic expectation.
TEST_P(SwapSamplerStrategies, MeanChainLengthMatchesExpectation) {
  constexpr std::uint64_t kPhi = 200;
  constexpr double kK = 5.0;
  constexpr int kTrials = 40000;
  SwapSampler sampler(GetParam(), kK);
  Xoshiro256ss rng(13);
  std::vector<std::uint64_t> chain;
  double total = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    sampler.sample(kPhi, rng, chain);
    total += static_cast<double>(chain.size());
  }
  EXPECT_NEAR(total / kTrials, sampler.expected_swaps(kPhi), 0.15);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SwapSamplerStrategies,
                         ::testing::Values(UpdateStrategy::kLinear,
                                           UpdateStrategy::kTopDown,
                                           UpdateStrategy::kBackward),
                         [](const auto& info) { return to_string(info.param); });

TEST(SwapSampler, RejectsExponentBelowOne) {
  EXPECT_THROW(SwapSampler(UpdateStrategy::kBackward, 0.9), std::invalid_argument);
}

TEST(SwapSampler, RejectsPhiZero) {
  SwapSampler sampler(UpdateStrategy::kBackward, 2.0);
  Xoshiro256ss rng(1);
  std::vector<std::uint64_t> chain;
  EXPECT_THROW(sampler.sample(0, rng, chain), std::invalid_argument);
}

TEST(SwapSampler, NoSwapProbabilityTelescopes) {
  SwapSampler sampler(UpdateStrategy::kBackward, 3.0);
  // P(no swap in [a,b]) must equal the product of per-position stays.
  double product = 1.0;
  for (std::uint64_t i = 5; i <= 20; ++i) product *= sampler.no_swap_probability(i, i);
  EXPECT_NEAR(sampler.no_swap_probability(5, 20), product, 1e-12);
  EXPECT_DOUBLE_EQ(sampler.no_swap_probability(7, 6), 1.0);  // empty interval
}

TEST(SwapSampler, ExpectedSwapsGrowsLogarithmically) {
  SwapSampler sampler(UpdateStrategy::kBackward, 1.0);
  // For K=1, E[swaps] = 2 + sum_{i=2}^{phi-1} 1/i ~ ln(phi) + 1.
  const double e1k = sampler.expected_swaps(1000);
  EXPECT_NEAR(e1k, 2.0 + std::log(999.0) - std::log(2.0) + 0.5, 0.6);
  // Doubling phi adds ~K*ln(2).
  SwapSampler k4(UpdateStrategy::kBackward, 4.0);
  const double delta = k4.expected_swaps(2000) - k4.expected_swaps(1000);
  EXPECT_NEAR(delta, 4.0 * std::log(2.0), 0.1);
}

// The one-draw-at-a-time backward sampler for the placing-back model, as it
// stood before the batched kernel: one uniform and one std::pow per swap.
// The batched sampler must reproduce its chains and its PRNG stream.
void reference_backward(double k, std::uint64_t phi, Xoshiro256ss& rng,
                        std::vector<std::uint64_t>& out) {
  out.clear();
  if (phi == 1) {
    out.push_back(1);
    return;
  }
  const double inv_k = 1.0 / k;
  out.push_back(phi);
  std::uint64_t i = phi;
  while (i > 1) {
    const double r = rng.next_double_open0();
    const double scaled = std::pow(r, inv_k) * static_cast<double>(i - 1);
    std::uint64_t x = static_cast<std::uint64_t>(std::ceil(scaled));
    if (x < 1) x = 1;
    if (x >= i) x = i - 1;
    out.push_back(x);
    i = x;
  }
  std::reverse(out.begin(), out.end());
}

std::array<std::uint64_t, 4> state_of(const Xoshiro256ss& rng) {
  std::array<std::uint64_t, 4> words{};
  rng.save_state(words.data());
  return words;
}

const std::vector<double>& equivalence_exponents() {
  static const std::vector<double> ks = {1.0, 1.5, corrected_k(2.0), corrected_k(5.0), 64.0};
  return ks;
}

TEST(SwapSamplerBatched, ChainsAndStreamMatchTheOneDrawSampler) {
  for (const double k : equivalence_exponents()) {
    SwapSampler sampler(UpdateStrategy::kBackward, k);
    Xoshiro256ss rng(11);
    Xoshiro256ss reference_rng(11);
    Xoshiro256ss phi_rng(12);
    std::vector<std::uint64_t> chain;
    std::vector<std::uint64_t> expected;
    std::vector<std::uint64_t> phis = {2, 3, 17, 52801, std::uint64_t{1} << 40};
    // Log-uniform distances up to 2^24, so short chains that end early in
    // a block and long ones that span many blocks both occur.
    for (int n = 0; n < 100000; ++n) {
      const std::uint64_t bits = 1 + phi_rng.next_below(24);
      phis.push_back(2 + phi_rng.next_below(std::uint64_t{1} << bits));
    }
    for (const std::uint64_t phi : phis) {
      sampler.sample(phi, rng, chain);
      reference_backward(k, phi, reference_rng, expected);
      ASSERT_EQ(chain, expected) << "k=" << k << " phi=" << phi;
      ASSERT_EQ(state_of(rng), state_of(reference_rng)) << "k=" << k << " phi=" << phi;
    }
  }
}

// Relative error of the block kernel against std::pow, worst over `draws`.
double worst_root_error(double k, const std::vector<double>& draws) {
  const swap_kernel::RootConstants constants = swap_kernel::root_constants(1.0 / k);
  double worst = 0.0;
  for (std::size_t start = 0; start < draws.size(); start += swap_kernel::kBlock) {
    double r[swap_kernel::kBlock];
    double u[swap_kernel::kBlock];
    for (std::size_t j = 0; j < swap_kernel::kBlock; ++j) {
      r[j] = draws[std::min(start + j, draws.size() - 1)];
    }
    swap_kernel::root_block(r, u, constants);
    for (std::size_t j = 0; j < swap_kernel::kBlock; ++j) {
      const double exact = std::pow(r[j], 1.0 / k);
      worst = std::max(worst, std::fabs(u[j] - exact) / exact);
    }
  }
  return worst;
}

TEST(SwapSamplerBatched, KernelRootIsWithinTwoToTheMinus48OfPow) {
  const double bound = std::ldexp(1.0, -48);
  Xoshiro256ss rng(5);
  std::vector<double> draws;
  for (int n = 0; n < 1000000; ++n) {
    double r = rng.next_double_open0();
    // Half the draws log-uniform, so every binary exponent down to the
    // smallest uniform Alg. 2 can draw, 2^-53, is covered.
    if (n % 2 == 1) r = std::max(std::ldexp(r, -static_cast<int>(rng.next_below(53))), 0x1p-53);
    draws.push_back(r);
  }
  const std::vector<double> edges = {1.0, 1.0 - 0x1p-53, 0x1p-53};
  for (const double k : equivalence_exponents()) {
    EXPECT_LE(worst_root_error(k, edges), bound) << "k=" << k;
    EXPECT_LE(worst_root_error(k, draws), bound) << "k=" << k;
  }
}

TEST(SwapSamplerBatched, IntegerBoundariesFallBackToPow) {
  // r = 1 roots to exactly 1, so u * (i-1) is the integer i-1: the kernel
  // must not decide the ceiling there.
  const swap_kernel::RootConstants constants = swap_kernel::root_constants(1.0 / corrected_k(5.0));
  double r[swap_kernel::kBlock];
  double u[swap_kernel::kBlock];
  for (double& draw : r) draw = 1.0;
  swap_kernel::root_block(r, u, constants);
  for (const std::uint64_t i : {2ULL, 3ULL, 1000ULL, 1ULL << 40}) {
    EXPECT_EQ(swap_kernel::certain_previous_swap(u[0], i), 0u) << "i=" << i;
  }
  // On an integer, and within the slack of one, the step is refused too.
  EXPECT_EQ(swap_kernel::certain_previous_swap(0.5, 3), 0u);
  EXPECT_EQ(swap_kernel::certain_previous_swap(0.5 + 0x1p-50, 3), 0u);
  EXPECT_EQ(swap_kernel::certain_previous_swap(0.5 - 0x1p-50, 3), 0u);
  // Beyond 2^52 every double is an integer.
  EXPECT_EQ(swap_kernel::certain_previous_swap(0.75, std::uint64_t{1} << 60), 0u);
  // Clear of every integer, the step is the clamped ceiling.
  EXPECT_EQ(swap_kernel::certain_previous_swap(0.25, 11), 3u);
  EXPECT_EQ(swap_kernel::certain_previous_swap(1e-9, 11), 1u);
}

TEST(SwapSampler, StrategyNamesAreStable) {
  EXPECT_EQ(to_string(UpdateStrategy::kLinear), "linear");
  EXPECT_EQ(to_string(UpdateStrategy::kTopDown), "top_down");
  EXPECT_EQ(to_string(UpdateStrategy::kBackward), "backward");
}

}  // namespace
}  // namespace krr

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/swap_kernel.h"
#include "util/prng.h"

namespace krr {

/// Stack-update strategy: how the per-access set of swap positions is
/// sampled. All three realize the *same* stochastic process — position i in
/// [2, phi-1] is independently a swap with probability 1 - stay(i),
/// positions 1 and phi always swap — and differ only in cost:
///  * kLinear   — Mattson's scan, one Bernoulli draw per position: O(phi)
///                per access ("Basic Stack" in Table 5.3);
///  * kTopDown  — Algorithm 1: recursive interval splitting, expected
///                O(K log^2 M) per access;
///  * kBackward — Algorithm 2: inverse-CDF walk from phi toward the top,
///                expected O(K log M) per access.
enum class UpdateStrategy : std::uint8_t {
  kLinear = 0,
  kTopDown = 1,
  kBackward = 2,
};

std::string to_string(UpdateStrategy strategy);

/// Which K-LRU sampling convention the stack models (Chapter 3):
///  * kPlacingBack — sampling with replacement (Proposition 1, Redis's
///    convention): stay(i) = ((i-1)/i)^K;
///  * kNoPlacingBack — sampling without replacement (Proposition 2, the
///    "few tweaks" the paper mentions): the rank-i resident of a cache of
///    size i is evicted with probability K/i, so stay(i) = 1 - K/i, and
///    every position i <= K always swaps.
/// Both stay functions telescope, so the same three update strategies
/// apply; the derived per-object eviction law reproduces the matching
/// proposition exactly (verified by tests).
enum class SamplingModel : std::uint8_t {
  kPlacingBack = 0,
  kNoPlacingBack = 1,
};

std::string to_string(SamplingModel model);

/// Samples the swap chain for one stack update.
class SwapSampler {
 public:
  /// k is the KRR exponent (may be fractional after the K' correction);
  /// must be >= 1.
  SwapSampler(UpdateStrategy strategy, double k,
              SamplingModel model = SamplingModel::kPlacingBack);

  /// Fills `out` with the ascending swap chain for a reference at stack
  /// distance phi: out.front() == 1 and out.back() == phi for phi >= 2;
  /// for phi == 1 the chain is just {1} (no movement).
  ///
  /// Applying the update means rotating along the chain: the object at
  /// chain[j] moves to chain[j+1], and the referenced object lands at 1.
  void sample(std::uint64_t phi, Xoshiro256ss& rng, std::vector<std::uint64_t>& out) const;

  UpdateStrategy strategy() const noexcept { return strategy_; }
  SamplingModel model() const noexcept { return model_; }
  double k() const noexcept { return k_; }

  /// Probability that position i keeps its resident during one update.
  double stay_probability(std::uint64_t i) const;

  /// Probability that positions a..b (inclusive) all keep their residents
  /// during one update (the telescoped product of stay probabilities).
  /// Exposed for tests and for the top-down recursion.
  double no_swap_probability(std::uint64_t a, std::uint64_t b) const;

  /// Expected number of swap positions for a reference at distance phi
  /// (Corollary 1); used by the overhead model in bench_fig5_4.
  double expected_swaps(std::uint64_t phi) const;

 private:
  void sample_linear(std::uint64_t phi, Xoshiro256ss& rng,
                     std::vector<std::uint64_t>& out) const;
  void sample_top_down(std::uint64_t phi, Xoshiro256ss& rng,
                       std::vector<std::uint64_t>& out) const;
  void sample_backward(std::uint64_t phi, Xoshiro256ss& rng,
                       std::vector<std::uint64_t>& out) const;

  /// Largest swap position below boundary i (both models): the inverse CDF
  /// of P(X <= x) = no_swap_probability(x+1, i-1).
  std::uint64_t previous_swap(std::uint64_t i, double r) const;

  UpdateStrategy strategy_;
  SamplingModel model_;
  double k_;
  double inv_k_;
  swap_kernel::RootConstants roots_;
};

}  // namespace krr

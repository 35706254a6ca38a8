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
///                expected O(K log M) per access; it yields the positions
///                in descending order, so a stack can rotate inside the
///                walk (walk_backward) in one pass.
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

  /// Algorithm 2 as one descending walk: calls visit(x, i) for every swap
  /// position x below phi, from the largest down to x == 1, each as soon as
  /// it is drawn, with i the swap position visited before it (phi first).
  /// Returns the number of positions visited. Requires phi >= 2. The
  /// positions and the PRNG stream are exactly those of sample() with the
  /// kBackward strategy (which is this walk collected and reversed), so a
  /// caller can rotate inside the walk: the resident of x moves to i.
  template <typename Visit>
  std::uint64_t walk_backward(std::uint64_t phi, Xoshiro256ss& rng, Visit visit) const;

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
  /// (Corollary 1): the growth in K that `paper_bench fig5_4` measures.
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

template <typename Visit>
std::uint64_t SwapSampler::walk_backward(std::uint64_t phi, Xoshiro256ss& rng,
                                         Visit visit) const {
  // From the bottom boundary i, the next swap position above is the largest
  // swap among [1, i-1], drawn through the inverse CDF of
  // P(X <= x) = no_swap(x+1, i-1) with r in (0, 1].
  std::uint64_t i = phi;
  std::uint64_t visited = 0;
  if (model_ == SamplingModel::kPlacingBack) {
    // Draw and root the uniforms a block at a time (swap_kernel.h). A step
    // the kernel cannot decide falls back to previous_swap on the same r,
    // so the chain is the one-draw-at-a-time chain. A chain that ends
    // inside a block rewinds the generator to just past its last draw, so
    // the stream, and every later chain, is unchanged too.
    double r[swap_kernel::kBlock];
    double u[swap_kernel::kBlock];
    while (i > 1) {
      const Xoshiro256ss block_start = rng;
      for (double& draw : r) draw = rng.next_double_open0();
      swap_kernel::root_block(r, u, roots_);
      std::size_t used = 0;
      while (used < swap_kernel::kBlock && i > 1) {
        std::uint64_t x = swap_kernel::certain_previous_swap(u[used], i);
        if (x == 0) x = previous_swap(i, r[used]);
        visit(x, i);
        i = x;
        ++used;
      }
      visited += used;
      if (used < swap_kernel::kBlock) {
        rng = block_start;
        for (std::size_t n = 0; n < used; ++n) rng();
      }
    }
  } else {
    while (i > 1) {
      const std::uint64_t x = previous_swap(i, rng.next_double_open0());
      visit(x, i);
      i = x;
      ++visited;
    }
  }
  return visited;
}

}  // namespace krr

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

/// Rooted uniforms the placing-back walk draws ahead (swap_kernel.h),
/// carried from one walk to the next, so no drawn uniform goes unused and
/// the generator never rewinds. While a block is held, the generator the
/// walks draw from stands kBlock draws past the block's start; logical()
/// gives the generator a one-draw-at-a-time walk would have left, which is
/// what a checkpoint stores. Whoever sets that generator calls reset().
class SwapDraws {
 public:
  /// `rng` (the generator the walks drew from) as if only the draws
  /// consumed so far had been taken.
  Xoshiro256ss logical(const Xoshiro256ss& rng) const noexcept;

  /// Drops the unconsumed draws.
  void reset() noexcept { next_ = swap_kernel::kBlock; }

 private:
  friend class SwapSampler;

  double r_[swap_kernel::kBlock] = {};
  std::uint64_t q_[swap_kernel::kBlock] = {};  ///< swap_kernel::to_fixed(root of r_)
  std::size_t next_ = swap_kernel::kBlock;  ///< first unconsumed draw
  Xoshiro256ss block_start_{0};            ///< the generator before r_[0]
};

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
  /// placing-back model takes its uniforms from `draws`, refilled from
  /// `rng` a block at a time and carried to the next walk; the positions
  /// and draws.logical(rng) are exactly those of sample() with the
  /// kBackward strategy (which is this walk collected and reversed), so a
  /// caller can rotate inside the walk: the resident of x moves to i.
  template <typename Visit>
  std::uint64_t walk_backward(std::uint64_t phi, Xoshiro256ss& rng, SwapDraws& draws,
                              Visit visit) const;

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
                                         SwapDraws& draws, Visit visit) const {
  // From the bottom boundary i, the next swap position above is the largest
  // swap among [1, i-1], drawn through the inverse CDF of
  // P(X <= x) = no_swap(x+1, i-1) with r in (0, 1].
  std::uint64_t visited = 0;
  if (model_ == SamplingModel::kPlacingBack) {
    // The walk carries below = i - 1, so a fixed-point step is one multiply
    // (swap_kernel.h). A step the kernel cannot decide falls back to
    // previous_swap on the same r, so the chain is the one-draw-at-a-time
    // chain; draws left over at the end of the chain wait for the next one.
    // Each step consumes one draw, so the count comes from the draw index
    // and the refills: a per-step counter did not stay in a register.
    std::uint64_t below = phi - 1;
    std::size_t n = draws.next_;
    visited = 0 - std::uint64_t{n};
    while (below > 0) {
      if (n == swap_kernel::kBlock) {
        draws.block_start_ = rng;
        for (double& r : draws.r_) r = rng.next_double_open0();
        swap_kernel::fixed_root_block(draws.r_, draws.q_, roots_);
        visited += n;
        n = 0;
      }
      const swap_kernel::Step step = swap_kernel::fixed_step(draws.q_[n], below);
      const std::uint64_t x =
          step.certain ? step.whole + 1 : previous_swap(below + 1, draws.r_[n]);
      ++n;
      visit(x, below + 1);
      below = x - 1;
    }
    draws.next_ = n;
    visited += n;
  } else {
    std::uint64_t i = phi;
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

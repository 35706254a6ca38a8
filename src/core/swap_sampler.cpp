#include "core/swap_sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/swap_kernel.h"

namespace krr {

std::string to_string(UpdateStrategy strategy) {
  switch (strategy) {
    case UpdateStrategy::kLinear:
      return "linear";
    case UpdateStrategy::kTopDown:
      return "top_down";
    case UpdateStrategy::kBackward:
      return "backward";
  }
  return "unknown";
}

std::string to_string(SamplingModel model) {
  switch (model) {
    case SamplingModel::kPlacingBack:
      return "placing_back";
    case SamplingModel::kNoPlacingBack:
      return "no_placing_back";
  }
  return "unknown";
}

SwapSampler::SwapSampler(UpdateStrategy strategy, double k, SamplingModel model)
    : strategy_(strategy),
      model_(model),
      k_(k),
      inv_k_(1.0 / k),
      roots_(swap_kernel::root_constants(inv_k_)) {
  if (!(k >= 1.0)) throw std::invalid_argument("KRR exponent must be >= 1");
}

double SwapSampler::stay_probability(std::uint64_t i) const {
  if (i <= 1) return 0.0;
  if (model_ == SamplingModel::kPlacingBack) {
    return std::pow(static_cast<double>(i - 1) / static_cast<double>(i), k_);
  }
  // Without placing back: eviction probability K/i (Prop. 2 at rank d = C).
  const double p = 1.0 - k_ / static_cast<double>(i);
  return p > 0.0 ? p : 0.0;
}

double SwapSampler::no_swap_probability(std::uint64_t a, std::uint64_t b) const {
  if (a > b) return 1.0;  // empty interval
  if (model_ == SamplingModel::kPlacingBack) {
    return std::pow(static_cast<double>(a - 1) / static_cast<double>(b), k_);
  }
  // prod_{i=a}^{b} (i-k)/i = [G(b+1-k)/G(a-k)] / [G(b+1)/G(a)]; any
  // position <= k always swaps, so the product vanishes.
  if (static_cast<double>(a) <= k_) return 0.0;
  const double log_p = std::lgamma(static_cast<double>(b + 1) - k_) -
                       std::lgamma(static_cast<double>(a) - k_) -
                       std::lgamma(static_cast<double>(b + 1)) +
                       std::lgamma(static_cast<double>(a));
  return std::exp(log_p);
}

double SwapSampler::expected_swaps(std::uint64_t phi) const {
  // Positions 1 and phi always swap; each interior position i swaps with
  // probability 1 - stay(i).
  if (phi <= 1) return 1.0;
  double expected = 2.0;
  for (std::uint64_t i = 2; i < phi; ++i) {
    expected += 1.0 - stay_probability(i);
  }
  return expected;
}

void SwapSampler::sample(std::uint64_t phi, Xoshiro256ss& rng,
                         std::vector<std::uint64_t>& out) const {
  out.clear();
  if (phi == 0) throw std::invalid_argument("stack distance must be >= 1");
  if (phi == 1) {
    out.push_back(1);
    return;
  }
  switch (strategy_) {
    case UpdateStrategy::kLinear:
      sample_linear(phi, rng, out);
      break;
    case UpdateStrategy::kTopDown:
      sample_top_down(phi, rng, out);
      break;
    case UpdateStrategy::kBackward:
      sample_backward(phi, rng, out);
      break;
  }
}

void SwapSampler::sample_linear(std::uint64_t phi, Xoshiro256ss& rng,
                                std::vector<std::uint64_t>& out) const {
  // One Bernoulli draw per interior position, scanning top-down — exactly
  // the draw sequence of GenericMattsonStack::krr, so seeded runs of the
  // two implementations agree position for position.
  out.push_back(1);
  for (std::uint64_t i = 2; i < phi; ++i) {
    const double stay = stay_probability(i);
    if (stay > 0.0 && rng.next_double() < stay) continue;
    out.push_back(i);
  }
  out.push_back(phi);
}

void SwapSampler::sample_top_down(std::uint64_t phi, Xoshiro256ss& rng,
                                  std::vector<std::uint64_t>& out) const {
  out.push_back(1);
  // Interior positions [2, phi-1]; empty when phi == 2.
  if (phi >= 3) {
    const std::uint64_t lo = 2;
    const std::uint64_t hi = phi - 1;
    // Enter the recursion only if the interval contains >= 1 swap.
    if (rng.next_double() >= no_swap_probability(lo, hi)) {
      // Explicit stack of intervals *conditioned on containing a swap*.
      // Visiting the left child before the right keeps output ascending.
      struct Interval {
        std::uint64_t start, end;
      };
      std::vector<Interval> work;
      work.push_back({lo, hi});
      while (!work.empty()) {
        const Interval iv = work.back();
        work.pop_back();
        if (iv.start == iv.end) {
          out.push_back(iv.start);
          continue;
        }
        const std::uint64_t mid = (iv.start + iv.end + 1) / 2;  // ceil
        // Left child [start, mid-1], right child [mid, end]; conditioned on
        // >= 1 swap overall, the child pattern (left-only / right-only /
        // both) has the renormalized independent-Bernoulli probabilities.
        const double nsw1 = no_swap_probability(iv.start, mid - 1);
        const double nsw2 = no_swap_probability(mid, iv.end);
        const double sw1 = 1.0 - nsw1;
        const double sw2 = 1.0 - nsw2;
        const double only1 = sw1 * nsw2;
        const double only2 = nsw1 * sw2;
        const double weight = only1 + only2 + sw1 * sw2;
        const double u = rng.next_double() * weight;
        const bool left = u < only1 || u >= only1 + only2;
        const bool right = u >= only1;
        // LIFO: push right first so the left interval is processed first.
        if (right) work.push_back({mid, iv.end});
        if (left) work.push_back({iv.start, mid - 1});
      }
    }
  }
  out.push_back(phi);
}

std::uint64_t SwapSampler::previous_swap(std::uint64_t i, double r) const {
  if (model_ == SamplingModel::kPlacingBack) {
    // Closed-form inverse: P(X <= x) = (x/(i-1))^K.
    const double scaled = std::pow(r, inv_k_) * static_cast<double>(i - 1);
    std::uint64_t x = static_cast<std::uint64_t>(std::ceil(scaled));
    if (x < 1) x = 1;
    if (x >= i) x = i - 1;
    return x;
  }
  // Without placing back the CDF has no closed-form inverse; binary-search
  // the smallest x with P(X <= x) = no_swap(x+1, i-1) >= r. The CDF is
  // non-decreasing in x and reaches 1 at x = i-1 (empty interval).
  std::uint64_t lo = 1, hi = i - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (no_swap_probability(mid + 1, i - 1) >= r) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void SwapSampler::sample_backward(std::uint64_t phi, Xoshiro256ss& rng,
                                  std::vector<std::uint64_t>& out) const {
  // A walk on draws of its own, handed back unused: the generator ends just
  // past the chain's last draw, as the one-draw-at-a-time walk leaves it.
  SwapDraws draws;
  out.push_back(phi);
  walk_backward(phi, rng, draws,
                [&out](std::uint64_t x, std::uint64_t) { out.push_back(x); });
  rng = draws.logical(rng);
  std::reverse(out.begin(), out.end());
}

Xoshiro256ss SwapDraws::logical(const Xoshiro256ss& rng) const noexcept {
  if (next_ == swap_kernel::kBlock) return rng;
  Xoshiro256ss replay = block_start_;
  for (std::size_t n = 0; n < next_; ++n) replay();
  return replay;
}

}  // namespace krr

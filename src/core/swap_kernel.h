#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace krr::swap_kernel {

/// The batched inverse-CDF step behind SwapSampler::sample_backward for the
/// placing-back model (Alg. 2, P(X <= x) = (x/(i-1))^K'). The exact step
/// is x = ceil(pow(r, 1/K') * (i-1)), clamped to [1, i-1]. Here the root
/// u = r^(1/K') of a whole block of uniforms is computed by a branch-free
/// log/exp kernel the compiler vectorizes, and each ceiling is decided from
/// the kernel's u only when no integer lies within the kernel's error of
/// u * (i-1); otherwise the caller recomputes that one step with std::pow.
/// The chain is therefore the exact path's chain, bit for bit.

/// Uniforms drawn and rooted per batch.
inline constexpr std::size_t kBlock = 16;

/// Half-width of the band around an integer inside which a kernel-decided
/// ceiling is refused, relative to u * (i-1). The kernel is within 2^-48
/// of std::pow (tests/test_swap_sampler.cpp checks it), and the two
/// products by (i-1) add 2^-52, so 2^-44 leaves a 16x margin.
inline constexpr double kSlack = 0x1p-44;

/// Per-exponent constants of root_block().
struct RootConstants {
  double inv_k_hi;     ///< 1/K' with its low 8 mantissa bits cleared, so
                       ///< inv_k_hi * e is exact for every exponent |e| < 64
  double inv_k_lo;     ///< 1/K' - inv_k_hi
  double inv_k_log2e;  ///< (1/K') / ln 2
};

inline RootConstants root_constants(double inv_k) {
  const double hi =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(inv_k) & ~std::uint64_t{0xff});
  return {hi, inv_k - hi, inv_k * 1.4426950408889634};
}

/// u[j] = r[j]^(1/K') for the kBlock uniforms r[j] in [2^-53, 1], with
/// relative error <= 2^-48 against std::pow. Branch-free:
///  1. ln r = e ln 2 + ln m, with e and m in [sqrt(1/2), sqrt(2)) taken from
///     the bit pattern and ln m by fdlibm's log reduction;
///  2. z = log2(r)/K' is split into n + f with n integer, |f| <= 1/2; the
///     product e/K' is carried in two parts, because at |e| = 53 a single
///     rounding would already cost 2^-47.8;
///  3. 2^z = 2^n * exp(f ln 2), exp by fdlibm's rational form.
/// Each stage is its own loop over the block: one element's chain is ~200
/// cycles of dependent operations, and a loop per stage keeps all lanes of
/// the block in flight instead of leaving the kernel latency-bound.
inline void root_block(const double* r, double* u, const RootConstants& c) {
  double e[kBlock], f[kBlock], s[kBlock], g[kBlock], scale[kBlock];
  for (std::size_t j = 0; j < kBlock; ++j) {
    constexpr std::uint64_t kSqrtHalf = 0x3fe6a09e667f3bcdULL;
    constexpr std::uint64_t kBias = std::uint64_t{64} << 52;  // e + 64 >= 0
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(r[j]);
    const std::uint64_t biased_e = (bits - kSqrtHalf + kBias) >> 52;
    const double m = std::bit_cast<double>(bits - (biased_e << 52) + kBias);
    e[j] = std::bit_cast<double>(biased_e | 0x4330000000000000ULL) - (0x1p52 + 64.0);
    f[j] = m - 1.0;  // exact
    s[j] = f[j] / (2.0 + f[j]);
  }
  for (std::size_t j = 0; j < kBlock; ++j) {
    // ln m = f - (f^2/2 - s (f^2/2 + R(s^2))), |s| <= 0.1716, with fdlibm's
    // degree-7 minimax R (error < 2^-58.45) split in two independent halves.
    const double z = s[j] * s[j];
    const double w = z * z;
    const double t1 = w * (3.999999999940941908e-01 +
                           w * (2.222219843214978396e-01 + w * 1.531383769920937332e-01));
    const double t2 =
        z * (6.666666666666735130e-01 +
             w * (2.857142874366239149e-01 +
                  w * (1.818357216161805012e-01 + w * 1.479819860511658591e-01)));
    const double half_f2 = 0.5 * f[j] * f[j];
    const double ln_m = f[j] - (half_f2 - s[j] * (half_f2 + (t1 + t2)));

    constexpr double kRound = 0x1.8p52;  // adding it rounds to an integer
    const double exact_part = c.inv_k_hi * e[j];
    const double rest = c.inv_k_lo * e[j] + c.inv_k_log2e * ln_m;
    const double rounded = (exact_part + rest) + kRound;
    const double n = rounded - kRound;
    g[j] = ((exact_part - n) + rest) * 0.6931471805599453;
    // 2^n from n's two's-complement bits in the low word of `rounded`.
    const std::uint64_t n_bits =
        std::bit_cast<std::uint64_t>(rounded) - std::bit_cast<std::uint64_t>(kRound);
    scale[j] = std::bit_cast<double>((n_bits + 1023) << 52);
  }
  for (std::size_t j = 0; j < kBlock; ++j) {
    // exp(g) for |g| <= 0.35 by fdlibm's rational form around a degree-5
    // minimax polynomial in g^2 (error < 2^-59).
    const double x = g[j];
    const double xx = x * x;
    const double poly =
        x - xx * (1.66666666666666019037e-01 +
                  xx * (-2.77777777770155933842e-03 +
                        xx * (6.61375632143793436117e-05 +
                              xx * (-1.65339022054652515390e-06 +
                                    xx * 4.13813679705723846039e-08))));
    u[j] = (1.0 - ((x * poly) / (poly - 2.0) - x)) * scale[j];
  }
}

/// Alg. 2's step from the kernel's root u of r: ceil(u * (i-1)) clamped to
/// [1, i-1], exactly as SwapSampler::previous_swap computes it from
/// std::pow, or 0 when u * (i-1) lies within kSlack of an integer (an exact
/// integer, such as r = 1 gives, included) and only std::pow can decide.
/// Requires i >= 2.
inline std::uint64_t certain_previous_swap(double u, std::uint64_t i) {
  const double scaled = u * static_cast<double>(i - 1);
  if (!(scaled < 0x1p52)) return 0;  // every double from 2^52 up is an integer
  const auto whole = static_cast<std::uint64_t>(static_cast<std::int64_t>(scaled));
  const double frac = scaled - static_cast<double>(whole);  // exact
  const double slack = scaled * kSlack;
  if (!(frac > slack && 1.0 - frac > slack)) return 0;
  const std::uint64_t x = whole + 1;
  return x < i ? x : i - 1;
}

}  // namespace krr::swap_kernel

#include "util/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KRR_CRC32_FOLDED 1
#include <immintrin.h>
#endif

namespace krr {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: kTables[0] is the classic byte table; kTables[k][b]
/// is the CRC register after byte b is followed by k zero bytes, so eight
/// lookups advance the register by eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

/// Little-endian load, independent of the host byte order.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advances the (pre-inverted) CRC register `c` over `length` bytes.
std::uint32_t update_sliced(std::uint32_t c, const unsigned char* bytes,
                            std::size_t length) {
  for (; length >= 8; bytes += 8, length -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ c;
    const std::uint32_t hi = load_le32(bytes + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; length > 0; ++bytes, --length) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef KRR_CRC32_FOLDED

/// Below this length the folded path has no whole 64-byte step to fold.
constexpr std::size_t kFoldMin = 64;

#define KRR_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

KRR_FOLD_TARGET inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `acc` forward by the distance the constant pair `k` encodes and
/// adds the next 128 bits `next`.
KRR_FOLD_TARGET inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advances the (pre-inverted) CRC register `c` over `length` bytes, where
/// length >= 64 and is a multiple of 16, by carry-less-multiply folding
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel, 2009). Four 128-bit lanes fold 64 bytes
/// per step by k1, k2 = x^(512±32) mod P; the lanes fold into one by
/// k3, k4 = x^(128±32) mod P, which also fold each further 16 bytes; the
/// last 128 bits fold to 64 by k4 and k5 = x^64 mod P, and a Barrett
/// reduction by P and mu = x^64 / P leaves the 32-bit register. Every
/// constant is bit-reflected and 33 bits wide, as (x^n mod P) << 32,
/// reflected, << 1 (zlib's crc32_simd uses the same ones).
KRR_FOLD_TARGET std::uint32_t update_folded(
    std::uint32_t c, const unsigned char* bytes, std::size_t length) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(bytes + 16);
  __m128i x2 = load(bytes + 32);
  __m128i x3 = load(bytes + 48);
  bytes += 64;
  length -= 64;
  for (; length >= 64; bytes += 64, length -= 64) {
    x0 = fold(x0, k1k2, load(bytes));
    x1 = fold(x1, k1k2, load(bytes + 16));
    x2 = fold(x2, k1k2, load(bytes + 32));
    x3 = fold(x3, k1k2, load(bytes + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; length >= 16; bytes += 16, length -= 16) {
    x0 = fold(x0, k3k4, load(bytes));
  }

  // 128 -> 64 bits: the low half times k4 into the high half, then the
  // low 32 bits of that times k5 into the rest.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: q = (low32(x) * mu) mod x^32, x ^= q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#endif  // KRR_CRC32_FOLDED

}  // namespace

namespace detail {

bool folded_available() noexcept {
#ifdef KRR_CRC32_FOLDED
  // A function-local static, so a CRC computed during static
  // initialization still sees an initialized CPU model.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
#else
  return false;
#endif
}

std::uint32_t crc32_portable(const void* data, std::size_t length,
                             std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  return update_sliced(seed ^ 0xFFFFFFFFu, bytes, length) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_folded(const void* data, std::size_t length,
                           std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef KRR_CRC32_FOLDED
  if (length >= kFoldMin) {
    const std::size_t head = length & ~std::size_t{15};
    c = update_folded(c, bytes, head);
    bytes += head;
    length -= head;
  }
#endif
  return update_sliced(c, bytes, length) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t length, std::uint32_t seed) {
  return detail::folded_available() ? detail::crc32_folded(data, length, seed)
                                    : detail::crc32_portable(data, length, seed);
}

}  // namespace krr

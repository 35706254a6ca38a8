#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"

namespace krr {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
  EXPECT_EQ(s, Status::ok());
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = truncated_error("stream ended early");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kTruncated);
  EXPECT_EQ(s.message(), "stream ended early");
  EXPECT_EQ(s.to_string(), "truncated: stream ended early");
}

TEST(Status, EveryCodeHasAStableName) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_STREQ(status_code_name(StatusCode::kCorruptHeader), "corrupt_header");
  EXPECT_STREQ(status_code_name(StatusCode::kUnsupportedVersion),
               "unsupported_version");
  EXPECT_STREQ(status_code_name(StatusCode::kTruncated), "truncated");
  EXPECT_STREQ(status_code_name(StatusCode::kBadRecord), "bad_record");
  EXPECT_STREQ(status_code_name(StatusCode::kChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceLimit), "resource_limit");
  EXPECT_STREQ(status_code_name(StatusCode::kIoError), "io_error");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "internal");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> r = bad_record_error("nope");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBadRecord);
  EXPECT_THROW(r.value(), StatusError);
}

TEST(StatusOr, ValueOrThrowPropagatesCode) {
  try {
    value_or_throw(StatusOr<int>(checksum_mismatch_error("block 3")));
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kChecksumMismatch);
    EXPECT_NE(std::string(e.what()).find("block 3"), std::string::npos);
  }
}

TEST(StatusError, IsARuntimeError) {
  // Legacy call sites catch std::runtime_error; the typed exception must
  // keep satisfying them.
  EXPECT_THROW(throw StatusError(io_error("disk on fire")), std::runtime_error);
}

TEST(Crc32, KnownVectors) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  const char* abc = "abc";
  EXPECT_EQ(crc32(abc, 3), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  inc.update(data.data(), 10);
  inc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc.value(), crc32(data.data(), data.size()));
  inc.reset();
  EXPECT_EQ(inc.value(), 0u);
}

/// Bitwise CRC-32 straight from the polynomial, no table: the reference the
/// sliced implementation must match.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t length,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < length; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..64 cover the 8-byte sliced body, the byte-wise tail and
  // every mix of the two; offsets 0..7 cover every alignment of the body.
  const auto bytes = random_bytes(64 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(crc32(bytes.data() + offset, length),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnAMebibyte) {
  const auto bytes = random_bytes(1 << 20, 2);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            reference_crc32(bytes.data(), bytes.size()));
  // A nonzero seed continues a running CRC the same way.
  EXPECT_EQ(crc32(bytes.data(), bytes.size(), 0xDEADBEEFu),
            reference_crc32(bytes.data(), bytes.size(), 0xDEADBEEFu));
}

TEST(Crc32, IncrementalMatchesReferenceAtEverySplit) {
  const auto bytes = random_bytes(100, 3);
  const std::uint32_t whole = reference_crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    Crc32 inc;
    inc.update(bytes.data(), split);
    inc.update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(inc.value(), whole) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data = "fault tolerant ingestion";
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
      EXPECT_NE(crc32(data.data(), data.size()), clean)
          << "byte " << i << " bit " << bit;
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
    }
  }
}

using CrcFunction = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// Lengths 0..320 reach the folded path's 64-byte steps (up to four), its
/// 16-byte steps and every tail length; offsets 0..15 cover every alignment
/// of the 16-byte loads.
void expect_matches_reference(CrcFunction crc) {
  const auto bytes = random_bytes(320 + 16, 4);
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t length = 0; length <= 320; ++length) {
        ASSERT_EQ(crc(bytes.data() + offset, length, seed),
                  reference_crc32(bytes.data() + offset, length, seed))
            << "seed " << seed << " offset " << offset << " length " << length;
      }
    }
  }
}

TEST(Crc32Paths, PortableMatchesBitwiseReference) {
  expect_matches_reference(&detail::crc32_portable);
}

TEST(Crc32Paths, FoldedMatchesBitwiseReference) {
  if (!detail::folded_available()) {
    GTEST_SKIP() << "this CPU or build has no carry-less-multiply CRC path";
  }
  expect_matches_reference(&detail::crc32_folded);
}

TEST(Crc32Paths, DispatchedMatchesPortableOnAMebibyte) {
  const auto bytes = random_bytes(1 << 20, 5);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            detail::crc32_portable(bytes.data(), bytes.size()));
  EXPECT_EQ(crc32(bytes.data(), bytes.size(), 0xDEADBEEFu),
            detail::crc32_portable(bytes.data(), bytes.size(), 0xDEADBEEFu));
}

TEST(Crc32, IncrementalMatchesReferenceAtEverySplitAcrossFoldBoundaries) {
  // 300 bytes: each side of a split is folded, sliced, or both, and the
  // split crosses every 64-byte and 16-byte fold boundary.
  const auto bytes = random_bytes(300, 6);
  const std::uint32_t whole = reference_crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    Crc32 inc;
    inc.update(bytes.data(), split);
    inc.update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(inc.value(), whole) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlipsAtFoldedLengths) {
  auto bytes = random_bytes(256, 7);
  const std::uint32_t clean = crc32(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<unsigned char>(bytes[i] ^ (1 << bit));
      EXPECT_NE(crc32(bytes.data(), bytes.size()), clean)
          << "byte " << i << " bit " << bit;
      bytes[i] = static_cast<unsigned char>(bytes[i] ^ (1 << bit));
    }
  }
}

}  // namespace
}  // namespace krr

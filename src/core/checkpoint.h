#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace krr {

class EstimatorOptions;

/// Durable mid-run profiler snapshots ("KRRSNAP1" container).
///
/// Layout, all integers little-endian:
///
///   offset  size  field
///   0       8     magic "KRRSNAP1"
///   8       4     format version (currently 1)
///   12      4     config fingerprint (crc32 of model name + options)
///   16      8     record offset: accesses already folded into the payload
///   24      8     payload length in bytes
///   32      n     model-specific payload (MrcEstimator::save_state)
///   32+n    4     crc32 over bytes [0, 32+n)
///
/// The trailing CRC covers the header too, so a torn write, a truncation,
/// or a bit flip anywhere in the file is detected before any state is
/// trusted. Writes go to `path + ".tmp"` and are renamed into place, so a
/// crash mid-write leaves the previous snapshot intact.

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Header fields of a snapshot (the payload travels separately).
struct CheckpointHeader {
  std::uint32_t version = kCheckpointVersion;
  /// CRC32 over the model name and canonical option string; resuming under
  /// a different model/config would not be bit-compatible, so a mismatch is
  /// rejected up front as a usage error.
  std::uint32_t config_crc = 0;
  /// Number of trace records already applied to the snapshotted state; the
  /// resuming run skips exactly this many records.
  std::uint64_t records = 0;
};

/// Fingerprint of (model name, options) for CheckpointHeader::config_crc.
std::uint32_t checkpoint_fingerprint(const std::string& model,
                                     const EstimatorOptions& options);

/// Serializes and writes a snapshot atomically (temp file + rename).
Status write_checkpoint_atomic(const std::string& path,
                               const CheckpointHeader& header,
                               const std::string& payload);

/// Reads and fully validates a snapshot; on success fills `*payload` and
/// returns the header. Damage maps onto the ingest taxonomy: bad magic /
/// impossible lengths -> kCorruptHeader, unknown version ->
/// kUnsupportedVersion, CRC mismatch -> kChecksumMismatch.
StatusOr<CheckpointHeader> read_checkpoint(const std::string& path,
                                           std::string* payload);

namespace ckpt {

/// Byte-buffer serialization helpers shared by the model save_state /
/// load_state implementations. Integers are little-endian; doubles travel
/// as their IEEE-754 bit pattern so restored values are bit-identical.

inline void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void append_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

/// Bounds-checked sequential reader over a payload. Every read reports
/// success; a short payload simply makes reads fail rather than crash, and
/// the caller maps that onto a truncated/corrupt status.
class ByteReader {
 public:
  explicit ByteReader(const std::string& data) : data_(data) {}

  bool read_u32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool read_u64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool read_double(double* v) {
    std::uint64_t bits = 0;
    if (!read_u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

/// -------------------------------------------------------------------------
/// Tagged-section state streams — the zoo-wide codec that model payloads
/// (the bytes inside a KRRSNAP container) are built from.
///
/// A stream is a version word followed by zero or more sections:
///
///   offset  size  field
///   0       4     stream format version (kStateStreamVersion)
///   ---     per section, repeated to end of stream ---
///   +0      4     section tag (kSection* constants)
///   +4      8     body length in bytes
///   +12     n     body (model-specific, ckpt::append_* encoded)
///   +12+n   4     crc32 over the body
///
/// Readers skip sections with tags they do not recognize, so a newer build
/// can append sections without breaking an older reader (forward compat);
/// the per-section CRC localizes damage to one section instead of
/// poisoning the whole payload. The outer KRRSNAP container still guards
/// the file end-to-end — section CRCs matter when a payload travels
/// without it (absorbed into a composite sharded snapshot, for example).

inline constexpr std::uint32_t kStateStreamVersion = 1;

/// Section tags. Values are append-only: never reuse a retired tag.
inline constexpr std::uint32_t kSectionModelCore = 1;   // counters, filter, histogram
inline constexpr std::uint32_t kSectionLruStack = 2;    // Olken treap state
inline constexpr std::uint32_t kSectionCollector = 3;   // reuse-time collector
inline constexpr std::uint32_t kSectionAdapter = 4;     // registry-adapter state
inline constexpr std::uint32_t kSectionShardMeta = 5;   // composite fan-out header
inline constexpr std::uint32_t kSectionShardState = 6;  // one live shard (repeated)
inline constexpr std::uint32_t kSectionKrrStack = 7;    // KRR stack + its PRNG

/// Builds a tagged-section stream. Bodies are assembled by the caller with
/// the append_* helpers; add_section frames and checksums them.
class StateWriter {
 public:
  explicit StateWriter(std::string& out) : out_(out) {
    append_u32(out_, kStateStreamVersion);
  }

  void add_section(std::uint32_t tag, const std::string& body);

  StateWriter(const StateWriter&) = delete;
  StateWriter& operator=(const StateWriter&) = delete;

 private:
  std::string& out_;
};

/// Parses and validates a tagged-section stream up front (lengths bounded
/// by the payload, every section CRC checked), then serves sections by tag.
/// Unknown tags are retained but simply never asked for — that is the
/// forward-compatibility skip.
class StateReader {
 public:
  struct Section {
    std::uint32_t tag = 0;
    std::string body;
  };

  /// kTruncated for a stream that ends mid-frame, kUnsupportedVersion for a
  /// future stream version, kChecksumMismatch for a damaged section body.
  static StatusOr<StateReader> parse(const std::string& payload);

  std::size_t section_count() const noexcept { return sections_.size(); }
  const Section& section(std::size_t i) const { return sections_.at(i); }

  /// First section with this tag, or nullptr when absent.
  const std::string* find(std::uint32_t tag) const;

  /// Every section body carrying this tag, in stream order (composite
  /// snapshots repeat kSectionShardState once per live shard).
  std::vector<const std::string*> find_all(std::uint32_t tag) const;

 private:
  StateReader() = default;
  std::vector<Section> sections_;
};

}  // namespace ckpt

}  // namespace krr

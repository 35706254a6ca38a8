#include "trace/trace_reader.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "trace/trace_codec.h"
#include "util/crc32.h"
#include "util/faultpoint.h"

namespace krr {

namespace c = codec;

void fold_ingest_metrics(const TraceReadReport& report,
                         obs::MetricsRegistry& registry) {
  registry.counter("ingest.records_read").inc(report.records_read);
  registry.counter("ingest.records_skipped").inc(report.records_skipped);
  registry.counter("ingest.checksum_failures").inc(report.checksum_failures);
  registry.counter("ingest.resyncs").inc(report.resyncs);
  registry.counter("ingest.bytes_read").inc(report.bytes_read);
  registry.counter("ingest.bytes_discarded").inc(report.bytes_discarded);
  registry.counter("ingest.read_retries").inc(report.read_retries);
  registry.counter("ingest.truncated_tail").inc(report.truncated_tail ? 1 : 0);
}

const char* recovery_policy_name(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kStrict: return "strict";
    case RecoveryPolicy::kSkipAndCount: return "skip";
    case RecoveryPolicy::kBestEffort: return "best_effort";
  }
  return "unknown";
}

TraceReader::TraceReader(std::istream& is, const TraceReaderOptions& options)
    : is_(is), options_(options) {}

bool TraceReader::fail(Status status) {
  state_ = State::kError;
  status_ = std::move(status);
  return false;
}

/// A policy-accepted early end: OK status, tail flagged in the report.
void TraceReader::finish_truncated() {
  report_.truncated_tail = true;
  state_ = State::kDone;
  if (options_.tracer != nullptr) {
    options_.tracer->instant(
        "ingest.truncated_tail", "ingest", 0,
        {{"records_read", static_cast<double>(report_.records_read)},
         {"bytes_read", static_cast<double>(report_.bytes_read)}});
  }
}

/// Accounts n dropped records against the kSkipAndCount budget.
bool TraceReader::count_skipped(std::uint64_t n) {
  report_.records_skipped += n;
  if (options_.policy == RecoveryPolicy::kSkipAndCount &&
      report_.records_skipped > options_.max_bad_records) {
    fail(resource_limit_error(
        "more than " + std::to_string(options_.max_bad_records) +
        " bad records (--max-bad-records); refusing to profile garbage"));
    return false;
  }
  return true;
}

/// Reads up to n bytes, draining resync pushback before the stream.
std::size_t TraceReader::read_bytes(unsigned char* out, std::size_t n) {
  std::size_t got = 0;
  if (!pending_.empty()) {
    got = std::min(n, pending_.size());
    std::memcpy(out, pending_.data(), got);
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(got));
  }
  if (got < n) {
    is_.read(reinterpret_cast<char*>(out) + got,
             static_cast<std::streamsize>(n - got));
    // Count only bytes pulled off the stream: pending_ bytes were already
    // counted when first read, and resync pushback would double-bill them.
    report_.bytes_read += static_cast<std::uint64_t>(is_.gcount());
    got += static_cast<std::size_t>(is_.gcount());
    is_.clear();
  }
  return got;
}

void TraceReader::unread(const unsigned char* data, std::size_t n) {
  pending_.insert(pending_.begin(), data, data + n);
}

void TraceReader::open() {
  state_ = State::kStreaming;
  const bool strict = options_.policy == RecoveryPolicy::kStrict;

  unsigned char header[c::kV2HeaderBytes];
  std::size_t got = read_bytes(header, 12);  // magic + version
  if (got < sizeof(c::kMagic) ||
      std::memcmp(header, c::kMagic, sizeof(c::kMagic)) != 0) {
    fail(corrupt_header_error(got < sizeof(c::kMagic)
                                  ? "stream shorter than the trace magic"
                                  : "trace magic mismatch"));
    return;
  }
  if (got < 12) {
    if (strict) {
      fail(truncated_error("stream ends inside the trace header"));
    } else {
      finish_truncated();
    }
    return;
  }
  const std::uint32_t version = c::decode_u32(header + 8);
  if (version != c::kVersion1 && version != c::kVersion2) {
    fail(unsupported_version_error("trace version " + std::to_string(version)));
    return;
  }
  report_.format_version = version;

  const std::size_t rest =
      (version == c::kVersion1 ? c::kV1HeaderBytes : c::kV2HeaderBytes) - 12;
  if (read_bytes(header + 12, rest) < rest) {
    if (strict) {
      fail(truncated_error("stream ends inside the trace header"));
    } else {
      finish_truncated();
    }
    return;
  }
  report_.declared_records = c::decode_u64(header + 12);

  // Cross-check the header's claims against the actual stream size when the
  // stream is seekable; otherwise cap up-front allocation.
  const auto pos = is_.tellg();
  if (pos != std::streampos(-1)) {
    is_.seekg(0, std::ios::end);
    const auto end = is_.tellg();
    is_.seekg(pos);
    if (end != std::streampos(-1) && end >= pos) {
      seekable_ = true;
      remaining_bytes_ = static_cast<std::uint64_t>(end - pos);
    }
  }
  is_.clear();

  const std::uint64_t count = report_.declared_records;
  constexpr std::uint64_t kNoOverflow =
      std::numeric_limits<std::uint64_t>::max() / c::kRecordBytes - 1;

  if (version == c::kVersion2) {
    records_per_block_ = c::decode_u32(header + 20);
    const std::uint32_t header_crc = c::decode_u32(header + 24);
    const bool crc_ok = crc32(header, 24) == header_crc;
    const bool rpb_ok =
        records_per_block_ >= 1 && records_per_block_ <= c::kMaxRecordsPerBlock;
    if (!crc_ok) {
      ++report_.checksum_failures;
      if (options_.tracer != nullptr) {
        options_.tracer->instant("ingest.header_checksum_failure", "ingest", 0);
      }
    }
    if (strict && (!crc_ok || !rpb_ok)) {
      fail(corrupt_header_error(!crc_ok ? "header CRC32 mismatch"
                                        : "implausible records-per-block"));
      return;
    }
    // Recovery modes keep going with a permissive block-size ceiling; the
    // per-block magic and CRC still gate every delivered record.
    if (!crc_ok || !rpb_ok) records_per_block_ = c::kMaxRecordsPerBlock;
    if (strict && seekable_) {
      const std::uint64_t blocks =
          count == 0 ? 0 : (count + records_per_block_ - 1) / records_per_block_;
      if (count > kNoOverflow ||
          count * c::kRecordBytes + blocks * c::kBlockHeaderBytes >
              remaining_bytes_) {
        fail(corrupt_header_error(
            "header declares more records than the stream can hold"));
        return;
      }
    }
  } else if (strict && seekable_ &&
             (count > kNoOverflow || count * c::kRecordBytes > remaining_bytes_)) {
    fail(corrupt_header_error(
        "header declares more records than the stream can hold"));
    return;
  }

  // Never reserve on the header's word alone (a hostile count would OOM the
  // process before a single record parses).
  reserve_hint_ = count;
  if (seekable_) {
    reserve_hint_ = std::min(reserve_hint_, remaining_bytes_ / c::kRecordBytes);
  } else {
    reserve_hint_ = std::min(reserve_hint_, options_.max_preallocate_records);
  }
}

std::size_t TraceReader::next_batch(Request* out, std::size_t n) {
  if (state_ == State::kUnopened) open();
  std::size_t got = 0;
  while (got < n && state_ != State::kError) {
    std::size_t want = n - got;
    // Injected transient read faults surface as the same kIoError a flaky
    // filesystem would, so stream_trace_file's retry loop is exercised for
    // real. An armed plan is asked once per record, so the record a hit=N
    // trigger fails after does not depend on the batch size.
    if (faults::armed()) {
      if (faults::should_fire(faults::kTraceRead)) {
        fail(io_error("injected transient trace read fault after record " +
                      std::to_string(report_.records_read)));
        break;
      }
      want = 1;
    }
    // v2 may still hold delivered-but-unconsumed records from the last good
    // block after the stream itself has ended (e.g. best-effort stopping at
    // a damaged record mid-block), so take_v2 drains the buffer before it
    // checks the state.
    std::size_t k = 0;
    if (report_.format_version == c::kVersion2) {
      k = take_v2(out + got, want);
    } else {
      while (k < want && state_ == State::kStreaming && next_v1(out[got + k])) {
        ++k;
      }
    }
    got += k;
    if (k < want) break;
  }
  return got;
}

bool TraceReader::next_v1(Request& out) {
  const RecoveryPolicy policy = options_.policy;
  for (;;) {
    if (report_.records_read + report_.records_skipped >=
        report_.declared_records) {
      state_ = State::kDone;
      return false;
    }
    unsigned char rec[c::kRecordBytes];
    if (read_bytes(rec, sizeof(rec)) < sizeof(rec)) {
      if (policy == RecoveryPolicy::kStrict) {
        return fail(truncated_error(
            "stream ends after record " + std::to_string(report_.records_read) +
            " of " + std::to_string(report_.declared_records)));
      }
      finish_truncated();
      return false;
    }
    const unsigned char op = c::decode_record(rec, &out);
    if (op > 1) {
      if (policy == RecoveryPolicy::kStrict) {
        return fail(bad_record_error(
            "bad op byte at record " +
            std::to_string(report_.records_read + report_.records_skipped)));
      }
      if (policy == RecoveryPolicy::kSkipAndCount) {
        if (!count_skipped(1)) return false;
        continue;  // records are fixed-width: the next one starts 13 bytes on
      }
      finish_truncated();  // best effort: keep everything before the damage
      return false;
    }
    ++report_.records_read;
    return true;
  }
}

std::size_t TraceReader::take_v2(Request* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    if (block_pos_ == block_.size() &&
        (state_ != State::kStreaming || !load_block())) {
      break;
    }
    const std::size_t run = std::min(n - got, block_.size() - block_pos_);
    std::copy_n(block_.data() + block_pos_, run, out + got);
    block_pos_ += run;
    got += run;
    report_.records_read += run;
  }
  return got;
}

/// Scans forward for the little-endian block magic, so kSkipAndCount can
/// re-frame the stream after a corrupted block header. The 4 magic bytes
/// are consumed; the caller resumes with the rest of the block header.
bool TraceReader::resync_to_block_magic() {
  ++report_.resyncs;
  const std::uint64_t discarded_before = report_.bytes_discarded;
  unsigned char magic_bytes[4];
  c::encode_u32(magic_bytes, c::kBlockMagic);
  std::size_t matched = 0;
  unsigned char byte;
  while (read_bytes(&byte, 1) == 1) {
    ++report_.bytes_discarded;
    if (byte == magic_bytes[matched]) {
      if (++matched == sizeof(magic_bytes)) {
        report_.bytes_discarded -= sizeof(magic_bytes);
        if (options_.tracer != nullptr) {
          options_.tracer->instant(
              "ingest.resync", "ingest", 0,
              {{"bytes_discarded", static_cast<double>(report_.bytes_discarded -
                                                       discarded_before)}});
        }
        return true;
      }
    } else {
      // The magic has no repeated prefix byte, so a failed match can only
      // restart at length 1 (current byte == first magic byte) or 0.
      matched = byte == magic_bytes[0] ? 1 : 0;
    }
  }
  finish_truncated();
  return false;
}

bool TraceReader::load_block() {
  const RecoveryPolicy policy = options_.policy;
  const bool strict = policy == RecoveryPolicy::kStrict;
  bool have_magic = false;

  for (;;) {
    std::uint32_t block_records = 0;
    std::uint32_t payload_crc = 0;
    if (!have_magic) {
      unsigned char hdr[c::kBlockHeaderBytes];
      const std::size_t got = read_bytes(hdr, sizeof(hdr));
      if (got == 0) {
        // Clean end of stream: complete iff we consumed the declared count.
        const std::uint64_t consumed =
            report_.records_read + report_.records_skipped;
        if (consumed < report_.declared_records) {
          if (strict) {
            return fail(truncated_error(
                "stream ends after " + std::to_string(consumed) + " of " +
                std::to_string(report_.declared_records) + " records"));
          }
          report_.truncated_tail = true;
        }
        state_ = State::kDone;
        return false;
      }
      if (got < sizeof(hdr)) {
        if (strict) {
          return fail(truncated_error("stream ends inside a block header"));
        }
        finish_truncated();
        return false;
      }
      if (c::decode_u32(hdr) != c::kBlockMagic) {
        if (strict) return fail(bad_record_error("block magic mismatch"));
        if (policy == RecoveryPolicy::kBestEffort) {
          finish_truncated();
          return false;
        }
        // The frame is lost; hunt for the next magic. Re-scan from one byte
        // into the header we already consumed, in case the magic is merely
        // shifted rather than destroyed.
        unread(hdr + 1, sizeof(hdr) - 1);
        ++report_.bytes_discarded;
        if (!resync_to_block_magic()) return false;
        have_magic = true;
        continue;
      }
      block_records = c::decode_u32(hdr + 4);
      payload_crc = c::decode_u32(hdr + 8);
    } else {
      have_magic = false;
      unsigned char tail[8];
      if (read_bytes(tail, sizeof(tail)) < sizeof(tail)) {
        if (strict) {
          return fail(truncated_error("stream ends inside a block header"));
        }
        finish_truncated();
        return false;
      }
      block_records = c::decode_u32(tail);
      payload_crc = c::decode_u32(tail + 4);
    }

    if (block_records == 0 || block_records > records_per_block_) {
      if (strict) {
        return fail(bad_record_error("implausible block record count " +
                                     std::to_string(block_records)));
      }
      if (policy == RecoveryPolicy::kBestEffort) {
        finish_truncated();
        return false;
      }
      if (!resync_to_block_magic()) return false;
      have_magic = true;
      continue;
    }
    if (strict && report_.records_read + report_.records_skipped +
                          block_records >
                      report_.declared_records) {
      return fail(bad_record_error(
          "stream contains more records than the header declares"));
    }

    payload_.resize(static_cast<std::size_t>(block_records) * c::kRecordBytes);
    if (read_bytes(payload_.data(), payload_.size()) < payload_.size()) {
      // A partial block cannot be checksummed, so none of it is trusted.
      if (strict) {
        return fail(truncated_error("stream ends inside a block payload"));
      }
      finish_truncated();
      return false;
    }

    if (crc32(payload_.data(), payload_.size()) != payload_crc) {
      ++report_.checksum_failures;
      if (options_.tracer != nullptr) {
        options_.tracer->instant(
            "ingest.checksum_failure", "ingest", 0,
            {{"block_records", static_cast<double>(block_records)},
             {"records_read", static_cast<double>(report_.records_read)}});
      }
      if (strict) {
        return fail(checksum_mismatch_error(
            "block CRC32 mismatch after record " +
            std::to_string(report_.records_read + report_.records_skipped)));
      }
      if (policy == RecoveryPolicy::kBestEffort) {
        finish_truncated();
        return false;
      }
      if (!count_skipped(block_records)) return false;
      continue;
    }

    block_.clear();
    block_.reserve(block_records);
    block_pos_ = 0;
    for (std::uint32_t i = 0; i < block_records; ++i) {
      Request r;
      const unsigned char op =
          c::decode_record(payload_.data() + i * c::kRecordBytes, &r);
      if (op > 1) {
        // CRC-authentic but invalid: the writer itself produced garbage.
        if (strict) {
          return fail(bad_record_error("bad op byte inside a checksummed block"));
        }
        if (policy == RecoveryPolicy::kSkipAndCount) {
          if (!count_skipped(1)) return false;
          continue;
        }
        finish_truncated();  // best effort: keep the block prefix
        break;
      }
      block_.push_back(r);
    }
    if (block_.empty() && state_ == State::kStreaming) continue;
    return !block_.empty();
  }
}

StatusOr<std::vector<Request>> read_trace(std::istream& is,
                                          const TraceReaderOptions& options,
                                          TraceReadReport* report) {
  TraceReader reader(is, options);
  std::vector<Request> trace;
  // Batches land in the vector's tail. The first one opens the reader, after
  // which its clamped reserve hint is known.
  constexpr std::size_t kBatch = 4096;
  for (std::size_t got = kBatch; got == kBatch;) {
    const std::size_t size = trace.size();
    trace.resize(size + kBatch);
    got = reader.next_batch(trace.data() + size, kBatch);
    trace.resize(size + got);
    if (size == 0 && got > 0) {
      trace.reserve(static_cast<std::size_t>(reader.reserve_hint()) + kBatch);
    }
  }
  if (report) *report = reader.report();
  if (!reader.status().is_ok()) return reader.status();
  return trace;
}

Status stream_trace_file(const std::string& path,
                         const TraceReaderOptions& options, std::uint64_t skip,
                         const TraceBlockSink& sink, TraceReadReport* report) {
  std::vector<Request> block(kStreamBlockRecords);
  // Records skipped or handed over so far: a reopened read discards these.
  std::uint64_t consumed = skip;
  std::uint64_t retries = 0;
  for (unsigned attempt = 1;; ++attempt) {
    const Status status = [&]() -> Status {
      std::ifstream is(path, std::ios::binary);
      if (!is) return io_error("cannot open for read: " + path);
      TraceReader reader(is, options);
      std::uint64_t position = 0;  // records read by this attempt
      for (bool more = true; more;) {
        // Read batches into the block's free tail, dropping from each batch's
        // front the records before `consumed` (skipped, or handed over before
        // a reopen).
        std::size_t fill = 0;
        while (more && fill < block.size()) {
          const std::size_t want = block.size() - fill;
          Request* batch = block.data() + fill;
          const std::size_t got = reader.next_batch(batch, want);
          const std::uint64_t behind = consumed > position ? consumed - position : 0;
          const auto drop = static_cast<std::size_t>(std::min<std::uint64_t>(got, behind));
          position += got;
          if (drop > 0) std::copy(batch + drop, batch + got, batch);
          fill += got - drop;
          more = got == want;
        }
        if (!reader.status().is_ok() || fill == 0) break;
        consumed = position;
        if (!sink(std::span<const Request>(block.data(), fill))) break;
      }
      if (report != nullptr) *report = reader.report();
      return reader.status();
    }();
    if (status.code() != StatusCode::kIoError ||
        attempt >= options.read_retry.max_attempts) {
      if (report != nullptr) report->read_retries = retries;
      return status;
    }
    ++retries;
    if (options.tracer != nullptr) {
      options.tracer->instant("ingest.read_retry", "ingest", 0,
                              {{"attempt", static_cast<double>(attempt)},
                               {"resume_at", static_cast<double>(consumed)}});
    }
    options.read_retry.sleep(attempt);
  }
}

StatusOr<std::vector<Request>> load_trace_file(const std::string& path,
                                               const TraceReaderOptions& options,
                                               TraceReadReport* report) {
  std::vector<Request> trace;
  // Reserve from the file size, which bounds the record count, never from
  // the header's claim (a hostile count must not OOM the process).
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (!ec) trace.reserve(static_cast<std::size_t>(bytes / c::kRecordBytes));
  const Status status = stream_trace_file(
      path, options, 0,
      [&trace](std::span<const Request> block) {
        trace.insert(trace.end(), block.begin(), block.end());
        return true;
      },
      report);
  if (!status.is_ok()) return status;
  return trace;
}

void write_trace_binary_v2(std::ostream& os, const std::vector<Request>& trace,
                           std::uint32_t records_per_block) {
  records_per_block = std::clamp(records_per_block, 1u, c::kMaxRecordsPerBlock);
  unsigned char header[c::kV2HeaderBytes];
  std::memcpy(header, c::kMagic, sizeof(c::kMagic));
  c::encode_u32(header + 8, c::kVersion2);
  c::encode_u64(header + 12, trace.size());
  c::encode_u32(header + 20, records_per_block);
  c::encode_u32(header + 24, crc32(header, 24));
  os.write(reinterpret_cast<const char*>(header), sizeof(header));

  std::vector<unsigned char> payload;
  for (std::size_t begin = 0; begin < trace.size(); begin += records_per_block) {
    const std::size_t n =
        std::min<std::size_t>(records_per_block, trace.size() - begin);
    payload.resize(n * c::kRecordBytes);
    for (std::size_t i = 0; i < n; ++i) {
      c::encode_record(payload.data() + i * c::kRecordBytes, trace[begin + i]);
    }
    unsigned char hdr[c::kBlockHeaderBytes];
    c::encode_u32(hdr, c::kBlockMagic);
    c::encode_u32(hdr + 4, static_cast<std::uint32_t>(n));
    c::encode_u32(hdr + 8, crc32(payload.data(), payload.size()));
    os.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  }
}

}  // namespace krr

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "trace/request.h"
#include "util/retry.h"
#include "util/status.h"

namespace krr {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// What the ingestion layer does when it meets corruption (flipped bytes,
/// truncation, hostile headers). KRR is a statistical model (§4), so a
/// profile built from a trace with records dropped is still sound — the
/// non-strict policies exploit exactly that.
enum class RecoveryPolicy {
  /// Fail fast with a typed Status; never deliver a record from a stream
  /// known to be damaged. For archival/verification pipelines.
  kStrict,
  /// Skip damaged records/blocks (resynchronizing on the v2 block magic
  /// when framing is lost) and keep going, up to
  /// TraceReaderOptions::max_bad_records; every drop is counted in the
  /// report. The production-profiling default.
  kSkipAndCount,
  /// Keep everything parsed before the first corruption and stop there
  /// with an OK status. For salvaging partially downloaded traces.
  kBestEffort,
};

const char* recovery_policy_name(RecoveryPolicy policy);

struct TraceReaderOptions {
  RecoveryPolicy policy = RecoveryPolicy::kStrict;
  /// kSkipAndCount gives up with kResourceLimit once this many records
  /// have been dropped (guards against profiling pure garbage).
  std::uint64_t max_bad_records = 1024;
  /// Upper bound on records reserved up front when the stream is not
  /// seekable and the header's declared count cannot be cross-checked
  /// against the stream size (hostile-header OOM guard).
  std::uint64_t max_preallocate_records = 1u << 20;
  /// Optional recovery-event tracing (cat "ingest", lane 0): checksum
  /// failures, resync scans with bytes discarded, and the truncation cut.
  /// Corruption events are rare by construction, so these are emitted
  /// inline, not stride-gated. Non-owning; may be null.
  obs::Tracer* tracer = nullptr;
  /// File reads (stream_trace_file, load_trace_file): a kIoError (open
  /// races, flaky mounts, injected trace.read faults) reopens the file under
  /// this policy and resumes after the last record delivered. The default
  /// (max_attempts = 1) keeps the old fail-fast behavior; every reopen is
  /// counted in TraceReadReport::read_retries and traced as an
  /// ingest.read_retry instant.
  RetryPolicy read_retry{.max_attempts = 1};
};

/// Ingestion accounting, valid whether or not reading succeeded. A clean
/// read has records_skipped == checksum_failures == 0 and
/// truncated_tail == false.
struct TraceReadReport {
  std::uint64_t records_read = 0;      ///< records delivered to the caller
  std::uint64_t records_skipped = 0;   ///< records dropped by recovery
  std::uint64_t checksum_failures = 0; ///< v2 blocks whose CRC32 mismatched
  std::uint64_t resyncs = 0;           ///< scans forward to a v2 block magic
  std::uint64_t bytes_read = 0;        ///< stream bytes consumed (any purpose)
  std::uint64_t bytes_discarded = 0;   ///< bytes consumed by resync scans
  std::uint64_t declared_records = 0;  ///< the header's record count claim
  std::uint32_t format_version = 0;    ///< 1 or 2 once the header parsed
  std::uint64_t read_retries = 0;      ///< file reopens (stream_trace_file)
  bool truncated_tail = false;         ///< stream ended before declared end
};

/// Mirrors the ingestion accounting into `ingest.*` registry counters
/// (records_read, records_skipped, checksum_failures, resyncs, bytes_read,
/// bytes_discarded), so trace-reader telemetry lands in the same snapshot
/// as the profiler's. Call once per finished read; the counters accumulate
/// across multiple reads into the same registry.
void fold_ingest_metrics(const TraceReadReport& report,
                         obs::MetricsRegistry& registry);

/// Streaming trace reader for the binary formats: v1 (unchecksummed 13-byte
/// records) and v2 (CRC32-checksummed blocks, written by
/// write_trace_binary_v2). The format is auto-detected from the header.
///
///   TraceReader reader(is, {.policy = RecoveryPolicy::kSkipAndCount});
///   Request r;
///   while (reader.next(r)) profiler.access(r);
///   if (!reader.status().is_ok()) ...   // typed failure
///   reader.report();                    // skip/corruption accounting
///
/// next() and next_batch() never throw; header and record problems surface
/// through status() according to the recovery policy.
class TraceReader {
 public:
  explicit TraceReader(std::istream& is, const TraceReaderOptions& options = {});

  /// Delivers up to n records into out[0, n) and returns how many. A short
  /// count means end of stream *or* error — distinguish via status(): OK
  /// means a clean (or policy-accepted) end. v2 copies whole runs of the
  /// decoded block at once. While a fault plan is armed, the trace.read
  /// fault point is asked once per record (and once for the end-of-stream
  /// read), so trace.read@hit=N fails after record N-1 at any batch size.
  std::size_t next_batch(Request* out, std::size_t n);

  /// Delivers the next record: next_batch(&out, 1) == 1.
  bool next(Request& out) { return next_batch(&out, 1) == 1; }

  const Status& status() const noexcept { return status_; }
  const TraceReadReport& report() const noexcept { return report_; }

  /// A hint for vector::reserve, already clamped against the stream size
  /// (when seekable) and max_preallocate_records — never trust the raw
  /// header count.
  std::uint64_t reserve_hint() const noexcept { return reserve_hint_; }

 private:
  enum class State { kUnopened, kStreaming, kDone, kError };

  void open();
  bool next_v1(Request& out);
  std::size_t take_v2(Request* out, std::size_t n);
  bool load_block();
  bool resync_to_block_magic();
  bool fail(Status status);
  void finish_truncated();
  bool count_skipped(std::uint64_t n);
  std::size_t read_bytes(unsigned char* out, std::size_t n);
  void unread(const unsigned char* data, std::size_t n);

  std::istream& is_;
  TraceReaderOptions options_;
  Status status_;
  TraceReadReport report_;
  State state_ = State::kUnopened;
  std::uint64_t reserve_hint_ = 0;
  std::uint64_t remaining_bytes_ = 0;  ///< stream bytes past the header
  bool seekable_ = false;
  std::uint32_t records_per_block_ = 0;   // v2 only
  std::vector<Request> block_;            // v2: current decoded block
  std::size_t block_pos_ = 0;
  std::vector<unsigned char> payload_;    // v2: raw block payload buffer
  std::vector<unsigned char> pending_;    // bytes pushed back during resync
};

/// Reads a whole binary trace (v1 or v2) under the given policy. On
/// success the report (if provided) holds the ingestion accounting; on
/// failure it is still filled with everything counted up to the error.
StatusOr<std::vector<Request>> read_trace(std::istream& is,
                                          const TraceReaderOptions& options = {},
                                          TraceReadReport* report = nullptr);

/// Records per block handed to a TraceBlockSink (1 MiB of Requests): big
/// enough that per-block costs vanish per record, small enough that a
/// streamed profile stays O(model) in memory.
inline constexpr std::size_t kStreamBlockRecords = 65536;

/// Receives one block of consecutive records, valid only during the call;
/// returns false to stop the stream.
using TraceBlockSink = std::function<bool(std::span<const Request>)>;

/// Streams a binary trace file to `sink` in full blocks (the last may be
/// short), after skipping its first `skip` records; a failed read hands
/// over no part of its last block. A kIoError reopens the file under
/// options.read_retry and resumes after the last record delivered, so the
/// sink sees every record once; other errors are properties of the bytes
/// and end the stream. The report covers the last attempt (records_read
/// includes the skipped records) plus read_retries.
Status stream_trace_file(const std::string& path,
                         const TraceReaderOptions& options, std::uint64_t skip,
                         const TraceBlockSink& sink,
                         TraceReadReport* report = nullptr);

/// Collects stream_trace_file into one vector.
StatusOr<std::vector<Request>> load_trace_file(const std::string& path,
                                               const TraceReaderOptions& options = {},
                                               TraceReadReport* report = nullptr);

/// Writes trace format v2: the v1 header extended with a block size and a
/// header CRC32, followed by blocks of up to records_per_block records,
/// each framed as (block magic, record count, payload CRC32, payload).
/// Readers can verify integrity per block and resynchronize on the magic.
void write_trace_binary_v2(std::ostream& os, const std::vector<Request>& trace,
                           std::uint32_t records_per_block = 4096);

}  // namespace krr

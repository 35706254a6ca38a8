#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/generator.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "trace/workload_factory.h"
#include "trace/zipf.h"
#include "util/crc32.h"

namespace krr {
namespace {

std::vector<Request> make_trace(std::size_t n, std::uint64_t seed = 7) {
  ZipfianGenerator gen(400, 0.9, seed, true, 64);
  auto trace = materialize(gen, n);
  for (std::size_t i = 0; i < trace.size(); i += 5) trace[i].op = Op::kSet;
  return trace;
}

std::string to_v2_bytes(const std::vector<Request>& trace,
                        std::uint32_t records_per_block = 64) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_binary_v2(ss, trace, records_per_block);
  return ss.str();
}

std::string to_v1_bytes(const std::vector<Request>& trace) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_binary(ss, trace);
  return ss.str();
}

TEST(TraceReaderV2, RoundTrips) {
  const auto trace = make_trace(1000);
  std::stringstream ss(to_v2_bytes(trace));
  TraceReadReport report;
  auto result = read_trace(ss, {}, &report);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(*result, trace);
  EXPECT_EQ(report.format_version, 2u);
  EXPECT_EQ(report.records_read, trace.size());
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(report.checksum_failures, 0u);
  EXPECT_FALSE(report.truncated_tail);
}

TEST(TraceReaderV2, RoundTripsEmptyAndOddBlockSizes) {
  for (std::uint32_t rpb : {1u, 3u, 64u, 1000u, 5000u}) {
    const auto trace = make_trace(777);
    std::stringstream ss(to_v2_bytes(trace, rpb));
    auto result = read_trace(ss);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(*result, trace) << "records_per_block=" << rpb;
  }
  std::stringstream empty(to_v2_bytes({}));
  auto result = read_trace(empty);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result->empty());
}

TEST(TraceReaderV2, LegacyReaderAcceptsV2) {
  const auto trace = make_trace(500);
  std::stringstream ss(to_v2_bytes(trace));
  EXPECT_EQ(read_trace_binary(ss), trace);
}

TEST(TraceReaderV1, ReadsV1ByteIdentically) {
  const auto trace = make_trace(500);
  std::stringstream ss(to_v1_bytes(trace));
  TraceReadReport report;
  auto result = read_trace(ss, {}, &report);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(*result, trace);
  EXPECT_EQ(report.format_version, 1u);
}

TEST(TraceReaderV1, StreamingInterfaceDeliversInOrder) {
  const auto trace = make_trace(100);
  std::stringstream ss(to_v1_bytes(trace));
  TraceReader reader(ss);
  Request r;
  std::size_t i = 0;
  while (reader.next(r)) {
    ASSERT_LT(i, trace.size());
    EXPECT_EQ(r, trace[i++]);
  }
  EXPECT_TRUE(reader.status().is_ok());
  EXPECT_EQ(i, trace.size());
}

TEST(TraceReaderV1, HostileCountRejectedWhenSeekable) {
  // A header claiming 2^60 records over a 3-record payload must fail as a
  // corrupt header in strict mode — before any large allocation.
  auto bytes = to_v1_bytes(make_trace(3));
  const std::uint64_t hostile = 1ULL << 60;
  for (int i = 0; i < 8; ++i) {
    bytes[12 + i] = static_cast<char>(hostile >> (8 * i));
  }
  std::stringstream ss(bytes);
  auto result = read_trace(ss, {.policy = RecoveryPolicy::kStrict});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptHeader);
}

TEST(TraceReaderV1, HostileCountClampedInRecoveryModes) {
  const auto trace = make_trace(3);
  auto bytes = to_v1_bytes(trace);
  const std::uint64_t hostile = 1ULL << 60;
  for (int i = 0; i < 8; ++i) {
    bytes[12 + i] = static_cast<char>(hostile >> (8 * i));
  }
  std::stringstream ss(bytes);
  TraceReadReport report;
  auto result = read_trace(ss, {.policy = RecoveryPolicy::kSkipAndCount}, &report);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(*result, trace);  // everything that exists is delivered
  EXPECT_TRUE(report.truncated_tail);
}

// A streambuf that hides the stream size (tellg fails), forcing the reader
// down the "not seekable: cap preallocation" path.
class NonSeekableBuf : public std::stringbuf {
 public:
  explicit NonSeekableBuf(const std::string& s)
      : std::stringbuf(s, std::ios::in) {}

 protected:
  pos_type seekoff(off_type, std::ios_base::seekdir,
                   std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
};

TEST(TraceReaderV1, HostileCountCappedWhenNotSeekable) {
  const auto trace = make_trace(3);
  auto bytes = to_v1_bytes(trace);
  const std::uint64_t hostile = 1ULL << 60;
  for (int i = 0; i < 8; ++i) {
    bytes[12 + i] = static_cast<char>(hostile >> (8 * i));
  }
  NonSeekableBuf buf(bytes);
  std::istream is(&buf);
  TraceReaderOptions options;
  options.policy = RecoveryPolicy::kSkipAndCount;
  options.max_preallocate_records = 64;  // the OOM guard under test
  TraceReader reader(is, options);
  Request r;
  std::vector<Request> got;
  while (reader.next(r)) got.push_back(r);
  EXPECT_TRUE(reader.status().is_ok());
  EXPECT_EQ(got, trace);
  EXPECT_LE(reader.reserve_hint(), 64u);
}

TEST(TraceReaderV2, BadOpByteSkippedAndCounted) {
  // Corrupt an op byte *and* refresh the block CRC, modeling a buggy
  // writer: the block checksums clean but holds an invalid record.
  auto trace = make_trace(10);
  std::string bytes = to_v2_bytes(trace, 100);
  // One block: header 28, block header 12, records of 13 bytes; op is the
  // record's last byte.
  const std::size_t op_offset = 28 + 12 + 3 * 13 + 12;
  bytes[op_offset] = 7;
  // Recompute the payload CRC so only the op byte is "wrong".
  const std::size_t payload_offset = 28 + 12;
  const std::uint32_t crc =
      crc32(bytes.data() + payload_offset, trace.size() * 13);
  for (int i = 0; i < 4; ++i) {
    bytes[28 + 8 + i] = static_cast<char>(crc >> (8 * i));
  }

  std::stringstream strict_ss(bytes);
  auto strict = read_trace(strict_ss, {.policy = RecoveryPolicy::kStrict});
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kBadRecord);

  std::stringstream skip_ss(bytes);
  TraceReadReport report;
  auto skipped = read_trace(skip_ss, {.policy = RecoveryPolicy::kSkipAndCount},
                            &report);
  ASSERT_TRUE(skipped.is_ok());
  EXPECT_EQ(skipped->size(), trace.size() - 1);
  EXPECT_EQ(report.records_skipped, 1u);

  std::stringstream best_ss(bytes);
  auto best = read_trace(best_ss, {.policy = RecoveryPolicy::kBestEffort});
  ASSERT_TRUE(best.is_ok());
  EXPECT_EQ(best->size(), 3u);  // everything before the damaged record
}

TEST(TraceReaderV2, MaxBadRecordsBudgetEnforced) {
  const auto trace = make_trace(300);
  std::string bytes = to_v2_bytes(trace, 50);
  // Flip a payload byte in every block: all 6 blocks fail their CRC.
  for (std::size_t block = 0; block < 6; ++block) {
    const std::size_t payload = 28 + (block + 1) * 12 + block * 50 * 13;
    bytes[payload + 5] = static_cast<char>(bytes[payload + 5] ^ 0x40);
  }
  std::stringstream generous(bytes);
  TraceReadReport report;
  auto ok = read_trace(generous,
                       {.policy = RecoveryPolicy::kSkipAndCount,
                        .max_bad_records = 1000},
                       &report);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_TRUE(ok->empty());
  EXPECT_EQ(report.records_skipped, 300u);
  EXPECT_EQ(report.checksum_failures, 6u);

  std::stringstream stingy(bytes);
  auto limited = read_trace(
      stingy, {.policy = RecoveryPolicy::kSkipAndCount, .max_bad_records = 100});
  ASSERT_FALSE(limited.is_ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceLimit);
}

TEST(TraceReaderV2, ResyncsAfterCorruptBlockHeader) {
  const auto trace = make_trace(200);
  std::string bytes = to_v2_bytes(trace, 50);
  // Destroy the second block's magic: the reader must lose that block and
  // resynchronize on the third block's magic.
  const std::size_t second_block = 28 + 12 + 50 * 13;
  bytes[second_block] = 'X';
  std::stringstream ss(bytes);
  TraceReadReport report;
  auto result = read_trace(ss, {.policy = RecoveryPolicy::kSkipAndCount}, &report);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GE(report.resyncs, 1u);
  // Blocks 1, 3, 4 survive (150 records); block 2 is lost to the resync.
  EXPECT_EQ(result->size(), 150u);
  std::vector<Request> expected(trace.begin(), trace.begin() + 50);
  expected.insert(expected.end(), trace.begin() + 100, trace.end());
  EXPECT_EQ(*result, expected);
}

TEST(TraceReaderV2, UnsupportedVersionIsTyped) {
  auto bytes = to_v2_bytes(make_trace(5));
  bytes[8] = 9;  // version field
  std::stringstream ss(bytes);
  auto result = read_trace(ss, {.policy = RecoveryPolicy::kSkipAndCount});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupportedVersion);
}

TEST(TraceReaderV2, HeaderCrcGuardsHostileFields) {
  auto bytes = to_v2_bytes(make_trace(5));
  bytes[20] = static_cast<char>(0xFF);  // records_per_block low byte
  std::stringstream ss(bytes);
  auto strict = read_trace(ss, {.policy = RecoveryPolicy::kStrict});
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruptHeader);
  // Recovery mode still reads everything: blocks self-describe and
  // checksum clean.
  std::stringstream ss2(bytes);
  TraceReadReport report;
  auto skip = read_trace(ss2, {.policy = RecoveryPolicy::kSkipAndCount}, &report);
  ASSERT_TRUE(skip.is_ok());
  EXPECT_EQ(skip->size(), 5u);
  EXPECT_EQ(report.checksum_failures, 1u);
}

/// One read of `bytes`: every record delivered, the final status and the
/// report.
struct ReadOutcome {
  std::vector<Request> records;
  Status status;
  TraceReadReport report;
};

/// Reads by next() when batch == 0, else by next_batch(batch) until a short
/// count.
ReadOutcome read_all(const std::string& bytes, const TraceReaderOptions& options,
                     std::size_t batch) {
  std::stringstream ss(bytes);
  TraceReader reader(ss, options);
  ReadOutcome out;
  if (batch == 0) {
    Request r;
    while (reader.next(r)) out.records.push_back(r);
  } else {
    std::vector<Request> buf(batch);
    for (std::size_t got = batch; got == batch;) {
      got = reader.next_batch(buf.data(), batch);
      out.records.insert(out.records.end(), buf.begin(),
                         buf.begin() + static_cast<std::ptrdiff_t>(got));
    }
  }
  out.status = reader.status();
  out.report = reader.report();
  return out;
}

auto report_fields(const TraceReadReport& r) {
  return std::make_tuple(r.records_read, r.records_skipped, r.checksum_failures,
                         r.resyncs, r.bytes_read, r.bytes_discarded,
                         r.declared_records, r.format_version, r.read_retries,
                         r.truncated_tail);
}

void set_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[offset + i] = static_cast<char>(v >> (8 * i));
}

TEST(TraceReaderBatch, EveryBatchSizeMatchesRecordAtATime) {
  const auto trace = make_trace(1000);
  const std::string v2 = to_v2_bytes(trace, 64);  // 16 blocks, the last short
  const std::size_t block_bytes = 12 + 64 * 13;
  std::vector<std::pair<std::string, std::string>> inputs;
  inputs.emplace_back("v1", to_v1_bytes(trace));
  inputs.emplace_back("v2", v2);
  inputs.emplace_back("v2 rpb 5000", to_v2_bytes(trace, 5000));
  {
    std::string bytes = v2;  // flip a payload byte of block 3
    bytes[28 + 2 * block_bytes + 12 + 40] ^= 0x08;
    inputs.emplace_back("bad block crc", bytes);
  }
  {
    std::string bytes = v2;  // destroy block 2's magic: resync on block 3
    bytes[28 + block_bytes] = 'X';
    inputs.emplace_back("bad block magic", bytes);
  }
  {
    std::string bytes = v2;  // every block fails its CRC: budget exceeded
    for (std::size_t b = 0; b < 16; ++b) bytes[28 + b * block_bytes + 12] ^= 0x01;
    inputs.emplace_back("every block bad", bytes);
  }
  inputs.emplace_back("v2 truncated mid-block",
                      v2.substr(0, 28 + 5 * block_bytes + 12 + 300));
  inputs.emplace_back("v1 truncated mid-record",
                      to_v1_bytes(trace).substr(0, 20 + 500 * 13 + 6));
  {
    // Corrupt an op byte in block 4 and refresh that block's CRC: the block
    // checksums clean but holds an invalid record.
    std::string bytes = v2;
    const std::size_t payload = 28 + 3 * block_bytes + 12;
    bytes[payload + 10 * 13 + 12] = 7;
    const std::uint32_t crc = crc32(bytes.data() + payload, 64 * 13);
    for (int i = 0; i < 4; ++i) {
      bytes[payload - 4 + i] = static_cast<char>(crc >> (8 * i));
    }
    inputs.emplace_back("bad op byte in a checksummed block", bytes);
  }
  {
    std::string bytes = to_v1_bytes(trace);
    set_u64(bytes, 12, 1ULL << 60);
    inputs.emplace_back("v1 hostile count", bytes);
  }
  {
    std::string bytes = v2;  // the header CRC catches the hostile count
    set_u64(bytes, 12, 1ULL << 60);
    inputs.emplace_back("v2 hostile count", bytes);
  }

  for (const auto& [name, bytes] : inputs) {
    for (const RecoveryPolicy policy :
         {RecoveryPolicy::kStrict, RecoveryPolicy::kSkipAndCount,
          RecoveryPolicy::kBestEffort}) {
      SCOPED_TRACE(name + " / " + recovery_policy_name(policy));
      const TraceReaderOptions options{.policy = policy, .max_bad_records = 100};
      const ReadOutcome expected = read_all(bytes, options, 0);
      for (const std::size_t batch : {1u, 7u, 4096u, 65536u}) {
        SCOPED_TRACE(batch);
        const ReadOutcome got = read_all(bytes, options, batch);
        EXPECT_EQ(got.records, expected.records);
        EXPECT_EQ(got.status, expected.status);
        EXPECT_EQ(report_fields(got.report), report_fields(expected.report));
      }
    }
  }
}

TEST(TraceCsv, AcceptsCrlfAndTrailingWhitespace) {
  std::stringstream ss("key,size,op\r\n1,100,get\r\n2, 200 ,set \r\n");
  const auto trace = read_trace_csv(ss);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], (Request{1, 100, Op::kGet}));
  EXPECT_EQ(trace[1], (Request{2, 200, Op::kSet}));
}

TEST(TraceCsv, RejectsNegativeAndOverflowingSizes) {
  std::stringstream negative("key,size,op\n1,-5,get\n");
  EXPECT_THROW(read_trace_csv(negative), std::runtime_error);
  std::stringstream overflow("key,size,op\n1,4294967296,get\n");
  EXPECT_THROW(read_trace_csv(overflow), std::runtime_error);
}

TEST(TraceCsv, RecoveryPoliciesApply) {
  const std::string text =
      "key,size,op\n1,10,get\nBADLINE\n2,20,set\n3,-1,get\n4,40,get\n";
  std::stringstream skip_ss(text);
  TraceReadReport report;
  auto skipped =
      read_trace_csv(skip_ss, {.policy = RecoveryPolicy::kSkipAndCount}, &report);
  ASSERT_TRUE(skipped.is_ok());
  EXPECT_EQ(skipped->size(), 3u);
  EXPECT_EQ(report.records_skipped, 2u);

  std::stringstream best_ss(text);
  auto best = read_trace_csv(best_ss, {.policy = RecoveryPolicy::kBestEffort});
  ASSERT_TRUE(best.is_ok());
  EXPECT_EQ(best->size(), 1u);

  std::stringstream strict_ss(text);
  auto strict = read_trace_csv(strict_ss, {.policy = RecoveryPolicy::kStrict});
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kBadRecord);
}

TEST(TraceFiles, SaveV2LoadsBackAndV1StillWritable) {
  const auto trace = make_trace(50);
  const std::string path = testing::TempDir() + "/krr_trace_reader_fmt.bin";
  save_trace(path, trace);  // defaults to v2
  EXPECT_EQ(load_trace(path), trace);
  save_trace(path, trace, TraceFormat::kV1);
  EXPECT_EQ(load_trace(path), trace);
  std::remove(path.c_str());
}

TEST(StreamTraceFile, SkipsAPrefixAndStopsWhenTheSinkDeclines) {
  const auto trace = make_trace(kStreamBlockRecords + 5000);
  const std::string path = ::testing::TempDir() + "stream_skip.bin";
  {
    std::ofstream os(path, std::ios::binary);
    write_trace_binary_v2(os, trace);
  }
  const auto collect = [&](std::uint64_t skip, std::size_t max_blocks,
                           TraceReadReport* report) {
    std::vector<std::size_t> sizes;
    std::vector<Request> delivered;
    const Status status = stream_trace_file(
        path, {}, skip,
        [&](std::span<const Request> block) {
          sizes.push_back(block.size());
          delivered.insert(delivered.end(), block.begin(), block.end());
          return sizes.size() < max_blocks;
        },
        report);
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return std::make_pair(sizes, delivered);
  };
  TraceReadReport report;
  // Skipped records fill no block: the first block starts at record 3000.
  auto [sizes, delivered] = collect(3000, 10, &report);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{kStreamBlockRecords, 2000}));
  EXPECT_EQ(delivered,
            std::vector<Request>(trace.begin() + 3000, trace.end()));
  EXPECT_EQ(report.records_read, trace.size());
  // A declining sink ends the stream after its block.
  std::tie(sizes, delivered) = collect(0, 1, &report);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{kStreamBlockRecords}));
  EXPECT_EQ(report.records_read, kStreamBlockRecords);
  // A skip past the end delivers nothing and reports the real length.
  std::tie(sizes, delivered) = collect(trace.size() + 1, 10, &report);
  EXPECT_TRUE(sizes.empty());
  EXPECT_EQ(report.records_read, trace.size());
  std::remove(path.c_str());
}

TEST(WorkloadFactory, TryMakeWorkloadReportsTypedErrors) {
  auto unknown = try_make_workload("frobnicate");
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  auto bad_param = try_make_workload("zipf:not-a-number");
  ASSERT_FALSE(bad_param.is_ok());
  EXPECT_EQ(bad_param.status().code(), StatusCode::kInvalidArgument);
  auto ok = try_make_workload("zipf:0.9");
  ASSERT_TRUE(ok.is_ok());
  EXPECT_NE(*ok, nullptr);
}

}  // namespace
}  // namespace krr

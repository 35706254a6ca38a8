#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace krr::obs {

/// One key=value annotation on a trace event. The key must be a string
/// literal (or otherwise outlive the tracer): events store the pointer, not
/// a copy, so recording stays allocation-free on the hot path.
struct TraceArg {
  const char* key;
  double value;
};

/// One recorded event, POD so ring slots assign without allocation.
/// `name` and `cat` must be string literals for the same lifetime reason as
/// TraceArg::key. Timestamps are nanoseconds on the tracer's own steady
/// clock (zero at tracer construction); the exporter converts to the
/// microseconds Chrome's trace-event format expects.
struct TraceEvent {
  static constexpr std::uint8_t kMaxArgs = 4;

  const char* name = nullptr;
  const char* cat = nullptr;
  char phase = 'i';          ///< 'X' = complete span, 'i' = instant
  std::uint32_t lane = 0;    ///< exported as tid: 0 = main/producer, 1.. = shards
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  ///< complete spans only
  std::uint8_t n_args = 0;
  TraceArg args[kMaxArgs];
};

/// Low-overhead span/instant-event tracer exporting Chrome trace-event JSON
/// (chrome://tracing, Perfetto). The design mirrors the rest of the obs
/// layer: pay at attach time, not on the hot path.
///
///  - Each recording thread gets its own fixed-capacity ring (registered
///    under a mutex on that thread's first event, cached thread-locally
///    after), so recording is a relaxed counter bump and a struct store —
///    no locks, no allocation, no cache-line sharing between threads.
///  - Rings drop-newest on overflow and count the drops; a trace that lost
///    events says so in the export instead of blocking the pipeline.
///  - Clock reads are the caller's problem by design: per-record code paths
///    stride-gate them exactly like Heartbeat::tick (see ShardFanout's
///    drain-batch gating), so a traced run reads the
///    clock thousands of times per second, not millions.
///  - Draining happens once, single-threaded, in to_json() after the
///    recording threads have quiesced (finish()/join has happened) — the
///    export is not safe to race with recording.
///
/// Every instrumentation point takes `Tracer*` and treats nullptr as
/// "tracing detached": the detached cost is one pointer compare.
class Tracer {
 public:
  /// Events per thread ring. 16k events ≈ 1 MiB/thread; a full profiling
  /// run emits hundreds of phase/governor events and a few thousand gated
  /// drain spans, so the default leaves generous headroom.
  static constexpr std::size_t kDefaultRingCapacity = 1u << 14;

  explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since tracer construction (steady clock). Stride-gate
  /// calls from per-record paths.
  std::uint64_t now_ns() const noexcept { return watch_.nanos(); }

  /// Records an instant event at now_ns().
  void instant(const char* name, const char* cat, std::uint32_t lane,
               std::initializer_list<TraceArg> args = {}) noexcept;

  /// Records a complete span [ts_ns, ts_ns + dur_ns).
  void complete(const char* name, const char* cat, std::uint32_t lane,
                std::uint64_t ts_ns, std::uint64_t dur_ns,
                std::initializer_list<TraceArg> args = {}) noexcept;

  /// Names a lane in the exported trace (Perfetto shows it as the thread
  /// name). Lane 0 defaults to "main"; sharded runs name lanes 1..S
  /// "shard 0".."shard S-1" at attach time.
  void set_lane_name(std::uint32_t lane, std::string name);

  /// Events recorded (across all rings) and dropped on ring overflow.
  std::uint64_t recorded() const noexcept;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Drains every ring into one Chrome trace-event document:
  ///   {"traceEvents": [...], "displayTimeUnit": "ms",
  ///    "otherData": {"recorded": N, "dropped": D}}
  /// Events are sorted by timestamp; lane names become thread_name metadata
  /// records. Call only after recording threads have quiesced.
  Json to_json() const;

  /// Serializes to_json() to `path`. kIoError when the file cannot be
  /// written.
  Status write_file(const std::string& path) const;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity) : events(capacity) {}
    std::vector<TraceEvent> events;
    /// Single writer (the owning thread); drained after quiesce.
    std::atomic<std::uint64_t> count{0};
  };

  void record(TraceEvent ev, std::initializer_list<TraceArg> args) noexcept;
  Ring* ring_for_current_thread() noexcept;

  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  const std::size_t ring_capacity_;
  Stopwatch watch_;
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mu_;  ///< guards ring registration and lane names
  std::vector<std::unique_ptr<Ring>> rings_;
  std::map<std::thread::id, Ring*> ring_by_thread_;
  std::map<std::uint32_t, std::string> lane_names_;
};

/// RAII complete-span helper; a null tracer makes construction and
/// destruction each a single branch.
///
///   { ScopedTraceSpan span(tracer, "ingest", "phase"); read_trace(...); }
class ScopedTraceSpan {
 public:
  ScopedTraceSpan(Tracer* tracer, const char* name, const char* cat,
                  std::uint32_t lane = 0) noexcept
      : tracer_(tracer), name_(name), cat_(cat), lane_(lane),
        start_ns_(tracer != nullptr ? tracer->now_ns() : 0) {}

  ~ScopedTraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, cat_, lane_, start_ns_,
                        tracer_->now_ns() - start_ns_);
    }
  }

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* cat_;
  std::uint32_t lane_;
  std::uint64_t start_ns_;
};

}  // namespace krr::obs

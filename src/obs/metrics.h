#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "obs/json.h"

namespace krr::obs {

/// Monotonic event counter. Relaxed atomics: hot paths increment without
/// synchronization and readers (heartbeat, final export) see a value that
/// is exact once the writers quiesce — the same contract as per-CPU stats
/// counters. A single increment is one `lock xadd`, so instrumented code
/// pays nanoseconds, not mutexes.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (stack depth, sampling rate, phase
/// seconds). Stored as a double; set/load are relaxed atomics.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram for latencies, depths, and chain lengths:
/// bucket 0 holds the value 0, bucket i (1..64) holds [2^(i-1), 2^i).
/// Recording is two relaxed increments and a `std::bit_width` — cheap
/// enough for per-access instrumentation. Quantiles are approximate (the
/// geometric midpoint of the containing bucket), which is the right
/// resolution for "where does the time go" telemetry.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static std::size_t bucket_index(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  static std::uint64_t bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
  }
  static std::uint64_t bucket_hi(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Adds values counted elsewhere in one go: bucket_counts[i] values in
  /// bucket i, together summing to `sum`. Empty buckets cost nothing.
  void record_counts(const std::array<std::uint64_t, kBuckets>& bucket_counts,
                     std::uint64_t sum) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Approximate quantile (q in [0, 1]): the geometric midpoint of the
  /// bucket containing the q-th recorded value. 0 on an empty histogram.
  double quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named metric store. Registration (`counter("stack.swaps")`) takes a
/// mutex and returns a reference with a stable address for the registry's
/// lifetime (deque storage), so instrumented components resolve their
/// metrics once at attach time and the hot path never touches the
/// registry again — reads and increments are lock-free.
///
/// Metric name convention: `<component>.<quantity>`, e.g.
/// `filter.dropped`, `stack.update_ns`, `phase.profile_seconds`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric with this name, creating it on first use.
  /// Re-registering an existing name returns the same instance.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LogHistogram& histogram(const std::string& name);

  /// Snapshot of every registered metric:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count,sum,mean,p50,p90,p99,buckets}}}
  /// Extend the returned object (run_report, phase data) before dumping.
  Json to_json() const;

  void write_json(std::ostream& os) const;

  /// Human-readable aligned dump (the CLI's --format=table).
  void write_table(std::ostream& os) const;

 private:
  mutable std::mutex mu_;  // guards registration, not metric updates
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, LogHistogram>> histograms_;
};

/// Hot-path instrumentation is always compiled in: attach_metrics() wires
/// per-access counters/histograms at run time, and a detached pipeline pays
/// one pointer test per access. Kept as a constant for readers that report
/// it (krr_cli's `instrumentation_compiled_in`, benchmark provenance).
inline constexpr bool kHotPathInstrumentation = true;

/// The KrrStack-level slice of the pipeline metrics: what the stack update
/// itself can observe (Fig. 5.4's update-overhead quantities). Plain
/// pointers so the stack can be instrumented in tests without a registry.
struct StackMetrics {
  Counter* cold_misses = nullptr;  ///< stack.cold_misses — first-ever references
  Counter* swaps = nullptr;        ///< stack.swaps — swap positions processed
  LogHistogram* chain_len = nullptr;  ///< stack.chain_len — swap-chain length/access
  LogHistogram* update_ns = nullptr;  ///< stack.update_ns — access cost (sampled)
};

/// The sharded-pipeline fan-out slice: what the producer/merge side of a
/// sharded run (ShardFanout behind ShardedEstimator) can observe. Per-shard
/// model metrics (stack depth, final rate, degradations) are exported as
/// named gauges via ShardedEstimator::export_gauges, not through fixed
/// pointers, because the shard count is a runtime choice.
struct ShardedMetrics {
  Counter* enqueued = nullptr;        ///< sharded.enqueued — records fanned out
  Counter* producer_stalls = nullptr; ///< sharded.producer_stalls — full-queue waits
  LogHistogram* queue_depth = nullptr;///< sharded.queue_depth — depth sampled at enqueue
  Gauge* shards = nullptr;            ///< sharded.shards — shard count S
  Gauge* threads = nullptr;           ///< sharded.threads — worker threads T
  Gauge* merge_seconds = nullptr;     ///< sharded.merge_seconds — histogram merge+MRC time
  Gauge* stall_seconds = nullptr;     ///< sharded.producer_stall_seconds — fan-out backpressure
  Counter* shard_failures = nullptr;  ///< sharded.shard_failures — shards dropped (best-effort)
  Counter* backpressure_sleeps = nullptr;  ///< sharded.backpressure_sleeps — producer sleep steps
  Counter* resurrections = nullptr;   ///< recovery.resurrections — workers revived by replay
  Counter* replayed_records = nullptr;///< recovery.replayed_records — journal records re-applied
};

/// The model-agnostic gauge slice every registered estimator publishes via
/// MrcEstimator::refresh_metrics_gauges, whatever its family: stack models
/// report stack depth, tree models tracked objects, reuse-time collectors
/// their sampled set, sketches their live counters. One shared name table
/// lets the conformance tests and the CLI's --metrics output treat the
/// whole zoo uniformly.
struct ModelMetrics {
  Gauge* depth = nullptr;           ///< model.depth — stack/tree/tracked-set size
  Gauge* resident_bytes = nullptr;  ///< model.resident_bytes — state footprint
  Gauge* sampling_rate = nullptr;   ///< model.sampling_rate — realized rate
  Gauge* samples = nullptr;         ///< model.samples — refs/objects ingested
  Gauge* degradations = nullptr;    ///< model.degradations — shed/prune steps
  Gauge* histogram_bins = nullptr;  ///< model.histogram_bins — distinct bins
};

/// The wiring between the profiling pipeline and a registry: one struct of
/// resolved metric pointers handed to KrrProfiler::attach_metrics(). Kept
/// in obs (not core) so the metric name table lives in one place.
struct PipelineMetrics {
  explicit PipelineMetrics(MetricsRegistry& registry);

  // Profiler / spatial filter.
  Counter* accesses;          ///< profiler.accesses — references processed
  Counter* filter_passed;     ///< filter.passed — references entering the stack
  Counter* filter_dropped;    ///< filter.dropped — references rejected by hash
  Counter* filter_halvings;   ///< filter.halvings — rate-halving epochs
  Counter* degradations;      ///< profiler.degradations — memory-ceiling events
  Gauge* sampling_rate;       ///< filter.rate — current realized rate
  Gauge* stack_depth;         ///< stack.depth — distinct sampled objects
  Gauge* resident_bytes;      ///< stack.resident_bytes — §5.6 accounting
  Gauge* histogram_bins;      ///< histogram.bins — distinct distance bins

  /// KrrStack update internals (handed to KrrStack::attach_metrics).
  StackMetrics stack;

  /// Sharded fan-out internals (handed to ShardFanout).
  ShardedMetrics sharded;

  /// Registry-wide per-model gauges (filled by refresh_metrics_gauges).
  ModelMetrics model;
};

}  // namespace krr::obs

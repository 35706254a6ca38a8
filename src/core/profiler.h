#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/krr_stack.h"
#include "core/spatial_filter.h"
#include "obs/json.h"
#include "trace/request.h"
#include "trace/trace_reader.h"
#include "util/histogram.h"
#include "util/mrc.h"
#include "util/status.h"

namespace krr {

namespace obs {
struct PipelineMetrics;
}

/// End-to-end configuration for one-pass K-LRU MRC construction.
struct KrrProfilerConfig {
  /// The K-LRU eviction sampling size K being modeled (Redis default 5).
  double k_sample = 5.0;
  /// Apply the K' = K^1.4 correction (§4.2). Disable to ablate.
  bool apply_correction = true;
  UpdateStrategy strategy = UpdateStrategy::kBackward;
  /// Model sampling with replacement (Prop. 1, Redis) or without (Prop. 2).
  SamplingModel sampling_model = SamplingModel::kPlacingBack;
  /// Spatial sampling rate R in (0, 1]; 1.0 disables sampling. The paper's
  /// default online rate is 0.001 with a floor of 8K sampled objects
  /// (use adaptive_sampling_rate to realize the floor).
  double sampling_rate = 1.0;
  /// Byte-granularity MRC over variable object sizes (var-KRR). When off,
  /// every object counts as one unit (uni-KRR).
  bool byte_granularity = false;
  std::uint32_t size_array_base = 2;
  std::uint64_t seed = 1;
  /// Histogram bin width (in scaled distance units); 1 = exact bins.
  std::uint64_t histogram_quantum = 1;
  /// Apply the SHARDS-adj first-bucket correction for the difference
  /// between expected (N*R) and actual sampled reference counts. Only
  /// relevant when sampling_rate < 1.
  bool sampling_adjustment = true;
  /// Hash-sharded operation (krr_sharded, see ShardedEstimator): this
  /// profiler models one of `shard_count` hash-disjoint keyspace
  /// partitions, so its input stream is itself a uniform spatial sample at
  /// rate 1/shard_count and a shard-local stack distance d estimates a
  /// global distance d * shard_count / R. 1 (the default) means unsharded; the distance
  /// scale is then multiplied by exactly 1.0, so behaviour is bit-identical
  /// to a build without this field.
  std::uint32_t shard_count = 1;
  /// Graceful-degradation ceiling on the profiler's estimated resident
  /// memory (space_overhead_bytes()); 0 = unbounded. When the ceiling is
  /// reached, the spatial sampling rate is halved and residents falling
  /// out of the sample are evicted — the paper's §5 rate adaptation, which
  /// keeps the profile statistically sound — instead of growing without
  /// limit. Each halving is counted as one degradation event.
  std::uint64_t max_stack_bytes = 0;
};

/// End-of-run accounting surfaced through the library API: what was
/// ingested, what the recovery policy dropped, and how often the profiler
/// degraded its sampling rate to stay inside its memory ceiling. A clean,
/// non-degraded run has zeros everywhere and final_sampling_rate equal to
/// the configured rate.
struct RunReport {
  std::uint64_t records_read = 0;
  std::uint64_t records_skipped = 0;
  std::uint64_t checksum_failures = 0;
  bool truncated_tail = false;
  std::uint64_t degradation_events = 0;
  /// The rate the run was configured with (realized against the filter
  /// modulus). Defaults describe the no-sampling case; run_report() always
  /// overwrites both rates, so a zero-access run reports the configured
  /// rate, not the struct default.
  double configured_sampling_rate = 1.0;
  double final_sampling_rate = 1.0;
  std::uint64_t stack_depth = 0;
  std::uint64_t space_overhead_bytes = 0;
  /// Seconds the producer spent blocked on full shard queues (sharded
  /// pipeline only; 0 for serial profilers).
  double producer_stall_seconds = 0.0;
  /// The run finished early (deadline watchdog); the curve covers only the
  /// prefix of the trace that was processed.
  bool partial = false;
  /// Shards dropped by best-effort failure recovery (sharded pipeline
  /// only); the merged histogram was rescaled by the surviving fraction.
  std::uint64_t shards_failed = 0;
  /// Shard workers revived by replay recovery (sharded pipeline,
  /// failure_mode=replay only; a shard may be resurrected more than once).
  std::uint64_t shards_resurrected = 0;
  /// Journal records re-applied across all resurrections.
  std::uint64_t replayed_records = 0;
  /// Records discarded by shard failure handling: routed to already-dead
  /// shards, dropped from a failed worker's queue, or shed by injected
  /// queue-push faults under a recovering failure mode.
  std::uint64_t dropped_records = 0;
  /// Which failure-recovery path the run took: "none", "replayed",
  /// "rescaled", or "replayed+rescaled" (see recovery_path_name).
  std::string recovery = "none";
};

/// The RunReport as a JSON object — the "run_report" section of the
/// metrics snapshot, so the CLI's --metrics-out and library callers
/// serialize identical numbers.
obs::Json to_json(const RunReport& report);

/// One-pass K-LRU miss-ratio-curve profiler: spatial filter -> KRR stack ->
/// rescaled stack-distance histogram -> MRC. This is the library's primary
/// public entry point.
///
///   KrrProfiler profiler({.k_sample = 5});
///   for (const Request& r : trace) profiler.access(r);
///   MissRatioCurve mrc = profiler.mrc();
class KrrProfiler {
 public:
  explicit KrrProfiler(const KrrProfilerConfig& config);

  /// Processes one reference (spatial filtering applied internally).
  void access(const Request& req);

  /// Accounts for `n` references a producer-side gate rejected (the sharded
  /// runner tests this profiler's filter before queueing, DESIGN.md §12).
  /// Same effect as `n` access() calls whose keys the filter drops; the
  /// filter.* counters are not bumped (the runner publishes its own).
  void skip(std::uint64_t n) noexcept { processed_ += n; }

  /// The spatial filter's current threshold T over hash64(key) % 2^24.
  std::uint64_t sample_threshold() const noexcept { return filter_.threshold(); }

  /// The predicted K-LRU miss ratio curve. Cache sizes are object counts
  /// (uni-KRR) or bytes (var-KRR); with spatial sampling, distances have
  /// been scaled back by 1/R so the curve is in unsampled units, and the
  /// SHARDS-adj correction is applied (see sampling_adjustment).
  MissRatioCurve mrc() const;

  /// The histogram mrc() converts: a copy of the raw histogram with the
  /// SHARDS-adj first-bucket correction applied (when enabled and
  /// sampling). Shard merging sums these across shard profilers before one
  /// global to_mrc(), which distributes: per-shard corrections add up to
  /// the global correction because expectations are per-shard linear.
  DistanceHistogram adjusted_histogram() const;

  /// Sharded-merge hooks (DESIGN.md §12). absorb() folds another shard's
  /// adjusted histogram into this one's adjusted histogram — each operand
  /// is corrected against its own expectation first, which stays right
  /// when shards degraded to different rates — and scale_mass() multiplies
  /// the merged mass by `factor` (the S/(S-F) survivor rescale). Both fold
  /// the correction into histogram() for good, so mrc() does not apply it
  /// again; the counters and the stack stay this shard's own. They end the
  /// run: access() and save_state() are not meaningful afterwards.
  void absorb(const KrrProfiler& other);
  void scale_mass(double factor);

  const DistanceHistogram& histogram() const noexcept { return histogram_; }

  std::uint64_t processed() const noexcept { return processed_; }
  std::uint64_t sampled() const noexcept { return sampled_; }

  /// Distinct sampled objects (the KRR stack depth).
  std::uint64_t stack_depth() const noexcept { return stack_.depth(); }

  /// The effective KRR exponent in use (k_sample or corrected_k(k_sample)).
  double model_k() const noexcept { return stack_.config().k; }

  /// Estimated resident-memory overhead in bytes (§5.6 accounting): stack
  /// array + size array + hash table entries.
  std::uint64_t space_overhead_bytes() const noexcept;

  /// Times the sampling rate was halved to stay under max_stack_bytes.
  std::uint64_t degradation_events() const noexcept { return degradation_events_; }

  /// The rate currently in effect (== the configured rate until the first
  /// degradation event halves it).
  double current_sampling_rate() const noexcept { return filter_.rate(); }

  /// One graceful-degradation step (a single rate halving + eviction),
  /// exposed for external governors: maybe_degrade() applies the same step
  /// until the internal ceiling is met. Returns false once the filter has
  /// bottomed out at threshold 1 (no further shrinking is possible).
  bool degrade_step();

  /// Checkpoint support: serializes the complete profiler state as a
  /// tagged-section stream (DESIGN.md §13) — counters, filter epoch and
  /// histogram in kSectionModelCore, the stack and its PRNG in
  /// kSectionKrrStack — so an identically configured profiler resumes
  /// bit-identically after load_state(). Refused after absorb()/scale_mass().
  Status save_state(std::string* out) const;
  Status load_state(const std::string& payload);

  /// Profiler-side run accounting; pass the ingestion report to fold in
  /// what the TraceReader read, skipped, and failed to checksum.
  RunReport run_report(const TraceReadReport* ingest = nullptr) const;

  const KrrProfilerConfig& config() const noexcept { return config_; }

  /// Attaches hot-path instrumentation (and the stack's, see
  /// KrrStack::attach_metrics): per-access counters for filter pass/drop,
  /// degradations, and the stack update histograms. The metrics must
  /// outlive the profiler; nullptr detaches. A detached profiler pays one
  /// pointer test per access.
  void attach_metrics(obs::PipelineMetrics* metrics) noexcept;

  /// Pushes the instantaneous state into the attached metrics' gauges
  /// (stack.depth, stack.resident_bytes, filter.rate, histogram.bins) and
  /// folds in the stack's held counts (KrrStack::flush_metrics). Called by
  /// heartbeat/export code and at finish, not the access path. No-op when
  /// detached.
  void refresh_metrics_gauges() const noexcept;

 private:
  void maybe_degrade();
  /// Replaces histogram_ by adjusted_histogram() once (absorb/scale_mass).
  void fold_adjustment();

  KrrProfilerConfig config_;
  SpatialFilter filter_;
  KrrStack stack_;
  DistanceHistogram histogram_;
  std::uint64_t processed_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t degradation_events_ = 0;
  /// Set once absorb()/scale_mass() has folded the SHARDS-adj correction
  /// into histogram_.
  bool adjustment_folded_ = false;
  /// The realized configured rate (filter rate before any degradation),
  /// so run_report() reports it even on a zero-access run.
  double configured_rate_ = 1.0;
  /// SHARDS-adj expectation bookkeeping under a dynamically degraded rate:
  /// expected sampled references accumulated over completed rate epochs,
  /// plus the count processed in the current epoch at the current rate.
  /// Equals processed * R exactly when the rate never changes.
  double expected_sampled_base_ = 0.0;
  std::uint64_t processed_at_rate_change_ = 0;
  obs::PipelineMetrics* metrics_ = nullptr;
  double expected_sampled() const noexcept {
    return expected_sampled_base_ +
           static_cast<double>(processed_ - processed_at_rate_change_) *
               filter_.rate();
  }
};

}  // namespace krr

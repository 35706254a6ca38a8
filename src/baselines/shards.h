#pragma once

#include <cstdint>
#include <string>

#include "baselines/olken_tree.h"
#include "core/checkpoint.h"
#include "core/spatial_filter.h"
#include "trace/request.h"
#include "util/histogram.h"
#include "util/mrc.h"
#include "util/status.h"

namespace krr {

/// SHARDS (Waldspurger et al., FAST '15): approximate *exact-LRU* MRC
/// construction via spatial sampling. References surviving the hash filter
/// are run through an exact LRU stack-distance profiler; each sampled
/// distance d estimates an unsampled distance d/R, so the histogram is
/// built over rescaled distances with per-reference weight 1.
///
/// Distances are rescaled at access time by the rate then in force, with
/// the same epoch bookkeeping the KRR profiler uses, so the rate may be
/// halved mid-run (halve_rate(), the memory-governance degradation step)
/// without invalidating what was already recorded. The exact stack is the
/// Olken treap rather than the Fenwick formulation because rate halving
/// must evict residents that fall out of the sample.
///
/// This is the fixed-rate variant with the optional SHARDS-adj correction:
/// the difference between the expected sampled reference count (N*R,
/// accumulated per rate epoch) and the actual count is added to the first
/// histogram bin, compensating the miss-ratio bias of over/under-sampled
/// workloads.
///
/// SHARDS models the exact LRU policy only; the paper's point (§5.3) is
/// that it cannot capture K-LRU for small K, which `paper_bench fig5_2` shows.
class ShardsProfiler {
 public:
  /// rate: spatial sampling rate in (0, 1].
  /// byte_granularity: rescaled byte-level distances for var-size traces.
  /// shard_count: extra distance scale for shard-local use — a profiler
  /// fed a uniform 1/S hash partition of the stream sees distances S times
  /// shorter than global ones, so sampled distances are rescaled by
  /// scale()*S (the same closure-under-thinning argument the filter's own
  /// rescale rests on). 1 multiplies by exactly 1.0: bit-identical serial.
  explicit ShardsProfiler(double rate, bool adjustment = true,
                          bool byte_granularity = false,
                          std::uint64_t histogram_quantum = 1,
                          std::uint32_t shard_count = 1);

  /// Processes one reference (filtered internally).
  void access(const Request& req);

  /// MRC over rescaled distances, including the SHARDS-adj correction if
  /// enabled.
  MissRatioCurve mrc() const;

  /// Graceful degradation: halves the sampling rate and evicts residents
  /// that fall out of the sample (their reuse behaviour stays valid — the
  /// surviving key set is an exact subset). Returns false once the filter
  /// has bottomed out at threshold 1.
  bool halve_rate();

  /// Estimated resident bytes (exact stack + rescaled histogram).
  std::uint64_t space_overhead_bytes() const noexcept;

  /// Times halve_rate() actually lowered the rate.
  std::uint64_t degradation_events() const noexcept { return degradations_; }

  std::uint64_t processed() const noexcept { return processed_; }
  std::uint64_t sampled() const noexcept { return sampled_; }
  std::size_t tracked_objects() const noexcept {
    return stack_.tracked_objects();
  }
  const SpatialFilter& filter() const noexcept { return filter_; }

  /// Folds another shard's accumulated statistics into this profiler:
  /// histogram mass, reference counts, and the SHARDS-adj epoch accounting
  /// all add (the merged expected/actual sampled counts equal the sums, so
  /// the adjustment of the merged curve is the sum of per-shard
  /// adjustments). Only the histogram side merges — the exact stack stays
  /// this shard's own, which is fine post-run when only mrc() matters.
  void absorb(const ShardsProfiler& other);

  /// Survivor extrapolation for best-effort sharded runs: scales recorded
  /// mass (histogram + adjustment accounting) by `factor` so F dead shards
  /// out of S leave a curve with ≈ the full run's mass. Ratios, and hence
  /// the MRC, are unchanged; no further access() calls are expected.
  void scale_mass(double factor);

  /// Checkpoint support: a tagged-section state stream — kSectionModelCore
  /// carries the filter, counters, and rescaled histogram; kSectionLruStack
  /// carries the Olken treap's logical state. Restoring into a profiler
  /// constructed with the same options resumes bit-identically.
  Status save_state(std::string* out) const;
  Status load_state(const std::string& payload);

 private:
  /// Expected sampled references: sum over rate epochs of (epoch length *
  /// epoch rate). Equals processed * R exactly while the rate is constant.
  double expected_sampled() const noexcept {
    return expected_base_ +
           static_cast<double>(processed_ - processed_at_change_) *
               filter_.rate();
  }

  SpatialFilter filter_;
  bool adjustment_;
  OlkenTreeProfiler stack_;
  DistanceHistogram histogram_;
  double shard_scale_ = 1.0;
  std::uint64_t processed_ = 0;
  std::uint64_t sampled_ = 0;
  // The adjustment-side view of sampled_: identical (sums of 1.0) until
  // scale_mass() rescales it along with the histogram.
  double sampled_weight_ = 0.0;
  std::uint64_t degradations_ = 0;
  double expected_base_ = 0.0;
  std::uint64_t processed_at_change_ = 0;
};

}  // namespace krr

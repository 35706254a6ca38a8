#pragma once

#include <cstdint>
#include <vector>

namespace krr {

class MissRatioCurve;

/// Weighted stack-distance histogram.
///
/// Records, for each reuse, the stack distance of the referenced object; a
/// cold (first-ever) reference is recorded as an infinite distance. Weights
/// are doubles so that spatially sampled streams can record rescaled counts
/// (weight 1/R per sampled reference).
///
/// Distances may be object counts (uniform-size model) or bytes (var-KRR);
/// an optional quantum coarsens byte distances so the histogram stays small.
///
/// The finite bins live in one flat open-addressing table of (bin, weight)
/// entries, probed linearly from a multiplicative hash of the bin and kept
/// at most 3/4 full, so a record is one hash and usually one cache line.
/// Every bin sums its weights in record order, as a map would, so curves
/// do not depend on the table's layout.
class DistanceHistogram {
 public:
  /// quantum: distances are rounded up to a multiple of this value before
  /// being binned. Use 1 (default) for exact object-granularity distances.
  explicit DistanceHistogram(std::uint64_t quantum = 1);

  /// Records one reuse at the given finite stack distance.
  void record(std::uint64_t distance, double weight = 1.0);

  /// Records one cold miss (infinite stack distance).
  void record_infinite(double weight = 1.0);

  /// Total recorded weight, including infinite distances.
  double total_weight() const noexcept { return total_; }

  /// Weight recorded as cold misses.
  double infinite_weight() const noexcept { return infinite_; }

  /// Number of distinct finite bins.
  std::size_t bin_count() const noexcept { return size_ + (has_empty_key_bin_ ? 1 : 0); }

  std::uint64_t quantum() const noexcept { return quantum_; }

  /// Converts the histogram to a miss ratio curve: for every recorded
  /// distance d, the curve has a point at cache size d whose miss ratio is
  /// P(stack distance > d). Cold misses count as misses at every size.
  /// A point at size 0 (miss ratio 1) is always included. One pass over
  /// the sorted bins.
  MissRatioCurve to_mrc() const;

  /// Returns (distance, weight) pairs sorted by distance ascending.
  std::vector<std::pair<std::uint64_t, double>> sorted_bins() const;

  void clear();

  /// Merges another histogram into this one (bins must share the quantum).
  /// Merging a histogram into itself doubles every weight.
  void merge(const DistanceHistogram& other);

  /// Multiplies every weight (finite bins, infinite mass, and the total)
  /// by `factor`. Used by the sharded profiler to extrapolate a merged
  /// histogram when some shards were dropped in best-effort mode.
  void scale(double factor);

  /// Checkpoint support: replaces the contents with previously captured
  /// state. Bin keys must already be quantized (as produced by
  /// sorted_bins()); total/infinite are reinstated verbatim so a restored
  /// histogram is bit-identical to the one that was saved.
  void restore(const std::vector<std::pair<std::uint64_t, double>>& bins,
               double infinite_weight, double total_weight);

 private:
  struct Bin {
    std::uint64_t distance;  // kEmptyKey when the entry is free
    double weight;
  };
  /// Marks a free table entry. A bin whose distance equals it is kept
  /// beside the table, in empty_key_weight_.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// The weight of `bin`, inserted at 0.0 when absent. Only an insertion
  /// can grow the table.
  double& weight_of(std::uint64_t bin);
  /// Empties the table and sizes it for `expected` bins.
  void reset_table(std::size_t expected);
  void grow();

  std::uint64_t quantum_;
  std::vector<Bin> table_;  // power-of-two size, at most 3/4 full
  std::size_t size_ = 0;    // occupied entries
  int shift_ = 64;          // entry index = (bin * kHashMul) >> shift_
  bool has_empty_key_bin_ = false;
  double empty_key_weight_ = 0.0;
  double infinite_ = 0.0;
  double total_ = 0.0;
};

}  // namespace krr

#include "util/histogram.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/mrc.h"

namespace krr {

namespace {

// 2^64 / golden ratio: multiplicative (Fibonacci) hashing spreads runs of
// consecutive or quantum-spaced bins over the table's top bits.
constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;

}  // namespace

DistanceHistogram::DistanceHistogram(std::uint64_t quantum) : quantum_(quantum) {
  if (quantum_ == 0) throw std::invalid_argument("histogram quantum must be >= 1");
}

void DistanceHistogram::reset_table(std::size_t expected) {
  std::size_t capacity = 16;
  shift_ = 60;
  while (expected * 4 > capacity * 3) {
    capacity *= 2;
    --shift_;
  }
  table_.assign(capacity, Bin{kEmptyKey, 0.0});
  size_ = 0;
}

void DistanceHistogram::grow() {
  std::vector<Bin> old(table_.size() * 2, Bin{kEmptyKey, 0.0});
  old.swap(table_);
  --shift_;
  const std::size_t mask = table_.size() - 1;
  for (const Bin& entry : old) {
    if (entry.distance == kEmptyKey) continue;
    std::size_t h = (entry.distance * kHashMul) >> shift_;
    while (table_[h].distance != kEmptyKey) h = (h + 1) & mask;
    table_[h] = entry;
  }
}

double& DistanceHistogram::weight_of(std::uint64_t bin) {
  if (bin == kEmptyKey) {
    has_empty_key_bin_ = true;
    return empty_key_weight_;
  }
  if (table_.empty()) reset_table(0);
  for (;;) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t h = (bin * kHashMul) >> shift_;; h = (h + 1) & mask) {
      Bin& entry = table_[h];
      if (entry.distance == bin) return entry.weight;
      if (entry.distance != kEmptyKey) continue;
      if ((size_ + 1) * 4 > table_.size() * 3) break;  // grow, then probe again
      ++size_;
      entry = {bin, 0.0};
      return entry.weight;
    }
    grow();
  }
}

void DistanceHistogram::record(std::uint64_t distance, double weight) {
  // Round up so that a distance of d lands in a bin of size >= d; this keeps
  // the derived MRC conservative (never reports a hit the exact histogram
  // would count as a miss at the bin's size).
  const std::uint64_t bin =
      quantum_ == 1 ? distance : ((distance + quantum_ - 1) / quantum_) * quantum_;
  weight_of(bin) += weight;
  total_ += weight;
}

void DistanceHistogram::record_infinite(double weight) {
  infinite_ += weight;
  total_ += weight;
}

std::vector<std::pair<std::uint64_t, double>> DistanceHistogram::sorted_bins() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(bin_count());
  for (const Bin& entry : table_) {
    if (entry.distance != kEmptyKey) out.emplace_back(entry.distance, entry.weight);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (has_empty_key_bin_) out.emplace_back(kEmptyKey, empty_key_weight_);  // the largest
  return out;
}

MissRatioCurve DistanceHistogram::to_mrc() const {
  MissRatioCurve curve;
  if (total_ <= 0.0) return curve;
  // miss ratio at size c = (weight of distances > c + cold misses) / total.
  // Walk bins ascending, accumulating the weight of distances <= c; the
  // sizes arrive in order, so each point appends to the curve.
  double cum = 0.0;
  curve.add_point(0.0, 1.0);
  for (const auto& [dist, weight] : sorted_bins()) {
    cum += weight;
    // Negative corrective weights (SHARDS-adj) can push the ratio slightly
    // outside [0, 1]; clamp so the curve stays a valid miss ratio.
    const double ratio = std::clamp((total_ - cum) / total_, 0.0, 1.0);
    curve.add_point(static_cast<double>(dist), ratio);
  }
  return curve;
}

void DistanceHistogram::clear() {
  table_.clear();
  size_ = 0;
  has_empty_key_bin_ = false;
  empty_key_weight_ = 0.0;
  infinite_ = 0.0;
  total_ = 0.0;
}

void DistanceHistogram::scale(double factor) {
  if (factor < 0.0) throw std::invalid_argument("histogram scale factor must be >= 0");
  for (Bin& entry : table_) {
    if (entry.distance != kEmptyKey) entry.weight *= factor;
  }
  empty_key_weight_ *= factor;
  infinite_ *= factor;
  total_ *= factor;
}

void DistanceHistogram::restore(
    const std::vector<std::pair<std::uint64_t, double>>& bins,
    double infinite_weight, double total_weight) {
  clear();
  reset_table(bins.size());
  for (const auto& [dist, weight] : bins) weight_of(dist) = weight;
  infinite_ = infinite_weight;
  total_ = total_weight;
}

void DistanceHistogram::merge(const DistanceHistogram& other) {
  if (other.quantum_ != quantum_) {
    throw std::invalid_argument("cannot merge histograms with different quanta");
  }
  // Into itself, every bin is found and none inserted, so the table does
  // not move under the loop.
  for (const Bin& entry : other.table_) {
    if (entry.distance != kEmptyKey) weight_of(entry.distance) += entry.weight;
  }
  if (other.has_empty_key_bin_) weight_of(kEmptyKey) += other.empty_key_weight_;
  infinite_ += other.infinite_;
  total_ += other.total_;
}

}  // namespace krr

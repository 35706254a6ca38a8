#include "core/size_tracker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace krr {

SizeArray::SizeArray(std::uint32_t base) : base_(base) {
  if (base_ < 2) throw std::invalid_argument("sizeArray base must be >= 2");
  buckets_.fill(Bucket{kNoPower, 0});
  for (std::uint64_t power = 1;; power *= base_) {
    buckets_[static_cast<std::size_t>(std::bit_width(power))].power = power;
    if (power > kNoPower / base_) break;
  }
  std::uint64_t below = 0;
  for (Bucket& bucket : buckets_) {
    bucket.below = below;
    if (bucket.power != kNoPower) ++below;
  }
  crossing_.fill(kUncrossed);
}

void SizeArray::ensure_boundaries(std::uint64_t stack_length) {
  // Maintain boundaries up to the first power of b that covers the stack;
  // a freshly added boundary covers the entire current stack, so its
  // accumulator starts at the total.
  if (boundaries_.empty()) {
    boundaries_.push_back(1);
    sums_.push_back(total_);
  }
  while (boundaries_.back() < stack_length) {
    boundaries_.push_back(boundaries_.back() * base_);
    sums_.push_back(total_);
  }
}

void SizeArray::on_append(std::uint32_t size, std::uint64_t new_length) {
  assert(new_length == covered_length_ + 1);
  // Existing accumulators whose boundary reaches the new position gain the
  // new object; shorter prefixes are unaffected.
  for (std::size_t j = boundaries_below(new_length); j < sums_.size(); ++j) sums_[j] += size;
  total_ += size;
  covered_length_ = new_length;
  ensure_boundaries(new_length);
}

void SizeArray::end_rotation() {
  // The deepest boundary below phi is always written: the first move lands
  // at phi. Unsigned wraparound makes the charge exact in any order.
  std::uint64_t crosser = 0;
  for (std::size_t j = top_; j-- > 0;) {
    if (crossing_[j] != kUncrossed) crosser = crossing_[j];
    crossing_[j] = kUncrossed;
    sums_[j] += ref_size_ - crosser;
  }
  top_ = 0;
}

void SizeArray::on_rotate(std::span<const std::uint64_t> chain,
                          std::span<const std::uint32_t> sizes_before,
                          std::uint32_t ref_size) {
  if (chain.empty()) throw std::invalid_argument("swap chain must be non-empty");
  begin_rotation(chain.back(), ref_size);
  for (std::size_t j = chain.size() - 1; j-- > 0;) {
    on_move(chain[j + 1], sizes_before[chain[j] - 1]);
  }
  end_rotation();
}

void SizeArray::on_resize(std::uint64_t position, std::uint32_t old_size,
                          std::uint32_t new_size) {
  const std::int64_t delta =
      static_cast<std::int64_t>(new_size) - static_cast<std::int64_t>(old_size);
  for (std::size_t j = boundaries_below(position); j < sums_.size(); ++j) {
    sums_[j] = static_cast<std::uint64_t>(static_cast<std::int64_t>(sums_[j]) + delta);
  }
  total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) + delta);
}

std::uint64_t SizeArray::byte_distance(std::uint64_t phi) const {
  if (phi == 0 || phi > covered_length_) {
    throw std::out_of_range("byte_distance: position beyond the stack");
  }
  // Largest boundary <= phi.
  const std::size_t index = boundaries_below(phi + 1) - 1;
  const std::uint64_t sd_low = boundaries_[index];
  const std::uint64_t sum_low = sums_[index];
  if (sd_low == phi) return sum_low;
  // Interpolate toward the next boundary, clamped at the stack end so the
  // upper anchor never claims more coverage than the stack has.
  std::uint64_t sd_high;
  std::uint64_t sum_high;
  if (index + 1 < boundaries_.size() && boundaries_[index + 1] <= covered_length_) {
    sd_high = boundaries_[index + 1];
    sum_high = sums_[index + 1];
  } else {
    sd_high = covered_length_;
    sum_high = total_;
  }
  if (sd_high <= sd_low) return sum_low;
  const double frac = static_cast<double>(phi - sd_low) /
                      static_cast<double>(sd_high - sd_low);
  return sum_low + static_cast<std::uint64_t>(
                       static_cast<double>(sum_high - sum_low) * frac);
}

void ExactByteTracker::on_append(std::uint32_t size, std::uint64_t new_length) {
  sizes_.ensure_size(new_length);
  sizes_.add(new_length, static_cast<std::int64_t>(size));
}

void ExactByteTracker::on_rotate(std::span<const std::uint64_t> chain,
                                 std::span<const std::uint32_t> sizes_before,
                                 std::uint32_t ref_size) {
  if (chain.empty()) throw std::invalid_argument("swap chain must be non-empty");
  for (std::size_t j = chain.size(); j-- > 1;) {
    on_move(chain[j], sizes_before[chain[j - 1] - 1], sizes_before[chain[j] - 1]);
  }
  on_move(1, ref_size, sizes_before[0]);
}

void ExactByteTracker::on_resize(std::uint64_t position, std::uint32_t old_size,
                                 std::uint32_t new_size) {
  sizes_.add(position, static_cast<std::int64_t>(new_size) -
                           static_cast<std::int64_t>(old_size));
}

std::uint64_t ExactByteTracker::byte_distance(std::uint64_t phi) const {
  return static_cast<std::uint64_t>(sizes_.prefix_sum(phi));
}

}  // namespace krr

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/fenwick.h"

namespace krr {

/// The paper's `sizeArray` (§4.4.1, Fig. 4.4): logarithmically many prefix
/// accumulators over the KRR stack. Entry j stores the total size of the
/// objects at stack positions [1, b^j] (clamped to the stack length), so a
/// byte-level stack distance can be estimated in O(1) by interpolating
/// between the two accumulators bracketing the object's position
/// (Algorithm 3), and each stack update maintains the array in O(log M).
class SizeArray {
 public:
  explicit SizeArray(std::uint32_t base = 2);

  /// A cold object of `size` bytes was appended at stack position
  /// `new_length` (== the new stack length), before the rotation.
  void on_append(std::uint32_t size, std::uint64_t new_length);

  /// A rotation of the object at stack position phi (of ref_size bytes,
  /// landing at position 1) begins. Its swap positions below phi follow in
  /// descending order through on_move(), ending with position 1.
  void begin_rotation(std::uint64_t phi, std::uint32_t ref_size) {
    std::size_t below = 0;
    while (below < boundaries_.size() && boundaries_[below] < phi) ++below;
    pending_ = below;
    ref_size_ = ref_size;
  }

  /// One step of the descending rotation: the resident of swap position x,
  /// of `size` bytes, moves down to the previous swap position. For every
  /// boundary p in [x, previous position), x holds the largest swap
  /// position <= p, so its resident is the one object that crosses out of
  /// [1, p] while the referenced object enters at the top.
  void on_move(std::uint64_t x, std::uint32_t size) {
    while (pending_ > 0 && boundaries_[pending_ - 1] >= x) {
      std::uint64_t& sum = sums_[--pending_];
      sum += ref_size_;
      sum -= size;
    }
  }

  /// The whole rotation along `chain` (ascending swap positions,
  /// front()==1, back()==phi) through begin_rotation()/on_move();
  /// `sizes_before` are the per-position object sizes prior to the
  /// rotation (0-based: sizes_before[i] is the size at stack position i+1).
  void on_rotate(std::span<const std::uint64_t> chain,
                 std::span<const std::uint32_t> sizes_before, std::uint32_t ref_size);

  /// The resident object at stack position `position` changed size;
  /// adjusts every accumulator covering it.
  void on_resize(std::uint64_t position, std::uint32_t old_size,
                 std::uint32_t new_size);

  /// Algorithm 3: estimated cumulative size of stack positions [1, phi].
  /// Near the stack end, where the next power-of-b boundary exceeds the
  /// stack, interpolation is bounded by (stack length, total bytes).
  std::uint64_t byte_distance(std::uint64_t phi) const;

  std::uint32_t base() const noexcept { return base_; }
  std::size_t entry_count() const noexcept { return sums_.size(); }
  std::uint64_t total_bytes() const noexcept { return total_; }
  std::uint64_t covered_length() const noexcept { return covered_length_; }

  /// Accumulator for prefix [1, boundary(j)] (test helper).
  std::uint64_t entry(std::size_t j) const { return sums_[j]; }
  std::uint64_t boundary(std::size_t j) const { return boundaries_[j]; }

 private:
  void ensure_boundaries(std::uint64_t stack_length);

  std::uint32_t base_;
  std::vector<std::uint64_t> boundaries_;  // b^0, b^1, b^2, ...
  std::vector<std::uint64_t> sums_;        // prefix size at each boundary
  std::uint64_t covered_length_ = 0;       // stack length the sums reflect
  std::uint64_t total_ = 0;                // total bytes on the stack
  // Rotation in progress: sums_[0, pending_) are still to be charged.
  std::size_t pending_ = 0;
  std::uint32_t ref_size_ = 0;
};

/// Exact byte-level prefix sizes via a Fenwick tree over stack positions —
/// O(log M) per moved object instead of O(1) amortized, but exact. Used as
/// ground truth for SizeArray in tests and in the var-KRR accuracy ablation.
class ExactByteTracker {
 public:
  ExactByteTracker() = default;

  void on_append(std::uint32_t size, std::uint64_t new_length);

  /// One step of a rotation: stack position `to` now holds an object of
  /// `moved_size` bytes in place of one of `displaced_size` bytes (the
  /// referenced object landing at position 1 included).
  void on_move(std::uint64_t to, std::uint32_t moved_size, std::uint32_t displaced_size) {
    const std::int64_t delta =
        static_cast<std::int64_t>(moved_size) - static_cast<std::int64_t>(displaced_size);
    if (delta != 0) sizes_.add(to, delta);
  }

  /// The whole rotation along `chain` through on_move(), as SizeArray's.
  void on_rotate(std::span<const std::uint64_t> chain,
                 std::span<const std::uint32_t> sizes_before, std::uint32_t ref_size);
  void on_resize(std::uint64_t position, std::uint32_t old_size,
                 std::uint32_t new_size);

  /// Exact cumulative size of stack positions [1, phi].
  std::uint64_t byte_distance(std::uint64_t phi) const;

 private:
  Fenwick<std::int64_t> sizes_;
};

}  // namespace krr

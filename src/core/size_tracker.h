#pragma once

#include <array>
#include <bit>
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
/// (Algorithm 3).
///
/// A rotation costs one store per move plus one pass over the boundaries
/// below phi. Boundary j (below phi) loses exactly one resident, the one
/// whose move crosses it, and gains the referenced object. Each move stores
/// its mover's size at the highest boundary below its destination,
/// found in O(1) by boundaries_below(), with no branch on the data; the
/// moves come in descending order, so the last store at a boundary is the
/// mover that crosses it. A boundary that no destination lands just above
/// is crossed by the same mover as the boundary above it, so
/// end_rotation() walks the boundaries top-down, carrying the last size it
/// saw, and charges each once.
class SizeArray {
 public:
  explicit SizeArray(std::uint32_t base = 2);

  /// Number of boundaries b^j strictly below stack position v (v >= 1),
  /// which is also the index of the first boundary >= v. Each power-of-two
  /// range [2^(w-1), 2^w) holds at most one power of b (b >= 2), so the
  /// bit width of v - 1 picks a bucket and one compare settles it.
  std::size_t boundaries_below(std::uint64_t v) const noexcept {
    const Bucket& bucket = buckets_[std::bit_width(v - 1)];
    return bucket.below + static_cast<std::size_t>(v - 1 >= bucket.power);
  }

  /// A cold object of `size` bytes was appended at stack position
  /// `new_length` (== the new stack length), before the rotation.
  void on_append(std::uint32_t size, std::uint64_t new_length);

  /// A rotation of the object at stack position phi (of ref_size bytes,
  /// landing at position 1) begins. Its moves follow through on_move(),
  /// deepest first, and end_rotation() applies them.
  void begin_rotation(std::uint64_t phi, std::uint32_t ref_size) {
    top_ = boundaries_below(phi);
    ref_size_ = ref_size;
  }

  /// One move of the descending rotation: a resident of `size` bytes moves
  /// down to swap position `to`. Every move is issued, shallowest last.
  void on_move(std::uint64_t to, std::uint32_t size) {
    crossing_[boundaries_below(to) - 1] = size;
  }

  /// Charges each boundary below phi once: + the referenced object's size,
  /// - the size of the one resident that crossed it.
  void end_rotation();

  /// The whole rotation along `chain` (ascending swap positions,
  /// front()==1, back()==phi) through begin_rotation()/on_move()/
  /// end_rotation(); `sizes_before` are the per-position object sizes prior
  /// to the rotation (0-based: sizes_before[i] is the size at stack
  /// position i+1).
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
  /// Powers of b by bit width: `power` is the one power of b in
  /// [2^(w-1), 2^w) (kNoPower if none) and `below` counts the powers of b
  /// under 2^(w-1).
  struct Bucket {
    std::uint64_t power;
    std::uint64_t below;
  };
  static constexpr std::uint64_t kNoPower = ~std::uint64_t{0};
  /// A crossing_ entry no move of the current rotation has written.
  static constexpr std::uint64_t kUncrossed = ~std::uint64_t{0};

  void ensure_boundaries(std::uint64_t stack_length);

  std::uint32_t base_;
  std::array<Bucket, 65> buckets_;         // indexed by bit_width(v - 1)
  std::vector<std::uint64_t> boundaries_;  // b^0, b^1, b^2, ...
  std::vector<std::uint64_t> sums_;        // prefix size at each boundary
  std::uint64_t covered_length_ = 0;       // stack length the sums reflect
  std::uint64_t total_ = 0;                // total bytes on the stack
  // Rotation in progress: boundaries [0, top_) are to be charged, and
  // crossing_[j] holds the size of the last mover recorded at boundary j.
  std::size_t top_ = 0;
  std::uint32_t ref_size_ = 0;
  std::array<std::uint64_t, 64> crossing_;
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

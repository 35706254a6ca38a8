#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/size_tracker.h"
#include "core/swap_sampler.h"
#include "util/hashing.h"
#include "util/prng.h"

namespace krr {

namespace obs {
struct StackMetrics;
}

namespace ckpt {
class ByteReader;
}

/// Configuration for the KRR probabilistic stack (§4).
struct KrrStackConfig {
  /// KRR exponent. To model a K-LRU cache with sampling size K, pass
  /// corrected_k(K) (the K' = K^1.4 correction, §4.2) or K itself to ablate
  /// the correction. Must be >= 1.
  double k = 1.0;
  UpdateStrategy strategy = UpdateStrategy::kBackward;
  /// Which K-LRU sampling convention is modeled (Prop. 1 vs Prop. 2).
  SamplingModel sampling_model = SamplingModel::kPlacingBack;
  std::uint64_t seed = 1;
  /// Track byte-level distances (var-KRR, §4.4.1).
  bool track_bytes = false;
  /// sizeArray base b (only with track_bytes).
  std::uint32_t size_array_base = 2;
  /// Additionally maintain the exact Fenwick byte tracker (tests/ablation;
  /// only with track_bytes).
  bool track_bytes_exact = false;
};

/// The K' = K^1.4 correction (§4.2): the KRR exponent that best models a
/// K-LRU cache with sampling size K. K == 1 maps to 1 (KRR == RR == ideal
/// random replacement, where the model is statistically exact).
double corrected_k(double k_sample);

/// Open-addressing map from a key to the dense slot id KrrStack gives each
/// resident: linear probing on a flat power-of-two table kept at most 3/4
/// full. An entry holds the slot and a 32-bit tag, the high half of
/// hash64(key), so it takes 8 bytes; a tag match is confirmed by the
/// caller's key_of(slot), which the stack answers from the arrays it keeps
/// anyway. The table index is the tag's top bits, so growing never rehashes
/// a key. Entries are only ever added; KrrStack rebuilds the map whole when
/// residents leave (retain, load_state).
class KeySlotIndex {
 public:
  /// Slot ids are 32-bit; the largest is reserved as the empty marker.
  static constexpr std::uint32_t kMaxSlots = 0xffffffffu;

  /// The slot of `key`, or `fresh` after recording key -> fresh when the
  /// key is absent: one probe sequence either way. key_of(slot) must give
  /// the key of every slot already recorded.
  template <typename KeyOf>
  std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t fresh, const KeyOf& key_of) {
    if ((size_ + 1) * 4 > table_.size() * 3) grow();
    const auto tag = static_cast<std::uint32_t>(hash64(key) >> 32);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t h = tag >> shift_;; h = (h + 1) & mask) {
      Entry& entry = table_[h];
      if (entry.slot == kMaxSlots) {
        entry = {tag, fresh};
        ++size_;
        return fresh;
      }
      if (entry.tag == tag && key_of(entry.slot) == key) return entry.slot;
    }
  }

  /// Drops every entry and sizes the table for `expected` entries.
  void reset(std::size_t expected);

 private:
  struct Entry {
    std::uint32_t tag;
    std::uint32_t slot;  // kMaxSlots when the entry is empty
  };

  void grow();

  std::vector<Entry> table_;
  std::size_t size_ = 0;
  int shift_ = 32;  // table index = tag >> shift_
};

/// The KRR probabilistic stack (§4.1): a Mattson stack whose maxPriority
/// function keeps the resident of position i with probability ((i-1)/i)^K.
/// The stack is a flat array of keys updated by rotating the sampled swap
/// chain, so one access costs O(K log M) expected with the backward
/// strategy. Each resident also has a dense slot id: a flat key -> slot
/// index is probed once per access, and a slot -> position array, moved
/// along with the keys, gives the key's position without hashing on any
/// swap (§4.4's hash plus array, with the hash off the rotation path).
class KrrStack {
 public:
  struct AccessResult {
    bool cold;                    ///< first-ever reference to this key
    std::uint64_t position;       ///< stack distance phi (1-based); for a
                                  ///< cold ref, the stack length it landed at
    std::uint64_t byte_distance;  ///< approximate byte-level distance
                                  ///< (0 unless track_bytes)
  };

  explicit KrrStack(const KrrStackConfig& config);

  /// Processes one reference and reports its stack distance(s). `size` is
  /// ignored unless byte tracking is on; a resident object whose size
  /// changes is resized in place before the distance is measured.
  AccessResult access(std::uint64_t key, std::uint32_t size = 1);

  /// Distinct objects seen so far (the stack length, gamma).
  std::uint64_t depth() const noexcept { return stack_.size(); }

  std::uint64_t total_bytes() const noexcept;

  /// Exact byte distance of the last access (only if track_bytes_exact).
  std::optional<std::uint64_t> last_exact_byte_distance() const noexcept {
    return last_exact_byte_distance_;
  }

  /// Evicts every resident whose key fails the predicate, preserving the
  /// relative stack order of the survivors; all auxiliary structures
  /// (slot index, sizeArray, exact byte tracker) are rebuilt
  /// consistently. O(M) — used by rare events such as sampling-rate
  /// degradation, not on the access path. Returns the eviction count.
  std::uint64_t retain(const std::function<bool(std::uint64_t)>& keep);

  /// Number of swap positions processed over the stack's lifetime
  /// (instrumentation for the Fig. 5.4 overhead experiment).
  std::uint64_t swaps_performed() const noexcept { return swaps_performed_; }

  /// Attaches hot-path instrumentation: per-access swap counts, chain-
  /// length distribution, and a sampled update-latency histogram (every
  /// kTimingStride-th access is timed so the clock reads amortize to
  /// ~nothing). The pointed-to metrics must outlive the stack; pass
  /// nullptr to detach.
  void attach_metrics(obs::StackMetrics* metrics) noexcept;

  /// Every kTimingStride-th instrumented access reads the clock twice to
  /// feed stack.update_ns; the rest record only integer counters.
  static constexpr std::uint64_t kTimingStride = 64;

  const KrrStackConfig& config() const noexcept { return config_; }

  /// Key at stack position (1-based); test/diagnostic helper.
  std::uint64_t key_at(std::uint64_t position) const { return stack_.at(position - 1); }

  /// Keys from top to bottom; test/diagnostic helper.
  const std::vector<std::uint64_t>& stack() const noexcept { return stack_; }

  /// Checkpoint support: appends the complete stack state (keys, sizes,
  /// PRNG stream, swap count) to `out` in the ckpt byte format.
  void save_state(std::string& out) const;

  /// Restores state written by save_state() into a stack built from the
  /// same config; auxiliary structures (slot index, byte trackers) are
  /// rebuilt by replay, exactly as retain() does. Returns false when the
  /// payload is truncated or inconsistent; the stack is then left empty,
  /// as freshly constructed except for the PRNG stream.
  bool load_state(ckpt::ByteReader& reader);

 private:
  AccessResult access_impl(std::uint64_t key, std::uint32_t size);
  /// The slot index's key lookup: a slot's key, found through its position.
  auto key_of_slot() const {
    return [this](std::uint32_t slot) { return stack_[slot_pos_[slot]]; };
  }
  /// Empties the stack and every auxiliary structure.
  void clear();
  /// Renumbers the slots to match the positions of stack_ and rebuilds the
  /// slot index and byte trackers from stack_ and sizes_. Returns false if
  /// a key repeats.
  bool rebuild_auxiliary();
  AccessResult access_instrumented(std::uint64_t key, std::uint32_t size);

  KrrStackConfig config_;
  SwapSampler sampler_;
  Xoshiro256ss rng_;
  std::vector<std::uint64_t> stack_;   // keys; index 0 = stack top
  std::vector<std::uint32_t> sizes_;   // aligned with stack_
  std::vector<std::uint32_t> slots_;   // aligned with stack_: slot ids
  std::vector<std::uint32_t> slot_pos_;  // slot id -> index in stack_
  KeySlotIndex index_;                 // key -> slot id
  std::vector<std::uint64_t> chain_;   // reused swap-chain buffer
  std::unique_ptr<SizeArray> size_array_;
  std::unique_ptr<ExactByteTracker> exact_bytes_;
  std::optional<std::uint64_t> last_exact_byte_distance_;
  std::uint64_t swaps_performed_ = 0;
  obs::StackMetrics* metrics_ = nullptr;
  std::uint64_t metrics_seq_ = 0;
};

}  // namespace krr

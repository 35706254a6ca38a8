#include "core/krr_stack.h"

#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace krr {

double corrected_k(double k_sample) {
  if (!(k_sample >= 1.0)) throw std::invalid_argument("sampling size must be >= 1");
  return std::pow(k_sample, 1.4);
}

KrrStack::KrrStack(const KrrStackConfig& config)
    : config_(config),
      sampler_(config.strategy, config.k, config.sampling_model),
      rng_(config.seed) {
  if (config_.track_bytes) {
    size_array_ = std::make_unique<SizeArray>(config_.size_array_base);
    if (config_.track_bytes_exact) exact_bytes_ = std::make_unique<ExactByteTracker>();
  } else if (config_.track_bytes_exact) {
    throw std::invalid_argument("track_bytes_exact requires track_bytes");
  }
}

void KeySlotIndex::reset(std::size_t expected) {
  std::size_t capacity = 16;
  shift_ = 28;
  while (expected * 4 > capacity * 3) {
    capacity *= 2;
    --shift_;
  }
  table_.assign(capacity, Entry{0, kMaxSlots});
  size_ = 0;
}

void KeySlotIndex::grow() {
  if (table_.empty()) {
    reset(0);
    return;
  }
  if (shift_ == 0) throw std::length_error("key slot index is full");
  std::vector<Entry> old(table_.size() * 2, Entry{0, kMaxSlots});
  old.swap(table_);
  --shift_;
  const std::size_t mask = table_.size() - 1;
  for (const Entry& entry : old) {
    if (entry.slot == kMaxSlots) continue;
    std::size_t h = entry.tag >> shift_;
    while (table_[h].slot != kMaxSlots) h = (h + 1) & mask;
    table_[h] = entry;
  }
}

std::uint64_t KrrStack::total_bytes() const noexcept {
  return size_array_ ? size_array_->total_bytes() : stack_.size();
}

void KrrStack::clear() {
  stack_.clear();
  sizes_.clear();
  slots_.clear();
  slot_pos_.clear();
  index_.reset(0);
  if (size_array_) size_array_ = std::make_unique<SizeArray>(config_.size_array_base);
  if (exact_bytes_) exact_bytes_ = std::make_unique<ExactByteTracker>();
  last_exact_byte_distance_.reset();
  swaps_performed_ = 0;
}

bool KrrStack::rebuild_auxiliary() {
  const std::size_t depth = stack_.size();
  slots_.resize(depth);
  slot_pos_.resize(depth);
  index_.reset(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    const auto slot = static_cast<std::uint32_t>(i);
    slots_[i] = slot;
    slot_pos_[i] = slot;
    if (index_.find_or_insert(stack_[i], slot, key_of_slot()) != slot) return false;
  }
  // The byte trackers are prefix structures over stack positions; rebuild
  // them by replaying the stack as appends (top first).
  if (size_array_) {
    size_array_ = std::make_unique<SizeArray>(config_.size_array_base);
    for (std::size_t i = 0; i < depth; ++i) size_array_->on_append(sizes_[i], i + 1);
  }
  if (exact_bytes_) {
    exact_bytes_ = std::make_unique<ExactByteTracker>();
    for (std::size_t i = 0; i < depth; ++i) exact_bytes_->on_append(sizes_[i], i + 1);
  }
  last_exact_byte_distance_.reset();
  return true;
}

std::uint64_t KrrStack::retain(const std::function<bool(std::uint64_t)>& keep) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < stack_.size(); ++read) {
    if (!keep(stack_[read])) continue;
    stack_[write] = stack_[read];
    sizes_[write] = sizes_[read];
    ++write;
  }
  const std::uint64_t evicted = stack_.size() - write;
  if (evicted == 0) return 0;
  stack_.resize(write);
  sizes_.resize(write);
  rebuild_auxiliary();  // the survivors were distinct keys already
  return evicted;
}

void KrrStack::save_state(std::string& out) const {
  ckpt::append_u64(out, stack_.size());
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    ckpt::append_u64(out, stack_[i]);
    ckpt::append_u32(out, sizes_[i]);
  }
  ckpt::append_u64(out, swaps_performed_);
  std::uint64_t rng_state[4];
  draws_.logical(rng_).save_state(rng_state);
  for (const std::uint64_t word : rng_state) ckpt::append_u64(out, word);
}

bool KrrStack::load_state(ckpt::ByteReader& reader) {
  clear();
  const auto fail = [this] {
    clear();
    return false;
  };
  std::uint64_t depth = 0;
  if (!reader.read_u64(&depth)) return fail();
  // Each entry needs 12 payload bytes; a depth the payload cannot hold is
  // a corrupt length field, not a real stack.
  if (depth > reader.remaining() / 12 || depth >= KeySlotIndex::kMaxSlots) return fail();
  stack_.reserve(depth);
  sizes_.reserve(depth);
  for (std::uint64_t i = 0; i < depth; ++i) {
    std::uint64_t key = 0;
    std::uint32_t size = 0;
    if (!reader.read_u64(&key) || !reader.read_u32(&size)) return fail();
    stack_.push_back(key);
    sizes_.push_back(size);
  }
  std::uint64_t swaps = 0;
  std::uint64_t rng_state[4];
  if (!reader.read_u64(&swaps)) return fail();
  for (std::uint64_t& word : rng_state) {
    if (!reader.read_u64(&word)) return fail();
  }
  // Duplicate keys would desynchronize the slot index.
  if (!rebuild_auxiliary()) return fail();
  swaps_performed_ = swaps;
  rng_.load_state(rng_state);
  draws_.reset();
  return true;
}

void KrrStack::attach_metrics(obs::StackMetrics* metrics) noexcept {
  flush_metrics();
  metrics_ = metrics;
}

void KrrStack::flush_metrics() const noexcept {
  static_assert(std::tuple_size_v<decltype(pending_.chain_len)> == obs::LogHistogram::kBuckets);
  if (metrics_ == nullptr) return;
  if (pending_.cold_misses != 0) metrics_->cold_misses->inc(pending_.cold_misses);
  if (pending_.chain_sum != 0) metrics_->swaps->inc(pending_.chain_sum);
  metrics_->chain_len->record_counts(pending_.chain_len, pending_.chain_sum);
  pending_ = PendingMetrics{};
}

KrrStack::AccessResult KrrStack::access(std::uint64_t key, std::uint32_t size) {
  if (metrics_ != nullptr) return access_instrumented(key, size);
  return access_impl(key, size);
}

KrrStack::AccessResult KrrStack::access_instrumented(std::uint64_t key,
                                                     std::uint32_t size) {
  // Timing every access would cost two clock reads (~40 ns) against a
  // ~100 ns update — far over the obs overhead budget. Sampling every
  // kTimingStride-th access keeps update_ns statistically representative
  // at ~1/64 of that cost. The swap, cold-miss and chain-length counts go
  // to plain fields and reach the shared metrics on the same stride (and
  // at every flush_metrics), so they are exact once published and no
  // shared atomic is touched on the other accesses.
  const bool timed = (metrics_seq_++ % kTimingStride) == 0;
  std::optional<Stopwatch> timer;
  if (timed) timer.emplace();
  const std::uint64_t swaps_before = swaps_performed_;
  const AccessResult result = access_impl(key, size);
  const std::uint64_t chain = swaps_performed_ - swaps_before;
  pending_.cold_misses += result.cold ? 1 : 0;
  pending_.chain_sum += chain;
  ++pending_.chain_len[static_cast<std::size_t>(std::bit_width(chain))];
  if (timed) {
    metrics_->update_ns->record(timer->nanos());
    flush_metrics();
  }
  return result;
}

KrrStack::AccessResult KrrStack::access_impl(std::uint64_t key, std::uint32_t size) {
  AccessResult result{};
  if (stack_.size() >= KeySlotIndex::kMaxSlots) {
    throw std::length_error("KRR stack depth exceeds the slot index's 32-bit range");
  }
  const auto fresh = static_cast<std::uint32_t>(stack_.size());
  const std::uint32_t slot = index_.find_or_insert(key, fresh, key_of_slot());
  std::uint64_t phi;
  if (slot == fresh) {
    // Cold reference: attach at the stack end before the update, so the
    // rotation carries it to the top like any other reference (Alg. 1).
    stack_.push_back(key);
    sizes_.push_back(size);
    slots_.push_back(slot);
    slot_pos_.push_back(fresh);
    phi = stack_.size();
    result.cold = true;
    if (size_array_) size_array_->on_append(size, phi);
    if (exact_bytes_) exact_bytes_->on_append(size, phi);
  } else {
    const std::uint32_t index = slot_pos_[slot];
    phi = std::uint64_t{index} + 1;
    result.cold = false;
    if (sizes_[index] != size) {
      // A set with a new value size: resize in place before measuring.
      if (size_array_) size_array_->on_resize(phi, sizes_[index], size);
      if (exact_bytes_) exact_bytes_->on_resize(phi, sizes_[index], size);
      sizes_[index] = size;
    }
  }
  result.position = phi;
  if (size_array_) result.byte_distance = size_array_->byte_distance(phi);
  if (exact_bytes_) {
    last_exact_byte_distance_ = exact_bytes_->byte_distance(phi);
  }

  if (phi == 1) {
    ++swaps_performed_;  // the chain is just {1}: nothing moves
    return result;
  }
  if (size_array_) {
    rotate<true>(phi, key, size, slot);
  } else {
    rotate<false>(phi, key, size, slot);
  }
  return result;
}

template <bool kTrackBytes>
void KrrStack::rotate(std::uint64_t phi, std::uint64_t key, std::uint32_t size,
                      std::uint32_t slot) {
  // One descending pass: each swap position x, from the largest down to 1,
  // moves its resident down to the previous swap position (phi, the
  // referenced object's, first), and the referenced object lands at 1. Slots travel
  // with their keys, so each move updates its slot's position without
  // hashing. The byte trackers see each move before it happens, while sizes
  // still holds both the mover's and the displaced object's size; the
  // sizeArray only records the mover and charges its boundaries once,
  // after the walk. The step captures only plain pointers, so it keeps
  // them in registers across the walk.
  std::uint64_t* const keys = stack_.data();
  std::uint32_t* const sizes = sizes_.data();
  std::uint32_t* const slots = slots_.data();
  std::uint32_t* const slot_pos = slot_pos_.data();
  SizeArray* const size_array = size_array_.get();
  ExactByteTracker* const exact = exact_bytes_.get();
  const auto move = [=](std::uint64_t x, std::uint64_t to) {
    const std::uint64_t src = x - 1;
    const std::uint64_t dst = to - 1;
    if constexpr (kTrackBytes) {
      size_array->on_move(to, sizes[src]);
      if (exact != nullptr) exact->on_move(to, sizes[src], sizes[dst]);
    }
    const std::uint32_t moved = slots[src];
    keys[dst] = keys[src];
    sizes[dst] = sizes[src];
    slots[dst] = moved;
    slot_pos[moved] = static_cast<std::uint32_t>(dst);
  };
  if constexpr (kTrackBytes) size_array->begin_rotation(phi, size);
  if (config_.strategy == UpdateStrategy::kBackward) {
    swaps_performed_ += 1 + sampler_.walk_backward(phi, rng_, draws_, move);  // phi too
  } else {
    sampler_.sample(phi, rng_, chain_);
    for (std::size_t j = chain_.size() - 1; j-- > 0;) move(chain_[j], chain_[j + 1]);
    swaps_performed_ += chain_.size();
  }
  if constexpr (kTrackBytes) {
    size_array->end_rotation();
    if (exact != nullptr) exact->on_move(1, size, sizes[0]);
  }
  keys[0] = key;
  sizes[0] = size;
  slots[0] = slot;
  slot_pos[slot] = 0;
}

}  // namespace krr

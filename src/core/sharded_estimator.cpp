#include "core/sharded_estimator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/faultpoint.h"
#include "util/hashing.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace krr {

namespace {

/// Option keys that configure the fan-out itself and must not reach the
/// per-shard base-model factories (they would be rejected as undeclared, or
/// worse, misread — a base "shards" key would recurse).
bool is_fanout_key(const std::string& key) {
  return key == "threads" || key == "shards" || key == "queue_capacity" ||
         key == "failure_mode" || key == "max_stack_bytes" ||
         key == "journal_records" || key == "snapshot_stride";
}

/// Records a worker pulls from one shard queue before moving to its next
/// owned shard (and before republishing that shard's live gauges). Large
/// enough to amortize the gauge stores, small enough that a worker owning
/// several shards does not starve any of them.
constexpr int kDrainBatch = 256;

/// Drain batches between traced drain spans. A span costs two clock
/// reads, so with 256-record batches a traced worker reads the clock once
/// per ~4096 records — the same stride Heartbeat::tick gates at. The
/// producer traces one queue-stall span per this many stalls, so a run that
/// stalls on every push cannot flood the producer's trace ring.
constexpr std::uint64_t kDrainTraceStride = 16;

/// Largest gate-rejected count one entry carries; the producer flushes a
/// skip-only entry when a shard's pending count reaches it.
constexpr std::uint32_t kMaxPendingSkips = UINT32_MAX;

/// Spin-wait hint for a worker that found all its queues empty. Polling
/// again at once keeps pulling the queues' write-index lines away from the
/// producer, which then pays a coherence miss on nearly every push; the
/// faster the workers, the more of the run they spend polling. Pausing
/// first measured 18.4-18.9 Mrec/s on the benchmark's zipf07_r001_s4t2
/// (S=4, T=2, R=0.01) against 15.9-16.4 without it (4-vCPU Xeon VM).
void idle_pause() {
#if defined(__x86_64__) || defined(__i386__)
  for (int n = 0; n < 64; ++n) __builtin_ia32_pause();
#endif
}

}  // namespace

/// One shard-queue and replay-journal entry: `skipped` references the
/// producer's gate rejected for this shard since its previous entry, then
/// the record `req` itself — unless `has_record` is false, which marks a
/// skip-only entry (a flush at quiesce()/finish()).
struct ShardEntry {
  Request req;
  std::uint32_t skipped = 0;
  bool has_record = true;

  /// References this entry stands for.
  std::uint64_t records() const noexcept {
    return std::uint64_t{skipped} + (has_record ? 1u : 0u);
  }
};
static_assert(sizeof(ShardEntry) == 24, "queue/journal sizing assumes 24 B");

struct ShardPayload {
  std::unique_ptr<MrcEstimator> estimator;
  /// Recreates a fresh instance with this shard's exact options — the
  /// resurrection path's rebuild() hook.
  std::function<std::unique_ptr<MrcEstimator>()> factory;
  std::uint64_t budget_bytes = 0;  // per-shard share; 0 = ungoverned
  /// References applied, gate-rejected ones included (counted only when
  /// governed: it is the budget-check stride position).
  std::uint64_t accesses = 0;

  void apply(const ShardEntry& entry) {
    skip(entry.skipped);
    if (entry.has_record) access(entry.req);
  }

  void access(const Request& req) {
    estimator->access(req);
    if (budget_bytes != 0 && (++accesses & 4095u) == 0) enforce_budget();
  }

  /// Applies `n` gate-rejected references. A governed shard steps through
  /// them so the budget check runs at the same reference position as if
  /// each had gone through access(): a degradation then starts its rate
  /// epoch on the same record.
  void skip(std::uint64_t n) {
    if (n == 0) return;
    if (budget_bytes == 0) {
      estimator->skip(n);
      return;
    }
    while (n != 0) {
      const std::uint64_t step =
          std::min<std::uint64_t>(n, 4096 - (accesses & 4095u));
      estimator->skip(step);
      n -= step;
      if (((accesses += step) & 4095u) == 0) enforce_budget();
    }
  }

  /// Per-shard budget enforcement on the consuming thread — the external
  /// RunGovernor loop cannot reach inside a threaded pipeline (it would
  /// race the workers), so each shard polices its own split of the global
  /// ceiling. The step bound keeps a pathological degrade() from stalling
  /// the drain loop.
  void enforce_budget() {
    int steps = 0;
    while (estimator->space_overhead_bytes() > budget_bytes && steps++ < 64) {
      if (!estimator->degrade()) break;
    }
  }

  obs::HeartbeatSnapshot live_state() const { return estimator->snapshot(); }

  /// Replay-recovery mini-checkpoint: the access counter (the budget-check
  /// stride position) followed by the inner estimator's save_state bytes.
  Status save_state(std::string* out) const {
    std::string inner;
    const Status status = estimator->save_state(&inner);
    if (!status.is_ok()) return status;
    out->clear();
    ckpt::append_u64(*out, accesses);
    *out += inner;
    return Status::ok();
  }

  Status load_state(const std::string& blob) {
    ckpt::ByteReader reader(blob);
    std::uint64_t saved_accesses = 0;
    if (!reader.read_u64(&saved_accesses)) {
      return truncated_error("shard mini-checkpoint truncated");
    }
    const Status status = estimator->load_state(blob.substr(8));
    if (!status.is_ok()) return status;
    accesses = saved_accesses;
    return Status::ok();
  }

  void rebuild() {
    estimator = factory();
    // The budget-check stride restarts with the fresh instance; load_state
    // (or the journal replay, for a pre-snapshot resurrection) brings the
    // counter back to the failed instance's position.
    accesses = 0;
  }
};

struct ShardFanout::Shard {
  Shard(std::unique_ptr<ShardPayload> p, std::size_t queue_capacity,
        std::size_t journal_capacity)
      : payload(std::move(p)), queue(queue_capacity) {
    if (journal_capacity != 0) journal.resize(journal_capacity);
  }

  std::unique_ptr<ShardPayload> payload;
  SpscQueue<ShardEntry> queue;

  // Replay-recovery state, all consumer-owned (only the worker that owns
  // this shard — or the producer in inline mode — ever touches it, so no
  // atomics). `journal` is a ring of the last journal.size() applied
  // entries; `applied` counts entries ever applied to the payload;
  // `snapshot` is the payload's last mini-checkpoint, taken at
  // `snapshot_applied` applied entries. Resurrection = fresh payload +
  // load(snapshot) + replay journal[snapshot_applied, applied) — possible
  // exactly while applied - snapshot_applied <= journal.size().
  std::vector<ShardEntry> journal;
  std::uint64_t applied = 0;
  std::uint64_t snapshot_applied = 0;
  std::string snapshot;
  std::uint64_t resurrections = 0;

  // Worker-owned poll counter gating traced drain spans (no atomics:
  // one consumer per shard).
  std::uint64_t drain_batches = 0;

  // The producer's line: it reads `dead` and bumps `pending` on every
  // reference routed here, so nothing the worker writes per entry shares
  // it. `dead` is set (by the owning worker, or the producer in inline
  // mode) when this shard's pipeline threw in a recovering mode: a dead
  // shard's queue is drained to the bit bucket and its state is excluded
  // from merges. `pending` counts references the gate rejected for this
  // shard since its last queued entry, handed over with the next one (or
  // by a flush).
  alignas(64) std::atomic<bool> dead{false};
  std::uint32_t pending = 0;

  // Quiesce ledger. `routed` counts entries the producer successfully
  // enqueued to this shard (plain: single producer, and only the producer
  // reads it, in quiesce()); `consumed` counts entries the worker has
  // fully disposed of — applied to the payload, bit-bucketed for a dead
  // shard, or swallowed by a best-effort failure — and is incremented
  // with release order *after* the disposal so quiesce()'s acquire load
  // publishes the payload mutations. consumed == routed therefore means
  // "every entry handed to this shard is reflected in its state". It sits
  // on its own cache line, away from the producer-written fields above.
  std::uint64_t routed = 0;
  alignas(64) std::atomic<std::uint64_t> consumed{0};

  // Live gauges the owning worker publishes once per drain batch so the
  // producer thread can heartbeat without touching payload internals.
  std::atomic<std::uint64_t> live_sampled{0};
  std::atomic<std::uint64_t> live_depth{0};
  std::atomic<std::uint64_t> live_resident{0};
  std::atomic<std::uint64_t> live_degradations{0};
  std::atomic<double> live_rate{1.0};

  void publish_live() noexcept {
    const obs::HeartbeatSnapshot live = payload->live_state();
    live_sampled.store(live.sampled, std::memory_order_relaxed);
    live_depth.store(live.stack_depth, std::memory_order_relaxed);
    live_resident.store(live.resident_bytes, std::memory_order_relaxed);
    live_degradations.store(live.degradation_events,
                            std::memory_order_relaxed);
    live_rate.store(live.sampling_rate, std::memory_order_relaxed);
  }

  void journal_append(const ShardEntry& entry) {
    if (!journal.empty()) journal[applied % journal.size()] = entry;
    ++applied;
  }
};

ShardFanout::ShardFanout(std::vector<std::unique_ptr<ShardPayload>> payloads,
                         Config config)
    : config_(std::move(config)) {
  if (config_.failure_mode != ShardFailureMode::kReplay) {
    config_.journal_records = 0;
  } else if (config_.snapshot_stride == 0) {
    config_.snapshot_stride =
        std::max<std::uint64_t>(config_.journal_records / 2, 1);
  }
  shards_.reserve(payloads.size());
  for (auto& payload : payloads) {
    shards_.push_back(std::make_unique<Shard>(
        std::move(payload), config_.queue_capacity, config_.journal_records));
    shards_.back()->publish_live();
  }
  if (config_.threads > 1) {
    worker_count_ = std::min<unsigned>(
        config_.threads, static_cast<unsigned>(shards_.size()));
    pool_ = std::make_unique<ThreadPool>(worker_count_);
    for (unsigned t = 0; t < worker_count_; ++t) {
      pool_->submit([this, t] { drain_loop(t); });
    }
  }
}

ShardFanout::~ShardFanout() {
  done_.store(true, std::memory_order_release);
  // ThreadPool's destructor joins after the drain tasks exit; worker
  // exceptions that finish() never observed die with the pool.
  pool_.reset();
}

void ShardFanout::route(std::uint32_t index, const Request& req) {
  ++processed_;
  ++routed_;
  Shard& shard = *shards_[index];
  if (shard.dead.load(std::memory_order_acquire)) {
    dropped_records_.fetch_add(1 + std::uint64_t{shard.pending},
                               std::memory_order_relaxed);
    shard.pending = 0;
    return;
  }
  if (faults::should_fire(faults::kQueuePush, index)) {
    // An injected push fault. Strict mode treats it like any producer
    // failure (the exception aborts the run); recovering modes lose just
    // this record — it never reaches a queue, so there is nothing for
    // replay to bridge — and count it as dropped. The shard's pending
    // count rides on its next entry.
    if (config_.failure_mode == ShardFailureMode::kStrict) {
      throw faults::FaultInjectedError("injected fault at queue push, shard " +
                                       std::to_string(index));
    }
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->instant("sharded.queue_fault", "sharded", 0,
                       {{"shard", static_cast<double>(index)}});
    }
    return;
  }
  push(shard, index, ShardEntry{req, shard.pending, true});
}

void ShardFanout::skip(std::uint32_t index) {
  ++processed_;
  Shard& shard = *shards_[index];
  if (shard.dead.load(std::memory_order_acquire)) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (++shard.pending == kMaxPendingSkips) flush_skips(shard, index);
}

void ShardFanout::flush_skips() {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    flush_skips(*shards_[s], s);
  }
}

void ShardFanout::flush_skips(Shard& shard, std::uint32_t index) {
  if (shard.pending == 0) return;
  if (shard.dead.load(std::memory_order_acquire)) {
    dropped_records_.fetch_add(shard.pending, std::memory_order_relaxed);
    shard.pending = 0;
    return;
  }
  push(shard, index, ShardEntry{Request{}, shard.pending, false});
}

void ShardFanout::push(Shard& shard, std::uint32_t index,
                       const ShardEntry& entry) {
  shard.pending = 0;  // `entry` carries it now
  if (worker_count_ == 0) {
    // Inline mode: consume synchronously (strict failures propagate to
    // the caller, recovering modes dispose of the entry like a worker
    // would).
    if (!consume_entry(shard, index, entry)) {
      dropped_records_.fetch_add(entry.records(), std::memory_order_relaxed);
    }
    return;
  }
  if (shard.queue.try_push(entry)) {
    count_queued(shard);
    return;
  }
  // Backpressure: the shard's worker is behind. Back off (spin, then
  // yield, then bounded sleeps) rather than block on a condvar — stalls
  // are usually transient (a worker mid-batch), but a persistently slow
  // shard must not pin the producer core. One stall in kDrainTraceStride
  // is traced; sharded.producer_stalls keeps the exact count.
  const std::uint64_t stall_number = ++stalls_;
  const bool traced =
      tracer_ != nullptr && (stall_number - 1) % kDrainTraceStride == 0;
  const std::uint64_t stall_start_ns = traced ? tracer_->now_ns() : 0;
  Stopwatch stall;
  const auto end_stall = [&] {
    stall_seconds_ += stall.seconds();
    if (traced) {
      tracer_->complete("sharded.queue_stall", "sharded", 0, stall_start_ns,
                        tracer_->now_ns() - stall_start_ns,
                        {{"shard", static_cast<double>(index)},
                         {"stalls", static_cast<double>(stall_number)}});
    }
  };
  Backoff backoff;
  for (;;) {
    if (failed_.load(std::memory_order_acquire)) {
      // A worker died; its queues will never drain. Drop the entry — the
      // run is poisoned and finish() will rethrow the worker's error.
      end_stall();
      return;
    }
    if (shard.dead.load(std::memory_order_acquire)) {
      // Best-effort: this shard just died under us; stop waiting on it.
      dropped_records_.fetch_add(entry.records(), std::memory_order_relaxed);
      end_stall();
      return;
    }
    if (backoff.pause()) {
      if (metrics_ != nullptr) {
        metrics_->sharded.backpressure_sleeps->inc();
      }
    }
    if (shard.queue.try_push(entry)) break;
  }
  count_queued(shard);
  end_stall();
}

void ShardFanout::count_queued(Shard& shard) {
  // The queue depth is sampled once per 1024 entries, so the branch, not
  // the histogram, is what the other entries pay.
  if ((++shard.routed & 1023u) == 0 && metrics_ != nullptr) {
    metrics_->sharded.queue_depth->record(shard.queue.size_approx());
  }
}

void ShardFanout::publish_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->accesses->inc(processed_ - published_processed_);
  metrics_->sharded.enqueued->inc(routed_ - published_routed_);
  metrics_->sharded.producer_stalls->inc(stalls_ - published_stalls_);
  metrics_->sharded.stall_seconds->set(stall_seconds_);
  published_processed_ = processed_;
  published_routed_ = routed_;
  published_stalls_ = stalls_;
}

Status ShardFanout::quiesce() {
  flush_skips();
  if (worker_count_ == 0) return Status::ok();
  Backoff backoff;
  for (;;) {
    if (failed_.load(std::memory_order_acquire)) {
      return internal_error(
          "cannot quiesce shards: a worker failed; finish() will rethrow "
          "its error");
    }
    bool drained = true;
    for (const auto& shard : shards_) {
      if (shard->consumed.load(std::memory_order_acquire) != shard->routed) {
        drained = false;
        break;
      }
    }
    if (drained) return Status::ok();
    backoff.pause();
  }
}

void ShardFanout::restore_fanout_state(std::uint64_t processed,
                                       std::uint64_t dropped,
                                       const std::vector<bool>& dead_flags) {
  processed_ = processed;
  dropped_records_.store(dropped, std::memory_order_relaxed);
  std::uint64_t failed = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s < dead_flags.size() && dead_flags[s]) {
      shards_[s]->dead.store(true, std::memory_order_release);
      ++failed;
    } else if (config_.journal_records != 0) {
      // The restored payload is the replay base: without it a crash before
      // the shard's first mini-checkpoint would rebuild a fresh payload
      // and replay only the entries since the resume.
      take_snapshot(*shards_[s], static_cast<std::uint32_t>(s));
    }
  }
  shards_failed_.store(failed, std::memory_order_relaxed);
}

void ShardFanout::finish() {
  if (finished_) return;
  flush_skips();
  if (worker_count_ != 0) {
    const std::uint64_t join_start_ns =
        tracer_ != nullptr ? tracer_->now_ns() : 0;
    done_.store(true, std::memory_order_release);
    pool_->wait_idle();  // rethrows the first worker exception (strict)
    if (tracer_ != nullptr) {
      tracer_->complete("sharded.drain_join", "sharded", 0, join_start_ns,
                        tracer_->now_ns() - join_start_ns);
    }
  }
  finished_ = true;
  publish_metrics();
  if (metrics_ != nullptr) {
    metrics_->sharded.shard_failures->inc(shards_failed());
  }
  // Best-effort recovery extrapolates from the survivors; with none left
  // there is nothing to extrapolate from and the run has truly failed.
  if (shards_failed() >= shards_.size()) {
    throw StatusError(resource_limit_error(
        "all " + std::to_string(shards_.size()) +
        " shards failed; no surviving shard to merge"));
  }
}

std::uint64_t ShardFanout::shard_resurrections(std::uint32_t s) const {
  return shards_.at(s)->resurrections;
}

ShardPayload& ShardFanout::payload(std::uint32_t s) {
  return *shards_.at(s)->payload;
}

const ShardPayload& ShardFanout::payload(std::uint32_t s) const {
  return *shards_.at(s)->payload;
}

bool ShardFanout::dead(std::uint32_t s) const {
  return shards_.at(s)->dead.load(std::memory_order_acquire);
}

obs::HeartbeatSnapshot ShardFanout::live_aggregate() const {
  obs::HeartbeatSnapshot snap;
  snap.records = processed_;
  double min_rate = 1.0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    if (worker_count_ == 0) {
      // Inline mode: no concurrency, read the payload directly.
      const obs::HeartbeatSnapshot live = shard.payload->live_state();
      snap.sampled += live.sampled;
      snap.stack_depth += live.stack_depth;
      snap.resident_bytes += live.resident_bytes;
      snap.degradation_events += live.degradation_events;
      min_rate = s == 0 ? live.sampling_rate
                        : std::min(min_rate, live.sampling_rate);
    } else {
      snap.sampled += shard.live_sampled.load(std::memory_order_relaxed);
      snap.stack_depth += shard.live_depth.load(std::memory_order_relaxed);
      snap.resident_bytes +=
          shard.live_resident.load(std::memory_order_relaxed);
      snap.degradation_events +=
          shard.live_degradations.load(std::memory_order_relaxed);
      const double rate = shard.live_rate.load(std::memory_order_relaxed);
      min_rate = s == 0 ? rate : std::min(min_rate, rate);
    }
  }
  snap.sampling_rate = min_rate;
  return snap;
}

void ShardFanout::attach_metrics(obs::PipelineMetrics* metrics) noexcept {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    metrics_->sharded.shards->set(static_cast<double>(shards_.size()));
    metrics_->sharded.threads->set(static_cast<double>(worker_count_));
  }
}

void ShardFanout::attach_tracer(obs::Tracer* tracer) noexcept {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  tracer_->set_lane_name(0, "producer");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    tracer_->set_lane_name(static_cast<std::uint32_t>(s) + 1,
                           "shard " + std::to_string(s));
  }
}

void ShardFanout::drain_batch(Shard& shard, std::uint32_t index,
                              bool& did_work) {
  ShardEntry entry;
  if (shard.dead.load(std::memory_order_relaxed)) {
    // Discard what the producer enqueued before it noticed the death;
    // the queue must keep draining or the producer's backpressure spin
    // would wait on a shard that will never consume.
    for (int n = 0; n < kDrainBatch && shard.queue.try_pop(entry); ++n) {
      dropped_records_.fetch_add(entry.records(), std::memory_order_relaxed);
      shard.consumed.fetch_add(1, std::memory_order_release);
      did_work = true;
    }
    return;
  }
  // Stride-gated drain spans: one traced batch (two clock reads) every
  // kDrainTraceStride polls; untraced batches pay one branch. tracer_ is
  // read only after a pop: attach_tracer() precedes the first push, and
  // the pop's acquire load orders the two.
  const bool stride_hit = (shard.drain_batches++ % kDrainTraceStride) == 0;
  if (!shard.queue.try_pop(entry)) return;
  const bool traced = stride_hit && tracer_ != nullptr;
  const std::uint64_t batch_start_ns = traced ? tracer_->now_ns() : 0;
  int drained = 0;
  do {
    // Strict-mode failures throw through to drain_loop/the pool; a
    // recovering mode that could not save the shard returns false — the
    // entry that killed it is disposed of (swallowed), so it still
    // counts as consumed.
    const bool ok = consume_entry(shard, index, entry);
    shard.consumed.fetch_add(1, std::memory_order_release);
    did_work = true;
    if (!ok) {
      dropped_records_.fetch_add(entry.records(), std::memory_order_relaxed);
      return;
    }
    ++drained;
  } while (drained < kDrainBatch && shard.queue.try_pop(entry));
  shard.publish_live();
  if (traced) {
    tracer_->complete(
        "sharded.drain", "sharded", index + 1, batch_start_ns,
        tracer_->now_ns() - batch_start_ns,
        {{"records", static_cast<double>(drained)},
         {"depth", static_cast<double>(
              shard.live_depth.load(std::memory_order_relaxed))}});
  }
}

/// Consumer side: applies one entry to a live shard's payload — its
/// gate-rejected count, then its record — with the test hook and fault
/// point (record entries only), journaling, mini-checkpoints, and failure
/// handling. Returns true when the entry is reflected in the payload
/// (possibly after a resurrection), false when the shard died under it.
/// Strict mode throws instead of dying.
bool ShardFanout::consume_entry(Shard& shard, std::uint32_t index,
                                const ShardEntry& entry) {
  try {
    if (entry.has_record) {
      if (config_.before_access_hook) {
        config_.before_access_hook(index, entry.req);
      }
      faults::maybe_fire(faults::kShardWorker, index);
    }
    shard.payload->apply(entry);
  } catch (...) {
    if (config_.failure_mode == ShardFailureMode::kStrict) throw;
    if (config_.failure_mode == ShardFailureMode::kReplay &&
        try_resurrect(shard, index, entry)) {
      return true;
    }
    kill_shard(shard, index);
    return false;
  }
  shard.journal_append(entry);
  maybe_snapshot(shard, index);
  return true;
}

void ShardFanout::kill_shard(Shard& shard, std::uint32_t index) {
  shard.dead.store(true, std::memory_order_release);
  shards_failed_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr) {
    tracer_->instant("sharded.shard_failed", "sharded", index + 1,
                     {{"shard", static_cast<double>(index)}});
  }
}

/// Mini-checkpoint cadence: every snapshot_stride applied entries the
/// owning worker saves the payload into shard-local storage.
void ShardFanout::maybe_snapshot(Shard& shard, std::uint32_t index) {
  if (config_.journal_records == 0 ||
      shard.applied - shard.snapshot_applied < config_.snapshot_stride) {
    return;
  }
  take_snapshot(shard, index);
}

/// Saves the payload as the shard's mini-checkpoint. A failed save keeps
/// the previous snapshot — the shard stays recoverable up to the old
/// snapshot's journal window and the failure is traced, not fatal.
void ShardFanout::take_snapshot(Shard& shard, std::uint32_t index) {
  std::string state;
  Status status = Status::ok();
  try {
    status = shard.payload->save_state(&state);
  } catch (...) {
    status = internal_error("shard snapshot threw");
  }
  if (status.is_ok()) {
    shard.snapshot = std::move(state);
    shard.snapshot_applied = shard.applied;
  } else if (tracer_ != nullptr) {
    tracer_->instant("sharded.shard_snapshot_failed", "sharded", index + 1,
                     {{"shard", static_cast<double>(index)}});
  }
}

/// Resurrects a shard whose payload just threw on `entry`: fresh payload,
/// reload the last mini-checkpoint, replay the journal tail, re-apply the
/// failing entry — retried under the configured RetryPolicy, every
/// attempt traced as a sharded.shard_resurrect span. Returns false (and
/// leaves the caller to fall back to drop-and-rescale) when the journal
/// cannot bridge back to the snapshot or every attempt failed. The replay
/// calls the payload directly — no hook, no fault point — so a trigger
/// armed on this shard does not re-kill the recovery itself; the hit
/// counter simply resumes with the next fresh record.
bool ShardFanout::try_resurrect(Shard& shard, std::uint32_t index,
                                const ShardEntry& entry) {
  const std::uint64_t pending = shard.applied - shard.snapshot_applied;
  if (shard.journal.empty() || pending > shard.journal.size()) {
    if (tracer_ != nullptr) {
      tracer_->instant("sharded.replay_window_exceeded", "sharded", index + 1,
                       {{"shard", static_cast<double>(index)},
                        {"pending", static_cast<double>(pending)},
                        {"journal", static_cast<double>(shard.journal.size())}});
    }
    return false;
  }
  for (unsigned attempt = 1; attempt <= config_.retry.max_attempts;
       ++attempt) {
    if (attempt > 1) config_.retry.sleep(attempt - 1);
    const std::uint64_t start_ns = tracer_ != nullptr ? tracer_->now_ns() : 0;
    bool ok = false;
    try {
      shard.payload->rebuild();
      ok = shard.snapshot.empty() ||
           shard.payload->load_state(shard.snapshot).is_ok();
      if (ok) {
        for (std::uint64_t i = shard.snapshot_applied; i < shard.applied;
             ++i) {
          shard.payload->apply(shard.journal[i % shard.journal.size()]);
        }
        shard.payload->apply(entry);  // the entry that killed the worker
      }
    } catch (...) {
      ok = false;
    }
    if (tracer_ != nullptr) {
      tracer_->complete("sharded.shard_resurrect", "sharded", index + 1,
                        start_ns, tracer_->now_ns() - start_ns,
                        {{"shard", static_cast<double>(index)},
                         {"attempt", static_cast<double>(attempt)},
                         {"replayed", static_cast<double>(pending)},
                         {"ok", ok ? 1.0 : 0.0}});
    }
    if (ok) {
      shard.journal_append(entry);
      ++shard.resurrections;
      resurrections_.fetch_add(1, std::memory_order_relaxed);
      replayed_records_.fetch_add(pending, std::memory_order_relaxed);
      if (metrics_ != nullptr) {
        metrics_->sharded.resurrections->inc();
        metrics_->sharded.replayed_records->inc(pending);
      }
      shard.publish_live();
      return true;
    }
  }
  return false;
}

void ShardFanout::drain_loop(unsigned worker_index) {
  // Static shard ownership (shard s -> worker s % T) keeps every queue
  // strictly single-consumer.
  std::vector<std::uint32_t> owned;
  for (std::uint32_t s = worker_index; s < shards_.size();
       s += worker_count_) {
    owned.push_back(s);
  }
  try {
    for (;;) {
      bool did_work = false;
      for (std::uint32_t s : owned) drain_batch(*shards_[s], s, did_work);
      if (did_work) continue;
      if (done_.load(std::memory_order_acquire)) {
        // done_ was released after the producer's last push, so an empty
        // check after this acquire is conclusive.
        bool all_empty = true;
        for (std::uint32_t s : owned) {
          if (!shards_[s]->queue.empty_approx()) {
            all_empty = false;
            break;
          }
        }
        if (all_empty) return;
      } else {
        idle_pause();
        std::this_thread::yield();
      }
    }
  } catch (...) {
    // Flag first so the producer's stall loop cannot wait forever on
    // this worker's queues, then let the pool capture the exception for
    // finish() to rethrow.
    failed_.store(true, std::memory_order_release);
    throw;
  }
}

std::vector<std::unique_ptr<ShardPayload>> ShardedEstimator::make_payloads(
    const Config& config) {
  const std::uint32_t shard_n = config.shards == 0 ? 1 : config.shards;
  EstimatorOptions base;
  for (const auto& [key, value] : config.base_options.entries()) {
    if (is_fanout_key(key)) continue;
    base.set(key, value);
  }
  std::vector<std::unique_ptr<ShardPayload>> payloads;
  payloads.reserve(shard_n);
  for (std::uint32_t s = 0; s < shard_n; ++s) {
    EstimatorOptions opts = base;
    // Shard-aware injection: the base model rescales its recorded
    // distances/reuse times by S (closure under uniform thinning), and
    // seeded models get independent RNG streams. The base seed defaults to
    // 1 — the seeded models' own default — so S=1 with no seed stays
    // seed-identical to the serial model.
    opts.set("shard_count", std::to_string(shard_n));
    opts.set("seed", std::to_string(base.get_int("seed", 1) +
                                    static_cast<std::int64_t>(s)));
    auto payload = std::make_unique<ShardPayload>();
    // The factory is the resurrection path's rebuild() hook: it recreates
    // this shard's estimator with the exact options used here, so a revived
    // shard is option-identical to the one that died.
    payload->factory = [model = config.base_model, opts] {
      auto created = EstimatorRegistry::instance().create(model, opts);
      if (!created.is_ok()) {
        // The registry factory contract: std::invalid_argument maps back to
        // kInvalidArgument at the outer create() call.
        throw std::invalid_argument(created.status().message());
      }
      return std::move(created).value();
    };
    payload->estimator = payload->factory();
    if (config.max_stack_bytes != 0) {
      // Split the global ceiling evenly; the floor of 1 keeps degradation
      // armed even for absurd shard counts. Replay mode charges the
      // journal's footprint against the shard's share so the global bound
      // covers recovery state too.
      const std::uint64_t share =
          std::max<std::uint64_t>(config.max_stack_bytes / shard_n, 1);
      const std::uint64_t journal_bytes =
          config.fanout.failure_mode == ShardFailureMode::kReplay
              ? static_cast<std::uint64_t>(config.fanout.journal_records) *
                    sizeof(ShardEntry)
              : 0;
      payload->budget_bytes = share > journal_bytes ? share - journal_bytes : 1;
    }
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

ShardedEstimator::ShardedEstimator(const Config& config)
    : fanout_(make_payloads(config), config.fanout) {
  configured_rate_ =
      fanout_.payload(0).estimator->snapshot().sampling_rate;
  // Thresholds only fall (a halving, or a restore of a halved filter), so
  // the largest one at construction bounds every shard's for the whole run.
  for (std::uint32_t s = 0; s < fanout_.shard_count(); ++s) {
    gate_threshold_ = std::max(
        gate_threshold_, fanout_.payload(s).estimator->sample_threshold());
  }
}

std::uint32_t ShardedEstimator::shard_of(std::uint64_t key) const noexcept {
  return shard_of_hash(hash64(key));
}

std::uint32_t ShardedEstimator::shard_of_hash(
    std::uint64_t hash) const noexcept {
  // Top hash bits: disjoint from the low bits spatial filters threshold on
  // (modulus 2^24), so shard identity and sample membership are
  // independent uniform functions of the key.
  return static_cast<std::uint32_t>(hash >> 32) % fanout_.shard_count();
}

void ShardedEstimator::access(const Request& req) {
  // Filter before fan-out (DESIGN.md §12): a key whose low hash bits fail
  // the largest shard threshold is sampled by no shard, so it is only
  // counted here and never queued.
  const std::uint64_t hash = hash64(req.key);
  const std::uint32_t index = shard_of_hash(hash);
  if (hash % SpatialFilter::kDefaultModulus < gate_threshold_) {
    fanout_.route(index, req);
  } else {
    fanout_.skip(index);
  }
}

void ShardedEstimator::finish() {
  if (fanout_.finished()) return;
  fanout_.finish();  // rethrows worker errors; throws when all shards died
  cache_shard_stats();
  if (obs::PipelineMetrics* metrics = pipeline_metrics()) {
    // The shard instances run detached (per-record counters on shared
    // cache lines would serialize the workers), so the filter slice is
    // published once, from the totals the run already owns; the fan-out
    // published profiler.accesses in finish().
    const obs::HeartbeatSnapshot totals = snapshot();
    metrics->filter_passed->inc(totals.sampled);
    metrics->filter_dropped->inc(totals.records - totals.sampled);
    metrics->sampling_rate->set(totals.sampling_rate);
    metrics->stack_depth->set(static_cast<double>(totals.stack_depth));
  }
}

void ShardedEstimator::cache_shard_stats() const {
  if (!shard_stats_.empty()) return;
  // Inline mode may reach here without finish(): hand the shards their
  // trailing gate-rejected counts first (a no-op once finished).
  fanout_.flush_skips();
  shard_stats_.reserve(fanout_.shard_count());
  for (std::uint32_t s = 0; s < fanout_.shard_count(); ++s) {
    ShardStats stats;
    stats.dead = fanout_.dead(s);
    stats.snapshot = fanout_.payload(s).estimator->snapshot();
    shard_stats_.push_back(stats);
  }
}

void ShardedEstimator::ensure_merged() const {
  if (merged_) return;
  cache_shard_stats();
  const std::uint32_t n = fanout_.shard_count();
  std::uint32_t base = 0;
  while (base < n && fanout_.dead(base)) ++base;
  if (base >= n) {
    throw StatusError(
        resource_limit_error("every shard failed; nothing to merge"));
  }
  merge_base_ = base;
  MrcEstimator& target = *fanout_.payload(base).estimator;
  std::uint32_t live = 1;
  for (std::uint32_t s = base + 1; s < n; ++s) {
    if (fanout_.dead(s)) continue;
    const Status status = target.absorb(*fanout_.payload(s).estimator);
    if (!status.is_ok()) throw StatusError(status);
    ++live;
  }
  if (live < n) {
    // Each shard is an unbiased 1/S spatial sample, so scaling the
    // survivors' mass by S/(S-F) extrapolates the dropped shards' share.
    const Status status = target.scale_mass(static_cast<double>(n) /
                                            static_cast<double>(live));
    if (!status.is_ok()) throw StatusError(status);
    if (fanout_.tracer() != nullptr) {
      fanout_.tracer()->instant("sharded.survivor_rescale", "sharded", 0,
                                {{"shards", static_cast<double>(n)},
                                 {"survivors", static_cast<double>(live)}});
    }
  }
  merged_ = true;
}

void ShardedEstimator::require_finished(const char* what) const {
  if (fanout_.needs_finish()) {
    throw std::logic_error(std::string("ShardedEstimator::") + what +
                           " requires finish() when running threaded");
  }
}

MissRatioCurve ShardedEstimator::mrc(const std::vector<double>& sizes) const {
  require_finished("mrc()");
  obs::Tracer* tracer = fanout_.tracer();
  const std::uint64_t merge_start_ns = tracer != nullptr ? tracer->now_ns() : 0;
  double merge_seconds = 0.0;
  MissRatioCurve curve;
  {
    ScopedTimer timer(merge_seconds);
    ensure_merged();
    curve = fanout_.payload(merge_base_).estimator->mrc(sizes);
  }
  if (tracer != nullptr) {
    tracer->complete("sharded.merge", "sharded", 0, merge_start_ns,
                     tracer->now_ns() - merge_start_ns,
                     {{"shards", static_cast<double>(fanout_.shard_count())}});
  }
  if (pipeline_metrics() != nullptr) {
    pipeline_metrics()->sharded.merge_seconds->set(merge_seconds);
  }
  return curve;
}

std::uint64_t ShardedEstimator::processed() const {
  return fanout_.processed();
}

RunReport ShardedEstimator::run_report(const TraceReadReport* ingest) const {
  require_finished("run_report()");
  cache_shard_stats();
  RunReport report;
  if (ingest != nullptr) {
    report.records_read = ingest->records_read;
    report.records_skipped = ingest->records_skipped;
    report.checksum_failures = ingest->checksum_failures;
    report.truncated_tail = ingest->truncated_tail;
  } else {
    report.records_read = fanout_.processed();
  }
  report.configured_sampling_rate = configured_rate_;
  double final_rate = 1.0;
  bool first = true;
  for (const ShardStats& stats : shard_stats_) {
    if (stats.dead) continue;  // a dead shard's partial state is untrusted
    report.degradation_events += stats.snapshot.degradation_events;
    report.stack_depth += stats.snapshot.stack_depth;
    report.space_overhead_bytes += stats.snapshot.resident_bytes;
    final_rate = first ? stats.snapshot.sampling_rate
                       : std::min(final_rate, stats.snapshot.sampling_rate);
    first = false;
  }
  report.final_sampling_rate = final_rate;
  report.producer_stall_seconds = fanout_.producer_stall_seconds();
  report.shards_failed = fanout_.shards_failed();
  report.shards_resurrected = fanout_.shards_resurrected();
  report.replayed_records = fanout_.replayed_records();
  report.dropped_records = fanout_.dropped_records();
  report.recovery =
      recovery_path_name(report.shards_resurrected, report.shards_failed);
  return report;
}

obs::HeartbeatSnapshot ShardedEstimator::snapshot() const {
  // Mid-run: the batch-wise gauges the workers publish (at most one drain
  // batch stale). Post-finish: exact sums from the cached pre-merge stats.
  if (shard_stats_.empty()) return fanout_.live_aggregate();
  obs::HeartbeatSnapshot snap;
  snap.records = fanout_.processed();
  double min_rate = 1.0;
  bool first = true;
  for (const ShardStats& stats : shard_stats_) {
    if (stats.dead) continue;
    snap.sampled += stats.snapshot.sampled;
    snap.stack_depth += stats.snapshot.stack_depth;
    snap.resident_bytes += stats.snapshot.resident_bytes;
    snap.degradation_events += stats.snapshot.degradation_events;
    min_rate = first ? stats.snapshot.sampling_rate
                     : std::min(min_rate, stats.snapshot.sampling_rate);
    first = false;
  }
  snap.sampling_rate = min_rate;
  return snap;
}

Status ShardedEstimator::save_state(std::string* out) const {
  if (out == nullptr) return invalid_argument_error("save_state: null output");
  if (merged_) {
    return invalid_argument_error(
        "sharded snapshot unavailable after merge: absorb() has folded the "
        "shards together in place; checkpoint before reading the curve");
  }
  // Quiesce first: after this returns, every record routed so far is
  // reflected in its shard's payload and the workers are idle on their
  // queues, so reading the payloads from this (producer) thread is a
  // consistent cut at the current stream position.
  const Status quiesced = fanout_.quiesce();
  if (!quiesced.is_ok()) return quiesced;
  out->clear();
  ckpt::StateWriter writer(*out);
  const std::uint32_t n = fanout_.shard_count();
  std::string meta;
  ckpt::append_u32(meta, n);
  ckpt::append_u64(meta, fanout_.processed());
  ckpt::append_u64(meta, fanout_.dropped_records());
  ckpt::append_u64(meta, fanout_.shards_failed());
  for (std::uint32_t s = 0; s < n; ++s) {
    ckpt::append_u32(meta, fanout_.dead(s) ? 1u : 0u);
  }
  writer.add_section(ckpt::kSectionShardMeta, meta);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (fanout_.dead(s)) continue;  // a dead shard's partial state is untrusted
    const ShardPayload& payload = fanout_.payload(s);
    std::string inner;
    const Status status = payload.estimator->save_state(&inner);
    if (!status.is_ok()) return status;
    std::string body;
    ckpt::append_u32(body, s);
    ckpt::append_u64(body, payload.accesses);
    body += inner;
    writer.add_section(ckpt::kSectionShardState, body);
  }
  return Status::ok();
}

Status ShardedEstimator::load_state(const std::string& snapshot) {
  if (merged_ || fanout_.processed() != 0) {
    return invalid_argument_error(
        "sharded resume requires a freshly constructed estimator");
  }
  auto parsed = ckpt::StateReader::parse(snapshot);
  if (!parsed.is_ok()) return parsed.status();
  const ckpt::StateReader& reader = parsed.value();
  const std::string* meta = reader.find(ckpt::kSectionShardMeta);
  if (meta == nullptr) {
    return bad_record_error("sharded snapshot: missing shard-meta section");
  }
  ckpt::ByteReader meta_reader(*meta);
  std::uint32_t shard_n = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shards_failed = 0;
  if (!meta_reader.read_u32(&shard_n) || !meta_reader.read_u64(&processed) ||
      !meta_reader.read_u64(&dropped) ||
      !meta_reader.read_u64(&shards_failed)) {
    return truncated_error("sharded snapshot: shard-meta truncated");
  }
  if (shard_n != fanout_.shard_count()) {
    return invalid_argument_error(
        "sharded snapshot: shard count mismatch (snapshot " +
        std::to_string(shard_n) + ", configured " +
        std::to_string(fanout_.shard_count()) + ")");
  }
  std::vector<bool> dead(shard_n, false);
  std::uint64_t dead_count = 0;
  for (std::uint32_t s = 0; s < shard_n; ++s) {
    std::uint32_t flag = 0;
    if (!meta_reader.read_u32(&flag)) {
      return truncated_error("sharded snapshot: dead-shard mask truncated");
    }
    if (flag > 1) {
      return bad_record_error("sharded snapshot: malformed dead-shard flag");
    }
    dead[s] = flag != 0;
    dead_count += flag;
  }
  if (!meta_reader.exhausted()) {
    return bad_record_error("sharded snapshot: trailing bytes in shard meta");
  }
  if (dead_count != shards_failed) {
    return bad_record_error(
        "sharded snapshot: dead-shard mask disagrees with failure count");
  }
  if (dead_count >= shard_n) {
    return bad_record_error(
        "sharded snapshot: every shard dead; nothing to resume");
  }
  const std::vector<const std::string*> states =
      reader.find_all(ckpt::kSectionShardState);
  if (states.size() != shard_n - dead_count) {
    return bad_record_error(
        "sharded snapshot: expected " +
        std::to_string(shard_n - dead_count) + " shard-state sections, found " +
        std::to_string(states.size()));
  }
  // Validate the shard indices and slice out the inner payloads before
  // touching any estimator, so a malformed snapshot leaves this instance
  // untouched (the per-shard load_state calls below are themselves
  // commit-at-end, so a failure there also leaves prior shards consistent
  // only up to the failing one — the caller discards the estimator on any
  // non-ok status, which the CLI exit-code contract already requires).
  constexpr std::size_t kShardHeaderBytes = 12;  // u32 index + u64 accesses
  std::vector<bool> seen(shard_n, false);
  std::vector<std::string> inner(shard_n);
  std::vector<std::uint64_t> accesses(shard_n, 0);
  for (const std::string* body : states) {
    ckpt::ByteReader header(*body);
    std::uint32_t index = 0;
    std::uint64_t shard_accesses = 0;
    if (!header.read_u32(&index) || !header.read_u64(&shard_accesses)) {
      return truncated_error("sharded snapshot: shard-state header truncated");
    }
    if (index >= shard_n || dead[index]) {
      return bad_record_error(
          "sharded snapshot: shard-state section for invalid shard " +
          std::to_string(index));
    }
    if (seen[index]) {
      return bad_record_error(
          "sharded snapshot: duplicate shard-state section for shard " +
          std::to_string(index));
    }
    seen[index] = true;
    inner[index] = body->substr(kShardHeaderBytes);
    accesses[index] = shard_accesses;
  }
  for (std::uint32_t s = 0; s < shard_n; ++s) {
    if (dead[s]) continue;
    ShardPayload& payload = fanout_.payload(s);
    const Status status = payload.estimator->load_state(inner[s]);
    if (!status.is_ok()) return status;
    payload.accesses = accesses[s];
  }
  fanout_.restore_fanout_state(processed, dropped, dead);
  return Status::ok();
}

void ShardedEstimator::attach_metrics(obs::PipelineMetrics* metrics) noexcept {
  MrcEstimator::attach_metrics(metrics);
  fanout_.attach_metrics(metrics);
}

void ShardedEstimator::refresh_metrics_gauges() const noexcept {
  MrcEstimator::refresh_metrics_gauges();
  fanout_.publish_metrics();
}

void ShardedEstimator::attach_tracer(obs::Tracer* tracer) noexcept {
  fanout_.attach_tracer(tracer);
}

void ShardedEstimator::export_gauges(obs::MetricsRegistry& registry) const {
  if (fanout_.needs_finish()) return;  // nothing trustworthy to export yet
  cache_shard_stats();
  for (std::uint32_t s = 0; s < fanout_.shard_count(); ++s) {
    const ShardStats& stats = shard_stats_[s];
    const std::string prefix = "sharded.shard" + std::to_string(s) + ".";
    registry.gauge(prefix + "stack_depth")
        .set(static_cast<double>(stats.snapshot.stack_depth));
    registry.gauge(prefix + "sampled")
        .set(static_cast<double>(stats.snapshot.sampled));
    registry.gauge(prefix + "degradations")
        .set(static_cast<double>(stats.snapshot.degradation_events));
    registry.gauge(prefix + "final_rate").set(stats.snapshot.sampling_rate);
    registry.gauge(prefix + "failed").set(stats.dead ? 1.0 : 0.0);
    registry.gauge(prefix + "resurrections")
        .set(static_cast<double>(fanout_.shard_resurrections(s)));
  }
  registry.gauge("recovery.resurrections")
      .set(static_cast<double>(fanout_.shards_resurrected()));
  registry.gauge("recovery.replayed_records")
      .set(static_cast<double>(fanout_.replayed_records()));
}

const MrcEstimator& ShardedEstimator::shard(std::uint32_t s) const {
  require_finished("shard()");
  if (s >= fanout_.shard_count()) {
    throw std::out_of_range("shard index out of range");
  }
  return *fanout_.payload(s).estimator;
}

}  // namespace krr

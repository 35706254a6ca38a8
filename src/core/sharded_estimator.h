#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "obs/heartbeat.h"
#include "trace/request.h"
#include "util/retry.h"
#include "util/status.h"

namespace krr {

class ThreadPool;

/// How a sharded pipeline reacts when a shard worker throws mid-run.
enum class ShardFailureMode {
  /// Fail fast (default): the producer stops feeding and finish() rethrows
  /// the first worker exception.
  kStrict,
  /// Drop the failed shard and keep the run alive: the shard's queue is
  /// discarded, records routed to it are dropped, and at merge time the
  /// surviving shards' mass is rescaled by S/(S-F) — each shard is an
  /// unbiased 1/S sample of the keyspace, so the extrapolation stays
  /// unbiased. Failures are counted in RunReport::shards_failed; the run
  /// only fails if every shard dies.
  kBestEffort,
  /// Self-healing: each live shard keeps a bounded replay journal (the last
  /// J records it applied) plus a periodic mini-checkpoint of its payload.
  /// When the payload throws, the owning worker resurrects it in place —
  /// fresh payload, reload the last mini-checkpoint, replay the journal
  /// tail, re-apply the failing record — under the configured RetryPolicy.
  /// The replayed shard is bit-identical to one that never failed (same
  /// records, same order). Only when recovery is impossible (journal window
  /// exceeded because the payload outran its snapshot cadence, or every
  /// retry attempt failed) does the shard fall back to kBestEffort's
  /// drop-and-rescale. RunReport::recovery reports which path ran.
  kReplay,
};

/// The recovery path a finished run took, for RunReport::recovery and the
/// CLI summary: "none" (no shard ever failed), "replayed" (every failure
/// was resurrected from journal+checkpoint), "rescaled" (failures were
/// dropped and survivors rescaled), or "replayed+rescaled" (both happened).
inline const char* recovery_path_name(std::uint64_t resurrected,
                                      std::uint64_t rescaled) noexcept {
  if (resurrected == 0 && rescaled == 0) return "none";
  if (resurrected != 0 && rescaled != 0) return "replayed+rescaled";
  return resurrected != 0 ? "replayed" : "rescaled";
}

/// One shard's model state: a registry estimator plus the bookkeeping the
/// fan-out needs to govern and resurrect it (defined in
/// sharded_estimator.cpp, the only place that touches its insides).
struct ShardPayload;

/// One shard-queue and replay-journal entry (defined in
/// sharded_estimator.cpp): a record plus the gate-rejected count before it.
struct ShardEntry;

/// The sharded fan-out pipeline behind every `*_sharded` model: the caller
/// (the trace-reader thread) is the single producer, routing records to
/// per-shard bounded SPSC queues; min(threads, shards) persistent workers
/// each own a fixed subset of shards (shard s belongs to worker s % T) and
/// drain them in stream order. One queue therefore has exactly one
/// producer and one consumer, and no record path takes a global lock.
/// Shard results never depend on the thread count, only on the routing and
/// the payloads: each shard consumes its records in stream order whatever
/// thread owns it.
///
/// The fan-out owns routing, backpressure, failure handling (strict /
/// best-effort with dead-shard bit-bucketing / replay resurrection),
/// live-gauge publication, and the sharded.* metrics/trace events. The
/// caller computes the shard index (route() takes it, so the hash stays a
/// pure function of the key in exactly one place) and gates the record:
/// one a shard cannot sample goes to skip(), which only counts it.
class ShardFanout {
 public:
  struct Config {
    /// Worker threads consuming shard queues. <= 1 runs the pipeline inline
    /// on the calling thread (no pool, no queues).
    unsigned threads = 1;
    /// Per-shard SPSC ring capacity in entries (rounded up to a power of
    /// two). An entry is one record plus the count of gate-rejected
    /// references before it (24 B), so the default buffers 1.5 MiB per
    /// shard.
    std::size_t queue_capacity = 1u << 16;
    /// Worker-failure policy; see ShardFailureMode.
    ShardFailureMode failure_mode = ShardFailureMode::kStrict;
    /// kReplay only: per-shard replay-journal capacity J in entries. A
    /// resurrection can bridge at most J entries between the last
    /// mini-checkpoint and the failure; 0 disables journaling (every
    /// failure falls straight back to drop-and-rescale). 24 B/entry, and
    /// the footprint is charged against the shard's memory budget.
    std::size_t journal_records = 16384;
    /// kReplay only: applied entries between per-shard mini-checkpoints.
    /// 0 picks max(journal_records / 2, 1), which guarantees the journal
    /// window can never be exceeded while snapshots keep succeeding.
    std::uint64_t snapshot_stride = 0;
    /// Resurrection attempts/backoff (kReplay only). Jitter is
    /// deterministic in the policy seed, so a faulted run recovers
    /// identically every time.
    RetryPolicy retry;
    /// Test seam: invoked (on the consuming thread) immediately before each
    /// queued record enters its shard's payload (gate-rejected references
    /// never reach it). Lets fault-injection tests throw from inside a
    /// shard worker; leave empty in production.
    std::function<void(std::uint32_t shard, const Request&)> before_access_hook;
  };

  ShardFanout(std::vector<std::unique_ptr<ShardPayload>> payloads,
              Config config);

  /// Blocks until workers drained (errors are swallowed here — call
  /// finish() first to observe them).
  ~ShardFanout();

  ShardFanout(const ShardFanout&) = delete;
  ShardFanout& operator=(const ShardFanout&) = delete;

  /// Producer side: routes one record to shard `index`, together with the
  /// count of references skip() charged to that shard since its previous
  /// entry. With threads > 1 this enqueues (briefly yielding when the
  /// shard's ring is full — backpressure, counted as producer stall time);
  /// inline mode consumes synchronously. Single-producer: one thread at a
  /// time may call route(), skip() and flush_skips().
  void route(std::uint32_t index, const Request& req);

  /// Producer side: counts one reference the owner's gate rejected for
  /// shard `index` (no queue traffic). The count reaches the shard's
  /// payload (MrcEstimator::skip) with the shard's next entry.
  void skip(std::uint32_t index);

  /// Producer side: hands every shard its outstanding skip() count as a
  /// skip-only entry, through the queue and journal like a record.
  /// quiesce() and finish() call it, so a checkpoint or a finished run
  /// has every reference accounted for in its shard.
  void flush_skips();

  /// Producer side: flushes the skip() counts, then blocks until every
  /// entry queued so far has been consumed by its shard's worker (applied
  /// to the payload, or bit-bucketed for a dead shard), so the per-shard
  /// payloads form a consistent cut of the stream at the producer's
  /// current position. The consumed counters
  /// are released after each record is applied, so the acquire loads here
  /// also publish the payload mutations to the caller — reading shard state
  /// after a successful quiesce is race-free until the next route(). No-op
  /// in inline mode; errors out instead of spinning forever when a strict-
  /// mode worker has died (its queues will never drain).
  Status quiesce();

  /// Checkpoint restore (producer thread, before the first route(), after
  /// the payloads were reloaded): re-marks dead shards, restores the
  /// producer/drop/failure counters a snapshot recorded, and in kReplay
  /// mode takes each live shard's first mini-checkpoint from its reloaded
  /// payload. The per-shard routed/consumed ledgers deliberately restart
  /// at zero — they only ever compare against each other, so a fresh epoch
  /// is as consistent as the saved one.
  void restore_fanout_state(std::uint64_t processed, std::uint64_t dropped,
                            const std::vector<bool>& dead_flags);

  /// Declares end of input, drains every queue, and rethrows the first
  /// exception a shard worker hit (the pipeline shuts down cleanly first;
  /// remaining workers stop at their queues' ends). Throws StatusError when
  /// best-effort recovery lost every shard. Idempotent.
  void finish();

  /// References routed or skipped so far (producer-side, exact).
  std::uint64_t processed() const noexcept { return processed_; }

  /// Cumulative seconds the producer spent waiting on full shard queues.
  double producer_stall_seconds() const noexcept { return stall_seconds_; }

  /// Shards dropped by best-effort recovery (0 in strict mode: a failure
  /// there aborts the run before this is readable).
  std::uint64_t shards_failed() const noexcept {
    return shards_failed_.load(std::memory_order_relaxed);
  }

  /// Records discarded because their shard was already dead (producer
  /// drops plus queued records the worker discarded after failing).
  std::uint64_t dropped_records() const noexcept {
    return dropped_records_.load(std::memory_order_relaxed);
  }

  /// Workers revived by replay recovery (kReplay mode; a shard can be
  /// resurrected more than once).
  std::uint64_t shards_resurrected() const noexcept {
    return resurrections_.load(std::memory_order_relaxed);
  }

  /// Journal records re-applied across all resurrections.
  std::uint64_t replayed_records() const noexcept {
    return replayed_records_.load(std::memory_order_relaxed);
  }

  /// Resurrections of one shard. Post-finish only (consumer-owned counter).
  std::uint64_t shard_resurrections(std::uint32_t s) const;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  unsigned worker_count() const noexcept { return worker_count_; }
  bool finished() const noexcept { return finished_; }

  /// True while post-finish-only state (the payloads) must not be touched:
  /// workers may still be mutating them. Callers gate their accessors on
  /// this so "read a shard mid-threaded-run" is a loud logic_error, not a
  /// data race.
  bool needs_finish() const noexcept {
    return worker_count_ != 0 && !finished_;
  }

  /// Shard-local payload, for merges/diagnostics. The caller is responsible
  /// for gating on needs_finish().
  ShardPayload& payload(std::uint32_t s);
  const ShardPayload& payload(std::uint32_t s) const;

  /// Whether best-effort recovery dropped shard `s`.
  bool dead(std::uint32_t s) const;

  /// Race-free live progress for heartbeats, readable from the producer
  /// thread mid-run: producer-exact record count plus per-shard gauges the
  /// workers publish batch-wise (so the numbers trail by at most one drain
  /// batch). Gauges are summed across shards; the rate is the minimum
  /// (most degraded shard).
  obs::HeartbeatSnapshot live_aggregate() const;

  /// Attaches fan-out instrumentation (sharded.* metrics) and nothing on
  /// the per-shard hot paths (per-record shard metrics would serialize the
  /// workers on shared cache lines).
  void attach_metrics(obs::PipelineMetrics* metrics) noexcept;

  /// Producer side: publishes what the producer counts in its own fields
  /// (profiler.accesses, sharded.enqueued and sharded.producer_stalls, by
  /// their growth since the last publish, and the stall seconds). route()
  /// and skip() touch no metric; finish() and the owner's gauge refresh
  /// call this. No-op while detached.
  void publish_metrics();

  /// Attaches span/event tracing: lane 0 is the producer, lane s+1 is
  /// shard s (named in the export). Workers emit one drain span per
  /// kDrainTraceStride batches and the producer one queue-stall span per
  /// kDrainTraceStride stalls (stride-gated clock reads); shard deaths and
  /// the drain join are traced unconditionally. Call
  /// before the first route(); detached cost is one branch per batch.
  /// Non-owning; the tracer must outlive the fan-out.
  void attach_tracer(obs::Tracer* tracer) noexcept;

  /// The attached tracer (null while detached), for the merge/rescale
  /// events the owner emits on lane 0.
  obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  struct Shard;  // queue, journal, ledgers and live gauges of one shard

  void flush_skips(Shard& shard, std::uint32_t index);
  void push(Shard& shard, std::uint32_t index, const ShardEntry& entry);
  /// Producer side: charges one queued entry to the shard's ledger.
  void count_queued(Shard& shard);
  void drain_batch(Shard& shard, std::uint32_t index, bool& did_work);
  bool consume_entry(Shard& shard, std::uint32_t index,
                     const ShardEntry& entry);
  void kill_shard(Shard& shard, std::uint32_t index);
  void maybe_snapshot(Shard& shard, std::uint32_t index);
  void take_snapshot(Shard& shard, std::uint32_t index);
  bool try_resurrect(Shard& shard, std::uint32_t index,
                     const ShardEntry& entry);
  void drain_loop(unsigned worker_index);

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  unsigned worker_count_ = 0;             // 0 = inline mode
  std::unique_ptr<ThreadPool> pool_;      // null in inline mode
  std::atomic<bool> done_{false};         // producer closed the stream
  std::atomic<bool> failed_{false};       // some worker threw (strict mode)
  std::atomic<std::uint64_t> shards_failed_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
  std::atomic<std::uint64_t> resurrections_{0};      // replay recoveries
  std::atomic<std::uint64_t> replayed_records_{0};   // journal records re-applied
  bool finished_ = false;
  std::uint64_t processed_ = 0;           // producer-side
  std::uint64_t routed_ = 0;              // producer-side: route() calls
  std::uint64_t stalls_ = 0;              // producer-side
  // The three counts above as of the last publish_metrics().
  std::uint64_t published_processed_ = 0;
  std::uint64_t published_routed_ = 0;
  std::uint64_t published_stalls_ = 0;
  double stall_seconds_ = 0.0;            // producer-side
  obs::Tracer* tracer_ = nullptr;         // unconditional: gauge-grade events
  obs::PipelineMetrics* metrics_ = nullptr;  // touched only when attached
};

/// Generic sharded execution for the model zoo: wraps any registry model
/// that declares `spatial_sampling` and implements the absorb()/
/// scale_mass() merge hooks, running S per-shard instances (each fed a
/// hash-disjoint 1/S slice of the keyspace — itself a uniform spatial
/// sample, so sharding composes with the model's own sampling) behind the
/// ShardFanout pipeline, then folding the survivors into one instance whose
/// curve is the answer.
///
/// Per-shard instances are created through the registry factory with
/// shard-aware option injection: `shard_count=S` (models rescale distances
/// or reuse times back to full-stream units), `seed = base_seed + s` with
/// the base seed defaulting to 1 (independent RNG streams; S=1 keeps the
/// serial model's default seed), and for fixed-size models a split
/// capacity. A global `max_stack_bytes` budget is divided evenly across
/// shards and enforced from the consuming thread (space check + at most 64
/// degrade() steps every 4096 per-shard accesses) — the RunGovernor's
/// external loop cannot reach inside a threaded pipeline.
///
/// Filter before fan-out (DESIGN.md §12): access() hashes the key once;
/// the top 32 bits pick the shard and the low 24 bits are tested against
/// the largest shard sample_threshold(). A reference no shard can sample
/// is counted on the producer and reaches its shard as a skip count
/// riding on the next queued entry, so only sampled records cross the
/// queues and the per-shard curves are unchanged. Models that do not opt
/// in (the default threshold) pass every reference.
///
/// Checkpointing composes: a snapshot first quiesces the fan-out (the
/// producer waits until every routed record is reflected in its shard's
/// payload — see ShardFanout::quiesce), then writes one composite payload:
/// a shard-meta section (shard count, producer counters, the dead-shard
/// mask) plus one shard-state section per *live* shard carrying that
/// shard's own save_state() bytes. Resume restores the dead mask and
/// counters, reloads each survivor, and continues with the same
/// survivor-rescale merge semantics — a shard that died before the
/// snapshot stays dead after it. The snapshot must be taken before
/// mrc()/run_report() merge the shards (absorb() folds them in place);
/// save_state() refuses afterwards.
class ShardedEstimator final : public MrcEstimator {
 public:
  struct Config {
    /// Registry name of the model every shard runs ("shards", "aet", ...).
    std::string base_model;
    /// Options handed to every per-shard factory call (fan-out keys
    /// threads/shards/queue_capacity/failure_mode are stripped;
    /// shard_count/seed are overwritten per shard).
    EstimatorOptions base_options;
    /// Number of hash-disjoint keyspace partitions S (>= 1). With S == 1
    /// and inline fan-out the pipeline is bit-identical to the serial model.
    std::uint32_t shards = 1;
    /// Global memory budget (0 = ungoverned), split evenly across shards.
    /// In kReplay mode each share is further reduced by the journal
    /// footprint (journal_records * 24 B per entry), so the global ceiling
    /// still bounds the whole pipeline.
    std::uint64_t max_stack_bytes = 0;
    /// Threads, queues, failure policy, replay journal and test hook.
    ShardFanout::Config fanout;
  };

  /// Builds the per-shard instances through EstimatorRegistry::instance().
  /// Throws std::invalid_argument when the base model rejects the options
  /// (the registry maps that onto kInvalidArgument at create() time).
  explicit ShardedEstimator(const Config& config);

  void access(const Request& req) override;
  void finish() override;
  MissRatioCurve mrc(const std::vector<double>& sizes = {}) const override;
  std::uint64_t processed() const override;
  RunReport run_report(const TraceReadReport* ingest = nullptr) const override;
  obs::HeartbeatSnapshot snapshot() const override;

  /// External governance is a no-op by contract: the budget must be
  /// enforced from the consuming threads (see class comment), so the
  /// governor sees "always within budget" and the lifecycle suite excludes
  /// sharded models from the externally-governed set.
  std::uint64_t space_overhead_bytes() const override { return 0; }
  bool degrade() override { return false; }

  /// Composite checkpoint (see class comment): quiesce, then shard-meta +
  /// one per-live-shard sub-payload. Fails after the merge, when a worker
  /// has died in strict mode, or when any shard's own save fails.
  Status save_state(std::string* out) const override;
  /// Restores a composite snapshot into a freshly constructed estimator
  /// (same shard count; thread count is free to differ — shard states are
  /// thread-invariant). Dead shards stay dead; survivors reload in place.
  Status load_state(const std::string& payload) override;

  void attach_metrics(obs::PipelineMetrics* metrics) noexcept override;
  /// Adds the fan-out's producer counts (ShardFanout::publish_metrics) to
  /// the model.* gauges. Producer thread only.
  void refresh_metrics_gauges() const noexcept override;
  void attach_tracer(obs::Tracer* tracer) noexcept override;
  void export_gauges(obs::MetricsRegistry& registry) const override;

  /// Which shard a key routes to: the top 32 hash bits, disjoint from the
  /// low bits spatial filters threshold on, so shard identity and sample
  /// membership are independent uniform functions of the key.
  std::uint32_t shard_of(std::uint64_t key) const noexcept;

  std::uint32_t shards() const noexcept { return fanout_.shard_count(); }
  unsigned threads() const noexcept { return fanout_.worker_count(); }
  std::uint64_t shards_failed() const noexcept {
    return fanout_.shards_failed();
  }
  std::uint64_t dropped_records() const noexcept {
    return fanout_.dropped_records();
  }
  std::uint64_t shards_resurrected() const noexcept {
    return fanout_.shards_resurrected();
  }
  std::uint64_t replayed_records() const noexcept {
    return fanout_.replayed_records();
  }

  /// Shard-local estimator, for tests/diagnostics. Post-finish only when
  /// threaded; after mrc()/run_report() shard 0 (or the first survivor)
  /// holds the merged state.
  const MrcEstimator& shard(std::uint32_t s) const;

 private:
  /// Per-shard end-of-run numbers cached before the merge mutates the
  /// survivor instances (absorb() folds shards together in place).
  struct ShardStats {
    obs::HeartbeatSnapshot snapshot;
    bool dead = false;
  };

  static std::vector<std::unique_ptr<ShardPayload>> make_payloads(
      const Config& config);

  /// Snapshots every shard's pre-merge numbers (absorb() mutates the
  /// survivors in place, so run_report/export_gauges read the cache).
  /// Idempotent; const because lazy callers (inline-mode mrc()) hit it too.
  void cache_shard_stats() const;
  /// Folds the survivors into the first live shard (ascending shard order,
  /// so the merge is deterministic and thread-count-invariant), then
  /// applies the S/(S-F) survivor rescale. Idempotent.
  void ensure_merged() const;
  void require_finished(const char* what) const;
  std::uint32_t shard_of_hash(std::uint64_t hash) const noexcept;

  mutable ShardFanout fanout_;
  mutable bool merged_ = false;
  mutable std::uint32_t merge_base_ = 0;          // first surviving shard
  mutable std::vector<ShardStats> shard_stats_;   // filled by finish()
  double configured_rate_ = 1.0;                  // shard 0's initial rate
  /// The producer's gate: the largest shard sample_threshold() at
  /// construction (the modulus, i.e. pass-all, for models not opted in).
  std::uint64_t gate_threshold_ = 0;
};

}  // namespace krr

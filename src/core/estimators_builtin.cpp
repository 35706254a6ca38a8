// Built-in MrcEstimator registrations: every MRC model in src/core/ and
// src/baselines/ adapted to the polymorphic interface. Divergent native
// constructor signatures are normalized here into EstimatorOptions keys;
// the adapters own their wrapped model and add nothing on the access path
// beyond one virtual dispatch.
//
// All registrations run from EstimatorRegistry::instance() via
// detail::register_builtin_estimators, so they survive static-library
// linking (a registrar-only translation unit would be dropped).

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aet.h"
#include "baselines/counter_stacks.h"
#include "baselines/hotl.h"
#include "baselines/lru_stack.h"
#include "baselines/mimir.h"
#include "baselines/naive_stack.h"
#include "baselines/olken_tree.h"
#include "baselines/priority_stack.h"
#include "baselines/shards.h"
#include "baselines/shards_fixed.h"
#include "baselines/statstack.h"
#include "core/checkpoint.h"
#include "core/estimator.h"
#include "core/profiler.h"
#include "core/sharded_estimator.h"
#include "core/windowed_profiler.h"

namespace krr {
namespace {

UpdateStrategy parse_strategy(const std::string& name) {
  if (name == "backward") return UpdateStrategy::kBackward;
  if (name == "top_down") return UpdateStrategy::kTopDown;
  if (name == "linear") return UpdateStrategy::kLinear;
  throw std::invalid_argument("unknown strategy: " + name +
                              " (use backward, top_down or linear)");
}

std::uint64_t get_u64(const EstimatorOptions& o, const std::string& key,
                      std::uint64_t def) {
  const std::int64_t v = o.get_int(key, static_cast<std::int64_t>(def));
  if (v < 0) {
    throw std::invalid_argument("estimator option '" + key +
                                "' must be >= 0");
  }
  return static_cast<std::uint64_t>(v);
}

/// The ShardedEstimator runner injects `shard_count` into every per-shard
/// factory call; 1 (the default) must leave the model bit-identical to its
/// unsharded form, so the adapters below simply forward it.
std::uint32_t checked_shard_count(const EstimatorOptions& o) {
  const std::uint64_t n = get_u64(o, "shard_count", 1);
  if (n < 1) throw std::invalid_argument("shard_count must be >= 1");
  return static_cast<std::uint32_t>(n);
}

ShardFailureMode parse_failure_mode(const std::string& mode) {
  if (mode == "strict") return ShardFailureMode::kStrict;
  if (mode == "best_effort") return ShardFailureMode::kBestEffort;
  if (mode == "replay") return ShardFailureMode::kReplay;
  throw std::invalid_argument("unknown failure_mode: " + mode +
                              " (use strict, best_effort, or replay)");
}

/// The shared mapping from option keys onto KrrProfilerConfig — one place,
/// so `krr`, its shards under `krr_sharded`, and `krr_windowed` agree on
/// every knob.
KrrProfilerConfig krr_config_from(const EstimatorOptions& o) {
  KrrProfilerConfig cfg;
  cfg.k_sample = o.get_double("k", cfg.k_sample);
  cfg.sampling_rate = o.get_double("rate", cfg.sampling_rate);
  cfg.byte_granularity = o.get_bool("bytes", cfg.byte_granularity);
  cfg.apply_correction = o.get_bool("correction", cfg.apply_correction);
  cfg.sampling_adjustment = o.get_bool("adjustment", cfg.sampling_adjustment);
  cfg.strategy = parse_strategy(o.get_string("strategy", "backward"));
  cfg.seed = get_u64(o, "seed", cfg.seed);
  cfg.histogram_quantum = get_u64(o, "quantum", cfg.histogram_quantum);
  cfg.max_stack_bytes = get_u64(o, "max_stack_bytes", cfg.max_stack_bytes);
  cfg.shard_count = checked_shard_count(o);
  return cfg;
}

// ---------------------------------------------------------------------------
// KRR core family
// ---------------------------------------------------------------------------

class KrrEstimator final : public MrcEstimator {
 public:
  explicit KrrEstimator(const EstimatorOptions& o)
      : profiler_(krr_config_from(o)) {}

  void access(const Request& req) override { profiler_.access(req); }
  std::uint64_t sample_threshold() const override {
    return profiler_.sample_threshold();
  }
  void skip(std::uint64_t n) override { profiler_.skip(n); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  RunReport run_report(const TraceReadReport* ingest) const override {
    return profiler_.run_report(ingest);
  }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.sampled();
    s.stack_depth = profiler_.stack_depth();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.sampling_rate = profiler_.current_sampling_rate();
    s.degradation_events = profiler_.degradation_events();
    return s;
  }
  void attach_metrics(obs::PipelineMetrics* metrics) noexcept override {
    MrcEstimator::attach_metrics(metrics);
    profiler_.attach_metrics(metrics);
  }
  void refresh_metrics_gauges() const noexcept override {
    profiler_.refresh_metrics_gauges();
    MrcEstimator::refresh_metrics_gauges();
  }
  ModelGaugeSnapshot model_gauges() const override {
    ModelGaugeSnapshot g = MrcEstimator::model_gauges();
    g.histogram_bins = static_cast<double>(profiler_.histogram().bin_count());
    return g;
  }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override { return profiler_.degrade_step(); }
  Status absorb(const MrcEstimator& other) override {
    const auto* peer = dynamic_cast<const KrrEstimator*>(&other);
    if (peer == nullptr) {
      return invalid_argument_error(
          "krr: absorb() requires another krr instance");
    }
    profiler_.absorb(peer->profiler_);
    return Status::ok();
  }
  Status scale_mass(double factor) override {
    profiler_.scale_mass(factor);
    return Status::ok();
  }
  Status save_state(std::string* out) const override {
    return profiler_.save_state(out);
  }
  Status load_state(const std::string& payload) override {
    return profiler_.load_state(payload);
  }

 private:
  KrrProfiler profiler_;
};

class WindowedKrrEstimator final : public MrcEstimator {
 public:
  explicit WindowedKrrEstimator(const EstimatorOptions& o)
      : profiler_(windowed_config_from(o)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    if (profiler_.processed() == 0) return {};
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override { return profiler_.degrade_step(); }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.processed();
    s.stack_depth = profiler_.active_window_fill();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.degradation_events = profiler_.degradation_events();
    return s;
  }

 private:
  static WindowedKrrConfig windowed_config_from(const EstimatorOptions& o) {
    WindowedKrrConfig cfg;
    cfg.profiler = krr_config_from(o);
    cfg.window = get_u64(o, "window", cfg.window);
    if (cfg.window == 0) throw std::invalid_argument("window must be >= 1");
    // Two staggered windows are live at once; give each half the budget so
    // the pair honours the configured ceiling.
    if (cfg.profiler.max_stack_bytes > 0) {
      cfg.profiler.max_stack_bytes =
          std::max<std::uint64_t>(1, cfg.profiler.max_stack_bytes / 2);
    }
    return cfg;
  }

  WindowedKrrProfiler profiler_;
};

// ---------------------------------------------------------------------------
// Exact stack baselines (reference oracles and O(log M) profilers)
// ---------------------------------------------------------------------------

class LruStackEstimator final : public MrcEstimator {
 public:
  explicit LruStackEstimator(const EstimatorOptions& o)
      : profiler_(o.get_bool("bytes", false), get_u64(o, "quantum", 1)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.processed();
    s.stack_depth = profiler_.distinct_objects();
    return s;
  }

 private:
  LruStackProfiler profiler_;
};

class OlkenTreeEstimator final : public MrcEstimator {
 public:
  explicit OlkenTreeEstimator(const EstimatorOptions& o)
      : profiler_(o.get_bool("bytes", false), get_u64(o, "quantum", 1),
                  get_u64(o, "seed", 1)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override {
    // Mattson bounded eviction: drop the coldest eighth of the tracked
    // set; the curve stays exact below the retained depth.
    const std::size_t tracked = profiler_.tracked_objects();
    if (tracked <= 1) return false;
    if (profiler_.evict_oldest(std::max<std::size_t>(1, tracked / 8)) == 0) {
      return false;
    }
    ++degradations_;
    return true;
  }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.processed();
    s.stack_depth = profiler_.tracked_objects();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.degradation_events = degradations_;
    return s;
  }

 private:
  OlkenTreeProfiler profiler_;
  std::uint64_t degradations_ = 0;
};

class NaiveStackEstimator final : public MrcEstimator {
 public:
  explicit NaiveStackEstimator(const EstimatorOptions& o)
      : stack_(make_stack(o)) {}

  void access(const Request& req) override {
    stack_.access(req);
    ++processed_;
  }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return stack_.mrc();
  }
  std::uint64_t processed() const override { return processed_; }

 private:
  static GenericMattsonStack make_stack(const EstimatorOptions& o) {
    const std::string variant = o.get_string("variant", "krr");
    const std::uint64_t seed = get_u64(o, "seed", 1);
    if (variant == "krr") {
      return GenericMattsonStack::krr(o.get_double("k", 5.0), seed);
    }
    if (variant == "lru") return GenericMattsonStack::lru(seed);
    if (variant == "rr") return GenericMattsonStack::rr(seed);
    throw std::invalid_argument("unknown variant: " + variant +
                                " (use krr, lru or rr)");
  }

 public:
  std::uint64_t space_overhead_bytes() const override {
    return stack_.space_overhead_bytes();
  }
  bool degrade() override {
    const std::size_t depth = stack_.depth();
    if (depth <= 1) return false;
    if (stack_.evict_bottom(std::max<std::size_t>(1, depth / 8)) == 0) {
      return false;
    }
    ++degradations_;
    return true;
  }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = processed_;
    s.sampled = processed_;
    s.stack_depth = stack_.depth();
    s.resident_bytes = stack_.space_overhead_bytes();
    s.degradation_events = degradations_;
    return s;
  }

 private:
  GenericMattsonStack stack_;
  std::uint64_t processed_ = 0;
  std::uint64_t degradations_ = 0;
};

class PriorityStackEstimator final : public MrcEstimator {
 public:
  explicit PriorityStackEstimator(const EstimatorOptions& o)
      : stack_(parse_policy(o.get_string("policy", "lru"))) {}

  void access(const Request& req) override {
    stack_.access(req);
    ++processed_;
  }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return stack_.mrc();
  }
  std::uint64_t processed() const override { return processed_; }

 private:
  static PriorityPolicy parse_policy(const std::string& name) {
    if (name == "lru") return PriorityPolicy::kLru;
    if (name == "mru") return PriorityPolicy::kMru;
    if (name == "lfu") return PriorityPolicy::kLfu;
    if (name == "opt") {
      throw std::invalid_argument(
          "policy 'opt' needs the offline next-use pass and cannot stream; "
          "use the PriorityMattsonStack API directly");
    }
    throw std::invalid_argument("unknown policy: " + name +
                                " (use lru, mru or lfu)");
  }

 public:
  std::uint64_t space_overhead_bytes() const override {
    return stack_.space_overhead_bytes();
  }
  bool degrade() override {
    const std::size_t depth = stack_.depth();
    if (depth <= 1) return false;
    if (stack_.evict_bottom(std::max<std::size_t>(1, depth / 8)) == 0) {
      return false;
    }
    ++degradations_;
    return true;
  }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = processed_;
    s.sampled = processed_;
    s.stack_depth = stack_.depth();
    s.resident_bytes = stack_.space_overhead_bytes();
    s.degradation_events = degradations_;
    return s;
  }

 private:
  PriorityMattsonStack stack_;
  std::uint64_t processed_ = 0;
  std::uint64_t degradations_ = 0;
};

// ---------------------------------------------------------------------------
// Sampling and sketch baselines
// ---------------------------------------------------------------------------

class ShardsEstimator final : public MrcEstimator {
 public:
  explicit ShardsEstimator(const EstimatorOptions& o)
      : profiler_(checked_rate(o.get_double("rate", 0.1)),
                  o.get_bool("adjustment", true), o.get_bool("bytes", false),
                  get_u64(o, "quantum", 1), checked_shard_count(o)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.sampled();
    s.stack_depth = profiler_.tracked_objects();
    s.sampling_rate = profiler_.filter().rate();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.degradation_events = profiler_.degradation_events();
    return s;
  }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override { return profiler_.halve_rate(); }
  Status absorb(const MrcEstimator& other) override {
    const auto* peer = dynamic_cast<const ShardsEstimator*>(&other);
    if (peer == nullptr) {
      return invalid_argument_error(
          "shards: absorb() requires another shards instance");
    }
    profiler_.absorb(peer->profiler_);
    return Status::ok();
  }
  Status scale_mass(double factor) override {
    profiler_.scale_mass(factor);
    return Status::ok();
  }
  Status save_state(std::string* out) const override {
    return profiler_.save_state(out);
  }
  Status load_state(const std::string& payload) override {
    return profiler_.load_state(payload);
  }

 private:
  static double checked_rate(double rate) {
    if (!(rate > 0.0) || rate > 1.0) {
      throw std::invalid_argument("rate must be in (0, 1]");
    }
    return rate;
  }

  ShardsProfiler profiler_;
};

class ShardsFixedEstimator final : public MrcEstimator {
 public:
  explicit ShardsFixedEstimator(const EstimatorOptions& o)
      : profiler_(split_max(checked_max(get_u64(o, "max_objects", 4096)),
                            checked_shard_count(o)),
                  get_u64(o, "modulus", 1ULL << 24), get_u64(o, "quantum", 1),
                  checked_shard_count(o)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.sampled();
    s.stack_depth = profiler_.tracked_objects();
    s.sampling_rate = profiler_.current_rate();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.degradation_events = profiler_.degradation_events();
    return s;
  }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override { return profiler_.shrink_capacity(); }
  Status absorb(const MrcEstimator& other) override {
    const auto* peer = dynamic_cast<const ShardsFixedEstimator*>(&other);
    if (peer == nullptr) {
      return invalid_argument_error(
          "shards_fixed: absorb() requires another shards_fixed instance");
    }
    profiler_.absorb(peer->profiler_);
    return Status::ok();
  }
  Status scale_mass(double factor) override {
    profiler_.scale_mass(factor);
    return Status::ok();
  }
  Status save_state(std::string* out) const override {
    return profiler_.save_state(out);
  }
  Status load_state(const std::string& payload) override {
    return profiler_.load_state(payload);
  }

 private:
  static std::size_t checked_max(std::uint64_t max_objects) {
    if (max_objects == 0) {
      throw std::invalid_argument("max_objects must be >= 1");
    }
    return static_cast<std::size_t>(max_objects);
  }

  /// A sharded run splits the global tracked-object budget evenly: S
  /// per-shard profilers at max_objects/S track the same global total the
  /// serial profiler would, so memory and accuracy stay comparable.
  static std::size_t split_max(std::size_t max_objects, std::uint32_t shards) {
    return std::max<std::size_t>(1, max_objects / shards);
  }

  ShardsFixedSizeProfiler profiler_;
};

class CounterStacksEstimator final : public MrcEstimator {
 public:
  explicit CounterStacksEstimator(const EstimatorOptions& o)
      : profiler_(get_u64(o, "interval", 1000),
                  o.get_double("prune_delta", 0.02),
                  static_cast<std::uint32_t>(get_u64(o, "precision", 12))) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    if (profiler_.processed() == 0) return {};
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override { return profiler_.degrade(); }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.processed();
    s.stack_depth = profiler_.live_counters();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.degradation_events = profiler_.degradation_events();
    return s;
  }

 private:
  CounterStacksProfiler profiler_;
};

// ---------------------------------------------------------------------------
// Reuse-time model baselines
// ---------------------------------------------------------------------------

/// Shared progress/gauge mapping for the reuse-time family (AET, StatStack,
/// HOTL): the collector's tracked set is the "stack" and its spatial
/// threshold the realized sampling rate.
template <typename Profiler>
obs::HeartbeatSnapshot reuse_time_snapshot(const Profiler& profiler,
                                           std::uint64_t degradations) {
  obs::HeartbeatSnapshot s;
  s.records = profiler.processed();
  s.sampled = profiler.distinct_objects();
  s.stack_depth = profiler.distinct_objects();
  s.resident_bytes = profiler.space_overhead_bytes();
  s.sampling_rate = profiler.sampling_rate();
  s.degradation_events = degradations;
  return s;
}

/// Shared checkpoint codec for the reuse-time adapters: the adapter's own
/// degradation counter (kSectionAdapter) plus the profiler's collector
/// bytes (kSectionCollector).
template <typename Profiler>
Status save_reuse_time_state(const Profiler& profiler,
                             std::uint64_t degradations, std::string* out) {
  if (out == nullptr) return invalid_argument_error("save_state: null output");
  out->clear();
  ckpt::StateWriter writer(*out);
  std::string adapter;
  ckpt::append_u64(adapter, degradations);
  writer.add_section(ckpt::kSectionAdapter, adapter);
  std::string collector;
  profiler.save_state(collector);
  writer.add_section(ckpt::kSectionCollector, collector);
  return Status::ok();
}

template <typename Profiler>
Status load_reuse_time_state(Profiler& profiler, std::uint64_t* degradations,
                             const std::string& payload) {
  auto parsed = ckpt::StateReader::parse(payload);
  if (!parsed.is_ok()) return parsed.status();
  const ckpt::StateReader& sections = parsed.value();
  const std::string* adapter = sections.find(ckpt::kSectionAdapter);
  const std::string* collector = sections.find(ckpt::kSectionCollector);
  if (adapter == nullptr || collector == nullptr) {
    return bad_record_error(
        "reuse-time snapshot is missing a required section");
  }
  ckpt::ByteReader adapter_reader(*adapter);
  std::uint64_t restored_degradations = 0;
  if (!adapter_reader.read_u64(&restored_degradations) ||
      !adapter_reader.exhausted()) {
    return bad_record_error("reuse-time snapshot adapter section is corrupt");
  }
  ckpt::ByteReader collector_reader(*collector);
  if (!profiler.load_state(collector_reader) || !collector_reader.exhausted()) {
    return bad_record_error(
        "reuse-time snapshot collector section is corrupt");
  }
  *degradations = restored_degradations;
  return Status::ok();
}

class AetEstimator final : public MrcEstimator {
 public:
  explicit AetEstimator(const EstimatorOptions& o)
      : points_(get_u64(o, "points", 64)),
        profiler_(static_cast<std::uint32_t>(get_u64(o, "sub_buckets", 256)),
                  checked_shard_count(o)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>& sizes) const override {
    if (profiler_.processed() == 0) return {};
    if (sizes.empty()) return profiler_.mrc(static_cast<std::size_t>(points_));
    return profiler_.mrc(sizes);
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override {
    // Down-sample the tracked set first (the dominant cost); once the
    // filter bottoms out, coarsen the reuse-time histogram.
    if (!profiler_.halve_sample() && !profiler_.coarsen_histogram()) {
      return false;
    }
    ++degradations_;
    return true;
  }
  obs::HeartbeatSnapshot snapshot() const override {
    return reuse_time_snapshot(profiler_, degradations_);
  }
  ModelGaugeSnapshot model_gauges() const override {
    ModelGaugeSnapshot g = MrcEstimator::model_gauges();
    g.histogram_bins = static_cast<double>(profiler_.histogram_bins());
    return g;
  }
  Status absorb(const MrcEstimator& other) override {
    const auto* peer = dynamic_cast<const AetEstimator*>(&other);
    if (peer == nullptr) {
      return invalid_argument_error(
          "aet: absorb() requires another aet instance");
    }
    profiler_.absorb(peer->profiler_);
    degradations_ += peer->degradations_;
    return Status::ok();
  }
  Status scale_mass(double factor) override {
    profiler_.scale_mass(factor);
    return Status::ok();
  }
  Status save_state(std::string* out) const override {
    return save_reuse_time_state(profiler_, degradations_, out);
  }
  Status load_state(const std::string& payload) override {
    return load_reuse_time_state(profiler_, &degradations_, payload);
  }

 private:
  std::uint64_t points_;
  AetProfiler profiler_;
  std::uint64_t degradations_ = 0;
};

class StatStackEstimator final : public MrcEstimator {
 public:
  explicit StatStackEstimator(const EstimatorOptions& o)
      : profiler_(static_cast<std::uint32_t>(get_u64(o, "sub_buckets", 256))) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    if (profiler_.processed() == 0) return {};
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override {
    if (!profiler_.halve_sample() && !profiler_.coarsen_histogram()) {
      return false;
    }
    ++degradations_;
    return true;
  }
  obs::HeartbeatSnapshot snapshot() const override {
    return reuse_time_snapshot(profiler_, degradations_);
  }
  ModelGaugeSnapshot model_gauges() const override {
    ModelGaugeSnapshot g = MrcEstimator::model_gauges();
    g.histogram_bins = static_cast<double>(profiler_.histogram_bins());
    return g;
  }
  Status save_state(std::string* out) const override {
    return save_reuse_time_state(profiler_, degradations_, out);
  }
  Status load_state(const std::string& payload) override {
    return load_reuse_time_state(profiler_, &degradations_, payload);
  }

 private:
  StatStackProfiler profiler_;
  std::uint64_t degradations_ = 0;
};

class HotlEstimator final : public MrcEstimator {
 public:
  explicit HotlEstimator(const EstimatorOptions& o)
      : points_(get_u64(o, "points", 128)),
        profiler_(static_cast<std::uint32_t>(get_u64(o, "sub_buckets", 256))) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    if (profiler_.processed() == 0) return {};
    return profiler_.mrc(static_cast<std::size_t>(points_));
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override {
    if (!profiler_.halve_sample() && !profiler_.coarsen_histogram()) {
      return false;
    }
    ++degradations_;
    return true;
  }
  obs::HeartbeatSnapshot snapshot() const override {
    return reuse_time_snapshot(profiler_, degradations_);
  }
  ModelGaugeSnapshot model_gauges() const override {
    ModelGaugeSnapshot g = MrcEstimator::model_gauges();
    g.histogram_bins = static_cast<double>(profiler_.histogram_bins());
    return g;
  }
  Status save_state(std::string* out) const override {
    return save_reuse_time_state(profiler_, degradations_, out);
  }
  Status load_state(const std::string& payload) override {
    return load_reuse_time_state(profiler_, &degradations_, payload);
  }

 private:
  std::uint64_t points_;
  HotlProfiler profiler_;
  std::uint64_t degradations_ = 0;
};

class MimirEstimator final : public MrcEstimator {
 public:
  explicit MimirEstimator(const EstimatorOptions& o)
      : profiler_(static_cast<std::uint32_t>(get_u64(o, "buckets", 128)),
                  get_u64(o, "quantum", 1)) {}

  void access(const Request& req) override { profiler_.access(req); }
  MissRatioCurve mrc(const std::vector<double>&) const override {
    return profiler_.mrc();
  }
  std::uint64_t processed() const override { return profiler_.processed(); }
  std::uint64_t space_overhead_bytes() const override {
    return profiler_.space_overhead_bytes();
  }
  bool degrade() override { return profiler_.evict_oldest_bucket(); }
  obs::HeartbeatSnapshot snapshot() const override {
    obs::HeartbeatSnapshot s;
    s.records = profiler_.processed();
    s.sampled = profiler_.processed();
    s.stack_depth = profiler_.tracked_objects();
    s.resident_bytes = profiler_.space_overhead_bytes();
    s.degradation_events = profiler_.degradation_events();
    return s;
  }
  ModelGaugeSnapshot model_gauges() const override {
    ModelGaugeSnapshot g = MrcEstimator::model_gauges();
    g.histogram_bins = static_cast<double>(profiler_.bucket_count());
    return g;
  }

 private:
  MimirProfiler profiler_;
};

// ---------------------------------------------------------------------------
// Generic sharded wrappers: registry models behind the ShardFanout pipeline
// ---------------------------------------------------------------------------

ShardedEstimator::Config sharded_wrapper_config(const std::string& base_model,
                                                const EstimatorOptions& o) {
  ShardedEstimator::Config cfg;
  cfg.base_model = base_model;
  cfg.base_options = o;  // fan-out keys are stripped by the runner
  const std::uint64_t shards = get_u64(o, "shards", 1);
  const std::uint64_t threads = get_u64(o, "threads", 1);
  if (shards < 1) throw std::invalid_argument("shards must be >= 1");
  if (threads < 1) throw std::invalid_argument("threads must be >= 1");
  cfg.shards = static_cast<std::uint32_t>(shards);
  cfg.max_stack_bytes = get_u64(o, "max_stack_bytes", 0);
  ShardFanout::Config& fanout = cfg.fanout;
  fanout.threads = static_cast<unsigned>(threads);
  fanout.queue_capacity = static_cast<std::size_t>(
      get_u64(o, "queue_capacity", fanout.queue_capacity));
  fanout.failure_mode =
      parse_failure_mode(o.get_string("failure_mode", "strict"));
  fanout.journal_records = static_cast<std::size_t>(
      get_u64(o, "journal_records", fanout.journal_records));
  fanout.snapshot_stride =
      get_u64(o, "snapshot_stride", fanout.snapshot_stride);
  fanout.retry.seed = get_u64(o, "seed", 0);
  return cfg;
}

EstimatorRegistry::Factory make_sharded_factory(std::string base_model) {
  return [base_model =
              std::move(base_model)](const EstimatorOptions& o)
             -> std::unique_ptr<MrcEstimator> {
    return std::make_unique<ShardedEstimator>(
        sharded_wrapper_config(base_model, o));
  };
}

template <typename T>
EstimatorRegistry::Factory make_factory() {
  return [](const EstimatorOptions& o) -> std::unique_ptr<MrcEstimator> {
    return std::make_unique<T>(o);
  };
}

}  // namespace

namespace detail {

void register_builtin_estimators(EstimatorRegistry& registry) {
  registry.add(
      {.name = "krr",
       .policy = "K-LRU",
       .description = "one-pass KRR stack model of random sampling-based LRU "
                      "(the paper's contribution)",
       .caps = {.models_klru = true,
                .byte_granularity = true,
                .spatial_sampling = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"max_stack_bytes", "shard_count"}},
      make_factory<KrrEstimator>());
  registry.add(
      {.name = "krr_sharded",
       .policy = "K-LRU",
       .description = "hash-sharded multi-threaded KRR pipeline (merged "
                      "per-shard histograms)",
       .caps = {.models_klru = true,
                .byte_granularity = true,
                .spatial_sampling = true,
                .sharded = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"max_stack_bytes", "threads", "shards",
                       "queue_capacity", "failure_mode", "journal_records",
                       "snapshot_stride"}},
      make_sharded_factory("krr"));
  registry.add(
      {.name = "krr_windowed",
       .policy = "K-LRU",
       .description = "sliding-window online KRR with bounded staleness "
                      "(two staggered windows)",
       .caps = {.models_klru = true,
                .byte_granularity = true,
                .spatial_sampling = true,
                .metrics = true,
                .governed_memory = true},
       .option_keys = {"max_stack_bytes", "window"}},
      make_factory<WindowedKrrEstimator>());
  registry.add(
      {.name = "naive_stack",
       .policy = "K-LRU/LRU/RR",
       .description = "Mattson's generic stack with injected stay "
                      "probabilities (variant=krr|lru|rr), the O(M) oracle",
       .caps = {.models_klru = true,
                .metrics = true,
                .reference_oracle = true,
                .governed_memory = true},
       .option_keys = {"variant", "max_stack_bytes"}},
      make_factory<NaiveStackEstimator>());
  registry.add(
      {.name = "lru_stack",
       .policy = "LRU",
       .description = "exact LRU stack distances in O(log M) "
                      "(Fenwick-over-timestamps formulation)",
       .caps = {.byte_granularity = true, .metrics = true},
       .option_keys = {}},
      make_factory<LruStackEstimator>());
  registry.add(
      {.name = "olken_tree",
       .policy = "LRU",
       .description = "exact LRU stack distances via a size-augmented treap "
                      "(Olken 1981)",
       .caps = {.byte_granularity = true, .metrics = true, .governed_memory = true},
       .option_keys = {"max_stack_bytes"}},
      make_factory<OlkenTreeEstimator>());
  registry.add(
      {.name = "priority_stack",
       .policy = "LRU/MRU/LFU",
       .description = "deterministic priority Mattson stack "
                      "(policy=lru|mru|lfu), an O(M) reference oracle",
       .caps = {.metrics = true,
                .reference_oracle = true,
                .governed_memory = true},
       .option_keys = {"policy", "max_stack_bytes"}},
      make_factory<PriorityStackEstimator>());
  registry.add(
      {.name = "shards",
       .policy = "LRU",
       .description = "SHARDS fixed-rate spatial sampling over an exact LRU "
                      "stack (FAST '15)",
       .caps = {.byte_granularity = true,
                .spatial_sampling = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"max_stack_bytes", "shard_count"}},
      make_factory<ShardsEstimator>());
  registry.add(
      {.name = "shards_sharded",
       .policy = "LRU",
       .description = "hash-sharded multi-threaded SHARDS (per-shard "
                      "profilers merged by the generic runner)",
       .caps = {.byte_granularity = true,
                .spatial_sampling = true,
                .sharded = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"max_stack_bytes", "threads", "shards",
                       "queue_capacity", "failure_mode", "journal_records",
                       "snapshot_stride"}},
      make_sharded_factory("shards"));
  registry.add(
      {.name = "shards_fixed",
       .policy = "LRU",
       .description = "fixed-size SHARDS_smax: bounded memory, "
                      "threshold-adaptive sampling rate",
       .caps = {.spatial_sampling = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"max_objects", "modulus", "max_stack_bytes",
                       "shard_count"}},
      make_factory<ShardsFixedEstimator>());
  registry.add(
      {.name = "shards_fixed_sharded",
       .policy = "LRU",
       .description = "hash-sharded multi-threaded SHARDS_smax (tracked-"
                      "object budget split across shards)",
       .caps = {.spatial_sampling = true,
                .sharded = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"max_objects", "modulus", "max_stack_bytes", "threads",
                       "shards", "queue_capacity", "failure_mode", "journal_records",
                       "snapshot_stride"}},
      make_sharded_factory("shards_fixed"));
  registry.add(
      {.name = "aet",
       .policy = "LRU",
       .description = "AET kinetic reuse-time model of exact LRU (ATC '16)",
       .caps = {.spatial_sampling = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"sub_buckets", "points", "max_stack_bytes",
                       "shard_count"}},
      make_factory<AetEstimator>());
  registry.add(
      {.name = "aet_sharded",
       .policy = "LRU",
       .description = "hash-sharded multi-threaded AET (reuse-time "
                      "histograms merged at shard-scaled resolution)",
       .caps = {.spatial_sampling = true,
                .sharded = true,
                .metrics = true,
                .governed_memory = true,
                .checkpoint = true},
       .option_keys = {"sub_buckets", "points", "max_stack_bytes", "threads",
                       "shards", "queue_capacity", "failure_mode", "journal_records",
                       "snapshot_stride"}},
      make_sharded_factory("aet"));
  registry.add(
      {.name = "counter_stacks",
       .policy = "LRU",
       .description = "Counter Stacks: HyperLogLog counter stack with "
                      "pruning (OSDI '14)",
       .caps = {.metrics = true, .governed_memory = true},
       .option_keys = {"interval", "prune_delta", "precision",
                       "max_stack_bytes"}},
      make_factory<CounterStacksEstimator>());
  registry.add(
      {.name = "statstack",
       .policy = "LRU",
       .description = "StatStack expected-stack-distance model from reuse "
                      "times (ISPASS '10)",
       .caps = {.metrics = true, .governed_memory = true, .checkpoint = true},
       .option_keys = {"sub_buckets", "max_stack_bytes"}},
      make_factory<StatStackEstimator>());
  registry.add(
      {.name = "mimir",
       .policy = "LRU",
       .description = "MIMIR bucketed ghost list with ROUNDER aging "
                      "(SoCC '14)",
       .caps = {.metrics = true, .governed_memory = true},
       .option_keys = {"buckets", "max_stack_bytes"}},
      make_factory<MimirEstimator>());
  registry.add(
      {.name = "hotl",
       .policy = "LRU",
       .description = "HOTL footprint theory of locality (ASPLOS '13)",
       .caps = {.metrics = true, .governed_memory = true, .checkpoint = true},
       .option_keys = {"sub_buckets", "points", "max_stack_bytes"}},
      make_factory<HotlEstimator>());
}

}  // namespace detail
}  // namespace krr

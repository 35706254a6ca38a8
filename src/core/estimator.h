#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "obs/heartbeat.h"
#include "trace/request.h"
#include "trace/trace_reader.h"
#include "util/mrc.h"
#include "util/status.h"

namespace krr {

namespace obs {
struct PipelineMetrics;
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// The model-agnostic gauge values behind the `model.*` metric slice
/// (obs::ModelMetrics). Each estimator family maps its own notions onto
/// these: a stack model's depth is its stack depth, a tree model's its
/// tracked objects, a sketch's its live counters; `samples` is whatever
/// the model actually ingested past its own sampling, and `degradations`
/// counts shed/prune/halving steps.
struct ModelGaugeSnapshot {
  double depth = 0.0;
  double resident_bytes = 0.0;
  double sampling_rate = 1.0;
  double samples = 0.0;
  double degradations = 0.0;
  double histogram_bins = 0.0;
};

/// Typed key=value option bag for estimator construction — the common
/// currency between CLI flags, bench overrides, and the registry factories.
/// Values are stored as strings and converted on access; a malformed
/// numeric/boolean value throws std::invalid_argument (which the CLI maps
/// onto its usage exit code).
class EstimatorOptions {
 public:
  EstimatorOptions() = default;

  /// Parses a comma-separated "key=value,key2=value2,flag" spec (a bare
  /// `flag` is shorthand for `flag=1`). Empty spec parses to an empty bag;
  /// an empty key (",=3") is kInvalidArgument.
  static StatusOr<EstimatorOptions> parse(const std::string& spec);

  void set(const std::string& key, std::string value);
  /// Copies every entry of `other` into this bag (overwriting duplicates).
  void merge(const EstimatorOptions& other);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }
  bool empty() const noexcept { return values_.empty(); }

 private:
  std::map<std::string, std::string> values_;
};

/// Option keys every estimator accepts (mapped from the shared CLI flags:
/// --k, --rate, --bytes, --strategy, --no-correction, --seed, --quantum).
/// A model that has no use for a common key silently ignores it — the
/// capability flags say which knobs actually bite. Model-specific keys must
/// be declared in EstimatorInfo::option_keys; anything else is rejected by
/// EstimatorRegistry::create.
const std::set<std::string>& common_estimator_option_keys();

/// What an estimator can do — the registry's capability matrix, surfaced by
/// `krr_cli models` and used by bench/zoo code to pick the right ground
/// truth and skip knobs a model lacks.
struct EstimatorCapabilities {
  /// Targets the K-LRU (random sampling) eviction process; false means the
  /// model predicts exact LRU (or another policy named in `policy`).
  bool models_klru = false;
  /// Byte-granularity curves over variable object sizes (`bytes` option).
  bool byte_granularity = false;
  /// Hash-based spatial sampling (`rate` or threshold-adaptive).
  bool spatial_sampling = false;
  /// Multi-threaded sharded operation (`threads`/`shards` options).
  bool sharded = false;
  /// Telemetry attachment: refresh_metrics_gauges publishes real model.*
  /// gauges (depth, samples, degradations, ... — see ModelGaugeSnapshot)
  /// and passes the registry-wide metrics conformance test. Models of the
  /// KRR family additionally instrument their hot paths.
  bool metrics = false;
  /// O(stack depth) per access: a reference oracle for correctness work,
  /// excluded from the perf zoo/bench sweeps that would take hours on it.
  bool reference_oracle = false;
  /// Honors a `max_stack_bytes` memory budget: space_overhead_bytes() is
  /// meaningful and degrade() can shed state (rate halving, histogram
  /// coarsening, or bounded eviction). A model without this flag rejects
  /// the option at create() time instead of silently growing unbounded.
  bool governed_memory = false;
  /// save_state()/load_state() round-trip a mid-run snapshot exactly, so
  /// the CLI checkpoint/resume flags work with this model.
  bool checkpoint = false;
};

/// Registry metadata for one estimator.
struct EstimatorInfo {
  std::string name;         ///< registry key, e.g. "krr", "shards", "aet"
  std::string policy;       ///< eviction policy modeled, e.g. "K-LRU", "LRU"
  std::string description;  ///< one-liner for `krr_cli models`
  EstimatorCapabilities caps;
  /// Model-specific EstimatorOptions keys beyond the common set.
  std::vector<std::string> option_keys;
};

/// Abstract one-pass miss-ratio-curve estimator: the polymorphic citizen
/// every model in src/core/ and src/baselines/ is adapted to, so the whole
/// pipeline (CLI, bench, zoo, conformance tests) is written once against
/// this interface and a new model is a one-file registration.
///
/// Lifecycle: access() per reference, then finish() exactly once (declares
/// end of input — queue-fed estimators drain and join here), then
/// mrc()/run_report(). An estimator that has processed no references
/// returns the empty curve (which eval()s to 1.0 everywhere).
class MrcEstimator {
 public:
  virtual ~MrcEstimator() = default;

  /// Processes one reference (sampling/filtering applied internally).
  virtual void access(const Request& req) = 0;

  /// Declares end of input. Default is a no-op; pipelined estimators drain
  /// their queues and rethrow worker errors here. Must be called before
  /// mrc()/run_report() results are meaningful.
  virtual void finish() {}

  /// The predicted miss ratio curve. `sizes` is an evaluation-grid hint
  /// (cache sizes in objects, or bytes for byte-granularity models): models
  /// that solve for specific sizes (e.g. AET) evaluate there, stack-based
  /// models ignore it and return their native breakpoints. An empty hint is
  /// always acceptable.
  virtual MissRatioCurve mrc(const std::vector<double>& sizes = {}) const = 0;

  /// References seen by access() so far.
  virtual std::uint64_t processed() const = 0;

  /// End-of-run accounting. The default folds the ingestion report and the
  /// processed count into an otherwise-empty RunReport; estimators with
  /// sampling/degradation machinery override with the real numbers.
  virtual RunReport run_report(const TraceReadReport* ingest = nullptr) const;

  /// Instantaneous progress for heartbeats. The default reports only the
  /// processed count; estimators with stacks/filters fill the other gauges.
  virtual obs::HeartbeatSnapshot snapshot() const;

  /// --- Run-lifecycle governance hooks (capability flag `governed_memory`).

  /// Current data-dependent state footprint in bytes (same accounting the
  /// RunGovernor compares against `max_stack_bytes`). Ungoverned models
  /// report 0, which the governor treats as "always within budget".
  virtual std::uint64_t space_overhead_bytes() const { return 0; }

  /// Sheds one increment of state (one rate halving, one histogram
  /// coarsening step, one bounded eviction batch, ...). Returns false when
  /// the model cannot shrink any further — the governor then reports the
  /// budget as exhausted rather than looping. Default: cannot degrade.
  virtual bool degrade() { return false; }

  /// --- Sharded-merge hooks (used by the ShardedEstimator runner,
  /// src/core/sharded_estimator.h). A model that declares the
  /// `spatial_sampling` capability and implements these two can run
  /// sharded: the runner hash-partitions the keyspace across per-shard
  /// instances (each stream a uniform 1/S spatial sample), then folds the
  /// survivors into one instance in ascending shard order.

  /// Folds another instance's accumulated statistics into this one. `other`
  /// is guaranteed to be the same concrete type built from the same
  /// options over a key-disjoint slice of the stream. Default:
  /// kInvalidArgument (model does not support sharded merging).
  virtual Status absorb(const MrcEstimator& other);

  /// Scales accumulated statistical mass by `factor` — the S/(S−F)
  /// survivor extrapolation after F of S shards died in a best-effort run.
  /// MRC ratios must be unchanged. Default: kInvalidArgument.
  virtual Status scale_mass(double factor);

  /// Producer-side gate (DESIGN.md §12): the runner routes a reference to
  /// this instance only when hash64(key) % SpatialFilter::kDefaultModulus
  /// is below the threshold returned here, and reports the rest through
  /// skip(). An opted-in model returns its spatial filter's threshold, which
  /// may only fall over the run, so the gate never rejects a reference the
  /// model would sample. Default: the modulus (every reference passes).
  virtual std::uint64_t sample_threshold() const {
    return SpatialFilter::kDefaultModulus;
  }

  /// Accounts for `n` references the gate rejected, exactly as if each had
  /// gone through access() and been dropped by the model's own filter.
  /// Only reached when sample_threshold() is below the modulus.
  virtual void skip(std::uint64_t n) { (void)n; }

  /// --- Checkpoint hooks (capability flag `checkpoint`).

  /// Serializes the complete mid-run state into `out` such that a fresh
  /// instance built from identical options, after load_state(), continues
  /// the run bit-identically. Default: kInvalidArgument (unsupported).
  virtual Status save_state(std::string* out) const;

  /// Restores state produced by save_state() on an identically configured
  /// instance. Corrupt payloads yield a corrupt/checksum status; calling it
  /// on a model without checkpoint support yields kInvalidArgument.
  virtual Status load_state(const std::string& payload);

  /// Instrumentation hooks (capability flag `metrics`). The base
  /// attach_metrics stores the slice so refresh_metrics_gauges can publish
  /// the model.* gauges; models with hot-path instrumentation (the KRR
  /// family) additionally forward the pointer into their pipelines. Same
  /// lifetime contract as KrrProfiler::attach_metrics.
  virtual void attach_metrics(obs::PipelineMetrics* metrics) noexcept;
  /// Publishes model_gauges() into the attached model.* slice (plus any
  /// family-specific gauges an override adds). No-op while detached.
  virtual void refresh_metrics_gauges() const noexcept;
  /// Publishes end-of-run gauges into the registry (e.g. per-shard state).
  virtual void export_gauges(obs::MetricsRegistry& registry) const;

  /// The model.* gauge values (see ModelGaugeSnapshot). The default derives
  /// them from snapshot() and space_overhead_bytes(); estimators with
  /// richer native accounting (histogram bins, native prune counters)
  /// override with the real numbers.
  virtual ModelGaugeSnapshot model_gauges() const;

  /// Attaches span/event tracing. Default is a no-op; estimators with
  /// internal pipelines (the *_sharded per-shard lanes) forward the tracer.
  /// Non-owning; the tracer must outlive the estimator.
  virtual void attach_tracer(obs::Tracer* tracer) noexcept;

  /// Registry metadata (set by EstimatorRegistry::create; an estimator
  /// constructed by hand reports a default-constructed info).
  const EstimatorInfo& info() const noexcept { return info_; }
  void set_info(EstimatorInfo info) { info_ = std::move(info); }

 protected:
  /// The slice stored by the base attach_metrics (null while detached).
  obs::PipelineMetrics* pipeline_metrics() const noexcept { return metrics_; }

 private:
  EstimatorInfo info_;
  obs::PipelineMetrics* metrics_ = nullptr;
};

/// String-keyed estimator factory registry. All built-in models register on
/// first use; external code can add more via EstimatorRegistrar (one static
/// object in one translation unit is a complete registration).
class EstimatorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<MrcEstimator>(const EstimatorOptions&)>;

  /// The process-wide registry, with every built-in model registered.
  static EstimatorRegistry& instance();

  /// Registers a model. Throws std::logic_error on a duplicate name —
  /// silent shadowing of an estimator would invalidate comparisons.
  void add(EstimatorInfo info, Factory factory);

  /// Instantiates `name` with `options`. kInvalidArgument when the name is
  /// unknown, an option key is neither common nor declared by the model, or
  /// the factory rejects an option value.
  StatusOr<std::unique_ptr<MrcEstimator>> create(
      const std::string& name, const EstimatorOptions& options = {}) const;

  /// Metadata lookup; nullptr when unknown.
  const EstimatorInfo* find(const std::string& name) const;

  /// Every registered model, sorted by name.
  std::vector<EstimatorInfo> list() const;

  std::size_t size() const noexcept { return entries_.size(); }
  bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }

 private:
  EstimatorRegistry() = default;

  std::map<std::string, std::pair<EstimatorInfo, Factory>> entries_;
};

/// Self-registration handle:
///
///   static EstimatorRegistrar my_model_registrar(
///       {.name = "my_model", .policy = "LRU", .description = "..."},
///       [](const EstimatorOptions& o) { return std::make_unique<...>(o); });
struct EstimatorRegistrar {
  EstimatorRegistrar(EstimatorInfo info, EstimatorRegistry::Factory factory);
};

namespace detail {
/// Defined in estimators_builtin.cpp; called once by instance(). Keeping
/// the built-in registrations behind a direct call (rather than static
/// initializers alone) guarantees they survive static-library linking.
void register_builtin_estimators(EstimatorRegistry& registry);
}  // namespace detail

}  // namespace krr

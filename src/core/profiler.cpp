#include "core/profiler.h"

#include <cmath>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "obs/metrics.h"

namespace krr {

namespace {

KrrStackConfig make_stack_config(const KrrProfilerConfig& config) {
  KrrStackConfig sc;
  sc.k = config.apply_correction ? corrected_k(config.k_sample) : config.k_sample;
  sc.strategy = config.strategy;
  sc.sampling_model = config.sampling_model;
  sc.seed = config.seed;
  sc.track_bytes = config.byte_granularity;
  sc.size_array_base = config.size_array_base;
  return sc;
}

}  // namespace

KrrProfiler::KrrProfiler(const KrrProfilerConfig& config)
    : config_(config),
      filter_(config.sampling_rate),
      stack_(make_stack_config(config)),
      histogram_(config.histogram_quantum),
      configured_rate_(filter_.rate()) {}

void KrrProfiler::attach_metrics(obs::PipelineMetrics* metrics) noexcept {
#ifdef KRR_METRICS_ENABLED
  metrics_ = metrics;
  stack_.attach_metrics(metrics != nullptr ? &metrics->stack : nullptr);
#else
  (void)metrics;
#endif
}

void KrrProfiler::refresh_metrics_gauges() const noexcept {
#ifdef KRR_METRICS_ENABLED
  if (metrics_ == nullptr) return;
  metrics_->stack_depth->set(static_cast<double>(stack_.depth()));
  metrics_->resident_bytes->set(static_cast<double>(space_overhead_bytes()));
  metrics_->sampling_rate->set(filter_.rate());
  metrics_->histogram_bins->set(static_cast<double>(histogram_.bin_count()));
#endif
}

void KrrProfiler::access(const Request& req) {
  ++processed_;
  if (!filter_.sampled(req.key)) {
#ifdef KRR_METRICS_ENABLED
    if (metrics_ != nullptr) {
      metrics_->accesses->inc();
      metrics_->filter_dropped->inc();
    }
#endif
    return;
  }
  ++sampled_;
#ifdef KRR_METRICS_ENABLED
  if (metrics_ != nullptr) {
    metrics_->accesses->inc();
    metrics_->filter_passed->inc();
  }
#endif
  const auto result = stack_.access(req.key, config_.byte_granularity ? req.size : 1);
  if (result.cold) {
    histogram_.record_infinite();
    maybe_degrade();
    return;
  }
  const std::uint64_t distance =
      config_.byte_granularity ? result.byte_distance : result.position;
  // A sampled distance d estimates an unsampled distance d/R (§2.4); a
  // hash shard is a further uniform sample at rate 1/shard_count, so the
  // global estimate is d * shard_count / R (shard_count == 1 multiplies by
  // exactly 1.0 — no effect on the unsharded path).
  const double scaled = static_cast<double>(distance) * filter_.scale() *
                        static_cast<double>(config_.shard_count);
  histogram_.record(static_cast<std::uint64_t>(std::llround(scaled)));
}

void KrrProfiler::maybe_degrade() {
  // Only cold references grow the stack, so checking here bounds memory
  // exactly. Halve until back under the ceiling (one halving evicts about
  // half the residents) or until the filter bottoms out at threshold 1.
  while (config_.max_stack_bytes != 0 &&
         space_overhead_bytes() > config_.max_stack_bytes) {
    if (!degrade_step()) break;
  }
}

bool KrrProfiler::degrade_step() {
  if (filter_.threshold() <= 1) return false;
  expected_sampled_base_ = expected_sampled();
  processed_at_rate_change_ = processed_;
  filter_.halve();
  stack_.retain([this](std::uint64_t key) { return filter_.sampled(key); });
  ++degradation_events_;
#ifdef KRR_METRICS_ENABLED
  if (metrics_ != nullptr) {
    metrics_->degradations->inc();
    metrics_->filter_halvings->inc();
  }
#endif
  return true;
}

DistanceHistogram KrrProfiler::adjusted_histogram() const {
  // SHARDS-adj first-bucket correction: hot objects falling in or out of
  // the sample inflate or deflate the sampled reference count; the
  // difference against the expectation (sum of the per-reference rate in
  // effect, == N*R without degradation) is credited (possibly negatively)
  // to the smallest-distance bucket.
  DistanceHistogram adjusted = histogram_;
  if (!adjustment_folded_ && config_.sampling_adjustment &&
      current_sampling_rate() < 1.0) {
    const double diff = expected_sampled() - static_cast<double>(sampled_);
    if (diff != 0.0) adjusted.record(1, diff);
  }
  return adjusted;
}

MissRatioCurve KrrProfiler::mrc() const {
  if (adjustment_folded_ || !config_.sampling_adjustment ||
      current_sampling_rate() >= 1.0) {
    return histogram_.to_mrc();
  }
  return adjusted_histogram().to_mrc();
}

void KrrProfiler::fold_adjustment() {
  if (adjustment_folded_) return;
  histogram_ = adjusted_histogram();
  adjustment_folded_ = true;
}

void KrrProfiler::absorb(const KrrProfiler& other) {
  fold_adjustment();
  histogram_.merge(other.adjusted_histogram());
}

void KrrProfiler::scale_mass(double factor) {
  fold_adjustment();
  histogram_.scale(factor);
}

std::uint64_t KrrProfiler::space_overhead_bytes() const noexcept {
  // Per tracked object: 8 B stack slot + 4 B size slot (var-KRR only) +
  // ~48 B hash-table entry (key, value, bucket overhead); the sizeArray
  // itself is logarithmic and counted once. This mirrors the paper's §5.6
  // accounting of ~68-72 B per object.
  const std::uint64_t per_object =
      8 + (config_.byte_granularity ? 4 : 0) + 48;
  std::uint64_t bytes = stack_.depth() * per_object;
  if (config_.byte_granularity) {
    bytes += 2 * sizeof(std::uint64_t) * 64;  // boundaries + sums, worst case
  }
  return bytes;
}

Status KrrProfiler::save_state(std::string* out) const {
  if (out == nullptr) return invalid_argument_error("save_state: null output");
  if (adjustment_folded_) {
    return invalid_argument_error(
        "profiler snapshot unavailable after a sharded merge");
  }
  out->clear();
  ckpt::StateWriter writer(*out);
  std::string core;
  ckpt::append_u64(core, processed_);
  ckpt::append_u64(core, sampled_);
  ckpt::append_u64(core, degradation_events_);
  ckpt::append_u64(core, processed_at_rate_change_);
  ckpt::append_double(core, configured_rate_);
  ckpt::append_double(core, expected_sampled_base_);
  ckpt::append_u64(core, filter_.modulus());
  ckpt::append_u64(core, filter_.threshold());
  ckpt::append_u64(core, filter_.halvings());
  const auto bins = histogram_.sorted_bins();
  ckpt::append_u64(core, bins.size());
  for (const auto& [dist, weight] : bins) {
    ckpt::append_u64(core, dist);
    ckpt::append_double(core, weight);
  }
  ckpt::append_double(core, histogram_.infinite_weight());
  ckpt::append_double(core, histogram_.total_weight());
  writer.add_section(ckpt::kSectionModelCore, core);
  std::string stack;
  stack_.save_state(stack);
  writer.add_section(ckpt::kSectionKrrStack, stack);
  return Status::ok();
}

Status KrrProfiler::load_state(const std::string& payload) {
  // A pre-section (flat) payload fails here with a classified status: its
  // first word is the processed count, not the stream version.
  auto parsed = ckpt::StateReader::parse(payload);
  if (!parsed.is_ok()) return parsed.status();
  const std::string* core = parsed.value().find(ckpt::kSectionModelCore);
  const std::string* stack = parsed.value().find(ckpt::kSectionKrrStack);
  if (core == nullptr || stack == nullptr) {
    return bad_record_error("profiler snapshot is missing a required section");
  }
  ckpt::ByteReader reader(*core);
  std::uint64_t filter_modulus = 0, filter_threshold = 0, filter_halvings = 0;
  std::uint64_t bin_count = 0;
  if (!reader.read_u64(&processed_) || !reader.read_u64(&sampled_) ||
      !reader.read_u64(&degradation_events_) ||
      !reader.read_u64(&processed_at_rate_change_) ||
      !reader.read_double(&configured_rate_) ||
      !reader.read_double(&expected_sampled_base_) ||
      !reader.read_u64(&filter_modulus) || !reader.read_u64(&filter_threshold) ||
      !reader.read_u64(&filter_halvings) || !reader.read_u64(&bin_count)) {
    return truncated_error("profiler snapshot core section is truncated");
  }
  if (filter_modulus != filter_.modulus()) {
    return bad_record_error(
        "profiler snapshot was taken with a different filter modulus");
  }
  filter_.restore(filter_threshold, filter_halvings);
  if (bin_count > reader.remaining() / 16) {
    return bad_record_error("profiler snapshot histogram length is impossible");
  }
  std::vector<std::pair<std::uint64_t, double>> bins;
  bins.reserve(bin_count);
  for (std::uint64_t i = 0; i < bin_count; ++i) {
    std::uint64_t dist = 0;
    double weight = 0.0;
    if (!reader.read_u64(&dist) || !reader.read_double(&weight)) {
      return truncated_error("profiler snapshot histogram is truncated");
    }
    bins.emplace_back(dist, weight);
  }
  double infinite = 0.0, total = 0.0;
  if (!reader.read_double(&infinite) || !reader.read_double(&total)) {
    return truncated_error("profiler snapshot histogram is truncated");
  }
  if (!reader.exhausted()) {
    return bad_record_error("profiler snapshot core has trailing bytes");
  }
  histogram_.restore(bins, infinite, total);
  ckpt::ByteReader stack_reader(*stack);
  if (!stack_.load_state(stack_reader) || !stack_reader.exhausted()) {
    return bad_record_error("profiler snapshot stack section is corrupt");
  }
  return Status::ok();
}

RunReport KrrProfiler::run_report(const TraceReadReport* ingest) const {
  RunReport report;
  if (ingest) {
    report.records_read = ingest->records_read;
    report.records_skipped = ingest->records_skipped;
    report.checksum_failures = ingest->checksum_failures;
    report.truncated_tail = ingest->truncated_tail;
  } else {
    report.records_read = processed_;
  }
  report.degradation_events = degradation_events_;
  report.configured_sampling_rate = configured_rate_;
  report.final_sampling_rate = current_sampling_rate();
  report.stack_depth = stack_.depth();
  report.space_overhead_bytes = space_overhead_bytes();
  return report;
}

obs::Json to_json(const RunReport& report) {
  obs::Json j = obs::Json::object();
  j.set("records_read", obs::Json(report.records_read));
  j.set("records_skipped", obs::Json(report.records_skipped));
  j.set("checksum_failures", obs::Json(report.checksum_failures));
  j.set("truncated_tail", obs::Json(report.truncated_tail));
  j.set("degradation_events", obs::Json(report.degradation_events));
  j.set("configured_sampling_rate", obs::Json(report.configured_sampling_rate));
  j.set("final_sampling_rate", obs::Json(report.final_sampling_rate));
  j.set("stack_depth", obs::Json(report.stack_depth));
  j.set("space_overhead_bytes", obs::Json(report.space_overhead_bytes));
  j.set("producer_stall_seconds", obs::Json(report.producer_stall_seconds));
  j.set("partial", obs::Json(report.partial));
  j.set("shards_failed", obs::Json(report.shards_failed));
  j.set("shards_resurrected", obs::Json(report.shards_resurrected));
  j.set("replayed_records", obs::Json(report.replayed_records));
  j.set("dropped_records", obs::Json(report.dropped_records));
  j.set("recovery", obs::Json(report.recovery));
  return j;
}

}  // namespace krr

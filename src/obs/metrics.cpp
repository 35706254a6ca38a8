#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

namespace krr::obs {

double LogHistogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (static_cast<double>(seen) >= target) {
      // Geometric midpoint of [lo, hi]; bucket 0 is exactly the value 0.
      if (i == 0) return 0.0;
      const double lo = static_cast<double>(bucket_lo(i));
      const double hi = static_cast<double>(bucket_hi(i));
      return std::sqrt(lo * hi);
    }
  }
  return static_cast<double>(bucket_hi(kBuckets - 1));
}

void LogHistogram::record_counts(const std::array<std::uint64_t, kBuckets>& bucket_counts,
                                 std::uint64_t sum) noexcept {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (bucket_counts[i] == 0) continue;
    buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
    n += bucket_counts[i];
  }
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

void LogHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

template <typename Deque>
auto& find_or_add(Deque& deque, const std::string& name) {
  for (auto& [n, metric] : deque) {
    if (n == name) return metric;
  }
  // Atomics make the metric types immovable; build the pair in place.
  deque.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                     std::forward_as_tuple());
  return deque.back().second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add(gauges_, name);
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add(histograms_, name);
}

Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json root = Json::object();
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters.set(name, Json(c.value()));
  root.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, Json(g.value()));
  root.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    entry.set("count", Json(h.count()));
    entry.set("sum", Json(h.sum()));
    entry.set("mean", Json(h.mean()));
    entry.set("p50", Json(h.quantile(0.50)));
    entry.set("p90", Json(h.quantile(0.90)));
    entry.set("p99", Json(h.quantile(0.99)));
    Json buckets = Json::array();
    for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
      const std::uint64_t n = h.bucket_count(i);
      if (n == 0) continue;
      Json bucket = Json::array();
      bucket.push_back(Json(LogHistogram::bucket_lo(i)));
      bucket.push_back(Json(LogHistogram::bucket_hi(i)));
      bucket.push_back(Json(n));
      buckets.push_back(std::move(bucket));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  to_json().dump(os, 0);
  os << '\n';
}

void MetricsRegistry::write_table(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t width = 8;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_) width = std::max(width, name.size());
  os << "-- counters --\n";
  for (const auto& [name, c] : counters_) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << name << "  "
       << c.value() << '\n';
  }
  os << "-- gauges --\n";
  for (const auto& [name, g] : gauges_) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << name << "  "
       << g.value() << '\n';
  }
  os << "-- histograms (count / mean / p50 / p99) --\n";
  for (const auto& [name, h] : histograms_) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << name << "  "
       << h.count() << " / " << h.mean() << " / " << h.quantile(0.5) << " / "
       << h.quantile(0.99) << '\n';
  }
}

PipelineMetrics::PipelineMetrics(MetricsRegistry& registry)
    : accesses(&registry.counter("profiler.accesses")),
      filter_passed(&registry.counter("filter.passed")),
      filter_dropped(&registry.counter("filter.dropped")),
      filter_halvings(&registry.counter("filter.halvings")),
      degradations(&registry.counter("profiler.degradations")),
      sampling_rate(&registry.gauge("filter.rate")),
      stack_depth(&registry.gauge("stack.depth")),
      resident_bytes(&registry.gauge("stack.resident_bytes")),
      histogram_bins(&registry.gauge("histogram.bins")) {
  stack.cold_misses = &registry.counter("stack.cold_misses");
  stack.swaps = &registry.counter("stack.swaps");
  stack.chain_len = &registry.histogram("stack.chain_len");
  stack.update_ns = &registry.histogram("stack.update_ns");
  sharded.enqueued = &registry.counter("sharded.enqueued");
  sharded.producer_stalls = &registry.counter("sharded.producer_stalls");
  sharded.queue_depth = &registry.histogram("sharded.queue_depth");
  sharded.shards = &registry.gauge("sharded.shards");
  sharded.threads = &registry.gauge("sharded.threads");
  sharded.merge_seconds = &registry.gauge("sharded.merge_seconds");
  sharded.stall_seconds = &registry.gauge("sharded.producer_stall_seconds");
  sharded.shard_failures = &registry.counter("sharded.shard_failures");
  sharded.backpressure_sleeps = &registry.counter("sharded.backpressure_sleeps");
  sharded.resurrections = &registry.counter("recovery.resurrections");
  sharded.replayed_records = &registry.counter("recovery.replayed_records");
  model.depth = &registry.gauge("model.depth");
  model.resident_bytes = &registry.gauge("model.resident_bytes");
  model.sampling_rate = &registry.gauge("model.sampling_rate");
  model.samples = &registry.gauge("model.samples");
  model.degradations = &registry.gauge("model.degradations");
  model.histogram_bins = &registry.gauge("model.histogram_bins");
}

}  // namespace krr::obs

// bench_obs_overhead — the obs layer's own overhead budget, measured.
//
// Runs the end-to-end KrrProfiler over a synthetic Zipf trace three ways:
//   detached   no metrics attached
//              (the default library user's configuration)
//   attached   full PipelineMetrics wired in (what --metrics-out pays)
//   heartbeat  attached + a Heartbeat ticked per record (what --progress
//              pays on top)
//   traced     attached + a Tracer recording what --trace-out records: a
//              span around the profile loop and a stride-gated instant
//              event every 4096 records
// and reports throughput plus the relative slowdown. With --check it exits
// non-zero when the attached or traced overhead exceeds --max-overhead
// percent (default 5) — the `make bench_smoke` gate.
//
//   bench_obs_overhead [--n=2000000] [--footprint=100000] [--alpha=0.9]
//                      [--k=5] [--rate=1.0] [--repeats=5]
//                      [--check] [--max-overhead=5]

#include <cstdio>
#include <sstream>

#include "bench_common.h"

namespace {

using namespace krr;
using namespace krrbench;

double run_profile(const std::vector<Request>& trace, double k, double rate,
                   obs::PipelineMetrics* metrics, obs::Heartbeat* heartbeat,
                   obs::Tracer* tracer = nullptr) {
  KrrProfilerConfig cfg;
  cfg.k_sample = k;
  cfg.sampling_rate = rate;
  cfg.seed = 7;
  KrrProfiler profiler(cfg);
  if (metrics != nullptr) profiler.attach_metrics(metrics);
  if (heartbeat != nullptr) {
    for (const Request& r : trace) {
      profiler.access(r);
      heartbeat->tick([&] {
        obs::HeartbeatSnapshot s;
        s.records = profiler.processed();
        return s;
      });
    }
  } else if (tracer != nullptr) {
    // What a --trace-out run pays: one span around the loop plus a
    // stride-gated instant (the same cadence the heartbeat uses).
    constexpr std::uint64_t kTraceStride = 4096;
    obs::ScopedTraceSpan span(tracer, "phase.profile", "phase");
    std::uint64_t since_instant = 0;
    for (const Request& r : trace) {
      profiler.access(r);
      if (++since_instant == kTraceStride) {
        since_instant = 0;
        tracer->instant("profile.progress", "bench", 0,
                        {{"records",
                          static_cast<double>(profiler.processed())}});
      }
    }
  } else {
    for (const Request& r : trace) profiler.access(r);
  }
  // Keep the run observable so the loop cannot be optimized away.
  return profiler.mrc().eval(1.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto n = static_cast<std::size_t>(
      scaled(static_cast<std::uint64_t>(opts.get_int("n", 2000000))));
  const auto footprint =
      static_cast<std::uint64_t>(opts.get_int("footprint", 100000));
  const double alpha = opts.get_double("alpha", 0.9);
  const double k = opts.get_double("k", 5.0);
  const double rate = opts.get_double("rate", 1.0);
  const int repeats = static_cast<int>(opts.get_int("repeats", 5));
  const bool check = opts.has("check");
  const double max_overhead_pct = opts.get_double("max-overhead", 5.0);

  ZipfianGenerator gen(footprint, alpha, /*seed=*/21, /*scrambled=*/true);
  const std::vector<Request> trace = materialize(gen, n);

  obs::MetricsRegistry registry;
  obs::PipelineMetrics metrics(registry);
  // A muted heartbeat (stringstream sink, long interval): measures the
  // per-record tick cost, not terminal IO.
  std::ostringstream sink;

  // One warmup, then round-robin over the configurations so machine-state
  // drift (throttling, noisy neighbors) cancels out of the ratios.
  run_profile(trace, k, rate, nullptr, nullptr);
  const std::vector<double> medians = interleaved_median_seconds(
      repeats,
      {[&] { run_profile(trace, k, rate, nullptr, nullptr); },
       [&] { run_profile(trace, k, rate, &metrics, nullptr); },
       [&] {
         obs::Heartbeat hb(3600.0, sink);
         run_profile(trace, k, rate, &metrics, &hb);
       },
       [&] {
         obs::Tracer tracer;
         run_profile(trace, k, rate, &metrics, nullptr, &tracer);
       }});
  const double detached = medians[0];
  const double attached = medians[1];
  const double with_heartbeat = medians[2];
  const double traced = medians[3];

  const double nrec = static_cast<double>(n);
  const double attach_pct = (attached / detached - 1.0) * 100.0;
  const double hb_pct = (with_heartbeat / detached - 1.0) * 100.0;
  const double traced_pct = (traced / detached - 1.0) * 100.0;

  std::printf("obs overhead on zipf:%g (n=%zu, footprint=%llu, K=%g, R=%g)\n",
              alpha, n, static_cast<unsigned long long>(footprint), k, rate);
  Table table({"config", "median_s", "Mrec_per_s", "overhead_pct"});
  table.add("detached", detached, nrec / detached / 1e6, 0.0);
  table.add("attached", attached, nrec / attached / 1e6, attach_pct);
  table.add("attached+heartbeat", with_heartbeat, nrec / with_heartbeat / 1e6,
            hb_pct);
  table.add("attached+traced", traced, nrec / traced / 1e6, traced_pct);
  table.print(std::cout);

  if (check) {
    if (attach_pct > max_overhead_pct) {
      std::fprintf(stderr,
                   "FAIL: metrics-attached overhead %.2f%% exceeds budget "
                   "%.2f%%\n",
                   attach_pct, max_overhead_pct);
      return 1;
    }
    if (traced_pct > max_overhead_pct) {
      std::fprintf(stderr,
                   "FAIL: traced overhead %.2f%% exceeds budget %.2f%%\n",
                   traced_pct, max_overhead_pct);
      return 1;
    }
    std::printf(
        "OK: attached overhead %.2f%% and traced overhead %.2f%% within "
        "%.2f%% budget\n",
        attach_pct, traced_pct, max_overhead_pct);
  }
  return 0;
}

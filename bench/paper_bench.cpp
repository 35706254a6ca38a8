// paper_bench — one program for the paper's evaluation chapter (Tables
// 5.1–5.4, Figs 1.1 and 5.1–5.5, §5.6), the design ablations and the
// sharded scaling table.
//
//   paper_bench <experiment>...
//
// Each experiment prints the rows/series the paper reports (a human table
// plus a CSV dump for plotting) and then asserts the shape claim it
// prints: a claim that does not hold is reported with its measured value
// and paper_bench exits 1. An unknown experiment, or none, prints the list
// and exits 2. Trace lengths honor KRR_BENCH_SCALE (default 1), so
// `KRR_BENCH_SCALE=10` approaches paper-sized runs while the default stays
// laptop-friendly; a value that is not a finite number above 0 exits 2.
//
// MAE bounds sit about 25% beyond the worst value measured at
// KRR_BENCH_SCALE 0.1, 0.3 and 1 (quoted next to each claim). Some claims
// need scale >= 0.3: at 0.1 fig5_2 classifies 6/9 traces as expected and
// fig1_1's gap is 0.0495. Timing claims assert only orderings measured
// with at least 3x headroom; closer orderings are printed, not asserted,
// because scheduler noise can flip them.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "krr.h"

namespace {

using namespace krr;

// ---------------------------------------------------------------------------
// Shared plumbing.

/// Records the shape claims of one experiment. A holding claim goes to
/// stdout; a failed one goes to stderr and fails the run.
class Claims {
 public:
  explicit Claims(std::string experiment) : experiment_(std::move(experiment)) {}

  void check(bool holds, const std::string& claim, const std::string& measured) {
    if (holds) {
      std::cout << "claim ok: " << claim << " (measured " << measured << ")\n";
      return;
    }
    ++failed_;
    std::cout.flush();
    std::cerr << "CLAIM FAILED: " << experiment_ << ": " << claim
              << " (measured " << measured << ")\n";
  }

  /// An ordering too close to assert (under 3x measured headroom).
  void note(const std::string& ordering, double ratio) {
    std::cout << "not asserted: " << ordering << " (measured "
              << format_double(ratio, 2) << "x)\n";
  }

  int failed() const { return failed_; }

 private:
  std::string experiment_;
  int failed_ = 0;
};

/// One named workload with a fixed-length materialized trace.
struct Workload {
  std::string name;
  std::vector<Request> trace;
};

/// A trace family: the unit the paper averages MAE and overhead over.
struct Family {
  std::string name;
  std::vector<Workload> workloads;
};

/// Evaluation trace families (scaled-down versions of the paper's §5.2
/// setup). `uniform_size` != 0 forces fixed object sizes.
Workload make_msr(const std::string& profile, std::size_t n,
                  std::uint64_t footprint, std::uint32_t uniform_size,
                  std::uint64_t seed = 1) {
  MsrGenerator gen(msr_profile(profile), seed, footprint, uniform_size);
  return Workload{gen.name(), materialize(gen, n)};
}

Workload make_ycsb_c(double alpha, std::size_t n, std::uint64_t records,
                     std::uint64_t seed = 2, std::uint32_t object_size = 1) {
  YcsbWorkloadC gen(records, alpha, seed, object_size);
  return Workload{gen.name(), materialize(gen, n)};
}

Workload make_ycsb_e(double alpha, std::size_t n, std::uint64_t records,
                     std::uint64_t seed = 3) {
  YcsbWorkloadE gen(records, alpha, seed);
  return Workload{gen.name(), materialize(gen, n)};
}

Workload make_twitter(const std::string& profile, std::size_t n,
                      std::uint64_t keys, std::uint32_t uniform_size,
                      std::uint64_t seed = 4) {
  TwitterGenerator gen(twitter_profile(profile), seed, keys, uniform_size);
  return Workload{gen.name(), materialize(gen, n)};
}

/// Runs the KRR profiler over a trace and returns the predicted MRC.
MissRatioCurve run_krr(const std::vector<Request>& trace, double k_sample,
                       double sampling_rate = 1.0, bool byte_granularity = false,
                       std::uint64_t seed = 11) {
  KrrProfilerConfig cfg;
  cfg.k_sample = k_sample;
  cfg.sampling_rate = sampling_rate;
  cfg.byte_granularity = byte_granularity;
  cfg.seed = seed;
  KrrProfiler profiler(cfg);
  for (const Request& r : trace) profiler.access(r);
  return profiler.mrc();
}

/// The registry create/feed/finish/mrc pass every model-zoo table shares.
/// `seconds`, when given, receives the wall time of the whole pass.
MissRatioCurve run_model(const std::string& name, const EstimatorOptions& options,
                         const std::vector<Request>& trace,
                         const std::vector<double>& sizes = {},
                         double* seconds = nullptr) {
  Stopwatch watch;
  auto created = EstimatorRegistry::instance().create(name, options);
  if (!created.is_ok()) throw StatusError(created.status());
  auto est = std::move(*created);
  for (const Request& r : trace) est->access(r);
  est->finish();
  MissRatioCurve curve = est->mrc(sizes);
  if (seconds != nullptr) *seconds = watch.seconds();
  return curve;
}

/// Median wall time of `repeats` runs of `run`.
double median_seconds(int repeats, const std::function<void()>& run) {
  std::vector<double> runs;
  for (int rep = 0; rep < repeats; ++rep) {
    double seconds = 0.0;
    {
      ScopedTimer timer(seconds);
      run();
    }
    runs.push_back(seconds);
  }
  std::sort(runs.begin(), runs.end());
  const std::size_t mid = runs.size() / 2;
  return runs.size() % 2 == 1 ? runs[mid] : 0.5 * (runs[mid - 1] + runs[mid]);
}

/// Spatial sampling rate `base`, raised so this trace keeps at least
/// `min_objects` sampled objects (the paper's floor is 8K).
double paper_rate(const std::vector<Request>& trace, double base,
                  std::uint64_t min_objects) {
  return adaptive_sampling_rate(base, count_distinct(trace), min_objects);
}

/// Prints a table twice: human-readable and CSV (for plotting).
void print_table(const Table& table, const std::string& title) {
  std::cout << "== " << title << " ==\n";
  table.print(std::cout);
  std::cout << "\n[csv]\n";
  table.print_csv(std::cout);
  std::cout << std::endl;
}

/// Prints one MRC as labeled CSV series rows: series,size,miss_ratio.
void print_series(const std::string& series, const MissRatioCurve& curve,
                  const std::vector<double>& sizes) {
  for (double s : sizes) {
    std::cout << series << ',' << s << ',' << curve.eval(s) << '\n';
  }
}

MissRatioCurve lru_mrc(const std::vector<Request>& trace) {
  LruStackProfiler lru;
  for (const Request& r : trace) lru.access(r);
  return lru.mrc();
}

const std::vector<std::uint32_t> kSweepKs = {1, 2, 4, 8, 16, 32};

/// A trace is Type A when some cache size shows a substantial spread
/// between random replacement (K=1) and exact LRU.
constexpr double kTypeAThreshold = 0.05;

/// One (family, model, K) row of Tables 5.1/5.2: MAE averaged over the
/// family's workloads. K = 0 marks a model scored against exact LRU.
struct MaeRow {
  std::string family;
  std::string model;
  std::uint32_t k;
  double mae;
};

/// A krr variant row: the paper's ablation columns, expressed as common
/// option keys so they run through the same registry adapter.
struct KrrVariant {
  std::string label;
  EstimatorOptions extra;
  bool paper_rate;  // set "rate" to the trace's 0.001/4K-floor rate
};

/// The registry-driven MAE sweep of Tables 5.1 and 5.2. K-LRU-capable
/// models sweep K against the simulated random-sampling K-LRU; every other
/// model is scored once (K column 0) against the exact-LRU sweep.
/// Reference oracles are skipped — they are the truth definitionally, at
/// O(N*M) cost — and sharded adapters are covered by parallel_scaling
/// (their accuracy equals the base model's by the thread-invariance
/// tests). `bytes` scores byte-capacity curves of byte-capable models.
std::vector<MaeRow> registry_mae(const std::vector<Family>& families, bool bytes,
                                 std::uint64_t klru_seed,
                                 const std::vector<KrrVariant>& variants) {
  EstimatorOptions base;
  if (bytes) base.set("bytes", "1");
  std::vector<MaeRow> rows;
  for (const Family& family : families) {
    // Truth curves are the expensive part: simulate once per workload (and
    // once per K for the K-LRU truth), reuse for every model.
    struct Prepared {
      const Workload* workload;
      std::vector<double> sizes;
      MissRatioCurve lru;
      std::vector<MissRatioCurve> klru;  // parallel to kSweepKs
    };
    std::vector<Prepared> prepared;
    for (const Workload& w : family.workloads) {
      Prepared p;
      p.workload = &w;
      p.sizes = bytes ? capacity_grid_bytes(w.trace, 16)
                      : capacity_grid_objects(w.trace, 20);
      p.lru = sweep_lru(w.trace, p.sizes);
      for (std::uint32_t k : kSweepKs) {
        p.klru.push_back(sweep_klru(w.trace, p.sizes, k, true, klru_seed + k));
      }
      prepared.push_back(std::move(p));
    }
    const auto count = static_cast<double>(family.workloads.size());
    // Mean MAE against the K-LRU truth at kSweepKs[*ki], or against exact
    // LRU when `ki` is empty.
    auto mean_mae = [&](const std::string& model, const EstimatorOptions& extra,
                        bool rated, std::optional<std::size_t> ki) {
      double mae = 0.0;
      for (const Prepared& p : prepared) {
        EstimatorOptions o = base;
        o.merge(extra);
        if (ki) o.set("k", std::to_string(kSweepKs[*ki]));
        if (rated) {
          o.set("rate", std::to_string(
                            paper_rate(p.workload->trace, 0.001, 4096)));
        }
        const MissRatioCurve& truth = ki ? p.klru[*ki] : p.lru;
        mae += run_model(model, o, p.workload->trace, p.sizes).mae(truth, p.sizes);
      }
      return mae / count;
    };

    for (const auto& info : EstimatorRegistry::instance().list()) {
      if (bytes && !info.caps.byte_granularity) continue;
      if (info.caps.reference_oracle || info.caps.sharded) continue;
      if (info.caps.models_klru) {
        for (std::size_t ki = 0; ki < kSweepKs.size(); ++ki) {
          rows.push_back({family.name, info.name, kSweepKs[ki],
                          mean_mae(info.name, {}, false, ki)});
        }
      } else {
        rows.push_back({family.name, info.name, 0u,
                        mean_mae(info.name, {}, false, std::nullopt)});
      }
    }
    for (const KrrVariant& v : variants) {
      for (std::size_t ki = 0; ki < kSweepKs.size(); ++ki) {
        rows.push_back({family.name, v.label, kSweepKs[ki],
                        mean_mae("krr", v.extra, v.paper_rate, ki)});
      }
    }
  }
  return rows;
}

void print_mae_rows(const std::vector<MaeRow>& rows, const std::string& title) {
  Table table({"family", "model", "K", "mae"});
  for (const MaeRow& r : rows) table.add(r.family, r.model, r.k, r.mae);
  print_table(table, title);
}

/// Largest MAE among the rows of one model label.
double max_mae(const std::vector<MaeRow>& rows, const std::string& model) {
  double worst = 0.0;
  for (const MaeRow& r : rows) {
    if (r.model == model) worst = std::max(worst, r.mae);
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Experiments.

// Figure 1.1: MRCs of the MSR "web" workload under K-LRU with
// K = 1, 2, 4, 8, 16, 32 — the motivating observation that the sampling
// size K moves the whole miss ratio curve, so exact-LRU MRC techniques
// cannot model a K-LRU cache.
//
// Output: one CSV series per K plus an exact-LRU reference, and a summary
// table of the K=1-vs-LRU gap at each evaluated size.
void fig1_1(Claims& claims) {
  const std::size_t n = scaled(400000);
  const auto w = make_msr("web", n, 20000, /*uniform_size=*/1);
  const auto sizes = capacity_grid_objects(w.trace, 20);

  std::cout << "# Figure 1.1: " << w.name << " K-LRU MRCs (" << n
            << " requests, " << count_distinct(w.trace) << " objects)\n";
  std::cout << "series,size,miss_ratio\n";

  std::vector<std::pair<std::string, MissRatioCurve>> curves;
  for (std::uint32_t k : kSweepKs) {
    curves.emplace_back("K=" + std::to_string(k),
                        sweep_klru(w.trace, sizes, k, true, 100 + k));
  }
  curves.emplace_back("LRU", lru_mrc(w.trace));
  for (const auto& [name, curve] : curves) print_series(name, curve, sizes);

  // Summary: the miss-ratio spread across K at each size (the "gap" the
  // paper motivates with).
  Table gap({"size", "K=1", "K=32", "LRU", "spread_K1_vs_LRU"});
  const auto& k1 = curves.front().second;
  const auto& lru = curves.back().second;
  const auto& k32 = curves[5].second;
  double max_spread = 0.0;
  for (double s : sizes) {
    const double spread = k1.eval(s) - lru.eval(s);
    max_spread = std::max(max_spread, std::abs(spread));
    gap.add(s, k1.eval(s), k32.eval(s), lru.eval(s), spread);
  }
  print_table(gap, "K sensitivity of msr_web");
  std::cout << "max |K=1 - LRU| gap: " << max_spread
            << "  (paper: a significant gap motivates modeling K-LRU)\n";
  claims.check(max_spread > kTypeAThreshold,
               "max |K=1 - LRU| gap > " + format_double(kTypeAThreshold) +
                   " (the Type A threshold)",
               format_double(max_spread, 4));
}

// Table 5.1 (registry edition): average MAE of every registered model
// against its natural simulated ground truth, per workload family (MSR,
// YCSB, Twitter), driven by EstimatorRegistry::list() so a newly
// registered model shows up in the table without touching this program.
//
// The paper's ablation columns survive as extra krr variant rows:
// `krr@paper_rate` (spatial sampling at the paper's 0.001/8K-floor rate)
// and `krr@no_correction` (K' = K^1.4 correction disabled).
//
// All workloads use uniform object sizes (the paper's 200 B convention;
// capacities are counted in objects so the constant cancels).
void table5_1(Claims& claims) {
  const std::size_t n = scaled(250000);
  const std::vector<Family> families = {
      {"MSR",
       {make_msr("src1", n, 15000, 1), make_msr("web", n, 12000, 1),
        make_msr("usr", n, 20000, 1), make_msr("rsrch", n, 8000, 1)}},
      {"YCSB",
       {make_ycsb_c(0.5, n, 20000), make_ycsb_c(0.99, n, 20000),
        make_ycsb_e(1.5, n, 8000)}},
      {"Twitter",
       {make_twitter("cluster26.0", n, 15000, 1),
        make_twitter("cluster34.1", n, 12000, 1),
        make_twitter("cluster45.0", n, 20000, 1)}}};
  KrrVariant raw{"krr@no_correction", {}, false};
  raw.extra.set("correction", "0");
  const auto rows = registry_mae(families, /*bytes=*/false, 500,
                                 {{"krr@paper_rate", {}, true}, raw});
  print_mae_rows(rows,
                 "Table 5.1: average MAE per family, model (registry zoo) and "
                 "sampling size K");
  std::cout << "(paper shape: krr MAEs well below 0.01 without sampling and a\n"
               " few thousandths at the paper's spatial rate; the\n"
               " no-correction variant degrades most at mid-range K on\n"
               " recency-driven traces; LRU models are scored against the\n"
               " exact-LRU sweep, K column 0)\n";

  // Measured at scales 0.1/0.3/1: max krr MAE 0.0039/0.0038/0.0039,
  // krr@paper_rate 0.0118/0.0130/0.0127; min no-correction/krr ratio
  // 1.78/1.99/2.38.
  const double krr = max_mae(rows, "krr");
  claims.check(krr <= 0.005, "krr MAE <= 0.005 at every family and K",
               format_double(krr, 4));
  const double sampled = max_mae(rows, "krr@paper_rate");
  claims.check(sampled <= 0.016,
               "krr@paper_rate MAE <= 0.016 at every family and K",
               format_double(sampled, 4));
  std::map<std::pair<std::string, std::uint32_t>, double> plain;
  for (const MaeRow& r : rows) {
    if (r.model == "krr") plain[{r.family, r.k}] = r.mae;
  }
  double min_ratio = INFINITY;
  std::string where;
  for (const MaeRow& r : rows) {
    if (r.model != "krr@no_correction" || r.k < 2) continue;
    const double ratio = r.mae / plain.at({r.family, r.k});
    if (ratio < min_ratio) {
      min_ratio = ratio;
      where = r.family + " K=" + std::to_string(r.k);
    }
  }
  claims.check(min_ratio >= 1.4,
               "krr@no_correction MAE >= 1.4x krr at every family and K >= 2",
               format_double(min_ratio, 3) + "x at " + where);
}

// Figure 5.1: actual vs predicted K-LRU MRCs for two representative traces
// (YCSB workload E with alpha = 1.5, and MSR src1), with K = 1, 4, 16.
// Series per trace: real K-LRU (simulated), KRR, KRR+Spatial, exact LRU.
void fig5_1(Claims& claims) {
  const std::size_t n = scaled(300000);
  const std::vector<Workload> workloads = {make_ycsb_e(1.5, n, 10000),
                                           make_msr("src1", n, 25000, 1)};

  std::cout << "# Figure 5.1 series\nworkload,series,size,miss_ratio\n";
  Table summary({"workload", "K", "mae_krr", "mae_krr_spatial"});
  double worst_krr = 0.0, worst_spatial = 0.0;
  for (const Workload& w : workloads) {
    const auto sizes = capacity_grid_objects(w.trace, 20);
    const MissRatioCurve lru = lru_mrc(w.trace);
    for (double s : sizes) {
      std::cout << w.name << ",LRU," << s << ',' << lru.eval(s) << '\n';
    }
    for (std::uint32_t k : {1, 4, 16}) {
      const MissRatioCurve actual = sweep_klru(w.trace, sizes, k, true, 900 + k);
      const MissRatioCurve krr_curve = run_krr(w.trace, k);
      const MissRatioCurve spatial =
          run_krr(w.trace, k, paper_rate(w.trace, 0.001, 4096));
      for (double s : sizes) {
        std::cout << w.name << ",real_KLRU_K" << k << ',' << s << ','
                  << actual.eval(s) << '\n';
        std::cout << w.name << ",KRR_K" << k << ',' << s << ','
                  << krr_curve.eval(s) << '\n';
        std::cout << w.name << ",KRR_spatial_K" << k << ',' << s << ','
                  << spatial.eval(s) << '\n';
      }
      const double mae_krr = krr_curve.mae(actual, sizes);
      const double mae_spatial = spatial.mae(actual, sizes);
      worst_krr = std::max(worst_krr, mae_krr);
      worst_spatial = std::max(worst_spatial, mae_spatial);
      summary.add(w.name, k, mae_krr, mae_spatial);
    }
  }
  print_table(summary, "Figure 5.1: prediction error summary");
  std::cout << "(paper shape: predicted curves are nearly indistinguishable\n"
               " from the simulated ones at every K)\n";
  // Measured at scales 0.1/0.3/1: max KRR MAE 0.0099/0.0107/0.0112 and
  // KRR+spatial 0.030/0.036/0.036, both on ycsb_E at K=16.
  claims.check(worst_krr <= 0.014, "KRR MAE <= 0.014 at every trace and K",
               format_double(worst_krr, 4));
  claims.check(worst_spatial <= 0.045,
               "KRR+spatial MAE <= 0.045 at every trace and K",
               format_double(worst_spatial, 4));
}

// Figure 5.2: MRCs of representative traces under K-LRU (K = 1..32) and
// exact LRU, separated into Type A (K moves the curve: a large LRU-vs-RR
// gap) and Type B (curves nearly coincide for every K).
//
// The experiment prints per-trace series and a classification table using
// the max |K=1 - LRU| gap, and checks the expected type of each trace.
void fig5_2(Claims& claims) {
  const std::size_t n = scaled(250000);

  struct Entry {
    Workload workload;
    char expected_type;  // 'A' or 'B'
  };
  std::vector<Entry> entries;
  entries.push_back({make_ycsb_e(1.5, n, 8000), 'A'});
  entries.push_back({make_msr("src1", n, 15000, 1), 'A'});
  entries.push_back({make_msr("src2", n, 10000, 1), 'A'});
  entries.push_back({make_msr("web", n, 12000, 1), 'A'});
  entries.push_back({make_msr("proj", n, 18000, 1), 'A'});
  entries.push_back({make_twitter("cluster34.1", n, 12000, 1), 'A'});
  entries.push_back({make_msr("usr", n, 20000, 1), 'B'});
  entries.push_back({make_ycsb_c(0.99, n, 20000), 'B'});
  entries.push_back({make_twitter("cluster45.0", n, 20000, 1), 'B'});

  std::cout << "# Figure 5.2 series\nworkload,series,size,miss_ratio\n";
  Table table({"workload", "max_gap_K1_vs_LRU", "type", "expected"});
  std::size_t matched = 0;
  std::string mismatched;
  for (const Entry& e : entries) {
    const auto sizes = capacity_grid_objects(e.workload.trace, 16);
    const MissRatioCurve lru_curve = lru_mrc(e.workload.trace);
    for (double s : sizes) {
      std::cout << e.workload.name << ",LRU," << s << ',' << lru_curve.eval(s)
                << '\n';
    }
    double max_gap = 0.0;
    for (std::uint32_t k : kSweepKs) {
      const MissRatioCurve curve = sweep_klru(e.workload.trace, sizes, k, true, 70 + k);
      for (double s : sizes) {
        std::cout << e.workload.name << ",K=" << k << ',' << s << ','
                  << curve.eval(s) << '\n';
      }
      if (k == 1) {
        for (double s : sizes) {
          max_gap = std::max(max_gap, std::abs(curve.eval(s) - lru_curve.eval(s)));
        }
      }
    }
    const char type = max_gap > kTypeAThreshold ? 'A' : 'B';
    table.add(e.workload.name, max_gap, std::string(1, type),
              std::string(1, e.expected_type));
    if (type == e.expected_type) {
      ++matched;
    } else {
      mismatched += ' ' + e.workload.name + '=' + type;
    }
  }
  print_table(table, "Figure 5.2: Type A vs Type B classification");
  std::cout << "(paper shape: scan/drift-driven traces are Type A, IRM-like\n"
               " zipf traces are Type B; LRU-only models are unreliable for\n"
               " Type A traces at small K)\n";
  claims.check(matched == entries.size(),
               "every trace classifies as its expected type",
               std::to_string(matched) + "/" + std::to_string(entries.size()) +
                   (mismatched.empty() ? "" : ";" + mismatched));
}

// Table 5.2 (registry edition): MAE of every byte-granularity-capable
// registered model against byte-capacity simulation on variable-object-size
// MSR and Twitter workloads, driven by EstimatorRegistry::list() so a new
// model with caps.byte_granularity joins the table automatically.
//
// The paper's spatial-sampling ablation survives as the extra
// `krr@paper_rate` variant rows (var-KRR at the paper's 0.001/8K-floor
// spatial rate); the plain `krr` rows are the paper's var-KRR column.
void table5_2(Claims& claims) {
  const std::size_t n = scaled(200000);
  const std::vector<Family> families = {
      {"MSR",
       {make_msr("src2", n, 8000, 0), make_msr("web", n, 10000, 0),
        make_msr("hm", n, 8000, 0)}},
      {"Twitter",
       {make_twitter("cluster26.0", n, 10000, 0),
        make_twitter("cluster52.7", n, 8000, 0)}}};
  const auto rows = registry_mae(families, /*bytes=*/true, 300,
                                 {{"krr@paper_rate", {}, true}});
  print_mae_rows(rows,
                 "Table 5.2: var-model MAE on variable-size workloads "
                 "(byte-capacity truth, registry zoo)");
  std::cout << "(paper shape: var-KRR MAE around 1e-3 without sampling and a\n"
               " few thousandths at the paper's spatial rate, at every K;\n"
               " exact-LRU byte models sit near zero in the K=0 rows)\n";
  // Measured at scales 0.1/0.3/1: max var-KRR MAE 0.0028/0.0023/0.0027
  // and krr@paper_rate 0.0087/0.0119/0.0147.
  const double krr = max_mae(rows, "krr");
  claims.check(krr <= 0.0035, "var-KRR MAE <= 0.0035 at every family and K",
               format_double(krr, 4));
  const double sampled = max_mae(rows, "krr@paper_rate");
  claims.check(sampled <= 0.0185,
               "krr@paper_rate MAE <= 0.0185 at every family and K",
               format_double(sampled, 4));
}

// Figure 5.3: accuracy and time of variable-size-aware KRR on eight
// variable-size traces (4 MSR + 4 Twitter). For each trace: the exact
// byte-capacity K-LRU MRC, the uniform-size model (uni-KRR, byte axis via
// the mean object size) and var-KRR, plus the wall-clock cost of each model.
//
// The paper's panel (A) shows traces where uni-KRR's uniform-size
// assumption visibly mispredicts while var-KRR tracks the truth.
void fig5_3(Claims& claims) {
  const std::size_t n = scaled(200000);

  struct Entry {
    Workload workload;
    std::uint32_t k;
  };
  std::vector<Entry> entries;
  entries.push_back({make_msr("rsrch", n, 6000, 0), 8});
  entries.push_back({make_msr("src1", n, 15000, 0), 8});
  entries.push_back({make_msr("web", n, 10000, 0), 8});
  entries.push_back({make_msr("hm", n, 8000, 0), 8});
  entries.push_back({make_twitter("cluster34.1", n, 10000, 0), 16});
  entries.push_back({make_twitter("cluster26.0", n, 10000, 0), 16});
  entries.push_back({make_twitter("cluster45.0", n, 12000, 0), 16});
  entries.push_back({make_twitter("cluster52.7", n, 8000, 0), 16});

  std::cout << "# Figure 5.3 series\nworkload,series,size_bytes,miss_ratio\n";
  Table table({"workload", "K", "mae_uniKRR", "mae_varKRR", "uniKRR_sec",
               "varKRR_sec"});
  std::size_t var_wins = 0;
  std::string losses;
  for (const Entry& e : entries) {
    const auto& trace = e.workload.trace;
    const auto sizes = capacity_grid_bytes(trace, 16);
    const MissRatioCurve actual = sweep_klru(trace, sizes, e.k, true, 41);

    Stopwatch uni_watch;
    const MissRatioCurve uni_objects =
        run_krr(trace, e.k, 1.0, false, /*seed=*/1);
    const double uni_sec = uni_watch.seconds();
    // uni-KRR is an object-count curve; map to bytes via mean object size.
    const double mean_size = static_cast<double>(working_set_bytes(trace)) /
                             static_cast<double>(count_distinct(trace));
    MissRatioCurve uni_curve;
    for (const auto& p : uni_objects.points()) {
      uni_curve.add_point(p.size * mean_size, p.miss_ratio);
    }

    Stopwatch var_watch;
    const MissRatioCurve var_curve =
        run_krr(trace, e.k, 1.0, /*byte_granularity=*/true);
    const double var_sec = var_watch.seconds();

    for (double s : sizes) {
      std::cout << e.workload.name << ",exact_KLRU," << s << ',' << actual.eval(s)
                << '\n';
      std::cout << e.workload.name << ",uniKRR," << s << ',' << uni_curve.eval(s)
                << '\n';
      std::cout << e.workload.name << ",varKRR," << s << ',' << var_curve.eval(s)
                << '\n';
    }
    const double mae_uni = uni_curve.mae(actual, sizes);
    const double mae_var = var_curve.mae(actual, sizes);
    if (mae_var < mae_uni) {
      ++var_wins;
    } else {
      losses += ' ' + e.workload.name;
    }
    table.add(e.workload.name, e.k, mae_uni, mae_var, uni_sec, var_sec);
  }
  print_table(table, "Figure 5.3: uni-KRR vs var-KRR accuracy and time");
  std::cout << "(paper shape: var-KRR tracks the true byte-level MRC with\n"
               " negligible error at a modest constant-factor time overhead;\n"
               " uni-KRR deviates on strongly variable-size traces)\n";
  claims.check(var_wins == entries.size(),
               "var-KRR MAE < uni-KRR MAE on every trace",
               std::to_string(var_wins) + "/" + std::to_string(entries.size()) +
                   (losses.empty() ? "" : "; not on" + losses));
}

// Table 5.3: wall-clock cost of processing an MSR src1-style trace with
// K = 5 (Redis's default sampling size) under:
//   * simulation/interpolation (25 cache sizes, one simulated pass each),
//   * the naive linear Mattson stack ("Basic Stack"),
//   * the top-down stack update (Algorithm 1),
//   * the backward stack update (Algorithm 2),
//   * both fast updates with spatial sampling (R = 0.01, as in the paper's
//     footnote for this trace length).
//
// The naive stack is O(N*M); at the full trace length it would run for
// hours (the paper reports 53,606 s), so it is measured on a prefix and
// linearly extrapolated in N*M — the printed value is an estimate and is
// marked as such.
//
// Absolute times are hardware-specific; the reproduced *shape* is the
// ordering naive >> top-down > simulation > backward >> +spatial, with
// orders of magnitude between the extremes.
//
// After the paper's ablation rows, the table appends one `model:<name>`
// row per registered estimator (via EstimatorRegistry::list(), default
// options, K = 5 where the model samples), so a newly registered model is
// timed on the same trace without touching this program. Reference oracles
// are skipped — the basic_stack rows above already pin the O(N*M)
// extreme on a prefix — and sharded adapters are covered by
// parallel_scaling.
double time_profiler(const std::vector<Request>& trace, std::uint32_t k,
                     UpdateStrategy strategy, double rate) {
  Stopwatch watch;
  KrrProfilerConfig cfg;
  cfg.k_sample = k;
  cfg.strategy = strategy;
  cfg.sampling_rate = rate;
  KrrProfiler profiler(cfg);
  for (const Request& r : trace) profiler.access(r);
  return watch.seconds();
}

void table5_3(Claims& claims) {
  const std::size_t n = scaled(1000000);
  // src1 at paper scale is dominated by cold misses (large footprint
  // relative to the prefix length).
  const auto w = make_msr("src1", n, 400000, 1);
  const std::size_t distinct = count_distinct(w.trace);
  std::cout << "# Table 5.3: " << n << " requests of " << w.name << ", "
            << distinct << " distinct objects, K = 5\n";

  Table table({"method", "time_sec", "note"});

  Stopwatch sim_watch;
  (void)sweep_klru(w.trace, capacity_grid_objects(w.trace, 25), 5, true, 3);
  const double simulation = sim_watch.seconds();
  table.add("simulation_25_sizes", simulation, "interpolation baseline");

  // Naive linear stack on a prefix, extrapolated in N*M.
  const std::size_t prefix = std::min<std::size_t>(w.trace.size(), 20000);
  Stopwatch naive_watch;
  auto naive = GenericMattsonStack::krr(corrected_k(5.0), 5);
  for (std::size_t i = 0; i < prefix; ++i) naive.access(w.trace[i]);
  const double measured = naive_watch.seconds();
  const double scale = (static_cast<double>(n) / static_cast<double>(prefix)) *
                       (static_cast<double>(distinct) /
                        static_cast<double>(naive.depth()));
  const double basic = measured * scale;
  table.add("basic_stack_prefix", measured,
            "measured on first " + std::to_string(prefix) + " requests");
  table.add("basic_stack_extrapolated", basic,
            "O(N*M) linear extrapolation (estimate)");

  const double top_down = time_profiler(w.trace, 5, UpdateStrategy::kTopDown, 1.0);
  const double backward = time_profiler(w.trace, 5, UpdateStrategy::kBackward, 1.0);
  const double top_down_spatial =
      time_profiler(w.trace, 5, UpdateStrategy::kTopDown, 0.01);
  const double backward_spatial =
      time_profiler(w.trace, 5, UpdateStrategy::kBackward, 0.01);
  table.add("top_down", top_down, "Algorithm 1");
  table.add("backward", backward, "Algorithm 2");
  table.add("top_down_spatial", top_down_spatial, "R = 0.01");
  table.add("backward_spatial", backward_spatial, "R = 0.01");

  // Registry zoo rows: one full pass per registered model.
  for (const auto& info : EstimatorRegistry::instance().list()) {
    if (info.caps.reference_oracle) continue;  // O(N*M); see basic_stack rows
    if (info.caps.sharded) continue;           // see parallel_scaling
    EstimatorOptions options;
    if (info.caps.models_klru) options.set("k", "5");
    double seconds = 0.0;
    run_model(info.name, options, w.trace, {}, &seconds);
    table.add("model:" + info.name, seconds,
              info.caps.models_klru ? "registry defaults, K = 5"
                                    : "registry defaults");
  }

  print_table(table, "Table 5.3: stack update efficiency");
  std::cout << "(paper shape: naive >> top-down > simulation > backward >>\n"
               " spatially sampled variants, spanning several orders of\n"
               " magnitude)\n";
  auto ordering = [&](const std::string& a, double ta, const std::string& b,
                      double tb) {
    claims.check(ta > tb, a + " slower than " + b,
                 format_double(ta / tb, 2) + "x");
  };
  // Measured at scales 0.1/0.3/1: 29x/63x/100x, 11x/8.2x/8.5x and
  // 150x/180x/160x; simulation over backward only 1.4x/2.4x/2.0x.
  ordering("basic_stack_extrapolated", basic, "top_down", top_down);
  ordering("top_down", top_down, "simulation_25_sizes", simulation);
  ordering("backward", backward, "backward_spatial", backward_spatial);
  claims.note("simulation_25_sizes slower than backward", simulation / backward);
  claims.note("top_down_spatial slower than backward_spatial",
              top_down_spatial / backward_spatial);
}

// Table 5.4: running time on the merged "master" MSR trace with spatial
// sampling rate R = 0.001 — KRR with the top-down update, KRR with the
// backward update (averaged over K in {1, 2, 4, 8, 16, 32}), and SHARDS
// (exact-LRU baseline) on the same sampled stream.
//
// After the paper's rows, the table appends one `model:<name>` row per
// registered estimator (via EstimatorRegistry::list(), default options
// plus the paper's R where the model does spatial sampling), so a newly
// registered model is timed on the master trace without touching this
// program. Reference oracles are skipped — O(N*M) on a two-million-record
// trace — and sharded adapters are covered by parallel_scaling.
void table5_4(Claims& claims) {
  const std::size_t n = scaled(2000000);
  MsrMasterGenerator gen(7, /*footprint_scale=*/0.2, /*uniform_size=*/1);
  const auto trace = materialize(gen, n);
  const double rate = paper_rate(trace, 0.001, 2048);
  std::cout << "# Table 5.4: " << n << " requests, " << count_distinct(trace)
            << " distinct objects, R = " << rate << "\n";

  auto avg_time = [&](UpdateStrategy strategy) {
    double total = 0.0;
    for (std::uint32_t k : kSweepKs) total += time_profiler(trace, k, strategy, rate);
    return total / static_cast<double>(kSweepKs.size());
  };

  Table table({"method", "time_sec", "note"});
  const double top_down = avg_time(UpdateStrategy::kTopDown);
  const double backward = avg_time(UpdateStrategy::kBackward);
  table.add("top_down+spatial", top_down, "avg over K in {1..32}");
  table.add("backward+spatial", backward, "avg over K in {1..32}");
  Stopwatch shards_watch;
  ShardsProfiler shards(rate);
  for (const Request& r : trace) shards.access(r);
  (void)shards.mrc();
  const double shards_sec = shards_watch.seconds();
  table.add("SHARDS", shards_sec, "exact-LRU baseline");

  // Registry zoo rows: every registered model on the same master trace,
  // sampled models at the paper's R.
  for (const auto& info : EstimatorRegistry::instance().list()) {
    if (info.caps.reference_oracle) continue;  // O(N*M) at this length
    if (info.caps.sharded) continue;           // see parallel_scaling
    EstimatorOptions options;
    if (info.caps.models_klru) options.set("k", "5");
    // "rate" is a common option key every model accepts; only set it where
    // the capability matrix says the model actually samples spatially.
    const bool rated = info.caps.spatial_sampling;
    if (rated) options.set("rate", std::to_string(rate));
    double seconds = 0.0;
    run_model(info.name, options, trace, {}, &seconds);
    table.add("model:" + info.name, seconds,
              rated ? "registry defaults, paper R" : "registry defaults");
  }

  print_table(table, "Table 5.4: master trace running time");
  std::cout << "(paper shape: backward+spatial is close to SHARDS; top-down\n"
               " is about two times slower)\n";
  // Measured at scales 0.1/0.3/1: 6.6x/6.1x/4.7x (the paper reports ~2x).
  claims.check(top_down > backward, "top_down+spatial slower than backward+spatial",
               format_double(top_down / backward, 2) + "x");
  claims.note("backward+spatial slower than SHARDS", backward / shards_sec);
}

// Figure 5.4: average stack-update overhead, normalized against K = 1, for
// K in {1, 2, 4, 8, 16, 32}, per workload family (YCSB, MSR, Twitter).
// Corollary 1 predicts the expected number of swap positions — and thus the
// update cost — grows roughly linearly in K; the paper observes <= ~4x for
// K <= 16. Both wall time and the measured swap count are reported.
void fig5_4(Claims& claims) {
  const std::size_t n = scaled(200000);
  const std::vector<Family> families = {
      {"YCSB", {make_ycsb_c(0.99, n, 20000), make_ycsb_e(1.5, n, 8000)}},
      {"MSR", {make_msr("src1", n, 15000, 1), make_msr("usr", n, 20000, 1)}},
      {"TW",
       {make_twitter("cluster26.0", n, 15000, 1),
        make_twitter("cluster45.0", n, 20000, 1)}}};

  // One backward-update stack pass: wall seconds and swaps performed.
  auto stack_pass = [](const std::vector<Request>& trace, double k) {
    KrrStackConfig cfg;
    cfg.k = k;
    cfg.strategy = UpdateStrategy::kBackward;
    cfg.seed = 13;
    KrrStack stack(cfg);
    Stopwatch watch;
    for (const Request& r : trace) stack.access(r.key);
    return std::pair{watch.seconds(), static_cast<double>(stack.swaps_performed())};
  };

  Table table({"family", "K", "normalized_time", "normalized_swaps",
               "normalized_time_uncorrected"});
  std::cout << "# Figure 5.4\n";
  std::string not_rising;
  for (const Family& family : families) {
    std::vector<double> times, swaps, times_raw;
    for (std::uint32_t k : kSweepKs) {
      double family_time = 0.0, family_swaps = 0.0, family_raw = 0.0;
      for (const Workload& w : family.workloads) {
        const auto [secs, count] = stack_pass(w.trace, corrected_k(k));
        family_time += secs;
        family_swaps += count;
        // Uncorrected exponent (k, not k^1.4): isolates how much of the
        // growth is the correction inflating the swap count.
        family_raw += stack_pass(w.trace, static_cast<double>(k)).first;
      }
      times.push_back(family_time);
      swaps.push_back(family_swaps);
      times_raw.push_back(family_raw);
    }
    for (std::size_t i = 0; i < times.size(); ++i) {
      table.add(family.name, kSweepKs[i], times[i] / times[0],
                swaps[i] / swaps[0], times_raw[i] / times_raw[0]);
      if (i > 0 && swaps[i] <= swaps[i - 1]) {
        not_rising += ' ' + family.name + " K=" + std::to_string(kSweepKs[i]);
      }
    }
  }
  print_table(table, "Figure 5.4: stack update overhead normalized to K=1");
  std::cout << "(paper shape: overhead grows with K and stays moderate for\n"
               " K <= 16; beyond K ~ 32 LRU approximations like SHARDS become\n"
               " preferable. Our pure stack-update measurement grows closer to\n"
               " the theoretical K*logM swap count than the paper's <= 4x,\n"
               " whose per-access constant costs dominate; see EXPERIMENTS.md)\n";
  claims.check(not_rising.empty(),
               "normalized_swaps rises strictly with K in every family",
               not_rising.empty() ? "strictly rising" : "flat or falling at" + not_rising);
}

// Figure 5.5: validating KRR against a Redis-style cache. For three MSR
// profiles (src2, web, proj), compare MRCs from:
//   * the Redis approximated-LRU simulator (16-slot eviction pool, biased
//     bucket-run sampling, maxmemory-samples = 5),
//   * the in-house ideal K-LRU simulator (K = 5),
//   * KRR + spatial sampling.
// The paper runs real Redis at 50 memory sizes; the substitution (see
// DESIGN.md) simulates Redis's eviction machinery faithfully, including the
// stale-idle eviction pool that makes it deviate slightly from ideal K-LRU.
void fig5_5(Claims& claims) {
  const std::size_t n = scaled(250000);
  const std::size_t n_sizes = 50;
  const std::vector<Workload> workloads = {make_msr("src2", n, 10000, 1),
                                           make_msr("web", n, 12000, 1),
                                           make_msr("proj", n, 15000, 1)};

  std::cout << "# Figure 5.5 series\nworkload,series,size,miss_ratio\n";
  Table summary(
      {"workload", "mae_krr_vs_redis", "mae_sim_vs_redis", "mae_krr_vs_sim"});
  double worst = 0.0;
  for (const Workload& w : workloads) {
    const auto sizes = capacity_grid_objects(w.trace, n_sizes);

    RedisLruConfig redis_cfg;
    redis_cfg.maxmemory_samples = 5;
    redis_cfg.seed = 21;
    const MissRatioCurve redis = sweep_redis(w.trace, sizes, redis_cfg);
    const MissRatioCurve ideal = sweep_klru(w.trace, sizes, 5, true, 23);
    const MissRatioCurve krr_curve =
        run_krr(w.trace, 5, paper_rate(w.trace, 0.001, 4096));

    for (double s : sizes) {
      std::cout << w.name << ",Redis," << s << ',' << redis.eval(s) << '\n';
      std::cout << w.name << ",in_house_sim," << s << ',' << ideal.eval(s) << '\n';
      std::cout << w.name << ",KRR_spatial," << s << ',' << krr_curve.eval(s)
                << '\n';
    }
    const double mae = krr_curve.mae(redis, sizes);
    worst = std::max(worst, mae);
    summary.add(w.name, mae, ideal.mae(redis, sizes), krr_curve.mae(ideal, sizes));
  }
  print_table(summary, "Figure 5.5: Redis validation summary");
  std::cout << "(paper shape: KRR tracks the Redis curves closely; the ideal\n"
               " K-LRU simulator deviates slightly from Redis because Redis's\n"
               " pool-based sampler is not uniformly random)\n";
  // Measured at scales 0.1/0.3/1: max 0.0135/0.0129/0.0147.
  claims.check(worst <= 0.0185, "KRR+spatial vs Redis MAE <= 0.0185 on every trace",
               format_double(worst, 4));
}

// Section 5.6: space cost accounting. The KRR stack costs a fixed number of
// bytes per tracked (sampled) object; with spatial sampling rate R the
// resident overhead relative to the workload's byte working set is
// roughly (per_object_bytes * R) / mean_object_size. This experiment
// reports the measured per-object accounting and the resulting overhead
// percentages for several workloads and sampling rates.
void table5_6(Claims& claims) {
  const std::size_t n = scaled(300000);
  const std::vector<Workload> workloads = {make_msr("src1", n, 30000, 200),
                                           make_twitter("cluster26.0", n, 25000, 0),
                                           make_ycsb_c(0.99, n, 30000, 2, 200)};

  Table table({"workload", "R", "sampled_objects", "model_bytes",
               "workload_bytes", "overhead_percent"});
  for (const Workload& w : workloads) {
    const double wss_bytes = static_cast<double>(working_set_bytes(w.trace));
    for (double rate : {1.0, paper_rate(w.trace, 0.001, 512)}) {
      KrrProfilerConfig cfg;
      cfg.k_sample = 5;
      cfg.sampling_rate = rate;
      cfg.byte_granularity = true;
      KrrProfiler profiler(cfg);
      for (const Request& r : w.trace) profiler.access(r);
      const double model_bytes = static_cast<double>(profiler.space_overhead_bytes());
      table.add(w.name, rate, profiler.stack_depth(), model_bytes, wss_bytes,
                100.0 * model_bytes / wss_bytes);
    }
  }
  print_table(table, "Section 5.6: measured KRR space overhead");

  // The paper's §5.6 headline example, reproduced analytically from the
  // same per-object accounting: 100M distinct 200-byte objects, R = 0.001.
  const double per_object = 72.0;  // 68 B uni-KRR + 4 B size field
  const std::string example =
      format_double(100.0 * (per_object * 0.001) / 200.0, 3);  // % of WSS
  std::cout << "analytic paper example: 100M objects x 200 B, R = 0.001 -> "
            << example << "% of the working set (paper reports 0.036%)\n";
  std::cout << "(paper shape: ~68-72 B per tracked object; with R = 0.001 the\n"
               " overhead is a small fraction of a percent of the working set\n"
               " for realistic object sizes)\n";
  claims.check(example == "0.036", "analytic example gives the paper's 0.036%",
               example + "%");
}

// Ablation: every MRC technique in the repository on one workload —
// accuracy against the appropriate ground truth and one-pass cost.
//
// The model sweep is registry-driven: every MrcEstimator registered in
// EstimatorRegistry runs through the identical feed/finish/mrc loop, scored
// against the ground truth its capability flags select:
//
//  * models_klru (KRR family, naive stack): K-LRU simulation at K = 5 —
//    plus a KRR+spatial row and miniature simulation (the only other
//    technique that can model a non-stack policy).
//  * everything else (exact-LRU family): the exact LRU stack curve; these
//    are additionally scored against the K-LRU truth in the
//    exact_LRU_model row, quantifying §5.3's warning that exact-LRU
//    models mispredict K-LRU on Type A traces.
//
// reference_oracle models (O(M) per access) are skipped — they would take
// hours at bench scale and their accuracy is covered by `ctest -L models`.
// Sharded adapters run here too, with their serial model's knobs, at the
// default S = 1: their MAE must equal the serial model's, and their pass
// time sits next to it.
void ablation_models(Claims& claims) {
  const std::size_t n = scaled(300000);
  const auto w = make_msr("web", n, 15000, 1);  // Type A trace
  const auto sizes = capacity_grid_objects(w.trace, 20);
  const std::uint32_t k = 5;

  std::cout << "# Ablation on " << w.name << ": " << n << " requests, "
            << count_distinct(w.trace) << " objects, K = " << k << "\n\n";

  // ---- ground truths ----
  const MissRatioCurve klru_truth = sweep_klru(w.trace, sizes, k, true, 33);
  const MissRatioCurve lru_truth = lru_mrc(w.trace);

  Table table({"model", "target", "mae", "pass_sec"});

  // Historic knob choices for the baselines, expressed as registry options
  // (same numbers the pre-registry ablation hard-coded).
  const double shards_rate = paper_rate(w.trace, 0.001, 4096);
  std::map<std::string, EstimatorOptions> overrides;
  overrides["shards"].set("rate", format_double(shards_rate, 8));
  overrides["shards_fixed"].set("max_objects", "4096");
  overrides["counter_stacks"].set(
      "interval", std::to_string(std::max<std::uint64_t>(100, n / 400)));
  overrides["mimir"].set("buckets", "128");

  constexpr std::string_view kShardedSuffix = "_sharded";
  const auto serial_name = [&](const std::string& name) {
    return name.ends_with(kShardedSuffix)
               ? name.substr(0, name.size() - kShardedSuffix.size())
               : name;
  };
  std::vector<std::string> skipped;
  std::map<std::string, double> mae_of;
  for (const EstimatorInfo& info : EstimatorRegistry::instance().list()) {
    if (info.caps.reference_oracle) {
      skipped.push_back(info.name);
      continue;
    }
    EstimatorOptions options;
    options.set("k", std::to_string(k));
    if (const auto it = overrides.find(serial_name(info.name)); it != overrides.end()) {
      options.merge(it->second);
    }
    double sec = 0.0;
    const MissRatioCurve curve = run_model(info.name, options, w.trace, sizes, &sec);
    const MissRatioCurve& truth = info.caps.models_klru ? klru_truth : lru_truth;
    const double mae = curve.mae(truth, sizes);
    mae_of[info.name] = mae;
    table.add(info.name, info.caps.models_klru ? "K-LRU" : "LRU", mae, sec);
  }
  const double krr_mae = mae_of.at("krr");
  std::string sharded_mismatch;
  for (const auto& [name, mae] : mae_of) {
    const std::string serial = serial_name(name);
    if (serial != name && mae_of.at(serial) != mae) sharded_mismatch += " " + name;
  }

  // Non-registry techniques and ablation-specific configurations.
  {
    Stopwatch watch;
    const MissRatioCurve curve = run_krr(w.trace, k, shards_rate);
    table.add("krr+spatial", "K-LRU", curve.mae(klru_truth, sizes),
              watch.seconds());
  }
  {
    Stopwatch watch;
    MiniatureConfig cfg;
    cfg.rate = 0.2;
    const MissRatioCurve curve = miniature_klru_mrc(w.trace, sizes, k, cfg);
    table.add("miniature_sim_R0.2", "K-LRU", curve.mae(klru_truth, sizes),
              watch.seconds());
  }
  // The exact-LRU curve scored against the K-LRU truth: the mismatch §5.3
  // warns about.
  const double lru_gap = lru_truth.mae(klru_truth, sizes);
  table.add("exact_LRU_model", "K-LRU", lru_gap, 0.0);

  print_table(table, "Model ablation: accuracy and one-pass cost");
  if (!skipped.empty()) {
    std::cout << "(skipped reference oracles:";
    for (const auto& name : skipped) std::cout << ' ' << name;
    std::cout << " — O(M) per access; covered by ctest -L models)\n";
  }
  std::cout << "(expected shape: krr ~1e-3 on the K-LRU target where the\n"
               " exact_LRU_model is off by the Type A gap; LRU baselines all\n"
               " land near the exact curve on their own target)\n";
  // Measured at scales 0.1/0.3/1: the exact_LRU_model gap is 11.8x/19x/19x
  // krr's MAE.
  claims.check(8.0 * krr_mae < lru_gap,
               "krr K-LRU MAE < 1/8 of the exact_LRU_model gap",
               format_double(krr_mae, 4) + " vs " + format_double(lru_gap, 4));
  claims.check(sharded_mismatch.empty(),
               "every _sharded adapter (S = 1) scores its serial model's MAE",
               sharded_mismatch.empty() ? "all equal" : "differs:" + sharded_mismatch);
}

// Ablation: var-KRR design choices — sizeArray base b in {2, 4, 8, 16}
// versus the exact Fenwick byte tracker. Accuracy is measured as the MRC
// MAE against byte-capacity K-LRU simulation; cost as profiler wall time.
// Larger bases mean fewer accumulators (less maintenance) but wider
// interpolation brackets (more estimation error).
void ablation_sizearray(Claims& claims) {
  const std::size_t n = scaled(200000);
  const std::uint32_t k = 8;
  const std::vector<Workload> workloads = {make_msr("src1", n, 12000, 0),
                                           make_twitter("cluster26.0", n, 10000, 0)};

  Table table({"workload", "variant", "mae_vs_sim", "pass_sec"});
  double worst = 0.0;
  for (const Workload& w : workloads) {
    const auto sizes = capacity_grid_bytes(w.trace, 16);
    const MissRatioCurve truth = sweep_klru(w.trace, sizes, k, true, 17);
    for (std::uint32_t base : {2u, 4u, 8u, 16u}) {
      // var-KRR pass with this sizeArray base.
      Stopwatch watch;
      KrrProfilerConfig cfg;
      cfg.k_sample = k;
      cfg.byte_granularity = true;
      cfg.size_array_base = base;
      KrrProfiler profiler(cfg);
      for (const Request& r : w.trace) profiler.access(r);
      const MissRatioCurve curve = profiler.mrc();
      const double sec = watch.seconds();
      const double mae = curve.mae(truth, sizes);
      worst = std::max(worst, mae);
      table.add(w.name, "sizeArray_b" + std::to_string(base), mae, sec);
    }
    // Reference: same stack, exact Fenwick byte distances.
    Stopwatch watch;
    KrrStackConfig sc;
    sc.k = corrected_k(k);
    sc.track_bytes = true;
    sc.track_bytes_exact = true;
    sc.seed = 11;
    KrrStack stack(sc);
    DistanceHistogram hist;
    for (const Request& r : w.trace) {
      if (stack.access(r.key, r.size).cold) {
        hist.record_infinite();
      } else {
        hist.record(*stack.last_exact_byte_distance());
      }
    }
    const MissRatioCurve curve = hist.to_mrc();
    const double sec = watch.seconds();
    table.add(w.name, "exact_fenwick", curve.mae(truth, sizes), sec);
  }
  print_table(table, "var-KRR ablation: sizeArray base vs exact byte tracking");
  std::cout << "(expected shape: error grows mildly with the base while cost\n"
               " stays flat, one table lookup per move at any base; the exact\n"
               " tracker bounds the achievable accuracy at a higher per-update\n"
               " cost)\n";
  // Measured at scales 0.1/0.3/1: max 0.0018/0.0028/0.0061, each at b16.
  claims.check(worst <= 0.0077, "var-KRR MAE <= 0.0077 at every sizeArray base",
               format_double(worst, 4));
}

// parallel_scaling — throughput scaling of the sharded krr pipeline
// against thread count on a synthetic Zipf trace (zipf:0.9, 2M records x
// KRR_BENCH_SCALE, 100k keys), plus the accuracy cost of sharding: the
// merged MRC's MAE against the serial model on the same trace. Each
// thread count T in {2, 4, 8} gets its own shard count S = T (the CLI
// default); times are medians of 3 runs.
//
// The baseline row (threads=1) is the plain serial model, i.e. the exact
// configuration `krr_cli profile` runs by default, so "speedup" is
// end-user speedup, not sharded-vs-sharded. ablation_models reports the
// MAE and pass time of the other `_sharded` adapters.
void parallel_scaling(Claims& claims) {
  const std::size_t n = scaled(2000000);
  ZipfianGenerator gen(100000, 0.9, 21, /*scrambled=*/true);
  const std::vector<Request> trace = materialize(gen, n);

  EstimatorOptions base_opts;
  base_opts.set("seed", "7");
  auto median_pass = [&](const std::string& model, const EstimatorOptions& o,
                         MissRatioCurve& out) {
    return median_seconds(3, [&] { out = run_model(model, o, trace); });
  };

  // Serial baseline: the default krr_cli profile path.
  MissRatioCurve serial;
  const double serial_secs = median_pass("krr", base_opts, serial);
  const std::vector<double> sizes = evenly_spaced_sizes(serial.max_size(), 40);

  Table table({"model", "threads", "shards", "seconds", "mrec_per_s",
               "speedup", "mae_vs_serial"});
  table.add("krr", 1u, 1u, serial_secs,
            static_cast<double>(n) / serial_secs / 1e6, 1.0, 0.0);
  double worst = 0.0;
  for (unsigned threads = 2; threads <= 8; threads *= 2) {
    MissRatioCurve merged;
    EstimatorOptions eopts = base_opts;
    eopts.set("shards", std::to_string(threads));
    eopts.set("threads", std::to_string(threads));
    const double secs = median_pass("krr_sharded", eopts, merged);
    const double mae = serial.mae(merged, sizes);
    worst = std::max(worst, mae);
    table.add("krr", threads, threads, secs,
              static_cast<double>(n) / secs / 1e6, serial_secs / secs, mae);
  }
  print_table(table, "sharded scaling, model=krr, zipf:0.9 n=" + std::to_string(n));
  std::cout << "hardware_concurrency: "
            << std::thread::hardware_concurrency() << "\n";
  // The sharded-vs-serial drift budget CI's sharded-zoo gate applies.
  claims.check(worst <= 0.01, "sharded krr MAE vs serial <= 0.01 at every T",
               format_double(worst, 4));
}

struct Experiment {
  const char* name;
  void (*run)(Claims&);
};

constexpr Experiment kExperiments[] = {
    {"fig1_1", fig1_1},
    {"table5_1", table5_1},
    {"fig5_1", fig5_1},
    {"fig5_2", fig5_2},
    {"table5_2", table5_2},
    {"fig5_3", fig5_3},
    {"table5_3", table5_3},
    {"table5_4", table5_4},
    {"fig5_4", fig5_4},
    {"fig5_5", fig5_5},
    {"table5_6", table5_6},
    {"ablation_models", ablation_models},
    {"ablation_sizearray", ablation_sizearray},
    {"parallel_scaling", parallel_scaling},
};

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& e : kExperiments) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

int usage() {
  std::cerr << "usage: paper_bench <experiment>...\nexperiments:";
  for (const Experiment& e : kExperiments) std::cerr << ' ' << e.name;
  std::cerr << "\nKRR_BENCH_SCALE (default 1) multiplies every trace length.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Experiment*> selected;
  for (int i = 1; i < argc; ++i) {
    const Experiment* e = find_experiment(argv[i]);
    if (e == nullptr) {
      std::cerr << "paper_bench: unknown experiment '" << argv[i] << "'\n";
      return usage();
    }
    selected.push_back(e);
  }
  if (selected.empty()) return usage();
  try {
    (void)bench_scale();
  } catch (const std::invalid_argument& e) {
    std::cerr << "paper_bench: " << e.what() << '\n';
    return 2;
  }

  int failed = 0;
  for (const Experiment* e : selected) {
    Claims claims(e->name);
    try {
      e->run(claims);
    } catch (const std::exception& ex) {
      std::cerr << "paper_bench: " << e->name << ": " << ex.what() << '\n';
      return 1;
    }
    std::cout << std::endl;
    failed += claims.failed();
  }
  if (failed > 0) {
    std::cerr << "paper_bench: " << failed << " claim(s) failed\n";
    return 1;
  }
  return 0;
}

// bench_snapshot — records the repo's perf baseline as a checked-in JSON
// artifact (BENCH_pr<N>.json), so perf PRs have a number to beat and a
// regression is a diff, not an anecdote.
//
// Everything runs in-process (no shelling out to bench binaries) and is
// deliberately laptop-sized: a full run takes ~1 minute at the default
// scale. KRR_BENCH_SCALE multiplies trace lengths as usual.
//
//   bench_snapshot [--out=BENCH_pr9.json] [--pr=9] [--repeats=3]

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "../bench/bench_common.h"

namespace {

using namespace krr;
using namespace krrbench;

double profile_seconds(const std::vector<Request>& trace, double k, double rate,
                       UpdateStrategy strategy, obs::PipelineMetrics* metrics,
                       int repeats) {
  return median_seconds(repeats, [&] {
    KrrProfilerConfig cfg;
    cfg.k_sample = k;
    cfg.sampling_rate = rate;
    cfg.strategy = strategy;
    cfg.seed = 7;
    KrrProfiler profiler(cfg);
    if (metrics != nullptr) profiler.attach_metrics(metrics);
    for (const Request& r : trace) profiler.access(r);
  });
}

std::string utc_timestamp() {
  char buf[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string out = opts.get_string("out", "BENCH_pr9.json");
  const auto pr = opts.get_int("pr", 9);
  const int repeats = static_cast<int>(opts.get_int("repeats", 3));

  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json("krr-bench-snapshot"));
  root.set("schema_version", obs::Json(std::uint64_t{1}));
  root.set("pr", obs::Json(static_cast<std::int64_t>(pr)));
  root.set("generated_utc", obs::Json(utc_timestamp()));
  root.set("bench_scale", obs::Json(bench_scale()));
  root.set("instrumentation_compiled_in",
           obs::Json(obs::kHotPathInstrumentation));
  root.set("hardware_concurrency",
           obs::Json(std::uint64_t{std::thread::hardware_concurrency()}));

  // 1. End-to-end profile throughput across representative workloads.
  struct Case {
    const char* name;
    std::vector<Request> trace;
    double rate;
  };
  const auto n_zipf = static_cast<std::size_t>(scaled(1000000));
  ZipfianGenerator zipf_hot(100000, 0.9, 21, /*scrambled=*/true);
  ZipfianGenerator zipf_flat(1000000, 0.7, 22, /*scrambled=*/true);
  std::vector<Case> cases;
  cases.push_back({"zipf:0.9 footprint=100k", materialize(zipf_hot, n_zipf), 1.0});
  cases.push_back(
      {"zipf:0.7 footprint=1M R=0.01", materialize(zipf_flat, n_zipf), 0.01});
  cases.push_back(
      {"msr:web", make_msr("web", n_zipf, 200000, 1).trace, 1.0});

  obs::Json throughput = obs::Json::array();
  for (const Case& c : cases) {
    const double secs = profile_seconds(c.trace, 5.0, c.rate,
                                        UpdateStrategy::kBackward, nullptr,
                                        repeats);
    obs::Json row = obs::Json::object();
    row.set("workload", obs::Json(c.name));
    row.set("n", obs::Json(static_cast<std::uint64_t>(c.trace.size())));
    row.set("k", obs::Json(5.0));
    row.set("rate", obs::Json(c.rate));
    row.set("seconds", obs::Json(secs));
    row.set("mrec_per_s",
            obs::Json(static_cast<double>(c.trace.size()) / secs / 1e6));
    throughput.push_back(std::move(row));
    std::printf("throughput %-28s %.3f s (%.3f Mrec/s)\n", c.name, secs,
                static_cast<double>(c.trace.size()) / secs / 1e6);
  }
  root.set("profile_throughput", std::move(throughput));

  // 2. Obs layer self-cost on the hot Zipf trace (the bench_smoke gate's
  // quantity, recorded so the budget has a baseline).
  {
    obs::MetricsRegistry registry;
    obs::PipelineMetrics metrics(registry);
    const std::vector<Request>& trace = cases[0].trace;
    const double detached = profile_seconds(trace, 5.0, 1.0,
                                            UpdateStrategy::kBackward, nullptr,
                                            repeats);
    const double attached = profile_seconds(trace, 5.0, 1.0,
                                            UpdateStrategy::kBackward, &metrics,
                                            repeats);
    obs::Json row = obs::Json::object();
    row.set("trace", obs::Json(cases[0].name));
    row.set("detached_seconds", obs::Json(detached));
    row.set("attached_seconds", obs::Json(attached));
    row.set("overhead_pct", obs::Json((attached / detached - 1.0) * 100.0));
    root.set("obs_overhead", std::move(row));
    std::printf("obs overhead: %.2f%%\n", (attached / detached - 1.0) * 100.0);
  }

  // 3. Update-strategy cost (Fig. 5.4's quantity, smaller trace so the
  // linear strategy finishes).
  {
    const auto n_small = static_cast<std::size_t>(scaled(200000));
    ZipfianGenerator gen(20000, 0.9, 23, /*scrambled=*/true);
    const std::vector<Request> trace = materialize(gen, n_small);
    obs::Json rows = obs::Json::array();
    const struct {
      const char* name;
      UpdateStrategy strategy;
    } strategies[] = {{"backward", UpdateStrategy::kBackward},
                      {"top_down", UpdateStrategy::kTopDown},
                      {"linear", UpdateStrategy::kLinear}};
    for (const auto& s : strategies) {
      const double secs =
          profile_seconds(trace, 5.0, 1.0, s.strategy, nullptr, repeats);
      obs::Json row = obs::Json::object();
      row.set("strategy", obs::Json(s.name));
      row.set("n", obs::Json(static_cast<std::uint64_t>(trace.size())));
      row.set("ns_per_access",
              obs::Json(secs * 1e9 / static_cast<double>(trace.size())));
      rows.push_back(std::move(row));
      std::printf("strategy %-9s %.0f ns/access\n", s.name,
                  secs * 1e9 / static_cast<double>(trace.size()));
    }
    root.set("update_strategies", std::move(rows));
  }

  // 4. Space accounting (§5.6): bytes per tracked object at full rate.
  {
    KrrProfilerConfig cfg;
    cfg.k_sample = 5.0;
    KrrProfiler profiler(cfg);
    for (const Request& r : cases[0].trace) profiler.access(r);
    obs::Json row = obs::Json::object();
    row.set("stack_depth", obs::Json(profiler.stack_depth()));
    row.set("space_overhead_bytes", obs::Json(profiler.space_overhead_bytes()));
    row.set("bytes_per_object",
            obs::Json(static_cast<double>(profiler.space_overhead_bytes()) /
                      static_cast<double>(profiler.stack_depth())));
    root.set("space", std::move(row));
  }

  // 5. Sharded-pipeline scaling on the hot Zipf trace: speedup of
  // krr_sharded over the serial baseline per thread count, and the merged
  // MRC's MAE against serial (the accuracy cost of sharding), plus one
  // shards_sharded row against its own serial baseline. Every run goes
  // through EstimatorRegistry. Numbers are honest to the machine that ran
  // them — see hardware_concurrency above; a 1-core runner records ~1x.
  {
    const std::vector<Request>& trace = cases[0].trace;
    const double serial_secs = profile_seconds(
        trace, 5.0, 1.0, UpdateStrategy::kBackward, nullptr, repeats);
    auto& registry = EstimatorRegistry::instance();
    // threads == 0 runs the serial model; otherwise S=8 over `threads`.
    const auto run_registry =
        [&](const std::string& name,
            unsigned threads) -> std::pair<double, MissRatioCurve> {
      MissRatioCurve curve;
      const double secs = median_seconds(repeats, [&] {
        EstimatorOptions options;
        options.set("seed", "7");
        if (threads != 0) {
          options.set("shards", "8");
          options.set("threads", std::to_string(threads));
        }
        auto est = registry.create(name, options);
        if (!est.is_ok()) {
          std::fprintf(stderr, "%s: %s\n", name.c_str(),
                       est.status().message().c_str());
          std::exit(1);
        }
        for (const Request& r : trace) (*est)->access(r);
        (*est)->finish();
        curve = (*est)->mrc({});
      });
      return {secs, curve};
    };
    obs::Json rows = obs::Json::array();
    const auto add_row = [&](const std::string& model, unsigned threads,
                             double secs, double base_secs, double mae) {
      obs::Json row = obs::Json::object();
      row.set("model", obs::Json(model));
      row.set("threads", obs::Json(std::uint64_t{threads}));
      row.set("shards", obs::Json(std::uint64_t{8}));
      row.set("seconds", obs::Json(secs));
      row.set("mrec_per_s",
              obs::Json(static_cast<double>(trace.size()) / secs / 1e6));
      row.set("speedup_vs_serial", obs::Json(base_secs / secs));
      row.set("mae_vs_serial", obs::Json(mae));
      rows.push_back(std::move(row));
      std::printf(
          "sharded model=%s threads=%u shards=8  %.3f s (%.2fx, mae %.5f)\n",
          model.c_str(), threads, secs, base_secs / secs, mae);
    };
    const MissRatioCurve serial_mrc = run_registry("krr", 0).second;
    const std::vector<double> sizes =
        evenly_spaced_sizes(serial_mrc.max_size(), 40);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      const auto [secs, merged] = run_registry("krr_sharded", threads);
      add_row("krr", threads, secs, serial_secs, serial_mrc.mae(merged, sizes));
    }
    const auto [shards_serial_secs, shards_serial_mrc] =
        run_registry("shards", 0);
    const auto [shards_secs, shards_mrc] = run_registry("shards_sharded", 4);
    const std::vector<double> shards_sizes =
        evenly_spaced_sizes(shards_serial_mrc.max_size(), 40);
    add_row("shards", 4, shards_secs, shards_serial_secs,
            shards_serial_mrc.mae(shards_mrc, shards_sizes));
    obs::Json section = obs::Json::object();
    section.set("workload", obs::Json(cases[0].name));
    section.set("serial_seconds", obs::Json(serial_secs));
    section.set("rows", std::move(rows));
    root.set("parallel_scaling", std::move(section));
  }

  // 6. Model zoo (the estimator registry, PR 4): per-model one-pass wall
  // time and MAE against the simulated K-LRU cache on a medium Zipf trace.
  // Gives every registered estimator a recorded perf+accuracy baseline;
  // reference_oracle models are skipped (O(M) per access).
  {
    const auto n_zoo = static_cast<std::size_t>(scaled(200000));
    ZipfianGenerator gen(20000, 0.9, 24, /*scrambled=*/true);
    const std::vector<Request> trace = materialize(gen, n_zoo);
    const auto sizes = capacity_grid_objects(trace, 20);
    const MissRatioCurve klru_truth = sweep_klru(trace, sizes, 5, true, 33);
    auto& registry = EstimatorRegistry::instance();
    obs::Json rows = obs::Json::array();
    for (const EstimatorInfo& info : registry.list()) {
      if (info.caps.reference_oracle) continue;
      MissRatioCurve curve;
      const double secs = median_seconds(repeats, [&] {
        EstimatorOptions options;
        options.set("k", "5");
        auto est = registry.create(info.name, options);
        if (!est.is_ok()) {
          std::fprintf(stderr, "%s: %s\n", info.name.c_str(),
                       est.status().message().c_str());
          std::exit(1);
        }
        for (const Request& r : trace) (*est)->access(r);
        (*est)->finish();
        curve = (*est)->mrc(sizes);
      });
      obs::Json row = obs::Json::object();
      row.set("model", obs::Json(info.name));
      row.set("policy", obs::Json(info.policy));
      row.set("models_klru", obs::Json(info.caps.models_klru));
      row.set("seconds", obs::Json(secs));
      row.set("mrec_per_s",
              obs::Json(static_cast<double>(trace.size()) / secs / 1e6));
      row.set("mae_vs_klru", obs::Json(curve.mae(klru_truth, sizes)));
      rows.push_back(std::move(row));
      std::printf("model_zoo %-14s %.3f s (mae vs K-LRU %.5f)\n",
                  info.name.c_str(), secs, curve.mae(klru_truth, sizes));
    }
    obs::Json section = obs::Json::object();
    section.set("workload", obs::Json("zipf:0.9 footprint=20k"));
    section.set("n", obs::Json(static_cast<std::uint64_t>(trace.size())));
    section.set("k", obs::Json(5.0));
    section.set("rows", std::move(rows));
    root.set("model_zoo", std::move(section));
  }

  // 7. Run-lifecycle governance (PR 6): what the governor's limbs cost on
  // the krr model. (a) a governed run under a memory budget tight enough
  // to force degradation, against the ungoverned baseline; (b) checkpoint
  // save/load round-trip time and snapshot size mid-run; (c) a governed
  // run with a checkpoint cadence, so the stride-gated checkpoint limb has
  // a recorded cost too.
  {
    const auto n_gov = static_cast<std::size_t>(scaled(200000));
    ZipfianGenerator gen(20000, 0.9, 25, /*scrambled=*/true);
    const std::vector<Request> trace = materialize(gen, n_gov);
    auto& registry = EstimatorRegistry::instance();
    const auto make_krr = [&registry]() {
      EstimatorOptions options;
      options.set("k", "5");
      auto est = registry.create("krr", options);
      if (!est.is_ok()) {
        std::fprintf(stderr, "krr: %s\n", est.status().message().c_str());
        std::exit(1);
      }
      return std::move(*est);
    };

    // Ungoverned baseline, and the peak footprint the budget is set from.
    std::uint64_t full_bytes = 0;
    const double ungoverned = median_seconds(repeats, [&] {
      auto est = make_krr();
      for (const Request& r : trace) est->access(r);
      est->finish();
      full_bytes = est->space_overhead_bytes();
    });

    // Governed under half the ungoverned footprint: forces real degrade
    // steps so the per-check and per-step costs are measured, not idle.
    const std::uint64_t budget = full_bytes / 2;
    GovernanceReport gov_report;
    const double governed = median_seconds(repeats, [&] {
      auto est = make_krr();
      RunGovernorConfig gcfg;
      gcfg.max_stack_bytes = budget;
      RunGovernor governor(gcfg, est.get());
      for (const Request& r : trace) {
        est->access(r);
        if (!governor.on_access()) break;
      }
      governor.finalize();
      est->finish();
      gov_report = governor.report();
    });

    // Checkpoint round trip at the halfway point of the run.
    auto ckpt_est = make_krr();
    for (std::size_t i = 0; i < trace.size() / 2; ++i)
      ckpt_est->access(trace[i]);
    std::string payload;
    const double save_secs = median_seconds(repeats, [&] {
      payload.clear();
      const Status s = ckpt_est->save_state(&payload);
      if (!s.is_ok()) {
        std::fprintf(stderr, "save_state: %s\n", s.message().c_str());
        std::exit(1);
      }
    });
    auto restored = make_krr();
    const double load_secs = median_seconds(repeats, [&] {
      const Status s = restored->load_state(payload);
      if (!s.is_ok()) {
        std::fprintf(stderr, "load_state: %s\n", s.message().c_str());
        std::exit(1);
      }
    });

    // Governed run with a checkpoint cadence (4 snapshots across the run);
    // the report's checkpoint_seconds is the limb's total in-run cost.
    GovernanceReport ckpt_report;
    const double governed_ckpt = median_seconds(repeats, [&] {
      auto est = make_krr();
      RunGovernorConfig gcfg;
      gcfg.checkpoint_every = trace.size() / 4;
      gcfg.checkpoint_fn =
          [&est](std::uint64_t) -> StatusOr<std::uint64_t> {
        std::string snapshot;
        const Status s = est->save_state(&snapshot);
        if (!s.is_ok()) return s;
        return static_cast<std::uint64_t>(snapshot.size());
      };
      RunGovernor governor(gcfg, est.get());
      for (const Request& r : trace) {
        est->access(r);
        if (!governor.on_access()) break;
      }
      governor.finalize();
      est->finish();
      ckpt_report = governor.report();
    });

    obs::Json section = obs::Json::object();
    section.set("workload", obs::Json("zipf:0.9 footprint=20k"));
    section.set("model", obs::Json("krr"));
    section.set("n", obs::Json(static_cast<std::uint64_t>(trace.size())));
    section.set("ungoverned_seconds", obs::Json(ungoverned));
    section.set("governed_seconds", obs::Json(governed));
    section.set("governed_overhead_pct",
                obs::Json((governed / ungoverned - 1.0) * 100.0));
    section.set("budget_bytes", obs::Json(budget));
    section.set("checks", obs::Json(gov_report.checks));
    section.set("degrade_steps", obs::Json(gov_report.degrade_steps));
    section.set("peak_space_bytes", obs::Json(gov_report.peak_space_bytes));
    section.set("budget_exhausted", obs::Json(gov_report.budget_exhausted));
    obs::Json ckpt = obs::Json::object();
    ckpt.set("payload_bytes",
             obs::Json(static_cast<std::uint64_t>(payload.size())));
    ckpt.set("save_seconds", obs::Json(save_secs));
    ckpt.set("load_seconds", obs::Json(load_secs));
    ckpt.set("governed_seconds", obs::Json(governed_ckpt));
    ckpt.set("checkpoints_written",
             obs::Json(ckpt_report.checkpoints_written));
    ckpt.set("in_run_checkpoint_seconds",
             obs::Json(ckpt_report.checkpoint_seconds));
    section.set("checkpoint", std::move(ckpt));
    root.set("governance", std::move(section));
    std::printf(
        "governance: governed %.2f%% over ungoverned, %llu degrade steps; "
        "checkpoint %zu bytes, save %.4f s, load %.4f s\n",
        (governed / ungoverned - 1.0) * 100.0,
        static_cast<unsigned long long>(gov_report.degrade_steps),
        payload.size(), save_secs, load_secs);
  }

  // 8. Checkpoint round trip across the zoo (PR 9): for every model that
  // declares caps.checkpoint, save mid-run, load into a fresh estimator,
  // and record snapshot size, save/load time, and whether the resumed run
  // reproduces the uninterrupted curve exactly. Sharded adapters exercise
  // the composite quiesce-then-snapshot path (DESIGN.md §13).
  {
    const auto n_ckpt = static_cast<std::size_t>(scaled(100000));
    ZipfianGenerator gen(10000, 0.9, 26, /*scrambled=*/true);
    const std::vector<Request> trace = materialize(gen, n_ckpt);
    const std::size_t cut = trace.size() / 2;
    auto& registry = EstimatorRegistry::instance();
    obs::Json rows = obs::Json::array();
    for (const EstimatorInfo& info : registry.list()) {
      if (!info.caps.checkpoint) continue;
      const auto make_est = [&] {
        EstimatorOptions options;
        options.set("k", "5");
        options.set("seed", "7");
        if (info.caps.sharded) {
          options.set("shards", "4");
          options.set("threads", "2");
        }
        auto est = registry.create(info.name, options);
        if (!est.is_ok()) {
          std::fprintf(stderr, "%s: %s\n", info.name.c_str(),
                       est.status().message().c_str());
          std::exit(1);
        }
        return std::move(*est);
      };

      // Uninterrupted reference curve.
      auto reference = make_est();
      for (const Request& r : trace) reference->access(r);
      reference->finish();
      const MissRatioCurve ref_curve = reference->mrc({});
      const std::vector<double> sizes =
          evenly_spaced_sizes(ref_curve.max_size(), 40);

      // Mid-run save (idempotent, so it can be repeated for the median).
      auto donor = make_est();
      for (std::size_t i = 0; i < cut; ++i) donor->access(trace[i]);
      std::string payload;
      const double save_secs = median_seconds(repeats, [&] {
        payload.clear();
        const Status s = donor->save_state(&payload);
        if (!s.is_ok()) {
          std::fprintf(stderr, "%s save_state: %s\n", info.name.c_str(),
                       s.message().c_str());
          std::exit(1);
        }
      });

      // Load requires a fresh estimator, so each repeat creates one.
      const double load_secs = median_seconds(repeats, [&] {
        auto fresh = make_est();
        const Status s = fresh->load_state(payload);
        if (!s.is_ok()) {
          std::fprintf(stderr, "%s load_state: %s\n", info.name.c_str(),
                       s.message().c_str());
          std::exit(1);
        }
      });

      // Resume the restored estimator and check the curve is reproduced.
      auto resumed = make_est();
      if (!resumed->load_state(payload).is_ok()) std::exit(1);
      for (std::size_t i = cut; i < trace.size(); ++i)
        resumed->access(trace[i]);
      resumed->finish();
      const MissRatioCurve resumed_curve = resumed->mrc({});
      const double resume_mae = ref_curve.mae(resumed_curve, sizes);

      obs::Json row = obs::Json::object();
      row.set("model", obs::Json(info.name));
      row.set("sharded", obs::Json(info.caps.sharded));
      row.set("payload_bytes",
              obs::Json(static_cast<std::uint64_t>(payload.size())));
      row.set("save_seconds", obs::Json(save_secs));
      row.set("load_seconds", obs::Json(load_secs));
      row.set("resume_mae_vs_uninterrupted", obs::Json(resume_mae));
      row.set("resume_bit_identical", obs::Json(resume_mae == 0.0));
      rows.push_back(std::move(row));
      std::printf(
          "checkpoint %-20s %7zu bytes, save %.5f s, load %.5f s, "
          "resume mae %.6f\n",
          info.name.c_str(), payload.size(), save_secs, load_secs, resume_mae);
    }
    obs::Json section = obs::Json::object();
    section.set("workload", obs::Json("zipf:0.9 footprint=10k"));
    section.set("n", obs::Json(static_cast<std::uint64_t>(trace.size())));
    section.set("cut", obs::Json(static_cast<std::uint64_t>(cut)));
    section.set("rows", std::move(rows));
    root.set("checkpoint_round_trip", std::move(section));
  }

  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  root.dump(os, 0);
  os << '\n';
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

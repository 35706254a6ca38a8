// bench_parallel_scaling — throughput scaling of the sharded profiling
// pipeline against thread count on a synthetic Zipf trace, plus the
// accuracy cost of sharding: the merged MRC's MAE against the serial model
// on the same trace.
//
//   bench_parallel_scaling [--model=krr] [--n=2000000] [--footprint=100000]
//                          [--alpha=0.9] [--repeats=3] [--shards=0]
//                          [--max-threads=8]
//
// --model selects which estimator scales: any registry model with a
// `<model>_sharded` adapter (krr, shards, shards_fixed, aet) runs its
// serial form as the baseline and the ShardedEstimator rows above it, all
// through EstimatorRegistry, so every model's fan-out overhead is measured
// on the same footing.
//
// --shards=0 (default) gives every thread count its own shard count
// (S = T, the CLI default); a fixed --shards=S instead holds the model
// constant — then every row's MRC is identical by construction and only
// the wall clock varies. KRR_BENCH_SCALE multiplies --n as usual.
//
// The baseline row (threads=1) is the plain serial model, i.e. the exact
// configuration `krr_cli profile --model=<name>` runs by default, so
// "speedup" is end-user speedup, not sharded-vs-sharded.

#include <thread>

#include "bench_common.h"

using namespace krr;
using namespace krrbench;

namespace {

std::unique_ptr<MrcEstimator> make_estimator(const std::string& name,
                                             const EstimatorOptions& eopts) {
  auto created = EstimatorRegistry::instance().create(name, eopts);
  if (!created.is_ok()) throw StatusError(created.status());
  return std::move(*created);
}

double registry_seconds(const std::vector<Request>& trace,
                        const std::string& name, const EstimatorOptions& eopts,
                        int repeats, MissRatioCurve* out_mrc) {
  return median_seconds(repeats, [&] {
    auto est = make_estimator(name, eopts);
    for (const Request& r : trace) est->access(r);
    est->finish();
    if (out_mrc != nullptr) *out_mrc = est->mrc({});
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string model = opts.get_string("model", "krr");
  const auto n = static_cast<std::size_t>(
      scaled(static_cast<std::uint64_t>(opts.get_int("n", 2000000))));
  const auto footprint =
      static_cast<std::uint64_t>(opts.get_int("footprint", 100000));
  const double alpha = opts.get_double("alpha", 0.9);
  const int repeats = static_cast<int>(opts.get_int("repeats", 3));
  const auto fixed_shards =
      static_cast<std::uint32_t>(opts.get_int("shards", 0));
  const auto max_threads =
      static_cast<unsigned>(opts.get_int("max-threads", 8));

  const std::string sharded_model = model + "_sharded";
  if (!EstimatorRegistry::instance().contains(sharded_model)) {
    std::cerr << "model '" << model
              << "' has no sharded adapter (see krr_cli models)\n";
    return 2;
  }

  ZipfianGenerator gen(footprint, alpha, 21, /*scrambled=*/true);
  const std::vector<Request> trace = materialize(gen, n);

  EstimatorOptions base_opts;
  base_opts.set("seed", "7");

  // Serial baseline: the default krr_cli profile path for this model.
  MissRatioCurve serial;
  const double serial_secs =
      registry_seconds(trace, model, base_opts, repeats, &serial);
  const std::vector<double> sizes = evenly_spaced_sizes(serial.max_size(), 40);

  Table table({"model", "threads", "shards", "seconds", "mrec_per_s",
               "speedup", "mae_vs_serial"});
  table.add(model, 1u, 1u, serial_secs,
            static_cast<double>(n) / serial_secs / 1e6, 1.0, 0.0);
  for (unsigned threads = 2; threads <= max_threads; threads *= 2) {
    const std::uint32_t shards = fixed_shards == 0 ? threads : fixed_shards;
    MissRatioCurve merged;
    EstimatorOptions eopts = base_opts;
    eopts.set("shards", std::to_string(shards));
    eopts.set("threads", std::to_string(threads));
    const double secs =
        registry_seconds(trace, sharded_model, eopts, repeats, &merged);
    table.add(model, threads, shards, secs,
              static_cast<double>(n) / secs / 1e6, serial_secs / secs,
              serial.mae(merged, sizes));
  }
  print_table(table, "sharded scaling, model=" + model + ", zipf:" +
                         format_double(alpha, 2) + " n=" + std::to_string(n));
  std::cout << "hardware_concurrency: "
            << std::thread::hardware_concurrency() << "\n";
  return 0;
}

// Sampling-size advisor: the DLRU-style use case (Wang et al., MEMSYS '20)
// the paper motivates — because K-LRU caches can reconfigure K online, an
// operator wants to know, per workload, whether K matters at all (Type A vs
// Type B, Fig. 5.2) and what the smallest adequate K is. KRR answers with
// one cheap pass per K instead of one simulation per (K, cache size) pair.
//
//   ./build/examples/sampling_size_advisor [--workload=msr_web|msr_usr|ycsb_e]
//                                          [--cache_fraction=0.3]

#include <cstdio>
#include <iostream>
#include <memory>

#include "krr.h"

namespace {

std::unique_ptr<krr::TraceGenerator> make_workload(const std::string& name) {
  if (name.rfind("msr_", 0) == 0) {
    return std::make_unique<krr::MsrGenerator>(krr::msr_profile(name.substr(4)),
                                               /*seed=*/1, 15000, 1);
  }
  if (name == "ycsb_e") {
    return std::make_unique<krr::YcsbWorkloadE>(8000, 1.5, /*seed=*/1);
  }
  if (name == "ycsb_c") {
    return std::make_unique<krr::YcsbWorkloadC>(20000, 0.99, /*seed=*/1);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const krr::Options opts(argc, argv);
  const std::string name = opts.get_string("workload", "msr_web");
  const double fraction = opts.get_double("cache_fraction", 0.3);
  const auto requests = static_cast<std::size_t>(opts.get_int("requests", 300000));

  auto gen = make_workload(name);
  const auto trace = krr::materialize(*gen, requests);
  const auto wss = static_cast<double>(krr::count_distinct(trace));
  const double cache_size = fraction * wss;
  std::printf("workload %s: %zu requests, %.0f objects; cache = %.0f objects\n\n",
              gen->name().c_str(), trace.size(), wss, cache_size);

  // One KRR pass per K; the K=32 curve stands in for exact LRU.
  const std::vector<std::uint32_t> ks = {1, 2, 4, 8, 16, 32};
  std::vector<krr::MissRatioCurve> curves;
  for (std::uint32_t k : ks) {
    krr::KrrProfilerConfig cfg;
    cfg.k_sample = k;
    krr::KrrProfiler profiler(cfg);
    for (const krr::Request& r : trace) profiler.access(r);
    curves.push_back(profiler.mrc());
  }

  krr::Table table({"K", "predicted_miss_ratio"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    table.add(ks[i], curves[i].eval(cache_size));
  }
  table.print(std::cout);

  const auto sizes = krr::evenly_spaced_sizes(wss, 16);
  const double spread = curves.front().max_error(curves.back(), sizes);
  std::printf("\nmax spread between K=1 and K=32 curves: %.4f\n", spread);
  // Same Type A threshold as `paper_bench fig5_2`.
  if (spread < 0.05) {
    std::printf("=> Type B workload: K barely matters. Use a small K (1-2)\n"
                "   to minimize eviction sampling cost.\n");
  } else {
    // Smallest K whose curve is within 0.01 of the K=32 (near-LRU) curve
    // at the operating point.
    const double lru_like = curves.back().eval(cache_size);
    std::uint32_t best_k = 32;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (curves[i].eval(cache_size) - lru_like <= 0.01) {
        best_k = ks[i];
        break;
      }
    }
    std::printf("=> Type A workload: K moves the miss ratio. Smallest K within\n"
                "   0.01 of the near-LRU curve at this cache size: K = %u\n",
                best_k);
  }
  return 0;
}

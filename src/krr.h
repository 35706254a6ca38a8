#pragma once

/// Umbrella header for the krr library: efficient modeling of random
/// sampling-based LRU caches (KRR stack algorithm, ICPP '21).
///
/// Typical use:
///
///   #include "krr.h"
///
///   krr::KrrProfilerConfig cfg;
///   cfg.k_sample = 5;          // Redis's default maxmemory-samples
///   cfg.sampling_rate = 0.001; // SHARDS-style spatial sampling
///   krr::KrrProfiler profiler(cfg);
///   for (const krr::Request& r : trace) profiler.access(r);
///   krr::MissRatioCurve mrc = profiler.mrc();

#include "baselines/aet.h"
#include "baselines/counter_stacks.h"
#include "baselines/hotl.h"
#include "baselines/hyperloglog.h"
#include "baselines/lru_stack.h"
#include "baselines/mimir.h"
#include "baselines/naive_stack.h"
#include "baselines/olken_tree.h"
#include "baselines/priority_stack.h"
#include "baselines/shards.h"
#include "baselines/shards_fixed.h"
#include "baselines/statstack.h"
#include "core/checkpoint.h"
#include "core/dlru.h"
#include "core/estimator.h"
#include "core/governor.h"
#include "core/krr_stack.h"
#include "core/profiler.h"
#include "core/sharded_estimator.h"
#include "core/size_tracker.h"
#include "core/spatial_filter.h"
#include "core/swap_sampler.h"
#include "core/windowed_profiler.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/klru_cache.h"
#include "sim/lru_cache.h"
#include "sim/miniature.h"
#include "sim/redis_cache.h"
#include "sim/sampled_priority_cache.h"
#include "sim/sweep.h"
#include "trace/generator.h"
#include "trace/msr.h"
#include "trace/request.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "trace/twitter.h"
#include "trace/workload_factory.h"
#include "trace/ycsb.h"
#include "trace/zipf.h"
#include "util/crc32.h"
#include "util/faultpoint.h"
#include "util/histogram.h"
#include "util/mrc.h"
#include "util/options.h"
#include "util/parallel.h"
#include "util/prng.h"
#include "util/retry.h"
#include "util/reuse_histogram.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"

// krr_cli — command-line front end for the library.
//
//   krr_cli workloads
//   krr_cli models   [--format=table|names|json]
//   krr_cli generate --workload=msr:src1 --n=1000000 --out=trace.bin
//   krr_cli profile  --trace=trace.bin [--model=krr] --k=5 [--rate=0.001]
//                    [--bytes] [--strategy=backward|top_down|linear]
//                    [--no-correction] [--quantum=Q] [--max-stack-mb=64]
//                    [--model-opts=key=val,...] [--out=mrc.csv]
//                    [--threads=N] [--shards=S]
//                    [--metrics-out=FILE] [--format=json|table]
//                    [--progress[=SECS]] [--trace-out=FILE]
//                    [--checkpoint-out=PATH] [--checkpoint-every=N]
//                    [--resume-from=PATH] [--deadline-secs=S]
//
// Every MRC model is a registered MrcEstimator: `models` lists the
// registry (name, policy, capability flags, model-specific options), and
// `profile --model=<name>` runs any of them through the same pipeline.
// Shared flags (--k, --rate, --strategy, ...) map onto the common option
// keys every estimator accepts; model-specific knobs go through
// --model-opts=key=val,... and are validated against the model's declared
// option keys. The default --model=krr is bit-identical to the
// pre-registry profiler.
//
// Parallelism: --threads=N (default 1) profiles on N shard-worker threads
// fed from the reader thread; --shards=S (default: N) controls the hash
// partition count independently of the thread count, and the MRC depends
// only on S, never on N. For --model=krr the flags imply krr_sharded when
// N > 1 or S > 1 (the default --threads=1 --shards=1 runs the serial
// profiler unchanged, bit-identical output). Every other model with a
// `<model>_sharded` registry adapter (shards, shards_fixed, aet) is routed
// through that adapter whenever the flags are given — including at S=1
// T=1, where the adapter's output is byte-identical to the serial model —
// and models without one reject the flags as a usage error. `compare`
// applies the same routing (one resolver) to every model in --models
// (display names stay the base names).
//   krr_cli simulate --trace=trace.bin --policy=klru --k=5 --sizes=20
//   krr_cli compare  --trace=trace.bin --models=krr,shards,aet --k=5
//                    [--sizes=20] [--rate=] [--strategy=] [--no-correction]
//                    [--quantum=] [--format=table|csv|json] [--progress]
//                    [--convergence-out=FILE] [--convergence-every=N]
//
// Every command streams its input in 64Ki-record blocks through one reader
// (a transient read error reopens the file and resumes after the last
// record delivered). profile makes one pass, holding the model but never
// the trace; compare makes two: pass 1 feeds every requested estimator,
// pass 2 runs the ground-truth K-LRU simulation at each grid size, then a
// per-model MAE is reported. generate and simulate collect their pass.
//
// Observability: --metrics-out writes the full telemetry snapshot
// (counters, log-scale histograms, phase timings, run report) as JSON (or
// a human table with --format=table); --metrics-out=- sends it to stdout
// and suppresses the MRC CSV unless --out= redirects it, so stdout stays
// machine-parseable. --progress prints a heartbeat line to stderr every
// SECS seconds (default 2) plus a final summary. --trace-out (profile)
// records a span/event timeline — CLI phases, governor actions, per-shard
// drain lanes — as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing. --convergence-out (compare) snapshots each model's
// curve every --convergence-every records of pass 1 and scores the frozen
// curves against the final truth, producing MAE-vs-records series.
//
// Every subcommand also accepts --workload=<spec> --n=<count> in place of
// --trace, generating the trace block by block on the fly (--seed,
// --footprint, --uniform-size configure the generator; a second pass
// regenerates it from the same seed).
//
// Trace ingestion is fault tolerant by default: damaged records and blocks
// are skipped and counted (up to --max-bad-records, default 1024), and the
// skip/corruption accounting is printed to stderr. --strict fails fast on
// the first sign of corruption instead.
//
// Run-lifecycle governance (profile): --max-stack-mb holds the model under
// a memory budget via its degradation hooks (models without the
// `governed_memory` capability reject the flag as a usage error);
// --deadline-secs finishes early with a partial MRC (exit 4);
// --checkpoint-out/--checkpoint-every write periodic CRC-validated
// snapshots and --resume-from continues from one, byte-identically
// (models with the `checkpoint` capability only).
//
// Exit codes (stable contract):
//   0  success
//   1  runtime failure (I/O error, out of resources, internal error)
//   2  usage error (unknown command/flag/model, bad option value)
//   3  corrupt input rejected (strict mode, or the --max-bad-records
//      budget was exhausted in the default skip mode; also a corrupt
//      checkpoint passed to --resume-from)
//   4  deadline reached: the run finished early and the curve/report are
//      partial (valid over the processed prefix)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "krr.h"
#include "trace/workload_factory.h"

namespace {

using namespace krr;

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: krr_cli <workloads|models|generate|profile|simulate|"
               "compare> [--options]\n"
               "  workloads                      list workload specs\n"
               "  models    [--format=table|names|json]   list MRC estimators\n"
               "  generate  --workload= --n= --out=   write a trace file\n"
               "  profile   --trace=|--workload= [--model=krr] --k= [--rate=]\n"
               "            [--bytes] [--strategy=] [--no-correction]\n"
               "            [--quantum=] [--max-stack-mb=]\n"
               "            [--model-opts=key=val,...]\n"
               "            [--threads=N] [--shards=S]\n"
               "            [--out=] [--metrics-out=] [--format=json|table]\n"
               "            [--progress[=secs]] [--trace-out=FILE]\n"
               "            [--checkpoint-out=] [--checkpoint-every=N]\n"
               "            [--resume-from=] [--deadline-secs=S]\n"
               "            [--shard-recovery=off|replay|rescale]\n"
               "            [--replay-journal-records=N]\n"
               "            [--checkpoint-retries=N]\n"
               "  simulate  --trace=|--workload= --policy=klru|redis|lru\n"
               "            [--k=] [--sizes=]\n"
               "  compare   --trace=|--workload= [--models=krr,shards,...]\n"
               "            --k= [--sizes=] [--rate=] [--strategy=]\n"
               "            [--no-correction] [--quantum=]\n"
               "            [--target=klru|lru|auto]\n"
               "            [--format=table|csv|json] [--progress[=secs]]\n"
               "            [--threads=N] [--shards=S]\n"
               "            [--convergence-out=FILE] [--convergence-every=N]\n"
               "ingestion:  [--strict] [--recovery=strict|skip|best-effort]\n"
               "            [--max-bad-records=N] [--format=v1|v2]\n"
               "            [--read-retries=N]\n"
               "faults:     [--fault-plan=point[#detail]@hit=N|every=K|once;...]\n"
               "            (or KRR_FAULT_PLAN env; flag wins)\n"
               "exit codes: 0 ok, 1 runtime failure, 2 usage,\n"
               "            3 corrupt input (strict mode or bad-record "
               "budget exhausted),\n"
               "            4 deadline reached (partial results)\n");
}

[[noreturn]] void usage(const std::string& error) { throw UsageError(error); }

/// A record or object count flag: negative is a usage error.
std::uint64_t count_flag(const Options& opts, const std::string& name,
                         std::int64_t def) {
  const auto v = opts.get_int(name, def);
  if (v < 0) usage("--" + name + " must be >= 0");
  return static_cast<std::uint64_t>(v);
}

TraceReaderOptions reader_options(const Options& opts) {
  TraceReaderOptions ro;
  ro.policy = RecoveryPolicy::kSkipAndCount;
  const std::string recovery = opts.get_string("recovery", "");
  if (!recovery.empty()) {
    if (recovery == "strict") {
      ro.policy = RecoveryPolicy::kStrict;
    } else if (recovery == "skip") {
      ro.policy = RecoveryPolicy::kSkipAndCount;
    } else if (recovery == "best-effort") {
      ro.policy = RecoveryPolicy::kBestEffort;
    } else {
      usage("unknown --recovery (use strict, skip or best-effort)");
    }
  }
  if (opts.has("strict")) ro.policy = RecoveryPolicy::kStrict;
  ro.max_bad_records = count_flag(opts, "max-bad-records", 1024);
  // A transient (kIoError) read reopens the file and resumes after the last
  // record delivered; the default of 3 attempts rides out open races and
  // injected trace.read faults.
  const auto read_retries = opts.get_int("read-retries", 3);
  if (read_retries < 1) usage("--read-retries must be >= 1");
  ro.read_retry.max_attempts = static_cast<unsigned>(read_retries);
  ro.read_retry.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  return ro;
}

void report_ingest(const TraceReadReport& report) {
  if (report.records_skipped == 0 && report.checksum_failures == 0 &&
      !report.truncated_tail) {
    return;
  }
  std::fprintf(stderr,
               "ingest: %llu records read, %llu skipped, %llu checksum "
               "failures%s\n",
               static_cast<unsigned long long>(report.records_read),
               static_cast<unsigned long long>(report.records_skipped),
               static_cast<unsigned long long>(report.checksum_failures),
               report.truncated_tail ? ", truncated tail" : "");
}

/// Hands records [skip, n) of a sequential source to `sink` in blocks of
/// kStreamBlockRecords; returns how many records it drew from `next`.
template <class Next>
std::uint64_t feed_blocks(std::uint64_t n, std::uint64_t skip, Next&& next,
                          const TraceBlockSink& sink) {
  std::uint64_t drawn = 0;
  for (; drawn < std::min(skip, n); ++drawn) next();
  std::vector<Request> block;
  while (drawn < n) {
    block.clear();
    for (; drawn < n && block.size() < kStreamBlockRecords; ++drawn) {
      block.push_back(next());
    }
    if (!sink(block)) break;
  }
  return drawn;
}

/// The one input path of every subcommand. Streams --trace (a binary trace
/// through stream_trace_file; a CSV trace, which `generate --out=x.csv`
/// writes, parsed once) or --workload (--n generated records) to `sink` in
/// blocks of kStreamBlockRecords, after skipping the first `skip` records:
/// the ones a --resume-from checkpoint already processed. Prints the
/// ingest summary; a failed read, or an input shorter than `skip`, throws.
TraceReadReport stream_input(const Options& opts, std::uint64_t skip,
                             const TraceBlockSink& sink,
                             obs::Tracer* tracer = nullptr) {
  // Validate the recovery flags even when the input is generated rather than
  // read from disk — a typo'd --recovery= must be a usage error either way.
  TraceReaderOptions ro = reader_options(opts);
  ro.tracer = tracer;
  TraceReadReport report;
  const std::string path = opts.get_string("trace", "");
  if (path.size() > 4 && path.ends_with(".csv")) {
    std::ifstream is(path);
    if (!is) throw StatusError(io_error("cannot open for read: " + path));
    // The recovery policy applies to malformed rows just like binary damage.
    auto csv = read_trace_csv(is, ro, &report);
    report_ingest(report);
    if (!csv.is_ok()) throw StatusError(csv.status());
    std::size_t i = 0;
    feed_blocks(csv->size(), skip, [&] { return (*csv)[i++]; }, sink);
  } else if (!path.empty()) {
    const Status status = stream_trace_file(path, ro, skip, sink, &report);
    report_ingest(report);
    if (!status.is_ok()) throw StatusError(status);
  } else {
    const std::string spec = opts.get_string("workload", "");
    if (spec.empty()) usage("need --trace=<file> or --workload=<spec>");
    WorkloadFactoryOptions wf;
    wf.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    wf.footprint = count_flag(opts, "footprint", 0);
    wf.uniform_size =
        static_cast<std::uint32_t>(count_flag(opts, "uniform-size", 0));
    const std::uint64_t n = count_flag(opts, "n", 1000000);
    auto gen = try_make_workload(spec, wf);
    if (!gen.is_ok()) usage(gen.status().message());
    report.records_read =
        feed_blocks(n, skip, [&] { return (*gen)->next(); }, sink);
  }
  if (report.records_read < skip) {
    throw StatusError(bad_record_error(
        "checkpoint claims " + std::to_string(skip) +
        " records already processed but the input has only " +
        std::to_string(report.records_read)));
  }
  return report;
}

/// One pass collected into memory, for the commands that need the whole
/// trace: generate (the v2 header carries the count) and simulate (the
/// sweeps replay it once per capacity).
std::vector<Request> collect_input(const Options& opts) {
  std::vector<Request> trace;
  stream_input(opts, 0, [&trace](std::span<const Request> block) {
    trace.insert(trace.end(), block.begin(), block.end());
    return true;
  });
  return trace;
}

bool is_sharded_model(const std::string& name) {
  return name.size() > 8 && name.ends_with("_sharded");
}

/// The --threads/--shards routing of `profile` and `compare`. For krr the
/// historical contract holds: --threads=1 --shards=1 stays on the serial
/// profiler (bit-identical output) and T > 1 or S > 1 selects krr_sharded.
/// Any other model is mapped onto its registry `<model>_sharded` adapter
/// whenever the flags are given — even at S=1/T=1, so the adapter's serial
/// path is directly comparable to the base model — and rejected when no
/// adapter exists. A sharded model gets the fan-out geometry in `eopts`
/// unless --model-opts already set it.
std::string resolve_model(const Options& opts, const std::string& name,
                          EstimatorOptions& eopts) {
  const auto threads = opts.get_int("threads", 1);
  if (threads < 1) usage("--threads must be >= 1");
  // --shards defaults to one shard per worker thread.
  const std::uint64_t shards_opt = count_flag(opts, "shards", 0);
  const std::uint64_t shards =
      shards_opt == 0 ? static_cast<std::uint64_t>(threads) : shards_opt;
  std::string model = name;
  if (model == "krr") {
    if (threads > 1 || shards > 1) model = "krr_sharded";
  } else if (!is_sharded_model(model) &&
             (opts.has("threads") || opts.has("shards"))) {
    model += "_sharded";
    if (!EstimatorRegistry::instance().contains(model)) {
      usage("--threads/--shards: model '" + name +
            "' has no sharded adapter (see krr_cli models)");
    }
  }
  if (is_sharded_model(model)) {
    if (!eopts.has("threads")) eopts.set("threads", std::to_string(threads));
    if (!eopts.has("shards")) eopts.set("shards", std::to_string(shards));
  }
  return model;
}

/// Maps the shared CLI flags onto the common EstimatorOptions keys. Only
/// flags the user actually passed are set, so estimator defaults stay in
/// charge (and the default `profile --model=krr` run is configured
/// identically to the pre-registry profiler). --model-opts entries are
/// merged last and win over the shared flags.
EstimatorOptions estimator_options_from(const Options& opts) {
  EstimatorOptions eo;
  for (const char* key : {"k", "rate", "strategy", "seed", "quantum"}) {
    if (auto value = opts.get(key); value) eo.set(key, *value);
  }
  if (opts.has("bytes")) eo.set("bytes", "1");
  if (opts.has("no-correction")) eo.set("correction", "0");
  if (opts.has("max-stack-mb")) {
    eo.set("max_stack_bytes",
           std::to_string(count_flag(opts, "max-stack-mb", 0) << 20));
  }
  const std::string extra_spec = opts.get_string("model-opts", "");
  if (!extra_spec.empty()) {
    auto extra = EstimatorOptions::parse(extra_spec);
    if (!extra.is_ok()) usage(extra.status().message());
    eo.merge(*extra);
  }
  return eo;
}

std::vector<std::string> split_list(const std::string& spec) {
  std::vector<std::string> out;
  std::string item;
  for (char c : spec) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

int cmd_workloads() {
  for (const std::string& spec : known_workload_specs()) {
    std::printf("%s\n", spec.c_str());
  }
  return 0;
}

std::string caps_string(const EstimatorCapabilities& caps) {
  std::string s;
  const auto add = [&s](const char* flag) {
    if (!s.empty()) s += ',';
    s += flag;
  };
  if (caps.models_klru) add("klru");
  if (caps.byte_granularity) add("bytes");
  if (caps.spatial_sampling) add("sampling");
  if (caps.sharded) add("sharded");
  if (caps.metrics) add("metrics");
  if (caps.reference_oracle) add("oracle");
  if (caps.governed_memory) add("governed");
  if (caps.checkpoint) add("checkpoint");
  return s.empty() ? "-" : s;
}

int cmd_models(const Options& opts) {
  const std::string format = opts.get_string("format", "table");
  const auto infos = EstimatorRegistry::instance().list();
  if (format == "names") {
    for (const auto& info : infos) std::printf("%s\n", info.name.c_str());
    return 0;
  }
  if (format == "json") {
    obs::Json root = obs::Json::array();
    for (const auto& info : infos) {
      obs::Json entry = obs::Json::object();
      entry.set("name", obs::Json(info.name));
      entry.set("policy", obs::Json(info.policy));
      entry.set("description", obs::Json(info.description));
      obs::Json caps = obs::Json::object();
      caps.set("models_klru", obs::Json(info.caps.models_klru));
      caps.set("byte_granularity", obs::Json(info.caps.byte_granularity));
      caps.set("spatial_sampling", obs::Json(info.caps.spatial_sampling));
      caps.set("sharded", obs::Json(info.caps.sharded));
      caps.set("metrics", obs::Json(info.caps.metrics));
      caps.set("reference_oracle", obs::Json(info.caps.reference_oracle));
      caps.set("governed_memory", obs::Json(info.caps.governed_memory));
      caps.set("checkpoint", obs::Json(info.caps.checkpoint));
      entry.set("capabilities", std::move(caps));
      obs::Json keys = obs::Json::array();
      for (const auto& key : info.option_keys) keys.push_back(obs::Json(key));
      entry.set("option_keys", std::move(keys));
      root.push_back(std::move(entry));
    }
    root.dump(std::cout, 0);
    std::cout << '\n';
    return 0;
  }
  if (format != "table") {
    usage("unknown --format for models (use table, names or json)");
  }
  Table table({"model", "policy", "capabilities", "options", "description"});
  for (const auto& info : infos) {
    std::string keys;
    for (const auto& key : info.option_keys) {
      if (!keys.empty()) keys += ',';
      keys += key;
    }
    table.add(info.name, info.policy, caps_string(info.caps),
              keys.empty() ? "-" : keys, info.description);
  }
  table.print(std::cout);
  return 0;
}

int cmd_generate(const Options& opts) {
  const std::string out = opts.get_string("out", "");
  if (out.empty()) usage("generate needs --out=<file>");
  const std::string format = opts.get_string("format", "v2");
  if (format != "v1" && format != "v2") usage("unknown --format (use v1 or v2)");
  const auto trace = collect_input(opts);
  if (out.size() > 4 && out.substr(out.size() - 4) == ".csv") {
    std::ofstream os(out);
    if (!os) throw StatusError(io_error("cannot open " + out));
    write_trace_csv(os, trace);
  } else {
    save_trace(out, trace,
               format == "v1" ? TraceFormat::kV1 : TraceFormat::kV2);
  }
  std::fprintf(stderr, "wrote %zu requests (%zu distinct keys) to %s\n",
               trace.size(), count_distinct(trace), out.c_str());
  return 0;
}

/// Writes the telemetry snapshot. JSON is the machine format (registry
/// sections + run_report, same numbers the library reports); table is the
/// human format.
void write_metrics(std::ostream& os, const std::string& format,
                   const obs::MetricsRegistry& registry, const RunReport& report) {
  if (format == "json") {
    obs::Json root = registry.to_json();
    root.set("instrumentation_compiled_in", obs::Json(obs::kHotPathInstrumentation));
    root.set("run_report", to_json(report));
    root.dump(os, 0);
    os << '\n';
    return;
  }
  registry.write_table(os);
  os << "-- run report --\n";
  const obs::Json report_json = to_json(report);
  for (const auto& [name, value] : report_json.members()) {
    os << "  " << name << "  " << value.dump() << '\n';
  }
}

int cmd_profile(const Options& opts) {
  const std::string metrics_out = opts.get_string("metrics-out", "");
  const std::string metrics_format = opts.get_string("format", "json");
  if (metrics_format != "json" && metrics_format != "table") {
    usage("unknown --format for profile (use json or table)");
  }
  const bool want_metrics = !metrics_out.empty() || opts.has("progress");

  // --trace-out arms the span tracer for the whole run: CLI phases on lane
  // 0, governor limbs as instant events, per-shard drain lanes for the
  // sharded pipeline. Detached (the default) costs one branch per site.
  const std::string trace_out = opts.get_string("trace-out", "");
  std::optional<obs::Tracer> tracer_storage;
  if (!trace_out.empty()) tracer_storage.emplace();
  obs::Tracer* tracer = tracer_storage ? &*tracer_storage : nullptr;

  EstimatorOptions eopts = estimator_options_from(opts);
  const std::string model =
      resolve_model(opts, opts.get_string("model", "krr"), eopts);
  // Worker-failure policy, in operator vocabulary: off = fail the run
  // (strict), replay = resurrect from mini-checkpoint + journal, rescale =
  // drop the shard and extrapolate from survivors (best_effort).
  const std::string shard_recovery = opts.get_string("shard-recovery", "");
  if (!shard_recovery.empty()) {
    std::string failure_mode;
    if (shard_recovery == "off") {
      failure_mode = "strict";
    } else if (shard_recovery == "replay") {
      failure_mode = "replay";
    } else if (shard_recovery == "rescale") {
      failure_mode = "best_effort";
    } else {
      usage("unknown --shard-recovery (use off, replay or rescale)");
    }
    if (!is_sharded_model(model)) {
      usage("--shard-recovery: model '" + model +
            "' is not sharded (pass --threads/--shards to select the "
            "sharded pipeline)");
    }
    if (!eopts.has("failure_mode")) eopts.set("failure_mode", failure_mode);
  }
  if (opts.has("replay-journal-records")) {
    const auto journal = opts.get_int("replay-journal-records", 0);
    if (journal < 1) usage("--replay-journal-records must be >= 1");
    if (!is_sharded_model(model)) {
      usage("--replay-journal-records: model '" + model + "' is not sharded");
    }
    if (!eopts.has("journal_records")) {
      eopts.set("journal_records", std::to_string(journal));
    }
  }
  auto created = EstimatorRegistry::instance().create(model, eopts);
  if (!created.is_ok()) throw StatusError(created.status());
  std::unique_ptr<MrcEstimator> est = std::move(*created);

  // Run-lifecycle governance flags.
  const std::string checkpoint_out = opts.get_string("checkpoint-out", "");
  const std::string resume_from = opts.get_string("resume-from", "");
  const std::uint64_t checkpoint_every =
      count_flag(opts, "checkpoint-every", 0);
  if (checkpoint_every > 0 && checkpoint_out.empty()) {
    usage("--checkpoint-every needs --checkpoint-out=<path>");
  }
  const double deadline_secs = opts.get_double("deadline-secs", 0.0);
  if (deadline_secs < 0) usage("--deadline-secs must be >= 0");
  if ((!checkpoint_out.empty() || !resume_from.empty()) &&
      !est->info().caps.checkpoint) {
    const char* flag = !checkpoint_out.empty() ? "--checkpoint-out"
                                               : "--resume-from";
    usage(std::string(flag) + ": model '" + model +
          "' declares checkpoint=false and cannot honor checkpoint/resume "
          "flags (run `krr_cli models` and pick a model whose capability "
          "list includes `checkpoint`)");
  }

  std::uint64_t resume_offset = 0;
  if (!resume_from.empty()) {
    std::string payload;
    auto header = read_checkpoint(resume_from, &payload);
    if (!header.is_ok()) throw StatusError(header.status());
    if (header->config_crc != checkpoint_fingerprint(model, eopts)) {
      usage("checkpoint " + resume_from +
            " was written under a different model/option configuration and "
            "cannot resume this run");
    }
    if (Status s = est->load_state(payload); !s.is_ok()) throw StatusError(s);
    resume_offset = header->records;
    std::fprintf(stderr, "resumed from %s at record %llu\n",
                 resume_from.c_str(),
                 static_cast<unsigned long long>(resume_offset));
  }

  obs::MetricsRegistry registry;
  std::optional<obs::PipelineMetrics> metrics;
  if (want_metrics) metrics.emplace(registry);
  std::optional<obs::Heartbeat> heartbeat;
  if (opts.has("progress")) {
    const double interval = opts.get_double("progress", 2.0);
    if (interval < 0) usage("--progress must be >= 0 seconds");
    heartbeat.emplace(interval, std::cerr);
    // Resumed runs tick only over the remaining records; the baseline keeps
    // the end-of-run summary counting the full logical position.
    heartbeat->set_baseline(resume_offset);
  }

  if (want_metrics) est->attach_metrics(&*metrics);
  if (tracer != nullptr) est->attach_tracer(tracer);

  // The governor enforces the memory budget / deadline / checkpoint cadence
  // from the producer loop; it is armed only when one of those limbs is.
  RunGovernorConfig gcfg;
  gcfg.max_stack_bytes =
      static_cast<std::uint64_t>(eopts.get_int("max_stack_bytes", 0));
  gcfg.deadline_secs = deadline_secs;
  gcfg.checkpoint_every = checkpoint_every;
  const auto checkpoint_retries = opts.get_int("checkpoint-retries", 3);
  if (checkpoint_retries < 1) usage("--checkpoint-retries must be >= 1");
  gcfg.checkpoint_retry.max_attempts =
      static_cast<unsigned>(checkpoint_retries);
  gcfg.checkpoint_retry.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const auto write_snapshot =
      [&est, &model, &eopts, checkpoint_out,
       resume_offset](std::uint64_t records) -> StatusOr<std::uint64_t> {
    std::string payload;
    if (Status s = est->save_state(&payload); !s.is_ok()) return s;
    CheckpointHeader header;
    header.config_crc = checkpoint_fingerprint(model, eopts);
    header.records = resume_offset + records;
    if (Status s = write_checkpoint_atomic(checkpoint_out, header, payload);
        !s.is_ok()) {
      return s;
    }
    // Container size: 32-byte header + payload + trailing crc32.
    return static_cast<std::uint64_t>(payload.size()) + 36;
  };
  if (!checkpoint_out.empty() && gcfg.checkpoint_every > 0) {
    gcfg.checkpoint_fn = write_snapshot;
  }
  std::optional<RunGovernor> governor;
  if (gcfg.max_stack_bytes > 0 || gcfg.deadline_secs > 0 ||
      gcfg.checkpoint_fn) {
    governor.emplace(gcfg, est.get(), want_metrics ? &registry : nullptr,
                     tracer);
  }

  // One streaming pass. The phase.ingest spans are the block decodes,
  // timed between the sink's calls; phase.load_seconds sums them and
  // phase.profile_seconds excludes them.
  double phase_load = 0.0, phase_profile = 0.0, phase_mrc = 0.0,
         phase_output = 0.0;
  Stopwatch clock;
  std::uint64_t decode_start = 0;  // clock.nanos() as the decode began
  const auto end_decode = [&] {
    const std::uint64_t ns = clock.nanos() - decode_start;
    phase_load += static_cast<double>(ns) / 1e9;
    if (tracer != nullptr) {
      tracer->complete("phase.ingest", "phase", 0, tracer->now_ns() - ns, ns);
    }
  };
  bool deadline_partial = false;
  std::uint64_t fed = resume_offset;
  TraceReadReport ingest;
  MissRatioCurve mrc;
  {
    ScopedTimer timer(phase_profile);
    {
      obs::ScopedTraceSpan span(tracer, "phase.profile", "phase");
      clock.reset();  // the first decode starts inside phase.profile
      ingest = stream_input(
          opts, resume_offset,
          [&](std::span<const Request> block) {
            end_decode();
            for (const Request& r : block) {
              est->access(r);
              ++fed;
              if (governor && !governor->on_access()) {
                deadline_partial = true;
                return false;
              }
              if (heartbeat) {
                heartbeat->tick([&] {
                  est->refresh_metrics_gauges();
                  return est->snapshot();
                });
              }
            }
            decode_start = clock.nanos();
            return true;
          },
          tracer);
      if (!deadline_partial) end_decode();
    }
    obs::ScopedTraceSpan span(tracer, "phase.finish", "phase");
    est->finish();
    if (governor) governor->finalize();
    if (heartbeat) heartbeat->finish(est->snapshot());
  }
  phase_profile -= phase_load;
  // A final snapshot so the checkpoint file always reflects the last state
  // (completed or deadline-cut), ready for a later resume.
  if (!checkpoint_out.empty()) {
    // The final snapshot is what a later --resume-from reads, so it gets
    // the same transient-failure retries as the governor's periodic writes.
    StatusOr<std::uint64_t> written = write_snapshot(fed - resume_offset);
    for (unsigned attempt = 1;
         !written.is_ok() && attempt < gcfg.checkpoint_retry.max_attempts;
         ++attempt) {
      if (want_metrics) registry.counter("governor.checkpoint_retries").inc();
      gcfg.checkpoint_retry.sleep(attempt);
      written = write_snapshot(fed - resume_offset);
    }
    if (!written.is_ok()) throw StatusError(written.status());
  }
  std::optional<obs::ScopedTraceSpan> report_span;
  if (tracer != nullptr) report_span.emplace(tracer, "phase.report", "phase");
  {
    ScopedTimer timer(phase_mrc);
    mrc = est->mrc();
  }
  RunReport report = est->run_report(&ingest);
  if (deadline_partial) report.partial = true;
  if (want_metrics) {
    est->refresh_metrics_gauges();
    est->export_gauges(registry);
  }
  const obs::HeartbeatSnapshot final_state = est->snapshot();
  if (report.producer_stall_seconds > 0.01) {
    std::fprintf(stderr, "fan-out backpressure: %.3f s producer stall\n",
                 report.producer_stall_seconds);
  }
  if (report.shards_failed > 0 || report.shards_resurrected > 0) {
    std::fprintf(stderr,
                 "shard recovery: %s (%llu worker(s) resurrected, %llu "
                 "records replayed, %llu shard(s) dropped, %llu records "
                 "lost)\n",
                 report.recovery.c_str(),
                 static_cast<unsigned long long>(report.shards_resurrected),
                 static_cast<unsigned long long>(report.replayed_records),
                 static_cast<unsigned long long>(report.shards_failed),
                 static_cast<unsigned long long>(report.dropped_records));
  }

  const double secs = phase_profile + phase_mrc;
  const std::string out = opts.get_string("out", "");
  // --metrics-out=- claims stdout for the snapshot: without an explicit
  // --out the MRC CSV is skipped so stdout stays machine-parseable.
  const bool metrics_claim_stdout = metrics_out == "-";
  {
    ScopedTimer timer(phase_output);
    if (out.empty()) {
      if (!metrics_claim_stdout) mrc.write_csv(std::cout);
    } else {
      std::ofstream os(out);
      if (!os) throw StatusError(io_error("cannot open " + out));
      mrc.write_csv(os);
    }
  }
  if (want_metrics) {
    fold_ingest_metrics(ingest, registry);
    registry.gauge("phase.load_seconds").set(phase_load);
    registry.gauge("phase.profile_seconds").set(phase_profile);
    registry.gauge("phase.mrc_seconds").set(phase_mrc);
    registry.gauge("phase.output_seconds").set(phase_output);
    registry.gauge("phase.total_seconds")
        .set(phase_load + phase_profile + phase_mrc + phase_output);
    if (!metrics_out.empty()) {
      if (metrics_out == "-") {
        write_metrics(std::cout, metrics_format, registry, report);
      } else {
        std::ofstream os(metrics_out);
        if (!os) throw StatusError(io_error("cannot open " + metrics_out));
        write_metrics(os, metrics_format, registry, report);
      }
    }
  }
  report_span.reset();  // closes phase.report before the trace is drained
  if (tracer != nullptr) {
    if (Status s = tracer->write_file(trace_out); !s.is_ok()) {
      throw StatusError(s);
    }
    std::fprintf(stderr, "trace: %llu events (%llu dropped) -> %s\n",
                 static_cast<unsigned long long>(tracer->recorded()),
                 static_cast<unsigned long long>(tracer->dropped()),
                 trace_out.c_str());
  }
  if (is_sharded_model(model)) {
    // --model-opts can override the fan-out geometry, so report the
    // effective values the estimator was built with, not the raw flags.
    std::fprintf(stderr,
                 "profiled %llu requests (%zu sampled) in %.3f s across %lld "
                 "shards on %lld threads with model %s; stack depth %zu\n",
                 static_cast<unsigned long long>(fed),
                 static_cast<std::size_t>(final_state.sampled), secs,
                 static_cast<long long>(eopts.get_int("shards", 1)),
                 static_cast<long long>(eopts.get_int("threads", 1)),
                 model.c_str(),
                 static_cast<std::size_t>(final_state.stack_depth));
  } else if (model == "krr") {
    std::fprintf(stderr,
                 "profiled %llu requests (%zu sampled) in %.3f s; stack depth %zu\n",
                 static_cast<unsigned long long>(fed),
                 static_cast<std::size_t>(final_state.sampled), secs,
                 static_cast<std::size_t>(final_state.stack_depth));
  } else {
    std::fprintf(stderr, "profiled %llu requests in %.3f s with model %s\n",
                 static_cast<unsigned long long>(fed), secs, model.c_str());
  }
  if (report.degradation_events > 0) {
    std::fprintf(stderr,
                 "degraded sampling rate %llu time(s) to stay under "
                 "--max-stack-mb=%lld; final rate %g\n",
                 static_cast<unsigned long long>(report.degradation_events),
                 static_cast<long long>(opts.get_int("max-stack-mb", 0)),
                 report.final_sampling_rate);
  }
  if (governor && governor->report().budget_exhausted) {
    std::fprintf(stderr,
                 "warning: model '%s' could not degrade below the "
                 "--max-stack-mb budget; peak resident %llu bytes\n",
                 model.c_str(),
                 static_cast<unsigned long long>(
                     governor->report().peak_space_bytes));
  }
  if (deadline_partial) {
    std::fprintf(stderr,
                 "deadline of %.3f s reached after %llu records; "
                 "the curve covers the processed prefix only\n",
                 deadline_secs, static_cast<unsigned long long>(fed));
    return 4;
  }
  return 0;
}

int cmd_simulate(const Options& opts) {
  const std::string policy = opts.get_string("policy", "klru");
  const auto n_sizes = static_cast<std::size_t>(count_flag(opts, "sizes", 20));
  const auto k = static_cast<std::uint32_t>(count_flag(opts, "k", 5));
  const bool bytes = opts.has("bytes");
  const auto trace = collect_input(opts);
  const auto sizes = bytes ? capacity_grid_bytes(trace, n_sizes)
                           : capacity_grid_objects(trace, n_sizes);
  MissRatioCurve curve;
  if (policy == "klru") {
    curve = sweep_klru(trace, sizes, k);
  } else if (policy == "redis") {
    RedisLruConfig cfg;
    cfg.maxmemory_samples = k;
    curve = sweep_redis(trace, sizes, cfg);
  } else if (policy == "lru") {
    curve = sweep_lru(trace, sizes);
  } else {
    usage("unknown --policy (use klru, redis or lru)");
  }
  curve.write_csv(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// compare: streaming multi-model evaluation
// ---------------------------------------------------------------------------

int cmd_compare(const Options& opts) {
  if (opts.has("bytes")) {
    usage("compare evaluates object-granularity curves; --bytes is not "
          "supported here");
  }
  const auto k = static_cast<std::uint32_t>(count_flag(opts, "k", 5));
  const auto n_sizes = static_cast<std::size_t>(count_flag(opts, "sizes", 20));
  const std::string format = opts.get_string("format", "table");
  if (format != "table" && format != "csv" && format != "json") {
    usage("unknown --format for compare (use table, csv or json)");
  }
  // Ground-truth policy: klru (default), lru, or auto — which picks each
  // model's natural target from its capability flags (models_klru -> the
  // K-LRU sweep, everything else -> exact LRU), so e.g. `shards` or `aet`
  // is scored against the policy it actually models.
  const std::string target = opts.get_string("target", "klru");
  if (target != "klru" && target != "lru" && target != "auto") {
    usage("unknown --target for compare (use klru, lru or auto)");
  }
  const std::vector<std::string> models =
      split_list(opts.get_string("models", opts.get_string("model", "krr")));
  if (models.empty()) usage("--models needs at least one model name");

  const EstimatorOptions shared = estimator_options_from(opts);
  auto& registry = EstimatorRegistry::instance();

  // --threads/--shards route every model through resolve_model, exactly as
  // `profile` does. Display/JSON keys keep the original names so sharded
  // and serial runs of the same invocation line up column for column.
  std::vector<std::unique_ptr<MrcEstimator>> estimators;
  estimators.reserve(models.size());
  for (const std::string& name : models) {
    EstimatorOptions eopts = shared;
    const std::string resolved = resolve_model(opts, name, eopts);
    auto est = registry.create(resolved, eopts);
    if (!est.is_ok()) throw StatusError(est.status());
    estimators.push_back(std::move(*est));
  }

  std::optional<obs::Heartbeat> heartbeat;
  if (opts.has("progress")) {
    const double interval = opts.get_double("progress", 2.0);
    if (interval < 0) usage("--progress must be >= 0 seconds");
    heartbeat.emplace(interval, std::cerr);
  }

  // Accuracy-convergence telemetry: every N records of pass 1, freeze each
  // model's current curve; once pass 2 has produced the truth, each frozen
  // curve is scored on the final grid, giving MAE as a function of records
  // seen (how fast each model converges, at what cost). Sharded models
  // cannot evaluate mid-run (their workers own the state), so they only
  // appear in the final snapshot.
  const std::string convergence_out = opts.get_string("convergence-out", "");
  const auto convergence_every_raw = opts.get_int("convergence-every", 100000);
  if (convergence_every_raw < 1) usage("--convergence-every must be >= 1");
  if (opts.has("convergence-every") && convergence_out.empty()) {
    usage("--convergence-every needs --convergence-out=<path>");
  }
  const auto convergence_every =
      static_cast<std::uint64_t>(convergence_every_raw);
  struct ConvergenceSnap {
    std::uint64_t records = 0;
    double seconds = 0.0;
    // One curve per estimator; a null optional marks a model that could not
    // be evaluated at this point (sharded mid-run).
    std::vector<std::optional<MissRatioCurve>> curves;
  };
  std::vector<ConvergenceSnap> convergence;
  Stopwatch convergence_watch;
  const auto take_convergence_snapshot = [&](std::uint64_t records,
                                             bool final_snapshot) {
    ConvergenceSnap snap;
    snap.records = records;
    snap.seconds = static_cast<double>(convergence_watch.nanos()) / 1e9;
    snap.curves.reserve(estimators.size());
    for (auto& est : estimators) {
      if (!final_snapshot && est->info().caps.sharded) {
        snap.curves.emplace_back(std::nullopt);
      } else {
        snap.curves.emplace_back(est->mrc({}));
      }
    }
    convergence.push_back(std::move(snap));
  };

  // Pass 1 (predict): every estimator sees every reference; the distinct
  // key count fixes the evaluation grid for pass 2.
  std::unordered_set<std::uint64_t> distinct;
  std::uint64_t fed = 0;
  const TraceReadReport ingest =
      stream_input(opts, 0, [&](std::span<const Request> block) {
        for (const Request& r : block) {
          distinct.insert(r.key);
          for (auto& est : estimators) est->access(r);
          ++fed;
          if (!convergence_out.empty() && fed % convergence_every == 0) {
            take_convergence_snapshot(fed, /*final_snapshot=*/false);
          }
          if (heartbeat) {
            heartbeat->tick([&] {
              obs::HeartbeatSnapshot s;
              s.records = fed;
              s.stack_depth = distinct.size();
              return s;
            });
          }
        }
        return true;
      });
  for (auto& est : estimators) est->finish();
  const std::uint64_t requests = fed;
  if (requests == 0) {
    std::fprintf(stderr, "compare: empty input, nothing to evaluate\n");
    return 0;
  }

  const std::vector<double> sizes =
      evenly_spaced_sizes(static_cast<double>(distinct.size()), n_sizes);

  // Pass 2 (simulate): one cache per grid size and target policy, all fed
  // from a single streaming pass — per-cache results are identical to the
  // sweep's one-capacity-at-a-time replay because the caches are
  // independent. `auto` simulates both policies in the same pass.
  const bool any_klru_model = std::any_of(
      estimators.begin(), estimators.end(),
      [](const auto& est) { return est->info().caps.models_klru; });
  const bool want_klru =
      target == "klru" || (target == "auto" && any_klru_model);
  const bool want_lru =
      target == "lru" ||
      (target == "auto" &&
       std::any_of(estimators.begin(), estimators.end(), [](const auto& est) {
         return !est->info().caps.models_klru;
       }));
  std::vector<KLruCache> klru_caches;
  std::vector<LruCache> lru_caches;
  for (double c : sizes) {
    const auto capacity =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(c));
    if (want_klru) {
      KLruConfig cfg;
      cfg.capacity = capacity;
      cfg.sample_size = k;
      klru_caches.emplace_back(cfg);
    }
    if (want_lru) lru_caches.emplace_back(capacity);
  }
  stream_input(opts, 0, [&](std::span<const Request> block) {
    for (const Request& r : block) {
      for (auto& cache : klru_caches) cache.access(r);
      for (auto& cache : lru_caches) cache.access(r);
      ++fed;
      if (heartbeat) {
        heartbeat->tick([&] {
          obs::HeartbeatSnapshot s;
          s.records = fed;
          return s;
        });
      }
    }
    return true;
  });
  if (heartbeat) {
    obs::HeartbeatSnapshot s;
    s.records = fed;
    heartbeat->finish(s);
  }
  MissRatioCurve actual_klru, actual_lru;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (want_klru) actual_klru.add_point(sizes[i], klru_caches[i].miss_ratio());
    if (want_lru) actual_lru.add_point(sizes[i], lru_caches[i].miss_ratio());
  }
  // The truth curve each model is scored against.
  const auto truth_for = [&](std::size_t m) -> const MissRatioCurve& {
    if (target == "klru") return actual_klru;
    if (target == "lru") return actual_lru;
    return estimators[m]->info().caps.models_klru ? actual_klru : actual_lru;
  };

  std::vector<MissRatioCurve> predicted;
  std::vector<double> maes;
  predicted.reserve(estimators.size());
  for (std::size_t m = 0; m < estimators.size(); ++m) {
    predicted.push_back(estimators[m]->mrc(sizes));
    maes.push_back(predicted.back().mae(truth_for(m), sizes));
  }

  if (!convergence_out.empty()) {
    // Close the series with a post-finish snapshot (every model, including
    // sharded ones, is evaluable now), then score every frozen curve
    // against the truth the run just produced.
    if (convergence.empty() || convergence.back().records != requests) {
      take_convergence_snapshot(requests, /*final_snapshot=*/true);
    }
    obs::Json root = obs::Json::object();
    root.set("requests", obs::Json(requests));
    root.set("every", obs::Json(convergence_every));
    root.set("target", obs::Json(target));
    obs::Json jsizes = obs::Json::array();
    for (double s : sizes) jsizes.push_back(obs::Json(s));
    root.set("sizes", std::move(jsizes));
    obs::Json jsnaps = obs::Json::array();
    for (const ConvergenceSnap& snap : convergence) {
      obs::Json jsnap = obs::Json::object();
      jsnap.set("records", obs::Json(snap.records));
      jsnap.set("seconds", obs::Json(snap.seconds));
      obs::Json jmae = obs::Json::object();
      for (std::size_t m = 0; m < models.size(); ++m) {
        // null = not evaluable at this point (sharded mid-run).
        jmae.set(models[m], snap.curves[m]
                                ? obs::Json(snap.curves[m]->mae(truth_for(m),
                                                                sizes))
                                : obs::Json());
      }
      jsnap.set("mae", std::move(jmae));
      jsnaps.push_back(std::move(jsnap));
    }
    root.set("snapshots", std::move(jsnaps));
    std::ofstream os(convergence_out);
    if (!os) throw StatusError(io_error("cannot open " + convergence_out));
    root.dump(os, 0);
    os << '\n';
  }

  if (format == "json") {
    obs::Json root = obs::Json::object();
    root.set("k", obs::Json(static_cast<std::uint64_t>(k)));
    root.set("target", obs::Json(target));
    root.set("requests", obs::Json(requests));
    root.set("distinct_keys",
             obs::Json(static_cast<std::uint64_t>(distinct.size())));
    obs::Json jsizes = obs::Json::array();
    for (double s : sizes) jsizes.push_back(obs::Json(s));
    root.set("sizes", std::move(jsizes));
    if (target == "auto") {
      if (want_klru) {
        obs::Json jsim = obs::Json::array();
        for (double s : sizes) jsim.push_back(obs::Json(actual_klru.eval(s)));
        root.set("simulated_klru", std::move(jsim));
      }
      if (want_lru) {
        obs::Json jsim = obs::Json::array();
        for (double s : sizes) jsim.push_back(obs::Json(actual_lru.eval(s)));
        root.set("simulated_lru", std::move(jsim));
      }
    } else {
      const MissRatioCurve& actual =
          target == "klru" ? actual_klru : actual_lru;
      obs::Json jsim = obs::Json::array();
      for (double s : sizes) jsim.push_back(obs::Json(actual.eval(s)));
      root.set("simulated", std::move(jsim));
    }
    obs::Json jmodels = obs::Json::object();
    for (std::size_t m = 0; m < models.size(); ++m) {
      obs::Json entry = obs::Json::object();
      obs::Json jmrc = obs::Json::array();
      for (double s : sizes) jmrc.push_back(obs::Json(predicted[m].eval(s)));
      entry.set("mrc", std::move(jmrc));
      entry.set("mae", obs::Json(maes[m]));
      // The same structured run report `profile --metrics-out` emits, so
      // fan-out counters (producer stalls, degradations, governance) are
      // not lost when comparing models side by side.
      entry.set("run_report",
                to_json(estimators[m]->run_report(&ingest)));
      if (target == "auto") {
        entry.set("truth",
                  obs::Json(std::string(estimators[m]->info().caps.models_klru
                                            ? "klru"
                                            : "lru")));
      }
      jmodels.set(models[m], std::move(entry));
    }
    root.set("models", std::move(jmodels));
    root.dump(std::cout, 0);
    std::cout << '\n';
    return 0;
  }

  std::vector<std::string> header{"size"};
  if (target == "auto") {
    if (want_klru) header.push_back("simulated_klru");
    if (want_lru) header.push_back("simulated_lru");
  } else {
    header.push_back("simulated");
  }
  header.insert(header.end(), models.begin(), models.end());
  Table table(header);
  for (double s : sizes) {
    std::vector<std::string> row{format_double(s)};
    if (target == "auto") {
      if (want_klru) row.push_back(format_double(actual_klru.eval(s)));
      if (want_lru) row.push_back(format_double(actual_lru.eval(s)));
    } else {
      row.push_back(format_double(
          (target == "klru" ? actual_klru : actual_lru).eval(s)));
    }
    for (const auto& curve : predicted) {
      row.push_back(format_double(curve.eval(s)));
    }
    table.add_row(std::move(row));
  }
  if (format == "csv") {
    // The grid goes to stdout machine-parseable; MAEs go to stderr.
    table.print_csv(std::cout);
    for (std::size_t m = 0; m < models.size(); ++m) {
      std::fprintf(stderr, "MAE[%s]: %g\n", models[m].c_str(), maes[m]);
    }
    return 0;
  }
  table.print(std::cout);
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::printf("MAE[%s]: %g\n", models[m].c_str(), maes[m]);
  }
  return 0;
}

/// Maps a typed ingestion failure onto the exit-code contract: everything
/// that means "the input itself is damaged" (including an exhausted
/// bad-record budget) exits 3; environmental failures exit 1.
int exit_code_for(const StatusError& e) {
  switch (e.code()) {
    case StatusCode::kCorruptHeader:
    case StatusCode::kUnsupportedVersion:
    case StatusCode::kTruncated:
    case StatusCode::kBadRecord:
    case StatusCode::kChecksumMismatch:
    case StatusCode::kResourceLimit:
      return 3;
    case StatusCode::kInvalidArgument:
      return 2;
    default:
      return 1;
  }
}

int run(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help") {
    print_usage(stdout);
    return 0;
  }
  const Options opts(argc - 1, argv + 1);
  // Fault plans arm process-global trigger state and must be installed
  // before any pipeline threads exist, so this happens ahead of command
  // dispatch. The flag wins over the KRR_FAULT_PLAN environment variable
  // (the env form lets CI inject faults without touching command lines).
  std::string fault_plan = opts.get_string("fault-plan", "");
  if (fault_plan.empty()) {
    if (const char* env = std::getenv("KRR_FAULT_PLAN"); env != nullptr) {
      fault_plan = env;
    }
  }
  if (!fault_plan.empty()) {
    if (Status s = faults::arm(fault_plan); !s.is_ok()) {
      usage(s.message());
    }
  }
  if (command == "workloads") return cmd_workloads();
  if (command == "models") return cmd_models(opts);
  if (command == "generate") return cmd_generate(opts);
  if (command == "profile") return cmd_profile(opts);
  if (command == "simulate") return cmd_simulate(opts);
  if (command == "compare") return cmd_compare(opts);
  usage("unknown command: " + command);
}

}  // namespace

int main(int argc, char** argv) {
  // No exception may escape: every failure maps onto the exit contract.
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const StatusError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unknown failure\n");
    return 1;
  }
}

// Shared helpers for the experiment harness binaries (one per paper
// table/figure, see DESIGN.md's per-experiment index). Each binary is a
// plain main: parse_flags(), build its row list, run_sweep() it, print the
// table, write_stats_json().
//
// Every binary supports `--stats-json <path>` (or `--stats-json=<path>`):
// each sweep row is recorded with its full observability report and the
// collected records are written as one JSON document at exit. Any other
// argument, or a value flag without its value, exits with status 2 and a
// usage line before anything runs.
//
// Robustness flags (applied to every sweep row):
//   --time-budget-ms <n>   wall-clock budget per synthesis run
//   --node-budget <n>      BDD node ceiling per synthesis run
//   --fault-inject <spec>  fault-injection rules (see core/faultinject.h)
//   --jobs <n>             threads for bound-set candidate evaluation
//                          (1 = serial; any value gives identical results,
//                          see docs/PARALLELISM.md)
//   --cache-mb <n>         byte budget of the multiplicity cache (default
//                          32; 0 keeps it enabled but evicting eagerly)
//   --no-cache             disable all memoization (docs/CACHING.md);
//                          results are bit-identical either way
//
// Pipeline flags (docs/PASSES.md):
//   --passes <spec>        pass pipeline, e.g. decompose,simplify,pack
//                          (default: the full pipeline with odc_resubst)
//   --no-odc               drop the odc_resubst pass from the pipeline;
//                          with the default pipeline this reproduces the
//                          pre-pipeline flow bit-identically
//   --dump-net <path>      write <path>.<i>-<pass>.blif/.dot after every
//                          executed pass (pass-by-pass network states)
//
// Sweep supervision (docs/ROBUSTNESS.md §"Sweep supervision"): each run
// forks into a watchdogged child, outcomes are journaled durably, and a
// rerun with --resume skips completed rows bit-identically:
//   --supervise            run each circuit in a crash-isolated child
//   --journal <path>       journal file (default <binary>.journal)
//   --resume               replay an existing journal; implies --supervise
//   --max-retries <n>      extra attempts after an abnormal child death
//   --watchdog-ms <n>      per-attempt wall-clock watchdog (SIGTERM ->
//                          SIGKILL escalation; default 300000)
//   --sweep-jobs <n>       supervised row children run concurrently
//                          (default 1; output is bit-identical for any
//                          value, see docs/PARALLELISM.md)
//   --sweep-rss-mb <n>     defer spawns while the children's summed RSS
//                          exceeds this many MiB (0 = no cap)
//   --list-fault-sites     print the fault-injection sites/kinds and exit
// Budget overruns do not crash: the flow degrades (see docs/ROBUSTNESS.md)
// and the --stats-json record carries the DegradationReport. With
// --stats-json the document is also recommitted (temp + rename) after every
// run, so a mid-sweep crash keeps all completed records.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/faultinject.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "obs/json.h"
#include "super/jsonv.h"
#include "super/supervisor.h"

namespace mfd::bench {

struct FlowRun {
  std::string circuit;
  std::string flow;  ///< preset label ("mulop-dc", "mulopII", ...), may be empty
  int inputs = 0;
  int outputs = 0;
  int luts = 0;
  int clb_greedy = 0;
  int clb_matching = 0;
  int gates = 0;
  int depth = 0;
  std::string network_hash;  ///< network_hash() of the emitted network
  DecomposeStats stats;
  double seconds = 0.0;
  int jobs = 1;  ///< bound-set evaluation threads this run used
  bool verified = false;
  DegradationReport degradation;  ///< which ladder levels this run hit
  /// Non-empty when the run died on a typed error (e.g. a fault injected
  /// outside the degradation ladder); the sweep continues past it.
  std::string error;
  std::vector<net::PassStats> passes;  ///< pipeline trail of this run
  obs::Report report;  ///< phase tree + counters + gauges of this run
};

/// One sweep row: a circuit from circuits::build, run through one flow.
struct SweepRow {
  std::string circuit;
  SynthesisOptions options;
  std::string flow;  ///< preset label, recorded as FlowRun::flow
};

/// FNV-1a over the whole network structure — the primary-input count, every
/// LUT's inputs and table bits, and the outputs — as 16 hex digits. Equal
/// hashes mean the same network, not merely the same counts.
inline std::string network_hash(const net::LutNetwork& net) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(net.num_primary_inputs());
  mix(net.num_luts());
  for (int i = 0; i < net.num_luts(); ++i) {
    const net::Lut& lut = net.lut(i);
    mix(static_cast<std::int64_t>(lut.inputs.size()));
    for (int s : lut.inputs) mix(s);
    for (std::size_t b = 0; b < lut.table.size(); ++b) mix(lut.table[b]);
  }
  mix(net.num_outputs());
  for (int s : net.outputs()) mix(s);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

namespace detail {

struct StatsSink {
  std::string path;    // empty until --stats-json is seen
  std::string binary;  // argv[0] basename
  std::vector<std::string> rows;  // pre-serialized FlowRun objects
  ResourceBudget budget;  // from --time-budget-ms / --node-budget
  int jobs = 1;           // from --jobs
  long cache_mb = -1;     // from --cache-mb (-1 = default)
  bool no_cache = false;  // from --no-cache
  std::string passes;     // from --passes (empty = default pipeline)
  bool no_odc = false;    // from --no-odc
  std::string dump_net;   // from --dump-net (empty = no dumps)
  bool supervise = false;     // from --supervise / --resume
  bool resume = false;        // from --resume
  std::string journal;        // from --journal (empty = <binary>.journal)
  long max_retries = -1;      // from --max-retries (-1 = policy default)
  double watchdog_ms = 0.0;   // from --watchdog-ms (0 = default 300000)
  long sweep_jobs = 1;        // from --sweep-jobs (concurrent row children)
  long sweep_rss_mb = 0;      // from --sweep-rss-mb (0 = no admission cap)
  bool list_fault_sites = false;  // from --list-fault-sites
};

inline StatsSink& sink() {
  static StatsSink s;
  return s;
}

inline std::string flow_run_json(const FlowRun& row) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("circuit").value(row.circuit);
  w.key("flow").value(row.flow);
  w.key("inputs").value(row.inputs);
  w.key("outputs").value(row.outputs);
  w.key("luts").value(row.luts);
  w.key("clb_greedy").value(row.clb_greedy);
  w.key("clb_matching").value(row.clb_matching);
  w.key("gates").value(row.gates);
  w.key("depth").value(row.depth);
  w.key("network_hash").value(row.network_hash);
  w.key("seconds").value(row.seconds);
  w.key("jobs").value(row.jobs);
  w.key("decompose").begin_object();
  w.key("steps").value(row.stats.decomposition_steps);
  w.key("shannon_fallbacks").value(row.stats.shannon_fallbacks);
  w.key("functions").value(static_cast<std::int64_t>(row.stats.total_decomposition_functions));
  w.key("sum_r").value(static_cast<std::int64_t>(row.stats.sum_r));
  w.key("symmetrized_pairs").value(row.stats.symmetrized_pairs);
  w.key("max_depth").value(row.stats.max_depth);
  w.key("bdd_mux_fallbacks").value(row.stats.bdd_mux_fallbacks);
  w.key("encoding_pool_hits").value(static_cast<std::int64_t>(row.stats.encoding_pool_hits));
  w.end_object();
  w.key("verified").value(row.verified);
  w.key("error").value(row.error);
  w.key("passes").begin_array();
  for (const net::PassStats& p : row.passes) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("ran").value(p.ran);
    w.key("changed").value(p.changed);
    w.key("skip_reason").value(p.skip_reason);
    w.key("luts_before").value(p.luts_before);
    w.key("luts_after").value(p.luts_after);
    w.key("seconds").value(p.seconds);
    w.end_object();
  }
  w.end_array();
  w.key("degradation").begin_object();
  w.key("final_level").value(row.degradation.final_level);
  w.key("final_level_name").value(degrade_level_name(row.degradation.final_level));
  w.key("suspended_sections")
      .value(static_cast<std::int64_t>(row.degradation.suspended_sections));
  w.key("per_output_level").begin_array();
  for (int level : row.degradation.per_output_level) w.value(level);
  w.end_array();
  w.key("events").begin_array();
  for (const DegradeEvent& e : row.degradation.events) {
    w.begin_object();
    w.key("from").value(e.from_level);
    w.key("to").value(e.to_level);
    w.key("phase").value(e.phase);
    w.key("reason").value(e.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("report").raw(row.report.to_json());
  w.end_object();
  return w.str();
}

/// strtol with a hard exit on garbage: these are operator-facing CLI flags,
/// and silently running an *unbudgeted* sweep would defeat their purpose.
inline long parse_flag_count(const char* flag, const char* value) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < 0) {
    std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n", flag, value);
    std::exit(2);
  }
  return v;
}

/// A harness flag; `arg` names the value of a value flag, nullptr for a
/// switch.
struct Flag {
  const char* name;
  const char* arg;
};

inline constexpr Flag kFlags[] = {
    {"--stats-json", "<path>"},   {"--time-budget-ms", "<n>"}, {"--node-budget", "<n>"},
    {"--fault-inject", "<spec>"}, {"--jobs", "<n>"},           {"--cache-mb", "<n>"},
    {"--no-cache", nullptr},      {"--passes", "<spec>"},      {"--no-odc", nullptr},
    {"--dump-net", "<path>"},     {"--supervise", nullptr},    {"--journal", "<path>"},
    {"--resume", nullptr},        {"--max-retries", "<n>"},    {"--watchdog-ms", "<n>"},
    {"--sweep-jobs", "<n>"},      {"--sweep-rss-mb", "<n>"},   {"--list-fault-sites", nullptr},
};

/// Names the offending argument, prints the usage line and exits 2.
[[noreturn]] inline void usage_error(const std::string& what) {
  const char* bin = sink().binary.c_str();
  std::fprintf(stderr, "%s: %s\nusage: %s", bin, what.c_str(), bin);
  for (const Flag& f : kFlags) {
    if (f.arg != nullptr)
      std::fprintf(stderr, " [%s %s]", f.name, f.arg);
    else
      std::fprintf(stderr, " [%s]", f.name);
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

inline void print_fault_sites() {
  std::printf("instrumented fault sites (arm with --fault-inject "
              "'site@k[:kind]', see docs/ROBUSTNESS.md):\n");
  for (const std::string& site : fault::registered_sites())
    std::printf("  %s\n", site.c_str());
  std::printf("kinds:");
  bool first = true;
  for (const std::string& kind : fault::kind_names()) {
    std::printf("%s %s%s", first ? "" : ",", kind.c_str(), first ? " (default)" : "");
    first = false;
  }
  std::printf("\n");
}

/// Stores one flag's value in the sink (`value` is nullptr for a switch).
inline void apply_flag(const std::string& flag, const char* value) {
  StatsSink& s = sink();
  const char* f = flag.c_str();
  if (flag == "--stats-json") {
    s.path = value;
  } else if (flag == "--time-budget-ms") {
    s.budget.time_ms = static_cast<double>(parse_flag_count(f, value));
  } else if (flag == "--node-budget") {
    s.budget.node_ceiling = static_cast<std::size_t>(parse_flag_count(f, value));
  } else if (flag == "--jobs") {
    s.jobs = std::max(1, static_cast<int>(parse_flag_count(f, value)));
  } else if (flag == "--cache-mb") {
    s.cache_mb = parse_flag_count(f, value);
  } else if (flag == "--no-cache") {
    s.no_cache = true;
  } else if (flag == "--passes") {
    s.passes = value;
  } else if (flag == "--no-odc") {
    s.no_odc = true;
  } else if (flag == "--dump-net") {
    s.dump_net = value;
  } else if (flag == "--supervise") {
    s.supervise = true;
  } else if (flag == "--journal") {
    s.journal = value;
  } else if (flag == "--resume") {  // needs a journal
    s.supervise = true;
    s.resume = true;
  } else if (flag == "--max-retries") {
    s.max_retries = parse_flag_count(f, value);
  } else if (flag == "--watchdog-ms") {
    s.watchdog_ms = static_cast<double>(parse_flag_count(f, value));
  } else if (flag == "--sweep-jobs") {
    s.sweep_jobs = std::max(1L, parse_flag_count(f, value));
  } else if (flag == "--sweep-rss-mb") {
    s.sweep_rss_mb = parse_flag_count(f, value);
  } else if (flag == "--list-fault-sites") {
    s.list_fault_sites = true;
  } else {  // --fault-inject
    try {
      fault::configure(value);
    } catch (const ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }
}

}  // namespace detail

/// Parses the harness flags (the table in the header comment) and remembers
/// their values. Value flags also accept the --flag=value spelling. An
/// unknown argument, a value flag without its value, a malformed count or a
/// malformed fault spec exits with status 2 before anything runs: a typo
/// must not silently run the default configuration. Arguments starting with
/// `pass_through` (bench_bdd passes "--benchmark_") are left in argv, in
/// order, for the caller's own parser.
inline void parse_flags(int* argc, char** argv, const char* pass_through = nullptr) {
  detail::StatsSink& s = detail::sink();
  if (*argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    s.binary = slash != nullptr ? slash + 1 : argv[0];
  }
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (pass_through != nullptr && arg.rfind(pass_through, 0) == 0) {
      argv[out++] = argv[i];
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto* flag = std::find_if(std::begin(detail::kFlags), std::end(detail::kFlags),
                                    [&name](const detail::Flag& f) { return name == f.name; });
    if (flag == std::end(detail::kFlags)) detail::usage_error("unknown flag '" + arg + "'");
    if (flag->arg == nullptr) {
      if (eq != std::string::npos) detail::usage_error(name + " takes no value");
      detail::apply_flag(name, nullptr);
      continue;
    }
    const char* value = nullptr;
    if (eq != std::string::npos)
      value = argv[i] + eq + 1;
    else if (i + 1 < *argc && std::strncmp(argv[i + 1], "--", 2) != 0)
      value = argv[++i];
    if (value == nullptr || *value == '\0')
      detail::usage_error("missing value: " + name + " " + flag->arg);
    detail::apply_flag(name, value);
  }
  *argc = out;
  if (s.list_fault_sites) {
    detail::print_fault_sites();
    std::exit(0);
  }
  if (s.no_cache) {
    cache::configure(cache::CacheConfig::disabled());
  } else if (s.cache_mb >= 0) {
    cache::CacheConfig cfg;
    cfg.max_bytes = static_cast<std::size_t>(s.cache_mb) << 20;
    cache::configure(cfg);
  }
}

/// The budget requested on the command line ({} when none was given).
inline const ResourceBudget& cli_budget() { return detail::sink().budget; }

/// The --jobs value from the command line (1 when not given).
inline int cli_jobs() { return detail::sink().jobs; }

/// The effective pipeline spec from --passes / --no-odc ("" = default
/// pipeline). --no-odc filters odc_resubst out of whatever pipeline was
/// chosen, so it composes with an explicit --passes.
inline std::string cli_passes() {
  const detail::StatsSink& s = detail::sink();
  if (!s.no_odc) return s.passes;
  const std::string base = s.passes.empty() ? default_pipeline_spec() : s.passes;
  std::string out;
  for (const std::string& name : net::parse_pipeline_spec(base)) {
    if (name == "odc_resubst") continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

namespace detail {

/// Prints why the stats file could not be written and exits 1: a sweep
/// must not report stats it did not write.
[[noreturn]] inline void stats_write_failed(const char* what, const std::string& path,
                                            int err) {
  std::fprintf(stderr, "cannot %s %s: %s\n", what, path.c_str(), std::strerror(err));
  std::exit(1);
}

/// Commits the stats document so far to the --stats-json path via temp +
/// fsync + rename: a reader (or a crash) never sees a torn document, and a
/// mid-sweep death keeps every completed record. Any failed step is fatal
/// (stats_write_failed).
inline void flush_stats_json() {
  const StatsSink& s = sink();
  if (s.path.empty()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("binary").value(s.binary);
  if (s.supervise) {
    // Parent-process supervisor counters (docs/OBSERVABILITY.md).
    w.key("supervisor").begin_object();
    for (const char* name : {"spawned", "retries", "crashes", "timeouts",
                             "soft_timeouts", "oom_kills", "resumed_rows",
                             "failed_rows", "admission_waits"})
      w.key(name).value(obs::counter_value(std::string("super.") + name));
    w.key("concurrent_peak")
        .value(static_cast<std::int64_t>(obs::gauge_value("super.concurrent_peak")));
    w.end_object();
  }
  w.key("runs").begin_array();
  for (const std::string& row : s.rows) w.raw(row);
  w.end_array();
  w.end_object();
  const std::string tmp = s.path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) stats_write_failed("open", tmp, errno);
  bool ok = std::fputs(w.str().c_str(), f) >= 0 && std::fputc('\n', f) != EOF &&
            std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  int err = errno;
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok) stats_write_failed("write", tmp, err);
  if (std::rename(tmp.c_str(), s.path.c_str()) != 0)
    stats_write_failed("rename", tmp + " to " + s.path, errno);
}

/// Records a pre-serialized run document and recommits the stats file.
inline void record_run_json(const std::string& row_json) {
  StatsSink& s = sink();
  if (s.path.empty()) return;
  s.rows.push_back(row_json);
  flush_stats_json();
}

}  // namespace detail

/// Records a completed flow run for --stats-json output (no-op when the flag
/// was not given) and incrementally recommits the stats document, so a
/// mid-sweep crash loses at most the in-flight run. run_sweep() records its
/// rows itself.
inline void record_run(const FlowRun& row) {
  if (detail::sink().path.empty()) return;
  detail::record_run_json(detail::flow_run_json(row));
}

/// Final commit of the collected records plus the console summary. Safe to
/// call unconditionally at the end of main.
inline void write_stats_json() {
  const detail::StatsSink& s = detail::sink();
  if (s.path.empty()) return;
  detail::flush_stats_json();
  std::printf("stats written to %s (%zu runs)\n", s.path.c_str(), s.rows.size());
}

namespace detail {

/// The in-process run of one sweep row. `rung` carries the supervisor's
/// retry budget clamps ({} = none): nonzero fields take the minimum with
/// whatever budget the run already had, so a retried row degrades through
/// the normal ladder instead of re-dying.
inline FlowRun run_row_local(const SweepRow& sweep_row, const super::RetryRung& rung) {
  const std::string& name = sweep_row.circuit;
  const std::string& flow = sweep_row.flow;
  FlowRun row;
  row.circuit = name;
  row.flow = flow;
  try {
    bdd::Manager m;
    const circuits::Benchmark bench = circuits::build(name, m);
    SynthesisOptions governed = sweep_row.options;
    const ResourceBudget& cli = cli_budget();
    if (cli.time_ms > 0.0) governed.budget.time_ms = cli.time_ms;
    if (cli.node_ceiling != 0) governed.budget.node_ceiling = cli.node_ceiling;
    if (rung.time_budget_ms > 0.0)
      governed.budget.time_ms = governed.budget.time_ms > 0.0
                                    ? std::min(governed.budget.time_ms,
                                               rung.time_budget_ms)
                                    : rung.time_budget_ms;
    if (rung.node_budget != 0)
      governed.budget.node_ceiling =
          governed.budget.node_ceiling != 0
              ? std::min(governed.budget.node_ceiling, rung.node_budget)
              : rung.node_budget;
    governed.decomp.boundset.jobs = cli_jobs();
    if (const std::string p = cli_passes(); !p.empty()) governed.passes = p;
    if (!sink().dump_net.empty())
      governed.dump_net =
          sink().dump_net + "." + name + (flow.empty() ? "" : "." + flow);
    row.jobs = cli_jobs();
    Synthesizer synth(governed);
    const SynthesisResult r = synth.run(bench);
    row.inputs = bench.num_inputs;
    row.outputs = static_cast<int>(bench.outputs.size());
    row.luts = r.network.count_luts();
    row.clb_greedy = r.clb_greedy.num_clbs;
    row.clb_matching = r.clb_matching.num_clbs;
    row.gates = r.network.count_gates();
    row.depth = r.network.depth();
    row.network_hash = network_hash(r.network);
    row.stats = r.stats;
    row.seconds = r.seconds;
    row.verified = r.verified;
    row.degradation = r.degradation;
    row.passes = r.passes;
    row.report = r.report;
  } catch (const Error& e) {
    row.error = e.what();
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
  } catch (const std::bad_alloc&) {
    row.error = "allocation failure (bad_alloc)";
    std::fprintf(stderr, "%s: %s\n", name.c_str(), row.error.c_str());
  }
  return row;
}

/// Rebuilds a FlowRun from its serialized run document (flow_run_json) —
/// how supervised/resumed rows reach the printed tables. The obs report is
/// not reconstructed (the raw document, which still carries it, is what
/// --stats-json republishes).
inline FlowRun flow_run_from_json(const std::string& row_json) {
  const super::JsonValue v = super::parse_json(row_json);
  FlowRun row;
  row.circuit = v.string_or("circuit");
  row.flow = v.string_or("flow");
  row.inputs = static_cast<int>(v.int_or("inputs"));
  row.outputs = static_cast<int>(v.int_or("outputs"));
  row.luts = static_cast<int>(v.int_or("luts"));
  row.clb_greedy = static_cast<int>(v.int_or("clb_greedy"));
  row.clb_matching = static_cast<int>(v.int_or("clb_matching"));
  row.gates = static_cast<int>(v.int_or("gates"));
  row.depth = static_cast<int>(v.int_or("depth"));
  row.network_hash = v.string_or("network_hash");
  row.seconds = v.double_or("seconds");
  row.jobs = static_cast<int>(v.int_or("jobs", 1));
  row.verified = v.bool_or("verified");
  row.error = v.string_or("error");
  if (const super::JsonValue* d = v.find("decompose")) {
    row.stats.decomposition_steps = static_cast<int>(d->int_or("steps"));
    row.stats.shannon_fallbacks = static_cast<int>(d->int_or("shannon_fallbacks"));
    row.stats.total_decomposition_functions = d->int_or("functions");
    row.stats.sum_r = d->int_or("sum_r");
    row.stats.symmetrized_pairs = static_cast<int>(d->int_or("symmetrized_pairs"));
    row.stats.max_depth = static_cast<int>(d->int_or("max_depth"));
    row.stats.bdd_mux_fallbacks = static_cast<int>(d->int_or("bdd_mux_fallbacks"));
    row.stats.encoding_pool_hits = d->int_or("encoding_pool_hits");
  }
  if (const super::JsonValue* p = v.find("passes"); p != nullptr && p->is_array()) {
    for (const super::JsonValue& e : p->elements) {
      net::PassStats ps;
      ps.name = e.string_or("name");
      ps.ran = e.bool_or("ran");
      ps.changed = e.bool_or("changed");
      ps.skip_reason = e.string_or("skip_reason");
      ps.luts_before = static_cast<int>(e.int_or("luts_before"));
      ps.luts_after = static_cast<int>(e.int_or("luts_after"));
      ps.seconds = e.double_or("seconds");
      row.passes.push_back(std::move(ps));
    }
  }
  if (const super::JsonValue* d = v.find("degradation")) {
    row.degradation.final_level = static_cast<int>(d->int_or("final_level"));
    row.degradation.suspended_sections =
        static_cast<std::uint64_t>(d->int_or("suspended_sections"));
    if (const super::JsonValue* lv = d->find("per_output_level");
        lv != nullptr && lv->is_array())
      for (const super::JsonValue& e : lv->elements)
        row.degradation.per_output_level.push_back(e.as_int());
    if (const super::JsonValue* ev = d->find("events");
        ev != nullptr && ev->is_array())
      for (const super::JsonValue& e : ev->elements) {
        DegradeEvent de;
        de.from_level = static_cast<int>(e.int_or("from"));
        de.to_level = static_cast<int>(e.int_or("to"));
        de.phase = e.string_or("phase");
        de.reason = e.string_or("reason");
        row.degradation.events.push_back(std::move(de));
      }
  }
  return row;
}

/// The sweep supervisor of this process (--supervise), built lazily from
/// the command-line flags. Intentionally leaked: its journal fd must stay
/// valid for any row, whatever the static destruction order.
inline super::Supervisor& supervisor() {
  static super::Supervisor* s = [] {
    const StatsSink& snk = sink();
    super::SupervisorOptions o;
    o.journal_path = !snk.journal.empty() ? snk.journal : snk.binary + ".journal";
    o.resume = snk.resume;
    o.binary = snk.binary;
    if (snk.max_retries >= 0) o.retry.max_retries = static_cast<int>(snk.max_retries);
    o.limits.watchdog_ms = snk.watchdog_ms > 0.0 ? snk.watchdog_ms : 300000.0;
    o.sweep_jobs = static_cast<int>(snk.sweep_jobs);
    o.rss_cap_mb = static_cast<double>(snk.sweep_rss_mb);
    return new super::Supervisor(o);
  }();
  return *s;
}

/// The journal key of a row: "<circuit>/<flow>", or the circuit alone.
inline std::string row_key(const SweepRow& row) {
  return row.flow.empty() ? row.circuit : row.circuit + "/" + row.flow;
}

/// Registers a row with the supervisor ahead of its harvest, so
/// --sweep-jobs children can overlap independent rows.
inline void plan_flow(const SweepRow& row) {
  supervisor().plan_row(row_key(row), [row](const super::RetryRung& rung) {
    return flow_run_json(run_row_local(row, rung));
  });
}

/// Runs (or, supervised, harvests) one row and records it for --stats-json.
///
/// A typed error (a fault injected outside the degradation ladder, or a
/// budget trip even degradation could not absorb) does NOT kill the sweep:
/// the row is recorded with `error` set and all-zero metrics, and the next
/// row runs.
///
/// Under --supervise the run happens in a forked, watchdogged child
/// (docs/ROBUSTNESS.md §"Sweep supervision"): a crash, OOM kill, or hang
/// costs only this row's attempt, the outcome lands durably in the journal,
/// and a --resume rerun replays completed rows instead of re-running them.
inline FlowRun run_flow(const SweepRow& sweep_row) {
  if (!sink().supervise) {
    FlowRun row = run_row_local(sweep_row, {});
    record_run(row);
    return row;
  }
  const std::string key = row_key(sweep_row);
  const super::RowOutcome out =
      supervisor().run_row(key, [&sweep_row](const super::RetryRung& rung) {
        return flow_run_json(run_row_local(sweep_row, rung));
      });
  if (out.ok()) {
    // Republish the child's (or the journal's) document verbatim so
    // supervised, resumed, and unsupervised stats stay bit-identical.
    record_run_json(out.payload);
    try {
      return flow_run_from_json(out.payload);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: unreadable run document (%s)\n", key.c_str(),
                   e.what());
    }
  }
  FlowRun row;
  row.circuit = sweep_row.circuit;
  row.flow = sweep_row.flow;
  if (!out.ok()) {
    row.error = "supervisor: " + out.reason;
    std::fprintf(stderr, "%s: %s\n", key.c_str(), row.error.c_str());
    record_run(row);
  }
  return row;
}

}  // namespace detail

/// Runs a sweep: each row is a fresh-manager synthesis of a named circuit
/// (circuits::build) under its options, with any --time-budget-ms /
/// --node-budget from the command line overriding the options' budget
/// fields (only the ones actually given). Returns one FlowRun per row, in
/// row order, and records each for --stats-json.
///
/// Under --supervise every row is planned up front, so --sweep-jobs n
/// children overlap independent rows; results are still harvested in row
/// order, so printed tables and --stats-json records are bit-identical to
/// an unsupervised sweep.
inline std::vector<FlowRun> run_sweep(const std::vector<SweepRow>& rows) {
  if (detail::sink().supervise)
    for (const SweepRow& row : rows) detail::plan_flow(row);
  std::vector<FlowRun> runs;
  runs.reserve(rows.size());
  for (const SweepRow& row : rows) runs.push_back(detail::run_flow(row));
  return runs;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace mfd::bench

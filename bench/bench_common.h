// Shared helpers for the experiment harness binaries (one per paper
// table/figure, see DESIGN.md's per-experiment index).
//
// Every binary supports `--stats-json <path>` (or `--stats-json=<path>`):
// each run_flow() call is recorded with its full observability report and
// the collected records are written as one JSON document at exit. Call
// init_stats() before benchmark::Initialize (it strips the flag from argv)
// and write_stats_json() before returning from main.
//
// Robustness flags (also stripped by init_stats, applied by run_flow):
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
//   --repro <file>         replay a fuzz reproducer (docs/FUZZING.md) and
//                          exit 0 iff its failure no longer reproduces
// Budget overruns do not crash: the flow degrades (see docs/ROBUSTNESS.md)
// and the --stats-json record carries the DegradationReport. With
// --stats-json the document is also recommitted (temp + rename) after every
// run, so a mid-sweep crash keeps all completed records.
#pragma once

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
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
#include "verify/repro.h"

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
    for (bool bit : lut.table) mix(bit);
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

}  // namespace detail

/// Strips the harness flags from argv (so they never reach
/// benchmark::Initialize) and remembers their values:
///   --stats-json <path>      record runs, write one JSON document at exit
///   --time-budget-ms <n>     per-run wall-clock budget (0 = unlimited)
///   --node-budget <n>        per-run BDD node ceiling (0 = unlimited)
///   --fault-inject <spec>    arm fault-injection rules (core/faultinject.h)
///   --jobs <n>               bound-set evaluation threads (default 1)
///   --cache-mb <n>           multiplicity cache byte budget in MiB
///   --no-cache               disable all memoization (docs/CACHING.md)
/// All flags also accept the --flag=value spelling. A malformed fault spec
/// or count exits with status 2 rather than running unprotected.
inline void init_stats(int* argc, char** argv) {
  detail::StatsSink& s = detail::sink();
  if (*argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    s.binary = slash != nullptr ? slash + 1 : argv[0];
  }
  auto apply = [&s](const char* flag, const char* value) {
    if (std::strcmp(flag, "--stats-json") == 0) {
      s.path = value;
    } else if (std::strcmp(flag, "--time-budget-ms") == 0) {
      s.budget.time_ms = static_cast<double>(detail::parse_flag_count(flag, value));
    } else if (std::strcmp(flag, "--node-budget") == 0) {
      s.budget.node_ceiling =
          static_cast<std::size_t>(detail::parse_flag_count(flag, value));
    } else if (std::strcmp(flag, "--jobs") == 0) {
      s.jobs = std::max(1, static_cast<int>(detail::parse_flag_count(flag, value)));
    } else if (std::strcmp(flag, "--cache-mb") == 0) {
      s.cache_mb = detail::parse_flag_count(flag, value);
    } else if (std::strcmp(flag, "--passes") == 0) {
      s.passes = value;
    } else if (std::strcmp(flag, "--dump-net") == 0) {
      s.dump_net = value;
    } else if (std::strcmp(flag, "--journal") == 0) {
      s.journal = value;
    } else if (std::strcmp(flag, "--max-retries") == 0) {
      s.max_retries = detail::parse_flag_count(flag, value);
    } else if (std::strcmp(flag, "--watchdog-ms") == 0) {
      s.watchdog_ms = static_cast<double>(detail::parse_flag_count(flag, value));
    } else if (std::strcmp(flag, "--sweep-jobs") == 0) {
      s.sweep_jobs = std::max(1L, detail::parse_flag_count(flag, value));
    } else if (std::strcmp(flag, "--sweep-rss-mb") == 0) {
      s.sweep_rss_mb = detail::parse_flag_count(flag, value);
    } else {  // --fault-inject
      try {
        fault::configure(value);
      } catch (const ParseError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    }
  };
  static constexpr const char* kFlags[] = {"--stats-json", "--time-budget-ms",
                                           "--node-budget", "--fault-inject",
                                           "--jobs", "--cache-mb",
                                           "--passes", "--dump-net",
                                           "--journal", "--max-retries",
                                           "--watchdog-ms", "--sweep-jobs",
                                           "--sweep-rss-mb"};
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    bool consumed = false;
    if (std::strcmp(arg, "--no-cache") == 0) {  // valueless flag
      s.no_cache = true;
      continue;
    }
    if (std::strcmp(arg, "--no-odc") == 0) {  // valueless flag
      s.no_odc = true;
      continue;
    }
    if (std::strcmp(arg, "--supervise") == 0) {  // valueless flag
      s.supervise = true;
      continue;
    }
    if (std::strcmp(arg, "--resume") == 0) {  // valueless flag; needs a journal
      s.supervise = true;
      s.resume = true;
      continue;
    }
    if (std::strcmp(arg, "--repro") == 0 && i + 1 < *argc) {
      // Replay a fuzz reproducer (docs/FUZZING.md) instead of benchmarking:
      // exit 0 iff the recorded failure no longer reproduces.
      const char* path = argv[i + 1];
      try {
        const verify::OracleResult r = verify::replay_repro_file(path);
        if (r.ok) {
          std::printf("repro %s: PASS (%d points, %d checks)\n", path,
                      r.points_run, r.checks_run);
          std::exit(0);
        }
        std::printf("repro %s: FAIL at %s: %s\n", path, r.failing_point.c_str(),
                    r.failure.c_str());
        std::exit(1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--repro: %s\n", e.what());
        std::exit(2);
      }
    }
    if (std::strcmp(arg, "--list-fault-sites") == 0) {
      std::printf("instrumented fault sites (arm with --fault-inject "
                  "'site@k[:kind]', see docs/ROBUSTNESS.md):\n");
      for (const std::string& site : fault::registered_sites())
        std::printf("  %s\n", site.c_str());
      std::printf("kinds:");
      bool first = true;
      for (const std::string& kind : fault::kind_names()) {
        std::printf("%s %s%s", first ? "" : ",", kind.c_str(),
                    first ? " (default)" : "");
        first = false;
      }
      std::printf("\n");
      std::exit(0);
    }
    for (const char* flag : kFlags) {
      const std::size_t n = std::strlen(flag);
      if (std::strcmp(arg, flag) == 0 && i + 1 < *argc) {
        apply(flag, argv[++i]);
        consumed = true;
        break;
      }
      if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') {
        apply(flag, arg + n + 1);
        consumed = true;
        break;
      }
    }
    if (!consumed) argv[out++] = argv[i];
  }
  *argc = out;
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

/// Commits the stats document so far to the --stats-json path via temp +
/// fsync + rename: a reader (or a crash) never sees a torn document, and a
/// mid-sweep death keeps every completed record.
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
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", tmp.c_str());
    return;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  if (std::rename(tmp.c_str(), s.path.c_str()) != 0)
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(), s.path.c_str());
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
/// mid-sweep crash loses at most the in-flight run. run_flow() calls this
/// automatically.
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

/// The in-process flow run (the pre-supervisor run_flow body). `rung`
/// carries the supervisor's retry budget clamps ({} = none): nonzero fields
/// take the minimum with whatever budget the run already had, so a retried
/// row degrades through the normal ladder instead of re-dying.
inline FlowRun run_flow_local(const std::string& name, const SynthesisOptions& opts,
                              const std::string& flow, const super::RetryRung& rung) {
  FlowRun row;
  row.circuit = name;
  row.flow = flow;
  try {
    bdd::Manager m;
    const circuits::Benchmark bench = circuits::build(name, m);
    SynthesisOptions governed = opts;
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
/// valid for any run_flow call, whatever the static destruction order.
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

}  // namespace detail

/// Runs one synthesis flow on a named benchmark in a fresh manager. Any
/// --time-budget-ms / --node-budget from the command line overrides the
/// options' budget fields (only the ones actually given).
///
/// A typed error (a fault injected outside the degradation ladder, or a
/// budget trip even degradation could not absorb) does NOT kill the sweep:
/// the row is recorded with `error` set and all-zero metrics, and the next
/// circuit runs.
///
/// Under --supervise the run happens in a forked, watchdogged child
/// (docs/ROBUSTNESS.md §"Sweep supervision"): a crash, OOM kill, or hang
/// costs only this row's attempt, the outcome lands durably in the journal,
/// and a --resume rerun replays completed rows instead of re-running them.
inline FlowRun run_flow(const std::string& name, const SynthesisOptions& opts,
                        const std::string& flow = "") {
  if (!detail::sink().supervise) {
    FlowRun row = detail::run_flow_local(name, opts, flow, {});
    record_run(row);
    return row;
  }
  const std::string key = flow.empty() ? name : name + "/" + flow;
  const super::RowOutcome out = detail::supervisor().run_row(
      key, [&name, &opts, &flow](const super::RetryRung& rung) {
        return detail::flow_run_json(detail::run_flow_local(name, opts, flow, rung));
      });
  if (out.ok()) {
    // Republish the child's (or the journal's) document verbatim so
    // supervised, resumed, and unsupervised stats stay bit-identical.
    detail::record_run_json(out.payload);
    try {
      return detail::flow_run_from_json(out.payload);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: unreadable run document (%s)\n", key.c_str(),
                   e.what());
    }
  }
  FlowRun row;
  row.circuit = name;
  row.flow = flow;
  if (!out.ok()) {
    row.error = "supervisor: " + out.reason;
    std::fprintf(stderr, "%s: %s\n", key.c_str(), row.error.c_str());
    record_run(row);
  }
  return row;
}

/// Registers a flow for background execution ahead of its run_flow call, so
/// --sweep-jobs children can overlap independent rows. No-op unless
/// supervised (sequential binaries need no plan). Call once per upcoming
/// run_flow, in any order — results still come back in run_flow call order,
/// so tables and --stats-json stay bit-identical to an unplanned sweep.
inline void plan_flow(const std::string& name, const SynthesisOptions& opts,
                      const std::string& flow = "") {
  if (!detail::sink().supervise) return;
  const std::string key = flow.empty() ? name : name + "/" + flow;
  detail::supervisor().plan_row(
      key, [name, opts, flow](const super::RetryRung& rung) {
        return detail::flow_run_json(detail::run_flow_local(name, opts, flow, rung));
      });
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace mfd::bench

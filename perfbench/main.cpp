// mfd_perfbench: the repository benchmark (perfbench/README.md).
//
//   mfd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--dc-seed <n>] [--dc-cubes <n>] [--dc-lits <n>]
//                 [--layer-json <path>]
//
// One process, one thread, one closed loop: every spec starts only after
// the previous one returned, in a fixed order, and the memo caches are
// cleared before each pass over the specs, so each spec meets the caches in
// the same state on every pass and every run.
//
// --trace 0 times Synthesizer::run with obs disabled over a fixed number of
// passes, enough to fill --seconds at the workload's nominal pass time (at
// least kMinPasses), and prints the end-to-end metrics. --trace 1 runs one
// pass driven pass by pass through the public pipeline API with obs enabled
// (the per-layer numbers), one untraced pass through Synthesizer::run, and
// one rerun of that with obs enabled (its time over the untraced pass's is
// the tracing overhead), and prints the per-layer metrics. Both modes check
// every result (the flow's verifier, plus simulate_check on the first
// untraced pass) and gate on determinism: every pass must reproduce the
// untraced pass's networks, counts and BDD work. The last stdout line is one
// JSON object; the exit code is non-zero on any failed check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/budget.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "net/simulate.h"
#include "obs/obs.h"
#include "probe.h"
#include "simcheck.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Spec;
using perfbench::Workload;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kSetups = 15;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  perfbench::DcShape dc;
  std::string layer_json;
};

Args parse_args(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::runtime_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  auto number = [](const std::string& flag, const std::string& v) {
    std::size_t used = 0;
    const long long x = std::stoll(v, &used);
    if (used != v.size() || x < 0) throw std::runtime_error("bad value for " + flag + ": " + v);
    return x;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--workload") a.workload = need(i);
    else if (f == "--seed") a.seed = static_cast<std::uint64_t>(number(f, need(i)));
    else if (f == "--seconds") a.seconds = static_cast<double>(number(f, need(i)));
    else if (f == "--trace") a.trace = static_cast<int>(number(f, need(i)));
    else if (f == "--dc-seed") a.dc.seed = static_cast<std::uint64_t>(number(f, need(i)));
    else if (f == "--dc-cubes") a.dc.cubes = static_cast<int>(number(f, need(i)));
    else if (f == "--dc-lits") a.dc.lits = static_cast<int>(number(f, need(i)));
    else if (f == "--layer-json") a.layer_json = need(i);
    else throw std::runtime_error("unknown argument " + f);
  }
  if (perfbench::find_workload(a.workload) == nullptr)
    throw std::runtime_error("unknown --workload '" + a.workload + "'");
  if (a.seconds < 1.0) throw std::runtime_error("--seconds must be at least 1");
  if (a.trace != 0 && a.trace != 1) throw std::runtime_error("--trace must be 0 or 1");
  if (a.dc.cubes < 1 || a.dc.lits < 1)
    throw std::runtime_error("--dc-cubes/--dc-lits must be >= 1");
  return a;
}

/// FNV-1a over the whole network as the public accessors show it: the
/// primary-input count, every LUT's fanins and table, and the outputs.
/// (LutNetwork::to_string() is a one-line summary, too coarse to hash.)
std::uint64_t network_hash(const mfd::net::LutNetwork& net) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (x >> b) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(net.num_primary_inputs()));
  for (int i = 0; i < net.num_luts(); ++i) {
    const mfd::net::Lut& lut = net.lut(i);
    mix(lut.inputs.size());
    for (int s : lut.inputs) mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s)));
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < lut.table.size(); ++b) {
      if (lut.table[b]) word |= std::uint64_t{1} << (b % 64);
      if (b % 64 == 63 || b + 1 == lut.table.size()) {
        mix(word);
        word = 0;
      }
    }
  }
  for (int s : net.outputs()) mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s)));
  return h;
}

/// What the determinism gate compares per spec across passes.
struct Fingerprint {
  std::uint64_t net_hash = 0;  ///< network_hash() of the emitted network
  int luts = 0;
  int clbs = 0;
  int clbs_matching = 0;
  std::uint64_t ite_lookups = 0;  ///< bdd computed-table lookups of the run
  bool operator==(const Fingerprint&) const = default;
};

struct SpecRun {
  double seconds = 0.0;  ///< Synthesizer::run, or the whole traced run
  bool ok = false;       ///< no throw, verified, output check passed
  Fingerprint fp;
};

struct PassRun {
  std::vector<SpecRun> specs;
  /// machine_probe() times: before the set-up, before each spec, and after
  /// the last spec, so probes[i + 1] and probes[i + 2] bracket spec i.
  std::vector<double> probes;
  double probe_s() const { return perfbench::median(probes); }
  /// Spec i's time scaled to the reference machine speed by the median of
  /// the probes just before the previous spec, before it and after it.
  double scaled(std::size_t i) const {
    const double local = perfbench::median({probes[i], probes[i + 1], probes[i + 2]});
    return specs[i].seconds * perfbench::kProbeReferenceS / local;
  }
  double synth_s() const {
    double s = 0.0;
    for (const SpecRun& r : specs) s += r.seconds;
    return s;
  }
};

/// Per-layer accumulators of the traced passes, by metric name.
using Layers = std::map<std::string, double>;

void keep_max(Layers& l, const std::string& name, double v) {
  double& x = l[name];
  if (v > x) x = v;
}

/// Summed seconds of the phases named `name` anywhere in the tree, without
/// descending into a match (self-nested phases merge into one node anyway).
double phase_seconds(const mfd::obs::PhaseNode& n, const std::string& name) {
  if (n.name == name) return n.seconds;
  double s = 0.0;
  for (const mfd::obs::PhaseNode& c : n.children) s += phase_seconds(c, name);
  return s;
}

double counter(const mfd::obs::Report& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
}

struct Emitted {
  mfd::net::LutNetwork network;
  int clbs = 0;
  int clbs_matching = 0;
  bool verified = false;
};

/// The flow of Synthesizer::run, driven pass by pass from outside: the same
/// governor set-up and pipeline, each Pass::run and the exact check timed
/// here, counts read from obs and bdd::Manager::stats().
Emitted run_traced(Spec& s, Layers& layers, double& seconds) {
  const auto t0 = Clock::now();
  mfd::obs::reset();
  const mfd::bdd::ManagerStats before = s.mgr->stats();
  Emitted e;
  double spans = 0.0;
  {
    mfd::ResourceGovernor gov(s.opts.budget);
    mfd::ResourceGovernor::Scope gov_scope(gov);
    mfd::net::PassPipeline pipeline = mfd::build_pipeline(s.opts.passes, s.opts);
    mfd::DecomposeStats stats;
    mfd::map::ClbResult greedy, matching;
    mfd::net::PassContext ctx;
    ctx.manager = s.mgr.get();
    ctx.spec = &s.isfs;
    ctx.pi_vars = &s.pi_vars;
    ctx.options = &s.opts;
    ctx.governor = &gov;
    ctx.circuit = s.name;
    ctx.stats = &stats;
    ctx.clb_greedy = &greedy;
    ctx.clb_matching = &matching;
    for (const auto& pass : pipeline.passes()) {
      // PassPipeline::run's rule for droppable passes.
      if (pass->optional() && (gov.report().degraded() || gov.deadline_expired())) continue;
      const int luts_before = e.network.count_luts();
      const auto p0 = Clock::now();
      pass->run(e.network, ctx);
      const double dt = since(p0);
      spans += dt;
      layers["pass." + std::string(pass->name()) + "_s"] += dt;
      if (std::string(pass->name()) == "odc_resubst")
        layers["odc.luts_removed"] += luts_before - e.network.count_luts();
    }
    gov.set_per_output_levels(stats.output_degrade_level);
    mfd::ResourceGovernor::SuspendScope suspend(gov);
    const auto v0 = Clock::now();
    std::string error;
    e.verified = mfd::net::check_exact(e.network, s.isfs, s.pi_vars, &error);
    const double dt = since(v0);
    spans += dt;
    layers["verify.check_exact_s"] += dt;
    if (!e.verified)
      std::fprintf(stderr, "%s: traced verify failed: %s\n", s.name.c_str(), error.c_str());
    e.clbs = greedy.num_clbs;
    e.clbs_matching = matching.num_clbs;
  }
  seconds = since(t0);
  layers["trace.unaccounted_s"] += seconds - spans;

  const mfd::obs::Report r = mfd::obs::collect();
  for (const char* phase : {"boundset", "sift", "symmetrize", "share", "per_output", "encode"})
    layers[std::string("decomp.") + phase + "_s"] += phase_seconds(r.phases, phase);
  layers["boundset.candidates"] += counter(r, "boundset.candidates_evaluated");
  layers["sym.symmetrize_calls"] += counter(r, "sym.symmetrize.calls");
  layers["encoding.pool_hits"] += counter(r, "encoding.pool_hits");
  layers["odc.rewrites"] += counter(r, "pass.odc.rewrites");
  layers["cache.multiplicity.hits"] += counter(r, "cache.multiplicity.hits");
  layers["cache.multiplicity.lookups"] +=
      counter(r, "cache.multiplicity.hits") + counter(r, "cache.multiplicity.misses");
  layers["cache.alpha_pool.hits"] += counter(r, "cache.alpha_pool.hits");
  layers["cache.alpha_pool.lookups"] +=
      counter(r, "cache.alpha_pool.hits") + counter(r, "cache.alpha_pool.misses");
  layers["clb.matching_pairs"] += counter(r, "clb.matching.pairs");

  const mfd::bdd::ManagerStats& after = s.mgr->stats();
  layers["bdd.ite_lookups"] += static_cast<double>(after.cache_lookups - before.cache_lookups);
  layers["bdd.ite_hits"] += static_cast<double>(after.cache_hits - before.cache_hits);
  layers["bdd.unique_hits"] += static_cast<double>(after.unique_hits - before.unique_hits);
  layers["bdd.gc_runs"] += static_cast<double>(after.gc_runs - before.gc_runs);
  layers["bdd.reorder_swaps"] += static_cast<double>(after.reorder_swaps - before.reorder_swaps);
  keep_max(layers, "bdd.peak_nodes_max", static_cast<double>(after.peak_nodes));
  return e;
}

enum class Mode {
  kUntraced,   ///< Synthesizer::run, obs disabled (the timed path)
  kSynthObs,   ///< Synthesizer::run, obs enabled (the traced rerun)
  kPassByPass  ///< run_traced, obs enabled
};

/// One pass over the workload's specs in a fresh set of managers.
/// `check_outputs` adds the independent simulation check of every result
/// (and, on spec 0, its self-test).
PassRun run_pass(const Workload& w, const Args& args, Mode mode, bool check_outputs,
                 Layers& layers) {
  PassRun p;
  p.probes.push_back(perfbench::machine_probe());
  std::vector<Spec> specs = perfbench::build_specs(w, args.dc);
  mfd::cache::clear();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Spec& s = specs[i];
    SpecRun run;
    p.probes.push_back(perfbench::machine_probe());
    const std::uint64_t lookups0 = s.mgr->stats().cache_lookups;
    try {
      Emitted e;
      if (mode == Mode::kPassByPass) {
        e = run_traced(s, layers, run.seconds);
      } else {
        mfd::Synthesizer synth(s.opts);
        std::vector<mfd::Isf> isfs = s.isfs;
        const auto r0 = Clock::now();
        mfd::SynthesisResult res = synth.run(std::move(isfs), s.pi_vars, s.name);
        run.seconds = since(r0);
        e.network = std::move(res.network);
        e.clbs = res.clb_greedy.num_clbs;
        e.clbs_matching = res.clb_matching.num_clbs;
        e.verified = res.verified;
        if (mode == Mode::kSynthObs) {
          layers["cache.flow.hits"] += counter(res.report, "cache.flow.hits");
          keep_max(layers, "cache.bytes_peak",
                static_cast<double>(mfd::cache::multiplicity_cache().bytes() +
                                    mfd::cache::flow_cache().bytes()));
        }
      }
      run.fp = {network_hash(e.network), e.network.count_luts(), e.clbs,
                e.clbs_matching, s.mgr->stats().cache_lookups - lookups0};
      run.ok = e.verified;
      if (check_outputs) {
        const perfbench::SimCheck c = perfbench::simulate_check(
            e.network, s.isfs, s.pi_vars, mfd::Rng(args.seed + 1000003 * i).next());
        if (!c.ok)
          std::fprintf(stderr, "%s: output check failed: %s\n", s.name.c_str(),
                       c.error.c_str());
        run.ok = run.ok && c.ok;
        if (i == 0) {
          const std::string err = perfbench::simcheck_self_test(e.network, s.isfs, s.pi_vars);
          if (!err.empty()) {
            std::fprintf(stderr, "output-check self-test failed: %s\n", err.c_str());
            run.ok = false;
          }
        }
        std::fprintf(stderr,
                     "  %-16s %9.2f ms  luts %4d  clb %4d/%4d  bdd peak %8zu  dc %.3f  sim %zu\n",
                     s.name.c_str(), 1e3 * run.seconds, run.fp.luts, run.fp.clbs,
                     run.fp.clbs_matching, s.mgr->stats().peak_nodes, s.dc_fraction, c.vectors);
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: %s\n", s.name.c_str(), ex.what());
      run.ok = false;
    }
    p.specs.push_back(run);
  }
  p.probes.push_back(perfbench::machine_probe());
  return p;
}

/// Spec-by-spec comparison with the reference pass; reports the first
/// mismatch.
bool same_results(const PassRun& ref, const PassRun& p, const Workload& w,
                  const char* what) {
  bool same = ref.specs.size() == p.specs.size();
  for (std::size_t i = 0; same && i < p.specs.size(); ++i) {
    if (ref.specs[i].fp == p.specs[i].fp) continue;
    const Fingerprint& a = ref.specs[i].fp;
    const Fingerprint& b = p.specs[i].fp;
    std::fprintf(stderr,
                 "determinism gate: %s differs on spec %zu of %s: hash %016llx/%016llx "
                 "luts %d/%d clb %d/%d %d/%d ite lookups %llu/%llu\n",
                 what, i, w.name.c_str(), static_cast<unsigned long long>(a.net_hash),
                 static_cast<unsigned long long>(b.net_hash), a.luts, b.luts, a.clbs, b.clbs,
                 a.clbs_matching, b.clbs_matching,
                 static_cast<unsigned long long>(a.ite_lookups),
                 static_cast<unsigned long long>(b.ite_lookups));
    same = false;
  }
  return same;
}

/// Pins the summary statistics on fixed vectors and checks tail >= median
/// on seeded random ones. Returns an empty string on success.
std::string stats_self_test() {
  using perfbench::geomean;
  using perfbench::median;
  using perfbench::tail;
  if (median({3, 1, 2}) != 2.0 || median({4, 1, 3, 2}) != 2.5) return "median";
  if (std::fabs(geomean({1, 4, 16}) - 4.0) > 1e-12) return "geomean";
  std::vector<double> ramp;
  for (int i = 1; i <= 30; ++i) ramp.push_back(i);
  const perfbench::Tail t30 = tail(ramp);
  if (t30.value != 20.0 || t30.index != 19 || t30.samples_beyond() != 10) return "tail of 1..30";
  if (tail({5, 1, 4, 2, 3}).value != 3.0) return "tail of 5 samples";
  mfd::Rng rng(7);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(rng.below(1000)));
    if (tail(v).value < median(v)) return "tail below median";
  }
  return {};
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

std::size_t count_failed(const std::vector<PassRun>& passes, std::size_t& attempted) {
  std::size_t failed = 0;
  for (const PassRun& p : passes)
    for (const SpecRun& r : p.specs) {
      ++attempted;
      if (!r.ok) ++failed;
    }
  return failed;
}

/// setup_s: the median of kSetups builds of the workload's specs, each
/// scaled to the reference machine speed by the mean of the probes just
/// before and after it (README.md, "Machine-speed scaling").
double measure_setup(const Workload& w, const Args& args) {
  std::vector<double> scaled;
  double before = perfbench::machine_probe();
  for (std::size_t k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    double t = 0.0;
    {
      const std::vector<Spec> specs = perfbench::build_specs(w, args.dc);
      t = since(t0);
    }
    const double after = perfbench::machine_probe();
    scaled.push_back(t * perfbench::kProbeReferenceS / (0.5 * (before + after)));
    before = after;
  }
  return perfbench::median(scaled);
}

/// --trace 0: the end-to-end metrics.
int run_untraced(const Workload& w, const Args& args) {
  mfd::obs::set_enabled(false);
  const double setup_s = measure_setup(w, args);
  Layers unused;
  std::vector<PassRun> passes;
  bool deterministic = true;
  // A fixed pass count, not one that depends on the measured speed, so that
  // every run and every commit yields the same samples (the tail's rank).
  const std::size_t num_passes =
      std::max(kMinPasses, static_cast<std::size_t>(args.seconds / w.pass_seconds));
  while (passes.size() < num_passes) {
    passes.push_back(run_pass(w, args, Mode::kUntraced, passes.empty(), unused));
    std::fprintf(stderr, "pass %zu: synth %.3f s unscaled, probe median %.4f ms\n",
                 passes.size(), passes.back().synth_s(), 1e3 * passes.back().probe_s());
    if (passes.size() > 1)
      deterministic = same_results(passes.front(), passes.back(), w, "rerun") && deterministic;
  }

  // Every spec time below is scaled to the reference machine speed by the
  // probes around it (README.md, "Machine-speed scaling"). synth_s sums each
  // spec's median over the passes; the other timings summarize every timed
  // run.
  std::vector<double> probes;
  for (const PassRun& p : passes) probes.insert(probes.end(), p.probes.begin(), p.probes.end());
  const std::size_t num_specs = passes.front().specs.size();
  std::vector<std::vector<double>> per_spec(num_specs), unscaled(num_specs);
  std::vector<double> samples_ms;
  for (const PassRun& p : passes) {
    for (std::size_t i = 0; i < num_specs; ++i) {
      if (!p.specs[i].ok) continue;
      per_spec[i].push_back(p.scaled(i));
      unscaled[i].push_back(p.specs[i].seconds);
      samples_ms.push_back(1e3 * p.scaled(i));
    }
  }
  double synth_s = 0.0, synth_unscaled_s = 0.0;
  for (std::size_t i = 0; i < num_specs; ++i) {
    synth_s += perfbench::median(per_spec[i]);
    synth_unscaled_s += perfbench::median(unscaled[i]);
  }
  std::fprintf(stderr,
               "%s: probe median %.4f ms over %zu probes; synth_s %.3f s scaled, %.3f s "
               "unscaled\n",
               w.name.c_str(), 1e3 * perfbench::median(probes), probes.size(), synth_s,
               synth_unscaled_s);

  std::size_t attempted = 0;
  const std::size_t failed = count_failed(passes, attempted);
  double clbs = 0, clbs_matching = 0, luts = 0;
  for (const SpecRun& r : passes.front().specs) {
    clbs += r.fp.clbs;
    clbs_matching += r.fp.clbs_matching;
    luts += r.fp.luts;
  }
  const perfbench::Tail t = perfbench::tail(samples_ms);
  const double p50 = perfbench::median(samples_ms);
  std::fprintf(stderr,
               "%s: %zu passes x %zu specs; spec_ms_p50 %.3f ms and spec_ms_tail %.3f ms "
               "(rank %zu of %zu samples, %zu beyond)\n",
               w.name.c_str(), passes.size(), num_specs, p50, t.value,
               t.index + 1, t.count, t.samples_beyond());
  const bool correct = failed == 0 && deterministic && t.value >= p50;
  const std::vector<Metric> metrics = {
      {"synth_s", synth_s, "s"},
      {"spec_ms_geomean", perfbench::geomean(samples_ms), "ms"},
      {"spec_ms_p50", p50, "ms"},
      {"spec_ms_tail", t.value, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"clb_total", clbs, "count"},
      {"clb_matching_total", clbs_matching, "count"},
      {"lut_total", luts, "count"},
      {"spec_ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
  };
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

/// One per-layer metric with the bases of a ratio.
struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< JSON members naming the ratio's operands, or empty
};

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The times in `l` are unscaled, as the pass-by-pass run measured them;
/// machine.probe_ms is that run's median probe time, to scale them by.
std::vector<LayerMetric> layer_metrics(Layers& l, const PassRun& pass_by_pass,
                                       const PassRun& untraced, const PassRun& rerun) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::vector<LayerMetric> m;
  for (const char* pass : {"decompose", "simplify", "odc_resubst", "pack"}) {
    const std::string n = std::string("pass.") + pass + "_s";
    m.push_back({n, l[n], "s", ""});
  }
  m.push_back({"verify.check_exact_s", l["verify.check_exact_s"], "s", ""});
  for (const char* phase : {"boundset", "sift", "symmetrize", "share", "per_output", "encode"}) {
    const std::string n = std::string("decomp.") + phase + "_s";
    m.push_back({n, l[n], "s", ""});
  }
  m.push_back({"boundset.candidates", l["boundset.candidates"], "count", ""});
  m.push_back({"boundset.us_per_candidate",
               1e6 * ratio(l["decomp.boundset_s"], l["boundset.candidates"]), "us",
               "\"boundset_s\": " + num(l["decomp.boundset_s"]) +
                   ", \"candidates\": " + num(l["boundset.candidates"])});
  m.push_back({"sym.symmetrize_calls", l["sym.symmetrize_calls"], "count", ""});
  m.push_back({"encoding.pool_hits", l["encoding.pool_hits"], "count", ""});
  m.push_back({"odc.rewrites", l["odc.rewrites"], "count", ""});
  m.push_back({"odc.luts_removed", l["odc.luts_removed"], "count", ""});
  for (const char* c : {"multiplicity", "alpha_pool"}) {
    const std::string p = std::string("cache.") + c;
    m.push_back({p + ".hits", l[p + ".hits"], "count", ""});
    m.push_back({p + ".lookups", l[p + ".lookups"], "count", ""});
  }
  m.push_back({"cache.multiplicity.hit_ratio",
               ratio(l["cache.multiplicity.hits"], l["cache.multiplicity.lookups"]), "ratio",
               "\"hits\": " + num(l["cache.multiplicity.hits"]) +
                   ", \"lookups\": " + num(l["cache.multiplicity.lookups"])});
  m.push_back({"cache.flow.hits", l["cache.flow.hits"], "count", ""});
  m.push_back({"cache.bytes_peak", l["cache.bytes_peak"], "B", ""});
  m.push_back({"bdd.ite_lookups", l["bdd.ite_lookups"], "count", ""});
  m.push_back({"bdd.ite_hit_ratio", ratio(l["bdd.ite_hits"], l["bdd.ite_lookups"]), "ratio",
               "\"hits\": " + num(l["bdd.ite_hits"]) +
                   ", \"lookups\": " + num(l["bdd.ite_lookups"])});
  for (const char* c : {"bdd.unique_hits", "bdd.peak_nodes_max", "bdd.gc_runs", "bdd.reorder_swaps",
                        "clb.matching_pairs"})
    m.push_back({c, l[c], "count", ""});
  // Each pass's time over its own median probe, so that a change of machine
  // speed between the two passes does not read as tracing overhead.
  const double traced = rerun.synth_s() / rerun.probe_s();
  const double untraced_rel = untraced.synth_s() / untraced.probe_s();
  m.push_back({"trace_overhead_frac", traced / untraced_rel - 1.0, "ratio",
               "\"traced_synth_s\": " + num(rerun.synth_s()) +
                   ", \"traced_probe_s\": " + num(rerun.probe_s()) +
                   ", \"untraced_synth_s\": " + num(untraced.synth_s()) +
                   ", \"untraced_probe_s\": " + num(untraced.probe_s())});
  m.push_back({"trace.unaccounted_s", l["trace.unaccounted_s"], "s",
               "\"pass_by_pass_synth_s\": " + num(pass_by_pass.synth_s())});
  m.push_back({"machine.probe_ms", 1e3 * pass_by_pass.probe_s(), "ms", ""});
  return m;
}

/// --trace 1: the per-layer metrics.
int run_traced_mode(const Workload& w, const Args& args) {
  Layers layers;
  // The pass-by-pass run goes first so that the untraced pass and its
  // traced rerun, whose times are compared, both run warm.
  mfd::obs::set_enabled(true);
  const PassRun traced = run_pass(w, args, Mode::kPassByPass, false, layers);
  mfd::obs::set_enabled(false);
  const PassRun untraced = run_pass(w, args, Mode::kUntraced, true, layers);
  mfd::obs::set_enabled(true);
  const PassRun rerun = run_pass(w, args, Mode::kSynthObs, false, layers);
  mfd::obs::set_enabled(false);
  const bool deterministic = same_results(untraced, traced, w, "pass-by-pass traced run") &&
                             same_results(untraced, rerun, w, "traced rerun");

  std::size_t attempted = 0;
  const std::size_t failed = count_failed({untraced, traced, rerun}, attempted);
  const bool correct = failed == 0 && deterministic;
  const std::vector<LayerMetric> lm =
      layer_metrics(layers, traced, untraced, rerun);
  if (!args.layer_json.empty()) {
    std::ofstream out(args.layer_json);
    out << "{\"workload\": \"" << w.name << "\", \"specs\": " << untraced.specs.size()
        << ", \"deterministic\": " << (deterministic ? "true" : "false") << ", \"metrics\": {";
    for (std::size_t i = 0; i < lm.size(); ++i)
      out << (i ? ",\n  \"" : "\n  \"") << lm[i].name << "\": {\"value\": " << num(lm[i].value)
          << ", \"unit\": \"" << lm[i].unit << "\""
          << (lm[i].base.empty() ? "" : ", \"base\": {" + lm[i].base + "}") << "}";
    out << "\n}}\n";
    if (!out) std::fprintf(stderr, "could not write %s\n", args.layer_json.c_str());
  }
  std::vector<Metric> metrics;
  for (const LayerMetric& m : lm) metrics.push_back({m.name, m.value, m.unit});
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfd_perfbench: %s\n", e.what());
    return 2;
  }
  if (const std::string err = stats_self_test(); !err.empty()) {
    std::fprintf(stderr, "summary-statistics self-test failed: %s\n", err.c_str());
    return 1;
  }
  const Workload& w = *perfbench::find_workload(args.workload);
  perfbench::machine_probe();  // allocates the probe's table outside any timing
  if (w.dont_cares)
    std::fprintf(stderr, "%s: don't cares per output = %d cubes x %d literals, dc seed %llu\n",
                 w.name.c_str(), args.dc.cubes, args.dc.lits,
                 static_cast<unsigned long long>(args.dc.seed));
  return args.trace == 0 ? run_untraced(w, args) : run_traced_mode(w, args);
}

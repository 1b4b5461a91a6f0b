// Differential determinism tests: the parallel bound-set evaluator must be a
// pure speedup. For every --jobs value the search scores candidates in
// per-worker managers and reduces in generation order, so `jobs` may change
// *when* a candidate is scored but never *which* candidate wins. These tests
// pin that contract end to end: identical chosen bound sets from
// select_bound_set, and identical networks / CLB counts / decompose stats
// from full synthesis runs, for jobs in {1, 2, 8}.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "circuits/circuits.h"
#include "core/synthesizer.h"
#include "decomp/boundset.h"
#include "isf/isf.h"

namespace mfd {
namespace {

using bdd::Manager;

constexpr int kJobsVariants[] = {1, 2, 8};

std::vector<Isf> spec_of(const circuits::Benchmark& bench) {
  std::vector<Isf> fns;
  for (const bdd::Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  return fns;
}

std::string choice_key(const BoundSetChoice& c) {
  std::ostringstream os;
  os << "vars=[";
  for (int v : c.vars) os << v << ",";
  os << "] benefit=" << c.benefit << " gap=" << c.sharing_gap
     << " sum_r=" << c.sum_r << " r=[";
  for (int r : c.r_per_output) os << r << ",";
  os << "]";
  return os.str();
}

TEST(ParallelDeterminism, SelectBoundSetIsJobsInvariant) {
  // Several shapes (arithmetic, symmetric, random-ish control logic) so ties
  // in the score actually occur and the tie-break path is exercised.
  const struct {
    const char* name;
    int p;
  } cases[] = {{"rd53", 3}, {"rd73", 4}, {"misex1", 4}, {"z4ml", 4}};
  for (const auto& tc : cases) {
    Manager m;
    const circuits::Benchmark bench = circuits::build(tc.name, m);
    const std::vector<Isf> fns = spec_of(bench);
    std::vector<int> order(static_cast<std::size_t>(bench.num_inputs));
    for (int i = 0; i < bench.num_inputs; ++i) order[static_cast<std::size_t>(i)] = i;

    std::string serial_key;
    for (int jobs : kJobsVariants) {
      BoundSetOptions opts;
      opts.jobs = jobs;
      const std::string key = choice_key(select_bound_set(fns, order, tc.p, opts));
      if (jobs == 1)
        serial_key = key;
      else
        EXPECT_EQ(key, serial_key) << tc.name << " diverged at jobs=" << jobs;
    }
    EXPECT_FALSE(serial_key.empty());
  }
}

// Everything the table-1 experiment reports about a run: the full network
// (structure, not just counts), and a string of both CLB packings and the
// decompose statistics. Two runs are "identical" iff both parts match.
struct RunFingerprint {
  std::string counts;
  net::LutNetwork network;
};

RunFingerprint run_fingerprint(const std::string& circuit, const SynthesisOptions& base,
                               int jobs) {
  SynthesisOptions opts = base;
  opts.decomp.boundset.jobs = jobs;
  Manager m;
  const circuits::Benchmark bench = circuits::build(circuit, m);
  SynthesisResult r = Synthesizer(opts).run(bench);
  EXPECT_TRUE(r.verified) << circuit << " jobs=" << jobs;
  std::ostringstream os;
  os << "luts=" << r.network.count_luts() << " gates=" << r.network.count_gates()
     << " depth=" << r.network.depth() << " clb_greedy=" << r.clb_greedy.num_clbs
     << " clb_matching=" << r.clb_matching.num_clbs
     << " steps=" << r.stats.decomposition_steps
     << " shannon=" << r.stats.shannon_fallbacks
     << " functions=" << r.stats.total_decomposition_functions
     << " sum_r=" << r.stats.sum_r << " sym_pairs=" << r.stats.symmetrized_pairs
     << " max_depth=" << r.stats.max_depth
     << " mux_fallbacks=" << r.stats.bdd_mux_fallbacks;
  return {os.str(), std::move(r.network)};
}

void expect_flow_jobs_invariant(const std::string& circuit,
                                const SynthesisOptions& base, const char* flow) {
  const RunFingerprint serial = run_fingerprint(circuit, base, 1);
  for (int jobs : {2, 8}) {
    const RunFingerprint parallel = run_fingerprint(circuit, base, jobs);
    EXPECT_EQ(parallel.counts, serial.counts)
        << circuit << " (" << flow << ") diverged at jobs=" << jobs;
    EXPECT_TRUE(parallel.network == serial.network)
        << circuit << " (" << flow << ") network diverged at jobs=" << jobs;
  }
}

// Table-1 circuits small enough to run three times per preset within the
// test timeout; the full-table sweep (including the slow C499/apex7/rot) is
// asserted bit-identical by the CI --jobs sweep on the bench binary.
const char* const kCircuits[] = {"rd53", "rd73", "misex1", "z4ml",
                                 "5xp1", "b9",   "count",  "f51m"};

TEST(ParallelDeterminism, FullFlowMulopDcIsJobsInvariant) {
  for (const char* circuit : kCircuits)
    expect_flow_jobs_invariant(circuit, preset_mulop_dc(5), "mulop-dc");
}

TEST(ParallelDeterminism, FullFlowMulopIIIsJobsInvariant) {
  for (const char* circuit : kCircuits)
    expect_flow_jobs_invariant(circuit, preset_mulopII(5), "mulopII");
}

}  // namespace
}  // namespace mfd

// End-to-end tests of the full synthesis flow: decompose -> LUT network ->
// exact BDD verification + simulation, across presets, LUT sizes, and specs
// with genuine don't cares.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "circuits/circuits.h"
#include "core/synthesizer.h"
#include "net/simulate.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

std::vector<int> identity_pis(int n) {
  std::vector<int> pis(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;
  return pis;
}

void expect_flow_ok(const circuits::Benchmark& bench, const SynthesisOptions& opts,
                    int max_fanin) {
  Synthesizer synth(opts);
  const SynthesisResult result = synth.run(bench);
  EXPECT_TRUE(result.verified);
  EXPECT_LE(result.network.max_fanin(), max_fanin);
  // Independent path: simulate the network against the spec.
  std::vector<Isf> spec;
  for (const Bdd& f : bench.outputs) spec.push_back(Isf::completely_specified(f));
  std::string error;
  EXPECT_TRUE(net::check_by_simulation(result.network, spec, identity_pis(bench.num_inputs),
                                       12, 500, 3, &error))
      << error;
}

TEST(Flow, Adder4Lut5) {
  Manager m(8);
  expect_flow_ok(circuits::adder(m, 4), preset_mulop_dc(5), 5);
}

TEST(Flow, Adder4Gates) {
  Manager m(8);
  expect_flow_ok(circuits::adder(m, 4), preset_mulop_dc(2), 2);
}

TEST(Flow, Adder4MulopII) {
  Manager m(8);
  expect_flow_ok(circuits::adder(m, 4), preset_mulopII(5), 5);
}

TEST(Flow, Rd53) {
  Manager m(5);
  expect_flow_ok(circuits::build("rd53", m), preset_mulop_dc(5), 5);
}

TEST(Flow, Z4ml) {
  Manager m(7);
  expect_flow_ok(circuits::build("z4ml", m), preset_mulop_dc(5), 5);
}

TEST(Flow, Misex1AllPresets) {
  for (const auto& opts :
       {preset_mulop_dc(5), preset_mulopII(5), preset_noshare_nodc(5)}) {
    Manager m(8);
    expect_flow_ok(circuits::build("misex1", m), opts, 5);
  }
}

TEST(Flow, PartialMultiplier3Gates) {
  Manager m(9);
  expect_flow_ok(circuits::partial_multiplier(m, 3), preset_mulop_dc(2), 2);
}

TEST(Flow, SpecWithDontCares) {
  // A genuinely incompletely specified spec: care only where x0^x1^x2 = 1.
  Manager m(6);
  const Bdd care = m.var(0) ^ m.var(1) ^ m.var(2);
  const Bdd on = (m.var(3) & m.var(4)) ^ (m.var(5) & m.var(0)) ^ m.var(1);
  std::vector<Isf> spec{Isf(on & care, care),
                        Isf((m.var(2) | m.var(4)) & care, care)};
  Synthesizer synth(preset_mulop_dc(3));
  const SynthesisResult result = synth.run(spec, identity_pis(6));
  EXPECT_TRUE(result.verified);
  EXPECT_LE(result.network.max_fanin(), 3);
}

TEST(Flow, StatsArePopulated) {
  Manager m(10);
  Synthesizer synth(preset_mulop_dc(4));
  const SynthesisResult r = synth.run(circuits::adder(m, 5));
  EXPECT_GE(r.stats.decomposition_steps + r.stats.shannon_fallbacks, 1);
  EXPECT_GE(r.stats.total_decomposition_functions, 0);
  EXPECT_LE(r.stats.total_decomposition_functions, r.stats.sum_r);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(r.clb_matching.num_clbs, 1);
  EXPECT_LE(r.clb_matching.num_clbs, r.clb_greedy.num_clbs);
}

TEST(Flow, ExtendedBoundSetsHelpMuxStructures) {
  // A 16:1 selector tree profits from bound sets wider than the LUT fanin
  // (the paper's "decompose alpha recursively" case).
  Manager m;
  const circuits::Benchmark bench = circuits::build("rot", m);
  SynthesisOptions with = preset_mulop_dc(5);
  SynthesisOptions without = preset_mulop_dc(5);
  without.decomp.max_bound_extra = 0;
  const auto r_with = Synthesizer(with).run(bench);
  const auto r_without = Synthesizer(without).run(bench);
  EXPECT_TRUE(r_with.verified);
  EXPECT_TRUE(r_without.verified);
  EXPECT_LT(r_with.network.count_luts(), r_without.network.count_luts());
  EXPECT_LE(r_with.network.max_fanin(), 5);
}

TEST(Flow, PortfolioNeverWorseThanConservative) {
  for (const char* name : {"rd84", "misex1", "C880"}) {
    Manager m1, m2;
    SynthesisOptions conservative = preset_mulop_dc(5);
    conservative.decomp.max_bound_extra = 0;
    const auto base = Synthesizer(conservative).run(circuits::build(name, m1));
    const auto full = Synthesizer(preset_mulop_dc(5)).run(circuits::build(name, m2));
    EXPECT_TRUE(full.verified);
    EXPECT_LE(full.network.count_luts(), base.network.count_luts()) << name;
  }
}

TEST(Flow, BddMuxFallbackProducesCorrectNetworks) {
  // Force the direct BDD mapping path by forbidding Shannon splits.
  Manager m;
  const circuits::Benchmark bench = circuits::build("misex1", m);
  SynthesisOptions opts = preset_mulop_dc(5);
  opts.decomp.shannon_support_limit = 0;
  opts.decomp.boundset.max_evaluations = 1;  // starve the search
  opts.decomp.max_bound_extra = 0;
  opts.portfolio_bound_extra = false;
  const auto r = Synthesizer(opts).run(bench);
  EXPECT_TRUE(r.verified);
}

TEST(Flow, GateModeNeverEmitsWideLuts) {
  for (const char* name : {"z4ml", "rd73", "misex1"}) {
    Manager m;
    const auto r = Synthesizer(preset_mulop_dc(2)).run(circuits::build(name, m));
    EXPECT_TRUE(r.verified);
    EXPECT_LE(r.network.max_fanin(), 2) << name;
  }
}

TEST(Flow, TotalMinimalCodeModeIsCorrect) {
  // The [10]-style joint encoding must still synthesize correct networks.
  for (const char* name : {"rd84", "misex1", "z4ml"}) {
    Manager m;
    SynthesisOptions opts = preset_mulop_dc(5);
    opts.decomp.total_minimal_code = true;
    const auto r = Synthesizer(opts).run(circuits::build(name, m));
    EXPECT_TRUE(r.verified) << name;
    EXPECT_LE(r.network.max_fanin(), 5) << name;
  }
}

TEST(Flow, DeterministicAcrossRuns) {
  Manager m1, m2;
  const auto a = Synthesizer(preset_mulop_dc(5)).run(circuits::build("5xp1", m1));
  const auto b = Synthesizer(preset_mulop_dc(5)).run(circuits::build("5xp1", m2));
  EXPECT_EQ(a.network.count_luts(), b.network.count_luts());
  EXPECT_EQ(a.clb_matching.num_clbs, b.clb_matching.num_clbs);
  EXPECT_EQ(a.stats.decomposition_steps, b.stats.decomposition_steps);
}

class FlowRandom : public ::testing::TestWithParam<int> {};

TEST_P(FlowRandom, RandomMultiOutputFunctions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 17);
  const int n = rng.range(6, 9);
  const int outs = rng.range(1, 4);
  Manager m(n);
  std::vector<Isf> spec;
  std::vector<Bdd> keep;
  for (int o = 0; o < outs; ++o) {
    const auto t = test::random_table(rng, n);
    keep.push_back(test::bdd_from_table(m, t, n));
    spec.push_back(Isf::completely_specified(keep.back()));
  }
  Synthesizer synth(preset_mulop_dc(rng.range(3, 5)));
  const SynthesisResult result = synth.run(spec, identity_pis(n));
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowRandom, ::testing::Range(0, 12));

TEST_P(FlowRandom, RandomIncompletelySpecified) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 331 + 29);
  const int n = rng.range(6, 8);
  Manager m(n);
  std::vector<Isf> spec;
  for (int o = 0; o < 2; ++o) {
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n) |
                     test::bdd_from_table(m, test::random_table(rng, n), n);
    spec.emplace_back(on & care, care);
  }
  Synthesizer synth(preset_mulop_dc(4));
  const SynthesisResult result = synth.run(spec, identity_pis(n));
  EXPECT_TRUE(result.verified);
  std::string error;
  EXPECT_TRUE(net::check_by_simulation(result.network, spec, identity_pis(n), 10, 200, 5,
                                       &error))
      << error;
}

TEST(Flow, SingleVariableAndConstantOutputs) {
  Manager m(3);
  std::vector<Isf> spec{
      Isf::completely_specified(m.bdd_false()),
      Isf::completely_specified(m.bdd_true()),
      Isf::completely_specified(m.var(1)),
      Isf::completely_specified(!m.var(2)),
  };
  const auto r = Synthesizer(preset_mulop_dc(5)).run(spec, identity_pis(3));
  EXPECT_TRUE(r.verified);
  EXPECT_LE(r.network.count_luts(), 1);  // only the inverter can remain
}

TEST(Flow, VacuousSpecSynthesizesSomething) {
  // Every extension is admissible: any network verifies.
  Manager m(4);
  std::vector<Isf> spec{Isf(m.bdd_false(), m.bdd_false())};
  const auto r = Synthesizer(preset_mulop_dc(3)).run(spec, identity_pis(4));
  EXPECT_TRUE(r.verified);
}

TEST(Flow, DuplicateOutputsShareLogic) {
  Manager m(8);
  const Bdd f = (m.var(0) & m.var(1)) ^ (m.var(2) | m.var(5)) ^ m.var(7);
  std::vector<Isf> spec{Isf::completely_specified(f), Isf::completely_specified(f),
                        Isf::completely_specified(f)};
  const auto r = Synthesizer(preset_mulop_dc(4)).run(spec, identity_pis(8));
  EXPECT_TRUE(r.verified);
  // All three outputs must resolve to the same signal after dedup.
  EXPECT_EQ(r.network.outputs()[0], r.network.outputs()[1]);
  EXPECT_EQ(r.network.outputs()[1], r.network.outputs()[2]);
}

TEST(Flow, DecomposeLeavesNoDuplicateLiveLuts) {
  // Without sharing, outputs re-derive the same decomposition function over
  // the same bound signals, and clip and 5xp1 emit such duplicate LUTs. The
  // simplify() that ends decompose() merges them, so the returned network
  // holds at most one live LUT per (inputs, table).
  for (const char* name : {"clip", "5xp1"}) {
    Manager m;
    const circuits::Benchmark bench = circuits::build(name, m);
    std::vector<Isf> fns;
    for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
    const net::LutNetwork net =
        decompose(fns, identity_pis(bench.num_inputs), preset_noshare_nodc(5).decomp);
    const std::vector<bool> live = net.live_luts();
    std::set<std::pair<std::vector<int>, std::vector<bool>>> seen;
    for (int i = 0; i < net.num_luts(); ++i) {
      if (!live[static_cast<std::size_t>(i)]) continue;
      const net::Lut& lut = net.lut(i);
      EXPECT_TRUE(seen.emplace(lut.inputs, lut.table).second)
          << name << ": live LUT " << i << " duplicates an earlier one";
    }
  }
}

TEST(Flow, ComplementOutputsStayCheap) {
  Manager m(6);
  const Bdd f = (m.var(0) ^ m.var(1)) & (m.var(2) | m.var(3)) & m.var(5);
  std::vector<Isf> spec{Isf::completely_specified(f), Isf::completely_specified(!f)};
  const auto r = Synthesizer(preset_mulop_dc(4)).run(spec, identity_pis(6));
  EXPECT_TRUE(r.verified);
}

TEST(Flow, WideLutEqualsSingleTable) {
  // When n <= n_LUT the flow must emit exactly one LUT per output.
  Manager m(5);
  Rng rng(77);
  std::vector<Isf> spec;
  for (int o = 0; o < 3; ++o)
    spec.push_back(Isf::completely_specified(
        test::bdd_from_table(m, test::random_table(rng, 5), 5)));
  const auto r = Synthesizer(preset_mulop_dc(5)).run(spec, identity_pis(5));
  EXPECT_TRUE(r.verified);
  EXPECT_LE(r.network.count_luts(), 3);
  EXPECT_EQ(r.network.depth(), 1);
}

}  // namespace
}  // namespace mfd

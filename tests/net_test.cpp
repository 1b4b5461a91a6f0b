// LUT network IR: evaluation, analysis, structural simplification, and the
// structural baseline generators (conditional-sum adder, Wallace tree).
#include <gtest/gtest.h>

#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/errors.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "io/blif.h"
#include "net/baselines.h"
#include "net/lutnet.h"
#include "net/odc_resubst.h"
#include "net/passmgr.h"
#include "net/simulate.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd::net {
namespace {

Lut and2(int a, int b) { return {{a, b}, {false, false, false, true}}; }
Lut or2(int a, int b) { return {{a, b}, {false, true, true, true}}; }
Lut xor2(int a, int b) { return {{a, b}, {false, true, true, false}}; }
Lut inv(int a) { return {{a}, {true, false}}; }
Lut buf(int a) { return {{a}, {false, true}}; }

/// A random LUT network over `n` primary inputs with `gates` LUTs of fanin
/// 1..3 and `num_outputs` outputs drawn from arbitrary signals (shared by
/// the simplify/collapse/odc behaviour-preservation tests).
LutNetwork random_network(Rng& rng, int n, int gates, int num_outputs) {
  LutNetwork net(n);
  std::vector<int> signals;
  for (int i = 0; i < n; ++i) signals.push_back(i);
  signals.push_back(kConst0);
  signals.push_back(kConst1);
  for (int g = 0; g < gates; ++g) {
    const int k = rng.range(1, 3);
    Lut lut;
    for (int j = 0; j < k; ++j)
      lut.inputs.push_back(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
    lut.table.resize(std::size_t{1} << k);
    for (auto&& bit : lut.table) bit = rng.flip();
    signals.push_back(net.add_lut(std::move(lut)));
  }
  for (int o = 0; o < num_outputs; ++o)
    net.add_output(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
  return net;
}

/// Exhaustive truth table of every output (n must be small).
std::vector<std::vector<bool>> exhaustive(const LutNetwork& net, int n) {
  std::vector<std::vector<bool>> rows;
  std::vector<bool> pis(static_cast<std::size_t>(n));
  for (std::uint32_t v = 0; v < (1u << n); ++v) {
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = (v >> i) & 1;
    rows.push_back(net.evaluate(pis));
  }
  return rows;
}

TEST(LutNetwork, EvaluateSmallNetwork) {
  LutNetwork net(2);
  const int x = net.add_lut(xor2(0, 1));
  const int a = net.add_lut(and2(0, 1));
  net.add_output(x);
  net.add_output(a);
  EXPECT_EQ(net.evaluate({false, true}), (std::vector<bool>{true, false}));
  EXPECT_EQ(net.evaluate({true, true}), (std::vector<bool>{false, true}));
}

TEST(LutNetwork, ConstantsAsInputsAndOutputs) {
  LutNetwork net(1);
  const int g = net.add_lut(and2(0, kConst1));
  net.add_output(g);
  net.add_output(kConst0);
  EXPECT_EQ(net.evaluate({true}), (std::vector<bool>{true, false}));
  EXPECT_EQ(net.evaluate({false}), (std::vector<bool>{false, false}));
}

TEST(LutNetwork, DepthAndFanin) {
  LutNetwork net(3);
  const int a = net.add_lut(and2(0, 1));
  const int b = net.add_lut(and2(a, 2));
  const int c = net.add_lut(and2(a, b));
  net.add_output(c);
  EXPECT_EQ(net.depth(), 3);
  EXPECT_EQ(net.max_fanin(), 2);
  EXPECT_EQ(net.count_luts(), 3);
}

TEST(LutNetwork, DeadLutsNotCounted) {
  LutNetwork net(2);
  net.add_lut(and2(0, 1));  // dead
  const int x = net.add_lut(xor2(0, 1));
  net.add_output(x);
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(net.count_gates(), 1);
}

TEST(LutNetwork, ClassifyKinds) {
  EXPECT_EQ(LutNetwork::classify({{}, {true}}), LutKind::kConstant);
  EXPECT_EQ(LutNetwork::classify(buf(0)), LutKind::kBuffer);
  EXPECT_EQ(LutNetwork::classify(inv(0)), LutKind::kInverter);
  EXPECT_EQ(LutNetwork::classify(and2(0, 1)), LutKind::kGeneral);
  // A 2-input LUT that ignores one input is a buffer/inverter after pruning.
  EXPECT_EQ(LutNetwork::classify({{0, 1}, {false, true, false, true}}), LutKind::kBuffer);
  EXPECT_EQ(LutNetwork::classify({{0, 1}, {true, false, true, false}}), LutKind::kInverter);
  EXPECT_EQ(LutNetwork::classify({{0, 1}, {true, true, true, true}}), LutKind::kConstant);
}

TEST(Simplify, RemovesBuffersAndDeadLogic) {
  LutNetwork net(2);
  const int b1 = net.add_lut(buf(0));
  const int b2 = net.add_lut(buf(b1));
  const int g = net.add_lut(and2(b2, 1));
  net.add_lut(xor2(0, 1));  // dead
  net.add_output(g);
  net.simplify();
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(net.evaluate({true, true}), (std::vector<bool>{true}));
  EXPECT_EQ(net.evaluate({true, false}), (std::vector<bool>{false}));
}

TEST(Simplify, FoldsConstants) {
  LutNetwork net(1);
  const int c1 = net.add_lut({{}, {true}});     // constant 1
  const int g = net.add_lut(and2(0, c1));        // x & 1 = x -> buffer -> wire
  const int h = net.add_lut(and2(g, kConst0));   // & 0 = 0
  net.add_output(h);
  net.add_output(g);
  net.simplify();
  EXPECT_EQ(net.count_luts(), 0);
  EXPECT_EQ(net.outputs()[0], kConst0);
  EXPECT_EQ(net.outputs()[1], 0);  // the primary input itself
}

TEST(Simplify, AbsorbsInverters) {
  LutNetwork net(2);
  const int n0 = net.add_lut(inv(0));
  const int g = net.add_lut(and2(n0, 1));  // !x0 & x1
  net.add_output(g);
  net.simplify();
  // The inverter is folded into the AND's table.
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(net.evaluate({false, true}), (std::vector<bool>{true}));
  EXPECT_EQ(net.evaluate({true, true}), (std::vector<bool>{false}));
}

TEST(Simplify, SharesDuplicateLuts) {
  LutNetwork net(2);
  const int a = net.add_lut(xor2(0, 1));
  const int b = net.add_lut(xor2(0, 1));
  const int g = net.add_lut(and2(a, b));  // x & x = buffer after dedup
  net.add_output(g);
  net.simplify();
  EXPECT_EQ(net.count_luts(), 1);  // single xor remains
}

TEST(Simplify, PreservesBehaviorOnRandomNetworks) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.range(2, 5);
    LutNetwork net(n);
    std::vector<int> signals;
    for (int i = 0; i < n; ++i) signals.push_back(i);
    signals.push_back(kConst0);
    signals.push_back(kConst1);
    for (int g = 0; g < 12; ++g) {
      const int k = rng.range(1, 3);
      Lut lut;
      for (int j = 0; j < k; ++j)
        lut.inputs.push_back(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
      lut.table.resize(std::size_t{1} << k);
      for (auto&& bit : lut.table) bit = rng.flip();
      signals.push_back(net.add_lut(std::move(lut)));
    }
    for (int o = 0; o < 3; ++o)
      net.add_output(signals[static_cast<std::size_t>(rng.below(signals.size()))]);

    // Record behavior, simplify, compare exhaustively.
    std::vector<std::vector<bool>> before;
    std::vector<bool> pis(static_cast<std::size_t>(n));
    for (std::uint32_t v = 0; v < (1u << n); ++v) {
      for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = (v >> i) & 1;
      before.push_back(net.evaluate(pis));
    }
    net.simplify();
    for (std::uint32_t v = 0; v < (1u << n); ++v) {
      for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = (v >> i) & 1;
      EXPECT_EQ(net.evaluate(pis), before[v]) << "trial " << trial << " vector " << v;
    }
  }
}

TEST(Collapse, MergesSingleFanoutChains) {
  // and(and(a,b), c) collapses into one 3-input LUT when k >= 3.
  LutNetwork net(3);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut(and2(t, 2));
  net.add_output(g);
  EXPECT_EQ(net.collapse(3), 1);
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(net.evaluate({true, true, true}), (std::vector<bool>{true}));
  EXPECT_EQ(net.evaluate({true, false, true}), (std::vector<bool>{false}));
}

TEST(Collapse, RespectsFaninBound) {
  LutNetwork net(4);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut({{t, 2, 3}, {false, false, false, false, false, false, false, true}});
  net.add_output(g);
  EXPECT_EQ(net.collapse(3), 0);  // merged support would be 4
  EXPECT_EQ(net.count_luts(), 2);
  EXPECT_EQ(net.collapse(4), 1);
  EXPECT_EQ(net.count_luts(), 1);
}

TEST(Collapse, LeavesSharedFeedersAlone) {
  LutNetwork net(2);
  const int t = net.add_lut(xor2(0, 1));
  const int g1 = net.add_lut(and2(t, 0));
  const int g2 = net.add_lut(and2(t, 1));
  net.add_output(g1);
  net.add_output(g2);
  EXPECT_EQ(net.collapse(3), 0);  // t has fanout 2
}

TEST(Collapse, FeederDrivingAnOutputStays) {
  LutNetwork net(3);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut(and2(t, 2));
  net.add_output(g);
  net.add_output(t);  // observable
  EXPECT_EQ(net.collapse(3), 0);
}

TEST(Collapse, PreservesBehaviorOnRandomNetworks) {
  Rng rng(881);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.range(3, 5);
    LutNetwork net(n);
    std::vector<int> signals;
    for (int i = 0; i < n; ++i) signals.push_back(i);
    for (int g = 0; g < 15; ++g) {
      const int k = rng.range(1, 3);
      Lut lut;
      for (int j = 0; j < k; ++j)
        lut.inputs.push_back(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
      lut.table.resize(std::size_t{1} << k);
      for (auto&& bit : lut.table) bit = rng.flip();
      signals.push_back(net.add_lut(std::move(lut)));
    }
    for (int o = 0; o < 3; ++o)
      net.add_output(signals[static_cast<std::size_t>(rng.below(signals.size()))]);

    std::vector<std::vector<bool>> before;
    std::vector<bool> pis(static_cast<std::size_t>(n));
    for (std::uint32_t v = 0; v < (1u << n); ++v) {
      for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = (v >> i) & 1;
      before.push_back(net.evaluate(pis));
    }
    net.collapse(4);
    EXPECT_LE(net.max_fanin(), 4);
    for (std::uint32_t v = 0; v < (1u << n); ++v) {
      for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = (v >> i) & 1;
      EXPECT_EQ(net.evaluate(pis), before[v]) << "trial " << trial << " v " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Output BDDs / checks
// ---------------------------------------------------------------------------

TEST(Simulate, OutputBddsMatchEvaluation) {
  Rng rng(88);
  bdd::Manager m(4);
  LutNetwork net(4);
  const int a = net.add_lut(xor2(0, 1));
  const int b = net.add_lut(and2(2, 3));
  const int g = net.add_lut({{a, b, 0}, {false, true, true, false, true, false, false, true}});
  net.add_output(g);
  const auto outs = output_bdds(net, m, {0, 1, 2, 3});
  ASSERT_EQ(outs.size(), 1u);
  std::vector<bool> pis(4), assignment(4);
  for (std::uint32_t v = 0; v < 16; ++v) {
    for (int i = 0; i < 4; ++i) pis[static_cast<std::size_t>(i)] = assignment[static_cast<std::size_t>(i)] = (v >> i) & 1;
    EXPECT_EQ(net.evaluate(pis)[0], m.eval(outs[0].id(), assignment));
  }
}

TEST(Simulate, CheckExactCatchesWrongNetwork) {
  bdd::Manager m(2);
  LutNetwork net(2);
  net.add_output(net.add_lut(and2(0, 1)));
  std::vector<Isf> good{Isf::completely_specified(m.var(0) & m.var(1))};
  std::vector<Isf> bad{Isf::completely_specified(m.var(0) | m.var(1))};
  std::string error;
  EXPECT_TRUE(check_exact(net, good, {0, 1}, &error));
  EXPECT_FALSE(check_exact(net, bad, {0, 1}, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(check_by_simulation(net, bad, {0, 1}));
  EXPECT_TRUE(check_by_simulation(net, good, {0, 1}));
}

TEST(Simulate, DontCaresAreNotChecked) {
  bdd::Manager m(2);
  LutNetwork net(2);
  net.add_output(net.add_lut(and2(0, 1)));
  // Spec says OR, but only cares where x0 = x1 — there AND == OR... no:
  // (1,1) -> both 1; (0,0) -> both 0. So the AND network is admissible.
  const bdd::Bdd care = !(m.var(0) ^ m.var(1));
  std::vector<Isf> spec{Isf((m.var(0) | m.var(1)) & care, care)};
  EXPECT_TRUE(check_exact(net, spec, {0, 1}));
  EXPECT_TRUE(check_by_simulation(net, spec, {0, 1}));
}

// ---------------------------------------------------------------------------
// Structural baselines
// ---------------------------------------------------------------------------

TEST(Baselines, RippleCarryAddsCorrectly) {
  for (const int n : {1, 2, 4}) {
    LutNetwork net = ripple_carry_adder(n);
    std::vector<bool> pis(static_cast<std::size_t>(2 * n));
    for (std::uint32_t a = 0; a < (1u << n); ++a) {
      for (std::uint32_t b = 0; b < (1u << n); ++b) {
        for (int i = 0; i < n; ++i) {
          pis[static_cast<std::size_t>(i)] = (a >> i) & 1;
          pis[static_cast<std::size_t>(n + i)] = (b >> i) & 1;
        }
        const auto out = net.evaluate(pis);
        std::uint32_t sum = 0;
        for (int i = 0; i <= n; ++i) sum |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(i)]) << i;
        EXPECT_EQ(sum, a + b) << "n=" << n;
      }
    }
  }
}

TEST(Baselines, ConditionalSumAddsCorrectly) {
  for (const int n : {2, 4, 8}) {
    LutNetwork net = conditional_sum_adder(n);
    EXPECT_LE(net.max_fanin(), 2);
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng.below(1u << n));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.below(1u << n));
      std::vector<bool> pis(static_cast<std::size_t>(2 * n));
      for (int i = 0; i < n; ++i) {
        pis[static_cast<std::size_t>(i)] = (a >> i) & 1;
        pis[static_cast<std::size_t>(n + i)] = (b >> i) & 1;
      }
      const auto out = net.evaluate(pis);
      std::uint32_t sum = 0;
      for (int i = 0; i <= n; ++i) sum |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(i)]) << i;
      EXPECT_EQ(sum, a + b) << "n=" << n;
    }
  }
}

TEST(Baselines, ConditionalSumFasterButBigger) {
  // The classic trade: CSA-8 has logarithmic depth but far more gates than
  // ripple (the paper quotes 90 two-input gates in its counting).
  LutNetwork csa = conditional_sum_adder(8);
  LutNetwork rca = ripple_carry_adder(8);
  EXPECT_LT(csa.depth(), rca.depth());
  EXPECT_GT(csa.count_gates(), rca.count_gates());
  EXPECT_GE(csa.count_gates(), 60);  // sanity: within the expected ballpark
  EXPECT_LE(csa.count_gates(), 120);
}

TEST(Baselines, WallaceTreeMultipliesPartialProducts) {
  for (const int n : {2, 3, 4}) {
    LutNetwork net = wallace_tree_pp(n);
    EXPECT_LE(net.max_fanin(), 2);
    Rng rng(9);
    for (int trial = 0; trial < 100; ++trial) {
      // Drive the partial-product inputs from two random operands so the
      // expected output is a * b.
      const std::uint32_t a = static_cast<std::uint32_t>(rng.below(1u << n));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.below(1u << n));
      std::vector<bool> pis(static_cast<std::size_t>(n * n));
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          pis[static_cast<std::size_t>(i * n + j)] = ((a >> i) & 1) && ((b >> j) & 1);
      const auto out = net.evaluate(pis);
      std::uint32_t product = 0;
      for (int i = 0; i < 2 * n; ++i)
        product |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(i)]) << i;
      EXPECT_EQ(product, a * b) << "n=" << n;
    }
  }
}

TEST(Baselines, WallaceGateCountNearTheFormula)  {
  // [23] / paper Section 6.1: Wallace-tree multiplier ~ 10n^2 - 20n gates
  // counting operand ANDs; ours starts from partial products, so compare
  // against the formula minus the n^2 AND gates, loosely.
  LutNetwork net = wallace_tree_pp(4);
  const int gates = net.count_gates();
  EXPECT_GT(gates, 40);
  EXPECT_LT(gates, 10 * 16 - 20 * 4);
}

// ---------------------------------------------------------------------------
// Bounds-checked mutators
// ---------------------------------------------------------------------------

TEST(LutNetwork, AddOutputRejectsInvalidSignals) {
  LutNetwork net(2);
  const int g = net.add_lut(and2(0, 1));
  net.add_output(g);          // LUT signal: fine
  net.add_output(1);          // primary input: fine
  net.add_output(kConst1);    // constant: fine
  EXPECT_THROW(net.add_output(g + 1), Error);  // not added yet
  EXPECT_THROW(net.add_output(-3), Error);     // below the constants
  EXPECT_EQ(net.num_outputs(), 3);
}

TEST(LutNetwork, SetOutputRedirectsAndBoundsChecks) {
  LutNetwork net(2);
  const int a = net.add_lut(and2(0, 1));
  const int x = net.add_lut(xor2(0, 1));
  net.add_output(a);
  net.set_output(0, x);
  EXPECT_EQ(net.evaluate({true, false}), (std::vector<bool>{true}));
  EXPECT_THROW(net.set_output(1, a), Error);   // no output 1
  EXPECT_THROW(net.set_output(-1, a), Error);
  EXPECT_THROW(net.set_output(0, 99), Error);  // invalid signal
  EXPECT_EQ(net.outputs()[0], x);              // failed calls change nothing
}

TEST(LutNetwork, ReplaceLutPreservesTopologicalOrder) {
  LutNetwork net(2);
  const int a = net.add_lut(and2(0, 1));
  const int g = net.add_lut(or2(a, 0));
  net.add_output(g);
  // In-place rewrite keeps the signal id and downstream wiring.
  net.replace_lut(net.lut_index(a), xor2(0, 1));
  EXPECT_EQ(net.evaluate({true, false}), (std::vector<bool>{true}));
  // A fanin at or above the replaced signal would create a cycle.
  EXPECT_THROW(net.replace_lut(net.lut_index(a), buf(a)), Error);
  EXPECT_THROW(net.replace_lut(net.lut_index(a), buf(g)), Error);
  // Table size must match 2^fanin; index must name an existing LUT.
  EXPECT_THROW(net.replace_lut(net.lut_index(a), Lut{{0}, {true}}), Error);
  EXPECT_THROW(net.replace_lut(5, buf(0)), Error);
  // Constants are always legal fanins.
  net.replace_lut(net.lut_index(a), and2(0, kConst1));
  EXPECT_EQ(net.evaluate({true, false}), (std::vector<bool>{true}));
}

// ---------------------------------------------------------------------------
// Export (BLIF / dot)
// ---------------------------------------------------------------------------

TEST(Export, BlifRoundTripsThroughTheParser) {
  // to_blif() output must mean what the network computes: parse it back with
  // the io reader and compare output BDDs function by function.
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = rng.range(2, 5);
    LutNetwork net = random_network(rng, n, 10, 3);
    bdd::Manager m(n);
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;
    const auto direct = output_bdds(net, m, pis);
    const io::BlifModel parsed = io::parse_blif(net.to_blif("roundtrip"), m);
    EXPECT_EQ(parsed.name, "roundtrip");
    ASSERT_EQ(parsed.inputs.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(parsed.functions.size(), direct.size());
    for (std::size_t o = 0; o < direct.size(); ++o)
      EXPECT_EQ(parsed.functions[o], direct[o]) << "trial " << trial << " output " << o;
  }
}

TEST(Export, BlifEmitsConstantsOnlyWhenReferenced) {
  LutNetwork net(1);
  net.add_output(net.add_lut(buf(0)));
  const std::string plain = net.to_blif();
  EXPECT_EQ(plain.find("const"), std::string::npos);
  net.add_output(kConst1);
  const std::string with_const = net.to_blif();
  EXPECT_NE(with_const.find("const1"), std::string::npos);
  EXPECT_EQ(with_const.find("const0"), std::string::npos);
  // The constant output still parses back to the constant function.
  bdd::Manager m(1);
  const io::BlifModel parsed = io::parse_blif(with_const, m);
  ASSERT_EQ(parsed.functions.size(), 2u);
  EXPECT_EQ(parsed.functions[1], m.bdd_true());
}

TEST(Export, DotDescribesLiveStructure) {
  LutNetwork net(2);
  const int g = net.add_lut(and2(0, 1));
  net.add_lut(xor2(0, 1));  // dead: must not be drawn
  net.add_output(g);
  const std::string dot = net.to_dot("toy");
  EXPECT_EQ(dot.find("digraph"), 0u);
  EXPECT_NE(dot.find("toy"), std::string::npos);
  EXPECT_NE(dot.find("pi0"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);   // the live AND
  EXPECT_EQ(dot.find("n1"), std::string::npos);   // the dead XOR
  EXPECT_NE(dot.find("po0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

TEST(PassMgr, ParsePipelineSpecTrimsAndValidates) {
  EXPECT_EQ(parse_pipeline_spec(" decompose , simplify,pack "),
            (std::vector<std::string>{"decompose", "simplify", "pack"}));
  EXPECT_THROW(parse_pipeline_spec(""), Error);
  EXPECT_THROW(parse_pipeline_spec("decompose,,pack"), Error);
  EXPECT_THROW(parse_pipeline_spec(" , "), Error);
  // Name validity is the builder's job: unknown passes throw there.
  SynthesisOptions opts;
  EXPECT_THROW(build_pipeline("decompose,frobnicate", opts), Error);
  const PassPipeline pipeline = build_pipeline("", opts);
  std::vector<std::string> names;
  for (const auto& pass : pipeline.passes()) names.push_back(pass->name());
  EXPECT_EQ(names, parse_pipeline_spec(default_pipeline_spec()));
}

TEST(Pipeline, EveryStageLeavesAnAdmissibleNetwork) {
  // Randomized ISF specs through the full default pipeline; after *every*
  // executed pass the network must still be an admissible extension of the
  // spec (the per-pass contract in net/passmgr.h), checked both exactly and
  // by simulation via the dump hook.
  Rng rng(20260807);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = rng.range(4, 6);
    bdd::Manager m(n);
    auto random_fn = [&] {
      bdd::Bdd f = m.constant(rng.flip());
      for (int i = 0; i < 8; ++i) {
        const bdd::Bdd lit = m.literal(rng.range(0, n - 1), rng.flip());
        switch (rng.range(0, 2)) {
          case 0: f = f & lit; break;
          case 1: f = f | lit; break;
          default: f = f ^ lit; break;
        }
      }
      return f;
    };
    std::vector<Isf> spec;
    for (int o = 0; o < 3; ++o) {
      bdd::Bdd care = random_fn() | random_fn();
      if (care == m.bdd_false()) care = m.bdd_true();
      spec.push_back(Isf(random_fn() & care, care));
    }
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;

    SynthesisOptions opts = preset_mulop_dc(4);
    ResourceGovernor gov(opts.budget);
    ResourceGovernor::Scope gov_scope(gov);
    PassPipeline pipeline = build_pipeline("", opts);
    int stages_checked = 0;
    pipeline.set_dump_hook([&](const LutNetwork& net, const Pass& pass, int) {
      std::string error;
      EXPECT_TRUE(check_exact(net, spec, pis, &error))
          << "trial " << trial << " after pass " << pass.name() << ": " << error;
      EXPECT_TRUE(check_by_simulation(net, spec, pis))
          << "trial " << trial << " after pass " << pass.name();
      ++stages_checked;
    });

    PassContext ctx;
    ctx.manager = &m;
    ctx.spec = &spec;
    ctx.pi_vars = &pis;
    ctx.options = &opts;
    ctx.governor = &gov;
    LutNetwork net;
    const std::vector<PassStats> trail = pipeline.run(net, ctx);
    EXPECT_EQ(stages_checked, 4) << "trial " << trial;
    ASSERT_EQ(trail.size(), 4u);
    for (const PassStats& s : trail) EXPECT_TRUE(s.ran) << s.name;
    EXPECT_LE(net.max_fanin(), 4);
  }
}

// ---------------------------------------------------------------------------
// ODC resubstitution
// ---------------------------------------------------------------------------

TEST(OdcResubst, PreservesNetworkOutputsExactly) {
  // The pass exploits observability don't cares *inside* the network, so the
  // network's own output functions must survive bit-for-bit — not just an
  // admissible extension of some spec.
  Rng rng(1717);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.range(3, 5);
    LutNetwork net = random_network(rng, n, 14, 3);
    const auto before_rows = exhaustive(net, n);
    const int before_luts = net.count_luts();

    bdd::Manager m(n);
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;
    OdcOptions odc;
    odc.lut_inputs = 4;
    OdcResubstPass pass(odc);
    PassContext ctx;
    ctx.manager = &m;
    ctx.pi_vars = &pis;
    pass.run(net, ctx);

    EXPECT_LE(net.count_luts(), before_luts) << "trial " << trial;
    EXPECT_EQ(exhaustive(net, n), before_rows) << "trial " << trial;
  }
}

TEST(OdcResubst, RemovesLogicMaskedByItsFanout) {
  // g = (x0 & x1) | x0 absorbs to x0: under x0 = 0 the AND's output is the
  // constant 0 and under x0 = 1 it is unobservable, so its care set forces
  // it to a constant and the whole LUT dissolves. Structural simplify alone
  // cannot see this — it needs the windowed ODC computation.
  LutNetwork net(2);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut(or2(t, 0));
  net.add_output(g);

  bdd::Manager m(2);
  std::vector<int> pis{0, 1};
  OdcResubstPass pass{OdcOptions{}};
  PassContext ctx;
  ctx.manager = &m;
  ctx.pi_vars = &pis;
  EXPECT_TRUE(pass.run(net, ctx));
  EXPECT_EQ(net.count_luts(), 0);
  EXPECT_EQ(net.outputs()[0], 0);  // the wire x0
  EXPECT_EQ(net.evaluate({true, false}), (std::vector<bool>{true}));
  EXPECT_EQ(net.evaluate({false, true}), (std::vector<bool>{false}));
}

TEST(OdcResubst, IsANoOpWithoutAManager) {
  LutNetwork net(2);
  net.add_output(net.add_lut(and2(0, 1)));
  OdcResubstPass pass{OdcOptions{}};
  PassContext ctx;  // no manager, no pi_vars
  EXPECT_FALSE(pass.run(net, ctx));
  EXPECT_EQ(net.count_luts(), 1);
}

}  // namespace
}  // namespace mfd::net

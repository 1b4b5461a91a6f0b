// Microbenchmarks of the BDD substrate: operation throughput on the
// function families the decomposition flow stresses (arithmetic words,
// symmetric functions, random tables), plus sifting.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bdd/bdd.h"
#include "bench_common.h"
#include "circuits/circuits.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace {

using mfd::bdd::Bdd;
using mfd::bdd::Manager;

void BM_BuildAdder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Manager m;
    const auto bench = mfd::circuits::adder(m, n);
    benchmark::DoNotOptimize(bench.outputs.back().id());
    state.counters["nodes"] = static_cast<double>(m.live_node_count());
  }
}
BENCHMARK(BM_BuildAdder)->Arg(8)->Arg(16)->Arg(32);

void BM_BuildCountOnes(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Manager m(n);
    std::vector<Bdd> bits;
    for (int i = 0; i < n; ++i) bits.push_back(m.var(i));
    const auto count = mfd::circuits::count_ones(m, bits);
    benchmark::DoNotOptimize(count.back().id());
  }
}
BENCHMARK(BM_BuildCountOnes)->Arg(16)->Arg(32)->Arg(64);

void BM_IteRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Manager m(n);
  mfd::Rng rng(7);
  std::vector<Bdd> fns;
  for (int i = 0; i < 32; ++i) {
    Bdd f = m.bdd_false();
    for (int c = 0; c < 12; ++c) {
      Bdd cube = m.bdd_true();
      for (int v = 0; v < n; ++v)
        if (rng.chance(1, 3)) cube &= m.literal(v, rng.flip());
      f |= cube;
    }
    fns.push_back(f);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Bdd& f = fns[i % fns.size()];
    const Bdd& g = fns[(i + 7) % fns.size()];
    const Bdd& h = fns[(i + 13) % fns.size()];
    benchmark::DoNotOptimize(m.ite(f.id(), g.id(), h.id()));
    ++i;
  }
}
BENCHMARK(BM_IteRandom)->Arg(16)->Arg(24);

void BM_CofactorEnumeration(benchmark::State& state) {
  // The inner loop of ncc computation: all 2^p cube cofactors.
  Manager m;
  const auto bench = mfd::circuits::adder(m, 8);
  const mfd::bdd::Edge f = bench.outputs[7].id();
  for (auto _ : state) {
    for (std::uint32_t v = 0; v < 32; ++v) {
      std::vector<std::pair<int, bool>> a;
      for (int k = 0; k < 5; ++k) a.emplace_back(k, (v >> k) & 1);
      benchmark::DoNotOptimize(m.cofactor_cube(f, a));
    }
  }
}
BENCHMARK(BM_CofactorEnumeration);

void BM_Sift(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Manager m(2 * n);
    // Deliberately hostile order: a-vars then b-vars.
    Bdd f = m.bdd_false();
    for (int i = 0; i < n; ++i) f |= m.var(i) & m.var(n + i);
    state.ResumeTiming();
    m.sift();
    state.counters["nodes_after"] = static_cast<double>(m.dag_size(f.id()));
  }
}
BENCHMARK(BM_Sift)->Arg(8)->Arg(12);

void BM_SymmetricSiftAdder(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Manager m;
    const auto bench = mfd::circuits::adder(m, 8);
    std::vector<std::vector<int>> groups;
    for (int i = 0; i < 8; ++i) groups.push_back({i, 8 + i});
    state.ResumeTiming();
    m.sift_symmetric(groups);
    benchmark::DoNotOptimize(m.live_node_count());
  }
}
BENCHMARK(BM_SymmetricSiftAdder);

void BM_SatCount(benchmark::State& state) {
  Manager m;
  const auto bench = mfd::circuits::multiplier(m, 6);
  for (auto _ : state)
    benchmark::DoNotOptimize(m.sat_count(bench.outputs[8].id(), 12));
}
BENCHMARK(BM_SatCount);

// Deterministic one-shot profile of the BDD core itself, recorded as a
// --stats-json row (sweep rows cover whole synthesis flows; this row
// isolates the substrate so CI artifacts carry its peak-node and
// cache-hit-rate trend). Negation-heavy on purpose: XNOR chains, De Morgan
// duals of previously built conjunctions, and complemented parity are the
// shapes where complement edges pay off.
void record_bdd_profile() {
  mfd::obs::reset();
  Manager m;
  const auto bench = mfd::circuits::adder(m, 16);
  const auto& outs = bench.outputs;
  Bdd chain = m.bdd_true();
  for (std::size_t i = 1; i < outs.size(); ++i) chain &= outs[i].iff(outs[i - 1]);
  Bdd prods = m.bdd_false();
  Bdd duals = m.bdd_true();
  for (std::size_t i = 1; i < outs.size(); ++i) {
    prods |= outs[i] & outs[i - 1];
    duals &= (!outs[i]) | (!outs[i - 1]);
  }
  Bdd par = m.bdd_false();
  for (const Bdd& o : outs) par ^= !o;
  benchmark::DoNotOptimize(chain.id());
  benchmark::DoNotOptimize((prods ^ duals).id());
  benchmark::DoNotOptimize(par.id());
  m.publish_stats();
  mfd::bench::FlowRun row;
  row.circuit = "bdd_profile";
  row.flow = "bdd-core";
  row.inputs = bench.num_inputs;
  row.outputs = static_cast<int>(outs.size());
  row.report = mfd::obs::collect();
  mfd::bench::record_run(row);
  std::printf("bdd_profile: peak_nodes=%.0f live_nodes=%.0f cache_hit_rate=%.4f cache_size=%.0f\n",
              mfd::obs::gauge_value("bdd.peak_nodes"), mfd::obs::gauge_value("bdd.live_nodes"),
              mfd::obs::gauge_value("bdd.cache_hit_rate"), mfd::obs::gauge_value("bdd.cache_size"));
}

}  // namespace

int main(int argc, char** argv) {
  mfd::bench::parse_flags(&argc, argv, "--benchmark_");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_bdd_profile();
  mfd::bench::write_stats_json();
  return 0;
}

#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "circuits/circuits.h"
#include "util/rng.h"

namespace perfbench {
namespace {

const std::vector<std::string> kBothFlows = {"mulopII", "mulop-dc"};

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The union of `shape.cubes` random cubes over variables 0..n-1, drawn
/// from a stream keyed by (shape.seed, row, output).
mfd::bdd::Bdd dont_care_set(mfd::bdd::Manager& m, int n, const DcShape& shape,
                            const std::string& row, std::size_t output) {
  mfd::Rng rng(fnv1a(row, shape.seed * 0x9e3779b97f4a7c15ULL + output));
  std::vector<int> vars(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) vars[static_cast<std::size_t>(i)] = i;
  const int lits = std::min(shape.lits, n);
  mfd::bdd::Bdd dc = m.bdd_false();
  for (int c = 0; c < shape.cubes; ++c) {
    rng.shuffle(vars);
    mfd::bdd::Bdd cube = m.bdd_true();
    for (int l = 0; l < lits; ++l) cube &= m.literal(vars[static_cast<std::size_t>(l)], rng.flip());
    dc |= cube;
  }
  return dc;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    w.push_back({"mcnc_odc",
                 {"5xp1", "9sym", "alu2", "b9", "clip", "duke2", "e64", "f51m", "misex1",
                  "misex2", "rd73", "rd84", "sao2", "vg2", "z4ml"},
                 kBothFlows, "", false, 7.5});
    w.push_back({"mcnc_noodc",
                 {"5xp1", "9sym", "alu2", "b9", "clip", "count", "duke2", "e64", "f51m",
                  "misex1", "misex2", "rd73", "rd84", "sao2", "vg2", "z4ml"},
                 kBothFlows, "decompose,simplify,pack", false, 9.0});
    w.push_back({"mcnc_dc",
                 {"5xp1", "9sym", "alu2", "clip", "e64", "f51m", "misex1", "rd73", "rd84",
                  "sao2", "vg2", "z4ml"},
                 {"mulop-dc"}, "", true, 5.3});
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<Spec> build_specs(const Workload& w, const DcShape& dc) {
  std::vector<Spec> specs;
  for (const std::string& row : w.rows) {
    for (const std::string& flow : w.flows) {
      Spec s;
      s.name = row + "/" + flow;
      s.mgr = std::make_unique<mfd::bdd::Manager>();
      const mfd::circuits::Benchmark bench = mfd::circuits::build(row, *s.mgr);
      const int n = bench.num_inputs;
      double dc_sum = 0.0;
      for (std::size_t o = 0; o < bench.outputs.size(); ++o) {
        if (!w.dont_cares) {
          s.isfs.push_back(mfd::Isf::completely_specified(bench.outputs[o]));
          continue;
        }
        const mfd::bdd::Bdd d = dont_care_set(*s.mgr, n, dc, row, o);
        const int nv = s.mgr->num_vars();
        dc_sum += s.mgr->sat_count(d.id(), nv) / std::ldexp(1.0, nv);
        s.isfs.push_back(mfd::Isf::from_on_dc(bench.outputs[o], d));
      }
      if (!bench.outputs.empty())
        s.dc_fraction = dc_sum / static_cast<double>(bench.outputs.size());
      for (int i = 0; i < n; ++i) s.pi_vars.push_back(i);
      s.opts = flow == "mulopII" ? mfd::preset_mulopII(5) : mfd::preset_mulop_dc(5);
      s.opts.decomp.boundset.jobs = 1;
      s.opts.passes = w.passes;
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

}  // namespace perfbench

// Signal emission units of the decomposition driver (see driver.h for the
// file split): single-LUT extensions, direct BDD-mux mapping, the Shannon
// fallback, and the combined structural fallback the ladder floor uses.
#include <algorithm>
#include <unordered_map>

#include "decomp/driver.h"
#include "obs/obs.h"

namespace mfd::decomp {

std::vector<int> union_of_supports(const std::vector<Isf>& fns) {
  std::vector<int> active;
  for (const Isf& f : fns) {
    std::vector<int> s = f.support();
    std::vector<int> merged;
    std::set_union(active.begin(), active.end(), s.begin(), s.end(),
                   std::back_inserter(merged));
    active = std::move(merged);
  }
  return active;
}

int emit_small(Ctx& c, const bdd::Bdd& ext) {
  bdd::Manager& m = c.m;
  const bdd::Edge g = ext.id();
  const std::vector<int> supp = m.support(g);
  if (supp.empty()) return g == bdd::kTrue ? net::kConst1 : net::kConst0;

  net::Lut lut;
  lut.inputs.reserve(supp.size());
  for (int v : supp) lut.inputs.push_back(c.signal_of(v));
  lut.table.resize(std::size_t{1} << supp.size());
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (std::size_t idx = 0; idx < lut.table.size(); ++idx) {
    for (std::size_t j = 0; j < supp.size(); ++j)
      assignment[static_cast<std::size_t>(supp[j])] = (idx >> j) & 1;
    lut.table[idx] = m.eval(g, assignment);
  }
  return c.net.add_lut(std::move(lut));
}

int emit_bdd_muxes(Ctx& c, const Isf& f) {
  bdd::Manager& m = c.m;
  const bdd::Bdd ext = f.extension_small();
  const bdd::Edge root = ext.id();
  std::unordered_map<bdd::Edge, int> signal;
  signal.emplace(bdd::kFalse, net::kConst0);
  signal.emplace(bdd::kTrue, net::kConst1);

  auto rec = [&](auto&& self, bdd::Edge n) -> int {
    const auto it = signal.find(n);
    if (it != signal.end()) return it->second;
    const int lo = self(self, m.node_lo(n));
    const int hi = self(self, m.node_hi(n));
    const int sel = c.signal_of(static_cast<int>(m.node_var(n)));
    int out;
    if (c.opts.lut_inputs >= 3) {
      net::Lut mux;
      mux.inputs = {sel, hi, lo};
      mux.table.resize(8);
      for (std::size_t idx = 0; idx < 8; ++idx)
        mux.table[idx] = (idx & 1) ? ((idx >> 1) & 1) : ((idx >> 2) & 1);
      out = c.net.add_lut(std::move(mux));
    } else {
      const int t1 = c.net.add_lut({{sel, hi}, {false, false, false, true}});
      const int t0 = c.net.add_lut({{lo, sel}, {false, true, false, false}});
      out = c.net.add_lut({{t1, t0}, {false, true, true, true}});
    }
    signal.emplace(n, out);
    return out;
  };
  return rec(rec, root);
}

std::vector<int> shannon_step(Ctx& c, const std::vector<Isf>& fns,
                              const std::vector<int>& ids, int depth) {
  ++c.stats.shannon_fallbacks;
  obs::add("decomp.shannon_fallbacks");
  bdd::Manager& m = c.m;

  // Split on the variable occurring in the most supports.
  std::vector<int> active = union_of_supports(fns);
  int split = active.front();
  int best_count = -1;
  for (int v : active) {
    int count = 0;
    for (const Isf& f : fns) {
      const std::vector<int> s = f.support();
      if (std::binary_search(s.begin(), s.end(), v)) ++count;
    }
    if (count > best_count) {
      best_count = count;
      split = v;
    }
  }

  std::vector<Isf> halves;
  std::vector<int> half_ids;
  halves.reserve(fns.size() * 2);
  half_ids.reserve(fns.size() * 2);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    halves.push_back(fns[i].cofactor(split, false));
    halves.push_back(fns[i].cofactor(split, true));
    half_ids.push_back(ids[i]);
    half_ids.push_back(ids[i]);
  }
  obs::ScopedPhase recurse_phase("recurse");
  const std::vector<int> sub = synth(c, std::move(halves), half_ids, depth + 1);

  const int sel = c.signal_of(split);
  std::vector<int> result(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const int s0 = sub[2 * i], s1 = sub[2 * i + 1];
    c.record_level(ids[i]);
    if (c.opts.lut_inputs >= 3) {
      // One 3-input mux LUT: inputs (sel, d1, d0).
      net::Lut mux;
      mux.inputs = {sel, s1, s0};
      mux.table.resize(8);
      for (std::size_t idx = 0; idx < 8; ++idx)
        mux.table[idx] = (idx & 1) ? ((idx >> 1) & 1) : ((idx >> 2) & 1);
      result[i] = c.net.add_lut(std::move(mux));
    } else {
      // Three 2-input gates: (sel & d1) | (d0 & !sel).
      const int t1 = c.net.add_lut({{sel, s1}, {false, false, false, true}});
      const int t0 = c.net.add_lut({{s0, sel}, {false, true, false, false}});
      result[i] = c.net.add_lut({{t1, t0}, {false, true, true, true}});
    }
  }
  m.garbage_collect();
  return result;
}

std::vector<int> fallback_emit(Ctx& c, const std::vector<Isf>& work,
                               const std::vector<int>& ids, int depth) {
  std::vector<int> sigs(work.size(), net::kConst0);
  std::vector<int> small_idx;
  std::vector<Isf> small_fns;
  std::vector<int> small_ids;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (static_cast<int>(work[i].support().size()) <= c.opts.shannon_support_limit) {
      small_idx.push_back(static_cast<int>(i));
      small_fns.push_back(work[i]);
      small_ids.push_back(ids[i]);
    } else {
      sigs[i] = emit_bdd_muxes(c, work[i]);
      c.record_level(ids[i]);
      ++c.stats.bdd_mux_fallbacks;
      obs::add("decomp.bdd_mux_fallbacks");
    }
  }
  if (!small_fns.empty()) {
    const std::vector<int> sub = shannon_step(c, small_fns, small_ids, depth);
    for (std::size_t i = 0; i < small_idx.size(); ++i)
      sigs[static_cast<std::size_t>(small_idx[i])] = sub[i];
  }
  return sigs;
}

}  // namespace mfd::decomp

// Windowed ODC/SDC resubstitution (contract and algorithm sketch in the
// header). The exactness argument lives here, next to the code that has to
// uphold it: a LUT t may change its value only on primary-input assignments
// where every window observable o satisfies S0_o(x) == S1_o(x) — o's value
// at x does not depend on t's value at x — so *any* new function for t
// leaves every observable, and hence every network output, bit-identical.
// Sensitivity is pointwise in x, which is what makes simultaneous flips at
// many assignments sound.
#include "net/odc_resubst.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "net/lutnet.h"
#include "net/simulate.h"
#include "obs/obs.h"

namespace mfd::net {
namespace {

/// Per-sweep view of the network: global signal BDDs, liveness, fanouts.
/// `signal` holds the BDD of every primary input and live LUT; dead LUTs
/// stay dead for the rest of a sweep (rewrites only drop fanins), so their
/// entries are never read.
struct SweepState {
  std::vector<bdd::Bdd> signal;     // signal id -> BDD over pi_vars
  std::vector<bool> live;           // by LUT index
  std::vector<std::vector<int>> fanouts;  // signal id -> consumer LUT indices
  std::vector<bool> is_po;          // signal id -> drives a primary output
  std::uint64_t rebuilds = 0;       // LUT BDDs built (pass.odc.lut_rebuilds)

  bdd::Bdd signal_bdd(const bdd::Manager& m, int s) const {
    if (s == kConst0) return const_cast<bdd::Manager&>(m).bdd_false();
    if (s == kConst1) return const_cast<bdd::Manager&>(m).bdd_true();
    return signal[static_cast<std::size_t>(s)];
  }

  /// Full rebuild, at the start of each sweep (simplify/collapse renumber
  /// the LUTs between sweeps).
  void refresh(const LutNetwork& net, bdd::Manager& m,
               const std::vector<int>& pi_vars) {
    restructure(net);
    signal.assign(fanouts.size(), bdd::Bdd());  // one slot per signal
    for (int i = 0; i < net.num_primary_inputs(); ++i)
      signal[static_cast<std::size_t>(i)] =
          m.var(pi_vars[static_cast<std::size_t>(i)]);
    for (int i = 0; i < net.num_luts(); ++i)
      if (live[static_cast<std::size_t>(i)]) rebuild(net, m, i);
  }

  /// Incremental update after LUT t was rewritten: rebuild t, then, in index
  /// (= topological) order, every live LUT with a fanin whose BDD changed.
  /// A rebuilt BDD equal to its old one (an O(1) handle compare) stops the
  /// change from propagating further.
  void update(const LutNetwork& net, bdd::Manager& m, int t) {
    restructure(net);
    std::vector<bool> changed(signal.size(), false);
    for (int i = t; i < net.num_luts(); ++i) {
      if (!live[static_cast<std::size_t>(i)]) continue;
      if (i != t && std::none_of(net.lut(i).inputs.begin(),
                                 net.lut(i).inputs.end(), [&](int s) {
                                   return !net.is_constant(s) &&
                                          changed[static_cast<std::size_t>(s)];
                                 }))
        continue;
      changed[static_cast<std::size_t>(net.lut_signal(i))] = rebuild(net, m, i);
    }
  }

 private:
  /// Rebuilds LUT i's BDD from its fanins; true when the function changed.
  bool rebuild(const LutNetwork& net, bdd::Manager& m, int i) {
    ++rebuilds;
    bdd::Bdd f = lut_bdd(net.lut(i), m, [&](int s) { return signal_bdd(m, s); });
    bdd::Bdd& slot = signal[static_cast<std::size_t>(net.lut_signal(i))];
    if (f == slot) return false;
    slot = std::move(f);
    return true;
  }

  /// Liveness, fanouts and PO flags: structural, no BDD work.
  void restructure(const LutNetwork& net) {
    const std::size_t num_signals =
        static_cast<std::size_t>(net.num_primary_inputs() + net.num_luts());
    live = net.live_luts();
    fanouts.assign(num_signals, {});
    for (int i = 0; i < net.num_luts(); ++i) {
      if (!live[static_cast<std::size_t>(i)]) continue;
      for (int in : net.lut(i).inputs)
        if (!net.is_constant(in))
          fanouts[static_cast<std::size_t>(in)].push_back(i);
    }
    is_po.assign(num_signals, false);
    for (int s : net.outputs())
      if (!net.is_constant(s)) is_po[static_cast<std::size_t>(s)] = true;
  }
};

/// The fanout window of LUT t: members by BFS level (min distance from t,
/// capped at `depth`), in ascending LUT-index order per level set.
struct Window {
  std::vector<int> members;  // cone LUT indices, ascending (topo order)
  std::vector<int> level;    // parallel to members
  bool too_big = false;
};

Window build_window(const LutNetwork& net, const SweepState& st, int t_idx,
                    int depth, int max_luts) {
  Window w;
  std::vector<int> dist(static_cast<std::size_t>(net.num_luts()), -1);
  std::vector<int> frontier = {t_idx};
  dist[static_cast<std::size_t>(t_idx)] = 0;
  for (int d = 1; d <= depth && !frontier.empty(); ++d) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v : st.fanouts[static_cast<std::size_t>(net.lut_signal(u))]) {
        if (dist[static_cast<std::size_t>(v)] != -1) continue;
        dist[static_cast<std::size_t>(v)] = d;
        next.push_back(v);
        if (static_cast<int>(w.members.size()) + static_cast<int>(next.size()) >
            max_luts) {
          w.too_big = true;
          return w;
        }
      }
    }
    for (int v : next) w.members.push_back(v);
    frontier = std::move(next);
  }
  std::sort(w.members.begin(), w.members.end());
  w.level.reserve(w.members.size());
  for (int u : w.members) w.level.push_back(dist[static_cast<std::size_t>(u)]);
  return w;
}

/// Care set of LUT t over primary-input assignments: assignments where some
/// window observable is sensitive to t's value. Observables are cone members
/// that drive a primary output or sit on the window frontier (their
/// consumers were not explored); t itself being a PO makes everything care.
bdd::Bdd compute_care(const LutNetwork& net, const SweepState& st,
                      bdd::Manager& m, int t_idx, const Window& w, int depth) {
  const int t_sig = net.lut_signal(t_idx);
  if (st.is_po[static_cast<std::size_t>(t_sig)]) return m.bdd_true();

  // S0/S1: each cone signal as a function of the primary inputs with t's
  // signal forced to 0 / 1. Members are in ascending (= topological) order.
  std::vector<bdd::Bdd> s0(w.members.size()), s1(w.members.size());
  auto cone_pos = [&](int lut_idx) {
    const auto it =
        std::lower_bound(w.members.begin(), w.members.end(), lut_idx);
    if (it == w.members.end() || *it != lut_idx) return -1;
    return static_cast<int>(it - w.members.begin());
  };
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const Lut& lut = net.lut(w.members[i]);
    for (int value = 0; value < 2; ++value) {
      auto fanin = [&](int s) -> bdd::Bdd {
        if (s == t_sig) return value ? m.bdd_true() : m.bdd_false();
        if (!net.is_constant(s) && !net.is_primary_input(s)) {
          const int p = cone_pos(net.lut_index(s));
          if (p != -1) return value ? s1[static_cast<std::size_t>(p)]
                                    : s0[static_cast<std::size_t>(p)];
        }
        return st.signal_bdd(m, s);
      };
      (value ? s1[i] : s0[i]) = lut_bdd(lut, m, fanin);
    }
  }

  bdd::Bdd care = m.bdd_false();
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const int u = w.members[i];
    const bool frontier = w.level[i] == depth;
    const bool po = st.is_po[static_cast<std::size_t>(net.lut_signal(u))];
    if (!frontier && !po) continue;
    care |= s0[i] ^ s1[i];
    if (care.is_true()) break;
  }
  return care;
}

/// Truth-table ISF of one LUT: care bit per fanin pattern, false when no
/// primary-input assignment both produces the pattern (SDC) and lands in
/// the ODC care set. The patterns are scanned as a cofactor tree: depth j
/// splits the producible set on fanin j into `producible & !y_j` and
/// `producible & y_j`, and a branch whose product is false is pruned with
/// all its patterns left don't care. The last fanin needs emptiness only,
/// so one AND decides both leaves. Returns false when the table has no
/// don't cares.
bool table_isf(const LutNetwork& net, const SweepState& st, bdd::Manager& m,
               int t_idx, const bdd::Bdd& care_set, tt::Table* on,
               tt::Table* care) {
  const Lut& lut = net.lut(t_idx);
  const std::size_t k = lut.inputs.size();
  *on = tt::Table(static_cast<int>(k));
  *care = tt::Table(static_cast<int>(k));
  std::vector<bdd::Bdd> in(k);
  for (std::size_t j = 0; j < k; ++j) in[j] = st.signal_bdd(m, lut.inputs[j]);

  std::size_t cared_patterns = 0;
  auto mark = [&](std::size_t idx) {
    (*care)[idx] = true;
    (*on)[idx] = lut.table[idx];
    ++cared_patterns;
  };
  // `idx` holds the values of fanins 0..j-1 in its low bits.
  auto scan = [&](auto& self, std::size_t j, std::size_t idx,
                  const bdd::Bdd& producible) -> void {
    if (producible.is_false()) return;
    if (j == k) return mark(idx);  // only for k == 0, a constant LUT
    const std::size_t bit = std::size_t{1} << j;
    if (j + 1 == k) {
      // hi is a subset of producible: producible & !y_j is empty exactly
      // when hi is all of producible.
      const bdd::Bdd hi = producible & in[j];
      if (hi != producible) mark(idx);
      if (!hi.is_false()) mark(idx | bit);
      return;
    }
    self(self, j + 1, idx, producible & !in[j]);
    self(self, j + 1, idx | bit, producible & in[j]);
  };
  scan(scan, 0, 0, care_set);
  return cared_patterns < lut.table.size();
}

/// Greedy compatible-fanin elimination on a truth-table ISF: drop dimension
/// r when the two halves agree wherever both care; merge on/care. Repeats
/// until no dimension is removable. `rem` receives the surviving positions
/// (indices into the original fanin list), ascending.
void remove_compatible_inputs(tt::Table* on, tt::Table* care,
                              std::vector<int>* rem) {
  for (std::size_t r = 0; r < rem->size();) {
    const int v = static_cast<int>(r);
    const tt::Table on0 = on->cofactor(v, false), on1 = on->cofactor(v, true);
    const tt::Table care0 = care->cofactor(v, false), care1 = care->cofactor(v, true);
    if (!((on0 ^ on1) & care0 & care1).none()) {
      ++r;
      continue;
    }
    *on = (on0 & care0) | (on1 & care1);
    *care = care0 | care1;
    rem->erase(rem->begin() + v);
    r = 0;  // dimensions shifted; restart the scan
  }
}

/// Completes the remaining don't cares, preferring a small representation
/// (the table form of Isf::extension_small on the surviving fanins, in
/// order), then drops fanins the chosen extension turned inessential.
Lut fill_extension(const Lut& old, const tt::Table& on, const tt::Table& care,
                   const std::vector<int>& rem) {
  Lut out;
  std::vector<int> kept;
  out.table = tt::extension_small(on, care).shrink_to_support(&kept);
  out.inputs.reserve(kept.size());
  for (int p : kept)
    out.inputs.push_back(
        old.inputs[static_cast<std::size_t>(rem[static_cast<std::size_t>(p)])]);
  return out;
}

/// RAII governor binding so the pass's BDD work charges the run's budget
/// through the manager mk hot path (same mechanism the decompose flow uses).
struct GovernorBinding {
  GovernorBinding(bdd::Manager& m, ResourceGovernor* g)
      : m_(m), prev_(m.set_governor(g)) {}
  ~GovernorBinding() { m_.set_governor(prev_); }
  GovernorBinding(const GovernorBinding&) = delete;
  GovernorBinding& operator=(const GovernorBinding&) = delete;

 private:
  bdd::Manager& m_;
  ResourceGovernor* prev_;
};

}  // namespace

bool OdcResubstPass::run(LutNetwork& net, PassContext& ctx) {
  if (ctx.manager == nullptr || ctx.pi_vars == nullptr) return false;
  bdd::Manager& m = *ctx.manager;
  GovernorBinding bind(m, ctx.governor);

  bool any = false;
  SweepState st;
  try {
    for (int iter = 0; iter < opts_.max_iters; ++iter) {
      obs::add("pass.odc.sweeps");
      {
        obs::ScopedPhase phase("update");
        st.refresh(net, m, *ctx.pi_vars);
      }
      bool changed = false;
      for (int t = 0; t < net.num_luts(); ++t) {
        if (!st.live[static_cast<std::size_t>(t)]) continue;
        if (ctx.governor != nullptr) ctx.governor->check_deadline("pass.odc");
        obs::add("pass.odc.nodes_scanned");

        Window w;
        {
          obs::ScopedPhase phase("window");
          w = build_window(net, st, t, opts_.window_depth, opts_.max_cone_luts);
        }
        if (w.too_big) {
          obs::add("pass.odc.cone_skips");
          continue;
        }
        bdd::Bdd care_set;
        {
          obs::ScopedPhase phase("care");
          care_set = compute_care(net, st, m, t, w, opts_.window_depth);
        }

        Lut repl;
        {
          obs::ScopedPhase phase("isf");
          tt::Table on, care;
          if (!table_isf(net, st, m, t, care_set, &on, &care)) continue;

          const Lut& old = net.lut(t);
          std::vector<int> rem(old.inputs.size());
          for (std::size_t j = 0; j < rem.size(); ++j)
            rem[j] = static_cast<int>(j);
          remove_compatible_inputs(&on, &care, &rem);
          if (rem.size() == old.inputs.size()) continue;  // nothing strictly won
          repl = fill_extension(old, on, care, rem);
        }
        const int saved =
            static_cast<int>(net.lut(t).inputs.size() - repl.inputs.size());
        net.replace_lut(t, std::move(repl));
        obs::add("pass.odc.rewrites");
        obs::add("pass.odc.fanins_removed", static_cast<std::uint64_t>(saved));
        changed = true;
        // Downstream signal functions changed (on don't-care assignments
        // only, but changed): update them before judging the next node.
        obs::ScopedPhase phase("update");
        st.update(net, m, t);
      }
      if (!changed) break;
      any = true;
      net.simplify();
      net.collapse(opts_.lut_inputs);
      m.garbage_collect();
    }
  } catch (const BudgetExceeded&) {
    // Optional quality pass: keep the (always-valid) network we have and let
    // the rest of the pipeline proceed rather than re-entering the ladder.
    obs::add("pass.odc.budget_aborts");
  }
  obs::add("pass.odc.lut_rebuilds", st.rebuilds);
  return any;
}

}  // namespace mfd::net

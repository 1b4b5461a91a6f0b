#include "util/coloring.h"

#include <algorithm>
#include <limits>

#include "core/budget.h"
#include "core/faultinject.h"
#include "obs/obs.h"

namespace mfd {
namespace {

/// DSATUR: repeatedly color the vertex with the highest saturation degree
/// (number of distinct neighbor colors), breaking ties by degree and then by
/// a random permutation so that restarts explore different solutions.
Coloring dsatur(const Graph& g, Rng& rng) {
  const int n = g.num_vertices();
  Coloring result;
  result.color.assign(n, -1);
  if (n == 0) return result;

  std::vector<int> tiebreak(n);
  for (int v = 0; v < n; ++v) tiebreak[v] = v;
  rng.shuffle(tiebreak);

  // sat_mask[v]: bitset of neighbor colors (grown on demand).
  std::vector<std::vector<bool>> sat(n);
  std::vector<int> sat_deg(n, 0);

  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (result.color[v] != -1) continue;
      if (best == -1 || sat_deg[v] > sat_deg[best] ||
          (sat_deg[v] == sat_deg[best] &&
           (g.degree(v) > g.degree(best) ||
            (g.degree(v) == g.degree(best) && tiebreak[v] < tiebreak[best]))))
        best = v;
    }
    // Smallest color not used by a neighbor.
    int c = 0;
    while (c < static_cast<int>(sat[best].size()) && sat[best][c]) ++c;
    result.color[best] = c;
    result.num_colors = std::max(result.num_colors, c + 1);
    for (int u : g.neighbors(best)) {
      if (result.color[u] != -1) continue;
      if (static_cast<int>(sat[u].size()) <= c) sat[u].resize(c + 1, false);
      if (!sat[u][c]) {
        sat[u][c] = true;
        ++sat_deg[u];
      }
    }
  }
  return result;
}

/// Exact coloring by branch and bound over vertices in decreasing-degree
/// order. Feasible because the decomposition core only calls it for graphs
/// with at most ~20 vertices (bound sets with 2^p small).
class ExactColorer {
 public:
  explicit ExactColorer(const Graph& g) : g_(g), n_(g.num_vertices()) {
    order_.resize(n_);
    for (int v = 0; v < n_; ++v) order_[v] = v;
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      return g_.degree(a) > g_.degree(b);
    });
  }

  Coloring solve(const Coloring& initial) {
    best_ = initial;
    color_.assign(n_, -1);
    branch(0, 0);
    obs::add("coloring.exact_nodes", static_cast<std::uint64_t>(kBudget - budget_));
    return best_;
  }

 private:
  void branch(int pos, int used) {
    if (budget_-- <= 0) return;  // keep worst-case cost bounded
    if (used >= best_.num_colors) return;  // can't beat incumbent
    if (pos == n_) {
      best_.num_colors = used;
      best_.color = color_;
      // Re-index colors by vertex id (color_ is indexed by vertex already).
      return;
    }
    const int v = order_[pos];
    bool forbidden_storage[64] = {};
    for (int u : g_.neighbors(v)) {
      const int cu = color_[u];
      if (cu >= 0 && cu < 64) forbidden_storage[cu] = true;
    }
    const int limit = std::min(used + 1, best_.num_colors - 1);
    for (int c = 0; c < limit; ++c) {
      if (c < 64 && forbidden_storage[c]) continue;
      color_[v] = c;
      branch(pos + 1, std::max(used, c + 1));
      color_[v] = -1;
    }
  }

  static constexpr long kBudget = 500000;

  const Graph& g_;
  int n_;
  long budget_ = kBudget;
  std::vector<int> order_;
  std::vector<int> color_;
  Coloring best_;
};

}  // namespace

Coloring color_graph(const Graph& g, const ColoringOptions& opts) {
  obs::add("coloring.calls");
  if (fault::armed()) fault::point("util.coloring");
  // Deadline/ladder awareness: under an installed governor, restarts stop as
  // soon as the deadline passes, and the exact branch-and-bound is skipped
  // entirely once the flow has degraded past the full rung (no_dc_steps) or
  // the deadline has already expired. The first DSATUR pass always runs —
  // a proper coloring is required for correctness, only optimality is traded.
  ResourceGovernor* gov = ResourceGovernor::current();
  Rng rng(opts.seed);
  Coloring best = dsatur(g, rng);
  std::uint64_t dsatur_runs = 1;
  for (int r = 1; r < opts.restarts; ++r) {
    if (gov != nullptr && gov->deadline_expired()) {
      obs::add("coloring.restarts_skipped", static_cast<std::uint64_t>(opts.restarts - r));
      break;
    }
    Coloring c = dsatur(g, rng);
    ++dsatur_runs;
    if (c.num_colors < best.num_colors) best = c;
  }
  obs::add("coloring.dsatur_runs", dsatur_runs);
  if (g.num_vertices() <= opts.exact_vertex_limit && g.num_vertices() > 0) {
    if (gov != nullptr &&
        (gov->degrade_level() >= kDegradeNoDcSteps || gov->deadline_expired())) {
      obs::add("coloring.exact_skipped");
    } else {
      obs::add("coloring.exact_runs");
      ExactColorer exact(g);
      Coloring c = exact.solve(best);
      if (c.num_colors < best.num_colors) best = c;
    }
  }
  return best;
}

bool coloring_is_proper(const Graph& g, const Coloring& c) {
  const int n = g.num_vertices();
  if (static_cast<int>(c.color.size()) != n) return false;
  for (int v = 0; v < n; ++v) {
    if (c.color[v] < 0 || c.color[v] >= c.num_colors) return false;
    for (int u : g.neighbors(v))
      if (c.color[u] == c.color[v]) return false;
  }
  return true;
}

}  // namespace mfd

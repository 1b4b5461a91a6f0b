// Internal header of the decomposition driver: the shared context and the
// pass-sized units the recursive flow composes from.
//
// The driver is split across three translation units so each piece stays
// reviewable and reusable on its own (the network-level passes reuse the
// same machinery):
//
//   decompose.cpp  — the ladder driver (`synth`), the per-level orchestrator
//                    (`synth_attempt`: small-function emission, clustering,
//                    structural floor), and the public `decompose()` entry;
//   emit.cpp       — signal emission: single-LUT extensions, direct BDD-mux
//                    mapping, the Shannon fallback, and the combined
//                    structural fallback;
//   step.cpp       — one full decomposition step: symmetrize, order seeding,
//                    bound-set search, the DC assignment steps, encoding,
//                    alpha emission, and the composition recursion.
//
// Everything here is internal to src/decomp — include only from its .cpp
// files.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/budget.h"
#include "decomp/decompose.h"
#include "isf/isf.h"
#include "net/lutnet.h"

namespace mfd::decomp {

constexpr int kNoSignal = -1000000;

/// Marker id for functions that are not primary outputs (alpha recursions);
/// their ladder level is not attributed to anyone.
constexpr int kInternalId = -1;

/// Mutable state of one decompose() call, threaded through the recursion.
struct Ctx {
  bdd::Manager& m;
  const DecomposeOptions& opts;
  ResourceGovernor* gov;  // never null inside synth (decompose installs one)
  net::LutNetwork net;
  std::vector<int> var_signal;  // manager var -> network signal
  std::vector<int> out_level;   // primary output -> ladder level at emission
  DecomposeStats stats;

  /// Attributes the currently active ladder level to primary output `id`
  /// (called at every signal-emission site; internal ids are ignored).
  void record_level(int id) {
    if (id == kInternalId) return;
    int& slot = out_level[static_cast<std::size_t>(id)];
    slot = std::max(slot, gov->degrade_level());
  }

  int signal_of(int var) const {
    assert(var_signal[static_cast<std::size_t>(var)] != kNoSignal);
    return var_signal[static_cast<std::size_t>(var)];
  }
  void bind(int var, int signal) {
    if (static_cast<std::size_t>(var) >= var_signal.size())
      var_signal.resize(static_cast<std::size_t>(var) + 1, kNoSignal);
    var_signal[static_cast<std::size_t>(var)] = signal;
  }
};

// ---- emission units (emit.cpp) ------------------------------------------

/// Emits a completely specified extension as a single LUT (its support must
/// fit the fanin bound). Returns the driving signal.
int emit_small(Ctx& c, const bdd::Bdd& ext);

/// Last-resort emission: map the extension-zero BDD of `f` node-for-node to
/// a network of multiplexers (the classic direct BDD mapping). Linear in the
/// BDD size, so it bounds the worst case when neither a profitable bound set
/// nor an affordable Shannon cascade exists.
int emit_bdd_muxes(Ctx& c, const Isf& f);

/// Shannon (mux) fallback: guaranteed support reduction when no bound set
/// yields one.
std::vector<int> shannon_step(Ctx& c, const std::vector<Isf>& fns,
                              const std::vector<int>& ids, int depth);

/// Emission when no profitable bound set exists: Shannon-split outputs with
/// small support (the recursion then reconsiders the halves), map the rest
/// directly as BDD mux networks (bounded cost; a Shannon cascade over a wide
/// support could fan out exponentially).
std::vector<int> fallback_emit(Ctx& c, const std::vector<Isf>& work,
                               const std::vector<int>& ids, int depth);

/// Union of the functions' supports, ascending.
std::vector<int> union_of_supports(const std::vector<Isf>& fns);

// ---- one decomposition step (step.cpp) ----------------------------------

/// One full decomposition level over an already-clustered group whose
/// members all exceed the fanin bound: symmetrize, seed the order, search
/// for a bound set, run the DC assignment steps, encode and emit the
/// decomposition functions, then recurse on the composition functions.
/// Falls back to `fallback_emit` internally when no bound set is
/// profitable. Returns one signal per entry of `work`.
std::vector<int> decomposition_step(Ctx& c, std::vector<Isf> work,
                                    const std::vector<int>& work_ids, int depth);

// ---- ladder driver (decompose.cpp) --------------------------------------

/// Ladder driver wrapping one recursion level. On BudgetExceeded / bad_alloc
/// it raises the (global, monotone) degradation level one rung and retries
/// the same subproblem; the structural floor (level 3) runs with enforcement
/// suspended, so it completes unless a fault is injected into it — only then
/// does a typed error escape to the caller. `ids[i]` is the primary-output
/// index function i computes (kInternalId for alpha recursions), used to
/// attribute the final ladder level per output.
std::vector<int> synth(Ctx& c, std::vector<Isf> fns, const std::vector<int>& ids,
                       int depth);

}  // namespace mfd::decomp

// Verification of LUT networks against BDD/ISF specifications.
//
// Two independent paths:
//  * exact: rebuild every network output as a BDD and check that it is an
//    admissible extension of the specification ISF;
//  * simulation: drive `evaluate()` with exhaustive or random vectors.
// The exact path validates the decomposition algebra; the simulation path
// additionally validates the network evaluation machinery itself.
#pragma once

#include <string>
#include <vector>

#include "isf/isf.h"
#include "net/lutnet.h"

namespace mfd::net {

/// BDD of a truth table over the given fanin functions: variable j of
/// `table` is fanins[j] (the Lut convention). The table is folded as a mux
/// tree, fanin 0 first: each level pairs adjacent entries into
/// ite(fanin_j, hi, lo) and skips the ite when both halves are equal, so a
/// k-input table costs at most 2^k - 1 ite calls. This is the one
/// table-to-BDD construction of the flow.
bdd::Bdd table_bdd(const tt::Table& table,
                   const std::vector<bdd::Bdd>& fanins, bdd::Manager& m);

/// BDD of one LUT given a fanin lookup: `fanin(signal)` returns the BDD of
/// each input signal (constants included).
template <typename FaninBdd>
bdd::Bdd lut_bdd(const Lut& lut, bdd::Manager& m, FaninBdd fanin) {
  std::vector<bdd::Bdd> in;
  in.reserve(lut.inputs.size());
  for (int s : lut.inputs) in.push_back(fanin(s));
  return table_bdd(lut.table, in, m);
}

/// BDD of every primary output of `net`. `pi_vars[i]` is the manager
/// variable standing for primary input i.
std::vector<bdd::Bdd> output_bdds(const LutNetwork& net, bdd::Manager& m,
                                  const std::vector<int>& pi_vars);

/// Exact check: every network output is an admissible extension of the
/// corresponding specification ISF. On failure, `error` (if given) receives
/// a description including a counterexample.
bool check_exact(const LutNetwork& net, const std::vector<Isf>& spec,
                 const std::vector<int>& pi_vars, std::string* error = nullptr);

/// Simulation check of the same property; exhaustive if the network has at
/// most `exhaustive_limit` inputs, otherwise `samples` random vectors.
bool check_by_simulation(const LutNetwork& net, const std::vector<Isf>& spec,
                         const std::vector<int>& pi_vars, int exhaustive_limit = 12,
                         int samples = 2000, std::uint64_t seed = 7,
                         std::string* error = nullptr);

}  // namespace mfd::net

#include "simcheck.h"

#include <cstdio>

#include "bdd/bdd.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Words = std::vector<std::uint64_t>;
using mfd::net::LutNetwork;

/// Input vector v is bit v % 64 of word v / 64 in every primary input's
/// word list.
struct Vectors {
  std::size_t count = 0;
  std::vector<Words> pi;
};

Vectors make_vectors(int num_pi, std::uint64_t seed) {
  Vectors vs;
  const bool exhaustive = num_pi <= kExhaustiveInputs;
  vs.count = exhaustive ? std::size_t{1} << num_pi : kRandomVectors;
  const std::size_t words = (vs.count + 63) / 64;
  vs.pi.assign(static_cast<std::size_t>(num_pi), Words(words, 0));
  mfd::Rng rng(seed);
  for (int i = 0; i < num_pi; ++i) {
    Words& w = vs.pi[static_cast<std::size_t>(i)];
    if (!exhaustive) {
      for (std::uint64_t& x : w) x = rng.next();
      continue;
    }
    for (std::size_t v = 0; v < vs.count; ++v)
      if ((v >> i) & 1u) w[v / 64] |= std::uint64_t{1} << (v % 64);
  }
  return vs;
}

/// Word values of every LUT signal, in LUT index order. Each LUT is a mux
/// tree over its table: fold the highest fanin first (bit j of the table
/// index is fanin j).
std::vector<Words> simulate(const LutNetwork& net, const Vectors& vs) {
  const std::size_t words = (vs.count + 63) / 64;
  std::vector<Words> lut_vals(static_cast<std::size_t>(net.num_luts()), Words(words));
  auto signal_word = [&](int s, std::size_t w) -> std::uint64_t {
    if (s == mfd::net::kConst0) return 0;
    if (s == mfd::net::kConst1) return ~std::uint64_t{0};
    if (net.is_primary_input(s)) return vs.pi[static_cast<std::size_t>(s)][w];
    return lut_vals[static_cast<std::size_t>(net.lut_index(s))][w];
  };
  std::vector<std::uint64_t> leaves, in;
  for (int i = 0; i < net.num_luts(); ++i) {
    const mfd::net::Lut& lut = net.lut(i);
    const std::size_t k = lut.inputs.size();
    in.resize(k);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t j = 0; j < k; ++j) in[j] = signal_word(lut.inputs[j], w);
      leaves.resize(lut.table.size());
      for (std::size_t m = 0; m < lut.table.size(); ++m)
        leaves[m] = lut.table[m] ? ~std::uint64_t{0} : 0;
      for (std::size_t j = k; j-- > 0;) {
        const std::size_t half = std::size_t{1} << j;
        for (std::size_t m = 0; m < half; ++m)
          leaves[m] = (in[j] & leaves[m + half]) | (~in[j] & leaves[m]);
      }
      lut_vals[static_cast<std::size_t>(i)][w] = leaves.empty() ? 0 : leaves[0];
    }
  }
  return lut_vals;
}

bool bit_of(const Words& w, std::size_t v) { return (w[v / 64] >> (v % 64)) & 1u; }

/// Manager-variable assignment of input vector v.
std::vector<bool> assignment(const Vectors& vs, const std::vector<int>& pi_vars,
                             int num_vars, std::size_t v) {
  std::vector<bool> a(static_cast<std::size_t>(num_vars), false);
  for (std::size_t i = 0; i < pi_vars.size(); ++i)
    a[static_cast<std::size_t>(pi_vars[i])] = bit_of(vs.pi[i], v);
  return a;
}

bool output_bit(const LutNetwork& net, const Vectors& vs,
                const std::vector<Words>& lut_vals, int signal, std::size_t v) {
  if (signal == mfd::net::kConst0) return false;
  if (signal == mfd::net::kConst1) return true;
  if (net.is_primary_input(signal)) return bit_of(vs.pi[static_cast<std::size_t>(signal)], v);
  return bit_of(lut_vals[static_cast<std::size_t>(net.lut_index(signal))], v);
}

SimCheck check(const LutNetwork& net, const std::vector<mfd::Isf>& spec,
               const std::vector<int>& pi_vars, const Vectors& vs) {
  SimCheck r;
  r.vectors = vs.count;
  if (static_cast<std::size_t>(net.num_outputs()) != spec.size() ||
      static_cast<std::size_t>(net.num_primary_inputs()) != pi_vars.size()) {
    r.ok = false;
    r.error = "network I/O counts differ from the spec";
    return r;
  }
  if (spec.empty()) return r;
  const mfd::bdd::Manager& m = *spec.front().manager();
  const std::vector<Words> lut_vals = simulate(net, vs);
  for (std::size_t v = 0; v < vs.count; ++v) {
    const std::vector<bool> a = assignment(vs, pi_vars, m.num_vars(), v);
    for (std::size_t o = 0; o < spec.size(); ++o) {
      const mfd::Isf& f = spec[o];
      if (!f.care().is_true() && !m.eval(f.care().id(), a)) continue;
      const bool want = m.eval(f.on().id(), a);
      if (output_bit(net, vs, lut_vals, net.outputs()[o], v) == want) continue;
      r.ok = false;
      char buf[96];
      std::snprintf(buf, sizeof buf, "output %zu wrong on vector %zu (want %d)", o, v,
                    want ? 1 : 0);
      r.error = buf;
      return r;
    }
  }
  return r;
}

}  // namespace

SimCheck simulate_check(const LutNetwork& net, const std::vector<mfd::Isf>& spec,
                        const std::vector<int>& pi_vars, std::uint64_t seed) {
  return check(net, spec, pi_vars, make_vectors(net.num_primary_inputs(), seed));
}

std::string simcheck_self_test(const LutNetwork& net, const std::vector<mfd::Isf>& spec,
                               const std::vector<int>& pi_vars) {
  const std::uint64_t seed = 1;
  const Vectors vs = make_vectors(net.num_primary_inputs(), seed);
  if (!check(net, spec, pi_vars, vs).ok) return "the unmodified network fails the check";
  const std::vector<Words> lut_vals = simulate(net, vs);
  const mfd::bdd::Manager& m = *spec.front().manager();
  for (std::size_t o = 0; o < spec.size(); ++o) {
    const int s = net.outputs()[o];
    if (net.is_constant(s) || net.is_primary_input(s)) continue;
    for (std::size_t v = 0; v < vs.count; ++v) {
      if (!m.eval(spec[o].care().id(), assignment(vs, pi_vars, m.num_vars(), v))) continue;
      // The table entry vector v selects in the output's LUT.
      const int index = net.lut_index(s);
      mfd::net::Lut lut = net.lut(index);
      std::size_t entry = 0;
      for (std::size_t j = 0; j < lut.inputs.size(); ++j)
        if (output_bit(net, vs, lut_vals, lut.inputs[j], v)) entry |= std::size_t{1} << j;
      lut.table[entry] = !lut.table[entry];
      LutNetwork broken = net;
      broken.replace_lut(index, lut);
      if (check(broken, spec, pi_vars, vs).ok)
        return "a flipped LUT-table bit went undetected";
      return {};
    }
  }
  return "no output LUT with a cared-for vector to flip";
}

}  // namespace perfbench

// Packed truth tables (src/tt): every kernel against the bit-by-bit loop it
// replaced, kept here as the reference, for k = 0..8 (so multi-word tables
// are covered); the table restrict/extension against the BDD one; and the
// bench network hash pinned across the change of table representation.
#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.h"
#include "bench/bench_common.h"
#include "core/errors.h"
#include "isf/isf.h"
#include "net/lutnet.h"
#include "net/simulate.h"
#include "tt/table.h"
#include "util/rng.h"

namespace mfd::tt {

void PrintTo(const Table& t, std::ostream* os) {
  *os << t.num_vars() << ":";
  for (std::size_t i = 0; i < t.size(); ++i) *os << (t[i] ? '1' : '0');
}

namespace {

using Bits = std::vector<bool>;

constexpr int kMaxTestVars = 8;

Bits random_bits(Rng& rng, int k) {
  Bits b(std::size_t{1} << k);
  for (auto&& bit : b) bit = rng.flip();
  return b;
}

Table from_bits(const Bits& bits) {
  int k = 0;
  while ((std::size_t{1} << k) < bits.size()) ++k;
  Table t(k);
  for (std::size_t i = 0; i < bits.size(); ++i) t[i] = bits[i];
  return t;
}

// ---- the reference loops (the vector<bool> code the kernels replaced) ----

/// Constant fold / prune: the entries with bit j = value, index compacted.
Bits ref_cofactor(const Bits& t, int j, bool value) {
  const std::size_t bit = std::size_t{1} << j;
  Bits r(t.size() / 2);
  for (std::size_t idx = 0; idx < r.size(); ++idx) {
    const std::size_t low = idx & (bit - 1);
    const std::size_t high = (idx & ~(bit - 1)) << 1;
    r[idx] = t[high | low | (value ? bit : 0)];
  }
  return r;
}

/// Inverter absorption: the table axis j flipped.
Bits ref_flip(const Bits& t, int j) {
  Bits r(t.size());
  for (std::size_t idx = 0; idx < t.size(); ++idx) r[idx] = t[idx ^ (std::size_t{1} << j)];
  return r;
}

/// prune_inputs' essential test.
bool ref_depends(const Bits& t, int j) {
  const std::size_t bit = std::size_t{1} << j;
  for (std::size_t idx = 0; idx < t.size(); ++idx)
    if ((idx & bit) == 0 && t[idx] != t[idx | bit]) return true;
  return false;
}

/// prune_inputs: drop inessential inputs in ascending order.
Bits ref_shrink(Bits t, std::vector<int>* kept) {
  int k = 0;
  while ((std::size_t{1} << k) < t.size()) ++k;
  kept->clear();
  for (int j = 0; j < k; ++j) kept->push_back(j);
  for (std::size_t j = 0; j < kept->size();) {
    if (ref_depends(t, static_cast<int>(j))) {
      ++j;
      continue;
    }
    t = ref_cofactor(t, static_cast<int>(j), false);
    kept->erase(kept->begin() + static_cast<std::ptrdiff_t>(j));
  }
  return t;
}

/// collapse_duplicate_inputs: input k (> j) repeats input j, so take the
/// entry where bit k mirrors bit j and drop dimension k.
Bits ref_diagonal(const Bits& t, int j, int k) {
  const std::size_t bit_k = std::size_t{1} << k;
  Bits r(t.size() / 2);
  for (std::size_t idx = 0; idx < r.size(); ++idx) {
    const std::size_t source = ((idx & ~(bit_k - 1)) << 1) | (idx & (bit_k - 1));
    r[idx] = t[source | (((source >> j) & 1) ? bit_k : 0)];
  }
  return r;
}

/// remove_compatible_inputs' compatibility test and merge on dimension r.
bool ref_compatible_merge(const Bits& on, const Bits& care, int r, Bits* non,
                          Bits* ncare) {
  const std::size_t half = on.size() / 2;
  const std::size_t lo_bits = (std::size_t{1} << r) - 1;
  auto expand = [&](std::size_t idx, bool bit) {
    return (idx & lo_bits) | (bit ? (std::size_t{1} << r) : 0) | ((idx & ~lo_bits) << 1);
  };
  non->assign(half, false);
  ncare->assign(half, false);
  bool compatible = true;
  for (std::size_t idx = 0; idx < half; ++idx) {
    const std::size_t a = expand(idx, false), b = expand(idx, true);
    if (care[a] && care[b] && on[a] != on[b]) compatible = false;
    (*non)[idx] = (care[a] && on[a]) || (care[b] && on[b]);
    (*ncare)[idx] = care[a] || care[b];
  }
  return compatible;
}

TEST(TtTable, LayoutAndConstruction) {
  const Table t{false, true, true, true};
  EXPECT_EQ(t.num_vars(), 2);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FALSE(t[0]);
  EXPECT_TRUE(t[3]);
  EXPECT_EQ(Table(), Table{false});
  EXPECT_EQ(Table(16).size(), std::size_t{1} << 16);
  EXPECT_THROW(Table(kMaxVars + 1), Error);
  EXPECT_THROW(Table(-1), Error);
  EXPECT_THROW((Table{true, false, true}), Error);
  Table u(7);
  u[100] = true;
  u[3] = u[100];
  EXPECT_TRUE(u[3]);
  u[3] = !u[3];
  EXPECT_FALSE(u[3]);
  EXPECT_TRUE(u[100]);
}

TEST(TtTable, BitwiseOpsMatchBitLoops) {
  Rng rng(11);
  for (int k = 0; k <= kMaxTestVars; ++k) {
    for (int trial = 0; trial < 8; ++trial) {
      const Bits a = random_bits(rng, k), b = random_bits(rng, k);
      Bits n(a.size()), x(a.size()), o(a.size()), e(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        n[i] = !a[i];
        x[i] = a[i] && b[i];
        o[i] = a[i] || b[i];
        e[i] = a[i] != b[i];
      }
      const Table ta = from_bits(a), tb = from_bits(b);
      EXPECT_EQ(~ta, from_bits(n)) << "k=" << k;
      EXPECT_EQ(ta & tb, from_bits(x)) << "k=" << k;
      EXPECT_EQ(ta | tb, from_bits(o)) << "k=" << k;
      EXPECT_EQ(ta ^ tb, from_bits(e)) << "k=" << k;
      EXPECT_TRUE((ta ^ ta).none());
      EXPECT_TRUE((ta | ~ta).all());
      EXPECT_FALSE(Table(k).all());
      EXPECT_TRUE((~Table(k)).all());
    }
  }
}

TEST(TtTable, CofactorJoinFlipDependMatchBitLoops) {
  Rng rng(12);
  for (int k = 0; k <= kMaxTestVars; ++k) {
    for (int trial = 0; trial < 8; ++trial) {
      Bits bits = random_bits(rng, k);
      if (trial == 1 && k > 0) bits = ref_flip(bits, 0);
      if (trial >= 2 && k > 0) {
        // Make some variable inessential so depends_on sees both answers.
        const int drop = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
        for (std::size_t i = 0; i < bits.size(); ++i)
          bits[i] = bits[i & ~(std::size_t{1} << drop)];
      }
      const Table t = from_bits(bits);
      for (int j = 0; j < k; ++j) {
        const Bits lo = ref_cofactor(bits, j, false), hi = ref_cofactor(bits, j, true);
        EXPECT_EQ(t.cofactor(j, false), from_bits(lo)) << "k=" << k << " j=" << j;
        EXPECT_EQ(t.cofactor(j, true), from_bits(hi)) << "k=" << k << " j=" << j;
        EXPECT_EQ(Table::join(j, from_bits(lo), from_bits(hi)), t) << "k=" << k << " j=" << j;
        EXPECT_EQ(t.flip(j), from_bits(ref_flip(bits, j))) << "k=" << k << " j=" << j;
        EXPECT_EQ(t.depends_on(j), ref_depends(bits, j)) << "k=" << k << " j=" << j;
        for (int jj = j + 1; jj < k; ++jj) {
          // collapse_duplicate_inputs' port: input jj mirrors input j.
          const Table diag = Table::join(j, t.cofactor(jj, false).cofactor(j, false),
                                         t.cofactor(jj, true).cofactor(j, true));
          EXPECT_EQ(diag, from_bits(ref_diagonal(bits, j, jj)))
              << "k=" << k << " j=" << j << " jj=" << jj;
        }
      }
      std::vector<int> kept, ref_kept;
      EXPECT_EQ(t.shrink_to_support(&kept), from_bits(ref_shrink(bits, &ref_kept)))
          << "k=" << k;
      EXPECT_EQ(kept, ref_kept) << "k=" << k;
    }
  }
}

TEST(TtTable, CompatibleMergeMatchesBitLoop) {
  // remove_compatible_inputs' port: (on0 ^ on1) & care0 & care1 == 0 and the
  // merge on = (on0 & care0) | (on1 & care1), care = care0 | care1.
  Rng rng(13);
  for (int k = 1; k <= kMaxTestVars; ++k) {
    for (int trial = 0; trial < 16; ++trial) {
      Bits on = random_bits(rng, k), care = random_bits(rng, k);
      // Sparse care sets make compatible dimensions common.
      for (std::size_t i = 0; i < care.size(); ++i) care[i] = care[i] && rng.below(4) == 0;
      const Table ton = from_bits(on), tcare = from_bits(care);
      for (int r = 0; r < k; ++r) {
        Bits non, ncare;
        const bool ref = ref_compatible_merge(on, care, r, &non, &ncare);
        const Table on0 = ton.cofactor(r, false), on1 = ton.cofactor(r, true);
        const Table c0 = tcare.cofactor(r, false), c1 = tcare.cofactor(r, true);
        EXPECT_EQ(((on0 ^ on1) & c0 & c1).none(), ref) << "k=" << k << " r=" << r;
        EXPECT_EQ((on0 & c0) | (on1 & c1), from_bits(non)) << "k=" << k << " r=" << r;
        EXPECT_EQ(c0 | c1, from_bits(ncare)) << "k=" << k << " r=" << r;
      }
    }
  }
}

/// The table of a BDD over variables 0..k-1 of `m`.
Table table_of(const bdd::Manager& m, const bdd::Bdd& f, int k) {
  Table t(k);
  std::vector<bool> assignment(static_cast<std::size_t>(k));
  for (std::size_t idx = 0; idx < t.size(); ++idx) {
    for (int j = 0; j < k; ++j) assignment[static_cast<std::size_t>(j)] = (idx >> j) & 1;
    t[idx] = m.eval(f.id(), assignment);
  }
  return t;
}

/// The BDD computation fill_extension used to run: a fresh manager whose
/// variable j is fanin j at level j.
struct BddSide {
  explicit BddSide(int k) : m(k) {
    for (int j = 0; j < k; ++j) vars.push_back(m.var(j));
  }
  bdd::Bdd bdd(const Table& t) { return net::table_bdd(t, vars, m); }
  bdd::Manager m;
  std::vector<bdd::Bdd> vars;
};

TEST(TtRestrict, MatchesBddRestrictAndExtensionSmall) {
  Rng rng(14);
  int restricted_wins = 0;
  for (int k = 0; k <= 6; ++k) {
    for (int trial = 0; trial < 300; ++trial) {
      const Table on = from_bits(random_bits(rng, k));
      Table care(k);
      if (trial == 0) {
        care = ~care;  // all care
      } else if (trial > 1) {  // trial 1: no care at all
        // Care densities from 1/8 to 7/8.
        const std::uint64_t density = 1 + rng.below(7);
        for (std::size_t i = 0; i < care.size(); ++i) care[i] = rng.below(8) < density;
      }
      BddSide b(k);
      const Isf isf(b.bdd(on), b.bdd(care));
      const Table ext = extension_small(on, care);
      EXPECT_EQ(ext, table_of(b.m, isf.extension_small(), k))
          << "k=" << k << " trial " << trial;
      if (ext != (on & care)) ++restricted_wins;
      if (care.none()) {
        EXPECT_THROW(restrict(on, care), Error);
        continue;
      }
      // The bare restrict, on an on-set not masked by the care set too.
      EXPECT_EQ(restrict(on, care),
                table_of(b.m, b.m.wrap(b.m.restrict_to(b.bdd(on).id(), b.bdd(care).id())), k))
          << "k=" << k << " trial " << trial;
      // The BDD recursion normalises complement edges; the table one needs
      // no such step because restrict commutes with complement.
      EXPECT_EQ(restrict(~on, care), ~restrict(on, care)) << "k=" << k << " trial " << trial;
    }
  }
  EXPECT_GT(restricted_wins, 0);  // the restrict branch of the choice ran
}

TEST(TtNetworkHash, PinnedAcrossTableRepresentations) {
  // network_hash mixes every table bit in minterm order; this literal was
  // computed with the vector<bool> tables, so a change of bit order or of
  // the hashed fields shows up here before it moves every recorded hash.
  net::LutNetwork net(8);
  net::Lut wide;
  for (int i = 0; i < 7; ++i) wide.inputs.push_back(i);
  wide.table = Table(7);
  for (std::size_t idx = 0; idx < 128; ++idx) wide.table[idx] = (idx * 37 + idx / 5) % 3 == 0;
  const int w = net.add_lut(wide);
  const int a = net.add_lut({{w, 7}, {false, false, false, true}});
  const int x = net.add_lut(
      {{a, 0, net::kConst1}, {false, true, true, false, true, false, false, true}});
  net.add_lut({{3}, {true, false}});
  net.add_output(x);
  net.add_output(net::kConst0);
  net.add_output(2);
  EXPECT_EQ(bench::network_hash(net), "93cbada1b610cd61");
}

}  // namespace
}  // namespace mfd::tt

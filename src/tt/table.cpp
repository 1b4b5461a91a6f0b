#include "tt/table.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "core/errors.h"

namespace mfd::tt {
namespace {

/// The index i with a 0 inserted as bit j: where minterm i of a table
/// without variable j sits in the table with it, at variable j = 0.
std::size_t insert_bit(std::size_t i, int j) {
  const std::size_t low = (std::size_t{1} << j) - 1;
  return ((i & ~low) << 1) | (i & low);
}

}  // namespace

Table::Table(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars)
    throw Error("tt::Table: " + std::to_string(num_vars) +
                " variables (at most " + std::to_string(kMaxVars) + ")");
  words_.assign(num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6), 0);
}

Table::Table(std::initializer_list<bool> bits) {
  int k = 0;
  while (k < kMaxVars && (std::size_t{1} << k) < bits.size()) ++k;
  if ((std::size_t{1} << k) != bits.size())
    throw Error("tt::Table: " + std::to_string(bits.size()) +
                " bits is not a power of two up to 2^" + std::to_string(kMaxVars));
  *this = Table(k);
  std::size_t i = 0;
  for (bool b : bits) (*this)[i++] = b;
}

Table Table::operator~() const {
  Table r = *this;
  for (std::uint64_t& w : r.words_) w = ~w;
  if (num_vars_ < 6) r.words_[0] &= (std::uint64_t{1} << size()) - 1;
  return r;
}

bool Table::none() const {
  return std::all_of(words_.begin(), words_.end(), [](std::uint64_t w) { return w == 0; });
}

bool Table::all() const { return (~*this).none(); }

Table Table::cofactor(int j, bool value) const {
  Table r(num_vars_ - 1);
  const std::size_t bit = value ? std::size_t{1} << j : 0;
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = (*this)[insert_bit(i, j) | bit];
  return r;
}

Table Table::join(int j, const Table& lo, const Table& hi) {
  Table r(lo.num_vars_ + 1);
  for (std::size_t i = 0; i < lo.size(); ++i) {
    r[insert_bit(i, j)] = lo[i];
    r[insert_bit(i, j) | (std::size_t{1} << j)] = hi[i];
  }
  return r;
}

Table Table::flip(int j) const {
  Table r(num_vars_);
  for (std::size_t i = 0; i < size(); ++i) r[i] = (*this)[i ^ (std::size_t{1} << j)];
  return r;
}

bool Table::depends_on(int j) const {
  for (std::size_t i = 0; i < size() / 2; ++i)
    if ((*this)[insert_bit(i, j)] != (*this)[insert_bit(i, j) | (std::size_t{1} << j)])
      return true;
  return false;
}

Table Table::shrink_to_support(std::vector<int>* kept) const {
  Table t = *this;
  std::vector<int> pos(static_cast<std::size_t>(num_vars_));
  std::iota(pos.begin(), pos.end(), 0);
  for (int j = 0; j < t.num_vars_;) {
    if (t.depends_on(j)) {
      ++j;
      continue;
    }
    t = t.cofactor(j, false);
    pos.erase(pos.begin() + j);
  }
  if (kept != nullptr) *kept = std::move(pos);
  return t;
}

namespace {

/// Manager::restrict_rec on tables: the current top variable is always
/// variable 0, and a level both f and care skip is carried through as an
/// unchanged (non-depending) variable of the result. The BDD recursion's
/// complement normalisation (work on the regular edge, complement back) has
/// no counterpart: every case below commutes with complementing f, so
/// restrict(!f) = !restrict(f) holds without it.
Table restrict_rec(const Table& f, const Table& care) {
  if (care.all() || f.none() || f.all()) return f;
  const Table c0 = care.cofactor(0, false), c1 = care.cofactor(0, true);
  if (!f.depends_on(0)) {
    // Variable 0 is above f's top: merge the care halves (the or-abstraction
    // step; a no-op when care skips the variable too).
    const Table r = restrict_rec(f.cofactor(0, false), c0 | c1);
    return Table::join(0, r, r);
  }
  const Table f0 = f.cofactor(0, false), f1 = f.cofactor(0, true);
  if (c0.none()) {
    // Every variable-0 = 0 input is a don't care: substitute the sibling.
    const Table r = restrict_rec(f1, c1);
    return Table::join(0, r, r);
  }
  if (c1.none()) {
    const Table r = restrict_rec(f0, c0);
    return Table::join(0, r, r);
  }
  return Table::join(0, restrict_rec(f0, c0), restrict_rec(f1, c1));
}

/// Manager::dag_size of f's BDD on the order 0, 1, ...: the terminal plus,
/// per level j, the distinct functions up to complement (one node serves
/// both polarities) among the cofactors on variables 0..j-1 that depend on
/// variable j.
std::size_t dag_size(const Table& f) {
  auto regular = [](const Table& t) { return t[t.size() - 1] ? t : ~t; };
  std::set<Table> level{regular(f)};
  std::size_t nodes = 1;
  for (int j = 0; j < f.num_vars(); ++j) {
    std::set<Table> next;
    for (const Table& g : level) {
      nodes += g.depends_on(0) ? 1 : 0;
      next.insert(regular(g.cofactor(0, false)));
      next.insert(regular(g.cofactor(0, true)));
    }
    level = std::move(next);
  }
  return nodes;
}

}  // namespace

Table restrict(const Table& f, const Table& care) {
  if (care.none())
    throw Error("tt::restrict: care set is constant false (the generalized "
                "cofactor is undefined)");
  return restrict_rec(f, care);
}

Table extension_small(const Table& on, const Table& care) {
  const Table z = on & care;
  if (care.all() || care.none()) return z;
  const Table r = restrict(z, care);
  const int supp_r = r.shrink_to_support().num_vars();
  const int supp_z = z.shrink_to_support().num_vars();
  if (supp_r != supp_z) return supp_r < supp_z ? r : z;
  return dag_size(r) <= dag_size(z) ? r : z;
}

}  // namespace mfd::tt

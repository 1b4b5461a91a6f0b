// Packed truth tables: the one representation of the flow's small Boolean
// functions — a LUT's function (net::Lut::table) and a decomposition
// function over a bound set (Encoding::functions).
//
// Layout: bit i of a table is the function's value on minterm i, and bit j
// of the index i is the value of variable j, so variable 0 alternates
// fastest. Bits are packed 64 to a word, minterm i in bit i % 64 of word
// i / 64. A table over k <= 6 variables is a single word whose bits at and
// above 2^k stay zero, so tables are equal exactly when their functions
// (and variable counts) are.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

namespace mfd::tt {

/// Widest table: every LUT and every alpha of a run must fit (the
/// Synthesizer rejects lut_inputs + max_bound_extra above this).
inline constexpr int kMaxVars = 16;

class Table {
 public:
  /// Assignable reference to one bit, returned by the non-const operator[].
  class BitRef {
   public:
    BitRef(std::uint64_t& word, std::size_t bit)
        : word_(word), mask_(std::uint64_t{1} << bit) {}
    BitRef(const BitRef&) = default;
    operator bool() const { return (word_ & mask_) != 0; }
    BitRef& operator=(bool value) {
      word_ = value ? word_ | mask_ : word_ & ~mask_;
      return *this;
    }
    BitRef& operator=(const BitRef& other) { return *this = static_cast<bool>(other); }

   private:
    std::uint64_t& word_;
    std::uint64_t mask_;
  };

  /// The constant-0 function of no variables.
  Table() : Table(0) {}
  /// The constant-0 function of `num_vars` variables. Throws mfd::Error
  /// unless 0 <= num_vars <= kMaxVars.
  explicit Table(int num_vars);
  /// A table from its bits, minterm 0 first. Throws mfd::Error unless the
  /// count is a power of two no larger than 2^kMaxVars.
  Table(std::initializer_list<bool> bits);

  int num_vars() const { return num_vars_; }
  /// Number of bits, 2^num_vars().
  std::size_t size() const { return std::size_t{1} << num_vars_; }
  bool operator[](std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  BitRef operator[](std::size_t i) { return BitRef(words_[i >> 6], i & 63); }

  bool operator==(const Table&) const = default;
  /// Some total order (for ordered containers); not a function order.
  std::strong_ordering operator<=>(const Table&) const = default;

  // Bitwise operations; both operands must have the same num_vars().
  Table operator~() const;
  Table operator&(const Table& other) const { return zip(other, std::bit_and<>()); }
  Table operator|(const Table& other) const { return zip(other, std::bit_or<>()); }
  Table operator^(const Table& other) const { return zip(other, std::bit_xor<>()); }

  /// True for the constant-0 function.
  bool none() const;
  /// True for the constant-1 function.
  bool all() const;

  /// The cofactor on variable j = value, over the other num_vars() - 1
  /// variables (variables above j move down by one).
  Table cofactor(int j, bool value) const;
  /// The inverse of cofactor: the table over one more variable, inserted at
  /// position j, whose cofactors on j are `lo` and `hi`.
  static Table join(int j, const Table& lo, const Table& hi);
  /// The function with variable j complemented (its two halves swapped).
  Table flip(int j) const;
  /// True when the two cofactors on variable j differ.
  bool depends_on(int j) const;
  /// Drops every variable the function does not depend on. `kept` (when
  /// given) receives the surviving variables' old positions, ascending.
  Table shrink_to_support(std::vector<int>* kept = nullptr) const;

 private:
  template <typename Op>
  Table zip(const Table& other, Op op) const {
    Table r = *this;
    for (std::size_t w = 0; w < words_.size(); ++w) r.words_[w] = op(words_[w], other.words_[w]);
    return r;
  }

  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Coudert–Madre restrict of `f` to the care set `care` (non-empty), on the
/// variable order 0, 1, ...: the same function bdd::Manager::restrict_to
/// returns when variable j sits at level j. Throws mfd::Error on an empty
/// care set, as the BDD operation does.
Table restrict(const Table& f, const Table& care);

/// The completion of the ISF (on & care, care) that Isf::extension_small
/// picks: the restrict of the on-set when its support is smaller, or equal
/// with no larger BDD (node count on the same order), else the on-set with
/// every don't care at 0.
Table extension_small(const Table& on, const Table& care);

}  // namespace mfd::tt

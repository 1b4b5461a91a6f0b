// Shared strict decomposition functions for multi-output decomposition
// (Scholl & Molitor [21], Section 3 of the paper).
//
// A decomposition function is *strict* for f_i iff it is constant on every
// compatible class of f_i. Strict functions are the ones that can be shared:
// a single alpha serves every output on whose partition it is constant, and
// strictness also preserves the symmetries of f_i (Section 4).
//
// The encoder keeps the paper's hard constraint r_i = ceil(log2 k_i) for
// every output and heuristically minimizes the pool of distinct functions:
// outputs are processed by decreasing class count; each reuses every pool
// function that is (a) strict for it, (b) separates something, and (c) keeps
// the encodability invariant "every code cell holds at most 2^(r_i - t)
// classes after t functions"; the remaining distinctions come from fresh
// balanced splitter functions that are added to the pool for later outputs.
#pragma once

#include <cstdint>
#include <vector>

namespace mfd {

struct Encoding {
  /// Each decomposition function as its value on every bound vertex, in
  /// canonical polarity (value false on bound vertex 0) — see encode_shared.
  std::vector<std::vector<bool>> functions;
  /// Per output: indices into `functions`, size r_i.
  std::vector<std::vector<int>> used;
  /// Pool reuses / fresh splitters of *this* call. Per-call attribution for
  /// DecomposeStats; the matching obs counters (encoding.pool_hits,
  /// encoding.fresh_splitters) keep accumulating across the whole flow.
  int pool_hits = 0;
  int fresh_splitters = 0;

  int r(int output) const { return static_cast<int>(used[static_cast<std::size_t>(output)].size()); }
  int total_functions() const { return static_cast<int>(functions.size()); }
  /// Code word of a bound vertex for one output (bit j = used[output][j]).
  std::uint32_t code_of(int output, int vertex) const;
};

/// Encodes the per-output class partitions over 2^p bound vertices.
/// With `share` = false every output receives private functions (the
/// no-sharing baseline).
///
/// Every returned function is flipped into *canonical polarity* (value false
/// on bound vertex 0) as a final pass. Complementing a strict function
/// preserves strictness and the separation its code bit provides (code words
/// flip that bit uniformly, via code_of), so validity is untouched — but two
/// functions that separate the same classes with opposite polarity become
/// bit-identical tables, which is what lets LutNetwork::simplify's duplicate
/// sharing merge "equal or complemented" decomposition functions into one
/// LUT (docs/CACHING.md).
Encoding encode_shared(const std::vector<std::vector<int>>& partitions, int p,
                       bool share = true);

/// True iff, for every output, the code words separate all classes and are
/// constant within each class (validity of an encoding).
bool encoding_is_valid(const Encoding& enc,
                       const std::vector<std::vector<int>>& partitions);

}  // namespace mfd

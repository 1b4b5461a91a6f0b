// Machine-speed probe: a fixed kernel that uses no repository code, timed
// between the specs of a run so that the benchmark can report its times at
// a reference machine speed (README.md, "Machine-speed scaling").
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The probe time that the scaled metrics are expressed against: a time t
/// measured while the probe took p seconds is reported as
/// t * kProbeReferenceS / p.
inline constexpr double kProbeReferenceS = 2.5e-3;

/// Keeps the probe's result observable, so that its work is not elided.
inline volatile std::uint64_t probe_sink = 0;

/// Runs the probe once and returns its wall time in seconds. The work is
/// identical on every call: clear a 2 MiB open-addressing table, then make
/// 120,000 inserts and lookups of keys from a fixed SplitMix64 stream, the
/// hashed random access and branching that BDD unique and computed tables
/// also do.
inline double machine_probe() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 18);
  const auto t0 = std::chrono::steady_clock::now();
  std::fill(table.begin(), table.end(), 0);
  const std::size_t mask = table.size() - 1;
  std::uint64_t x = 0x12345678, found = 0;
  for (int k = 0; k < 120000; ++k) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const std::uint64_t key = z % 150000 + 1;
    std::size_t h = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 46);
    while (table[h & mask] != 0 && table[h & mask] != key) ++h;
    if (table[h & mask] == key) found += h;
    else table[h & mask] = key;
  }
  probe_sink = found;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench

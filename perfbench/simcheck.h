// Output check of an emitted LUT network that is independent of the flow's
// own verifier: a bit-parallel simulation written here, reading the network
// only through LutNetwork::lut() and outputs(), compared with the spec's on
// and care sets evaluated through bdd::Manager::eval.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isf/isf.h"
#include "net/lutnet.h"

namespace perfbench {

struct SimCheck {
  bool ok = true;
  std::size_t vectors = 0;  ///< input vectors simulated
  std::string error;        ///< first mismatch, when !ok
};

/// Simulates `net` on every input vector when it has at most
/// kExhaustiveInputs primary inputs, else on kRandomVectors vectors drawn
/// from `seed`, and checks each output against its ISF wherever the ISF
/// cares. `pi_vars[i]` is the manager variable of primary input i.
SimCheck simulate_check(const mfd::net::LutNetwork& net,
                        const std::vector<mfd::Isf>& spec,
                        const std::vector<int>& pi_vars, std::uint64_t seed);

inline constexpr int kExhaustiveInputs = 12;
inline constexpr std::size_t kRandomVectors = 2048;

/// Self-test of simulate_check on a real result: flips the table bit of an
/// output-driving LUT that a cared-for input vector selects and requires
/// the check to report the mismatch. Returns an empty string on success.
std::string simcheck_self_test(const mfd::net::LutNetwork& net,
                               const std::vector<mfd::Isf>& spec,
                               const std::vector<int>& pi_vars);

}  // namespace perfbench

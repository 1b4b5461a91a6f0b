// The benchmark's workloads: which table-1 stand-ins run, under which flows
// and pipeline, and how their specs are built (README.md says why).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/synthesizer.h"
#include "isf/isf.h"

namespace perfbench {

/// Shape of the seeded don't-care set of the mcnc_dc workload: per output,
/// the union of `cubes` random cubes of `lits` literals each.
struct DcShape {
  std::uint64_t seed = 1;
  int cubes = 4;
  int lits = 5;
};

struct Workload {
  std::string name;
  std::vector<std::string> rows;   ///< circuits::build names, in run order
  std::vector<std::string> flows;  ///< "mulopII" / "mulop-dc", per row in order
  std::string passes;              ///< pipeline spec; empty = default (with ODC)
  bool dont_cares = false;         ///< add the seeded DcShape don't cares
  /// Nominal seconds per pass at the reference machine speed; a run makes
  /// --seconds / pass_seconds passes (at least 3).
  double pass_seconds = 0.0;
};

const std::vector<Workload>& workloads();
/// The named workload, or nullptr.
const Workload* find_workload(const std::string& name);

/// One Synthesizer::run input: a row under one flow, in its own fresh
/// manager (as the table binaries run it).
struct Spec {
  std::string name;  ///< "<row>/<flow>"
  // Declared before the ISFs so it outlives their BDD handles.
  std::unique_ptr<mfd::bdd::Manager> mgr;
  std::vector<mfd::Isf> isfs;
  std::vector<int> pi_vars;
  double dc_fraction = 0.0;  ///< mean share of don't-care vertices per output
  mfd::SynthesisOptions opts;
};

/// Builds every spec of the workload, in run order.
std::vector<Spec> build_specs(const Workload& w, const DcShape& dc);

}  // namespace perfbench

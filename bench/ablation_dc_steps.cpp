// Ablation A (DESIGN.md): contribution of each don't-care assignment step.
//
// The paper argues the three steps are *compatible* (later steps never undo
// earlier ones) and each contributes: symmetries (step 1) shrink
// decomposition-function counts recursively, the joint assignment (step 2)
// enables sharing, and the per-output assignment (step 3) minimizes each
// ncc. We toggle each step independently on a representative subset.
#include <map>

#include "bench_common.h"

namespace {

const std::vector<std::string> kCircuits{"5xp1", "rd84", "alu2", "clip",
                                         "misex1", "z4ml", "sao2", "f51m"};

struct Config {
  const char* label;
  bool s1, s2, s3;
};

const Config kConfigs[] = {
    {"none", false, false, false},  // DCs still propagated, never assigned
    {"s1", true, false, false},
    {"s2", false, true, false},
    {"s3", false, false, true},
    {"s2+s3", false, true, true},
    {"all", true, true, true},
};

using Table = std::map<std::string, std::map<std::string, int>>;  // circuit -> label -> clbs

mfd::SynthesisOptions config_options(const Config& cfg) {
  mfd::SynthesisOptions opts = mfd::preset_mulop_dc(5);
  opts.decomp.dc_symmetrize = cfg.s1;
  opts.decomp.dc_joint = cfg.s2;
  opts.decomp.dc_per_output = cfg.s3;
  return opts;
}

void print_table(const Table& rows) {
  std::printf("\nAblation A: CLB counts with individual DC-assignment steps\n");
  std::printf("(s1 = symmetrization, s2 = joint/sharing, s3 = per-output).\n");
  std::printf("'none' still *propagates* DCs but never assigns them.\n\n");
  std::printf("%-8s |", "circuit");
  for (const Config& cfg : kConfigs) std::printf(" %6s", cfg.label);
  std::printf("\n");
  mfd::bench::print_rule(56);
  std::map<std::string, long> totals;
  for (const auto& [name, cols] : rows) {
    std::printf("%-8s |", name.c_str());
    for (const Config& cfg : kConfigs) {
      std::printf(" %6d", cols.at(cfg.label));
      totals[cfg.label] += cols.at(cfg.label);
    }
    std::printf("\n");
  }
  mfd::bench::print_rule(56);
  std::printf("%-8s |", "total");
  for (const Config& cfg : kConfigs) std::printf(" %6ld", totals[cfg.label]);
  std::printf("\n\nshape check: 'all' <= each single step <= 'none' (approximately;\n");
  std::printf("individual steps may interact on small circuits).\n");
}

}  // namespace

int main(int argc, char** argv) {
  mfd::bench::parse_flags(&argc, argv);
  std::vector<mfd::bench::SweepRow> sweep;
  for (const std::string& name : kCircuits)
    for (const Config& cfg : kConfigs) sweep.push_back({name, config_options(cfg), cfg.label});
  const std::vector<mfd::bench::FlowRun> runs = mfd::bench::run_sweep(sweep);
  Table rows;
  for (std::size_t i = 0; i < runs.size(); ++i)
    rows[sweep[i].circuit][sweep[i].flow] = runs[i].clb_greedy;
  print_table(rows);
  mfd::bench::write_stats_json();
  return 0;
}

// Ablation C (DESIGN.md): bound-set search quality.
//
// The paper seeds the search with symmetric sifting and explores exchanges
// of symmetric variable groups. We compare: (a) the full search (symmetric
// sifting seed + window scan + exchange refinement), (b) no sifting seed,
// (c) windows only (no exchange refinement), (d) a crippled search seeing
// only the first window.
#include <map>

#include "bench_common.h"

namespace {

const std::vector<std::string> kCircuits{"5xp1", "rd84", "9sym", "clip",
                                         "z4ml", "alu2", "misex1", "sao2"};

struct Config {
  const char* label;
  bool sift;
  int improvement_passes;
  int max_evaluations;
};

const Config kConfigs[] = {
    {"full", true, 2, 200},
    {"nosift", false, 2, 200},
    {"windows", true, 0, 200},
    {"first", false, 0, 1},
};

using Table = std::map<std::string, std::map<std::string, int>>;  // circuit -> label -> clbs

mfd::SynthesisOptions config_options(const Config& cfg) {
  mfd::SynthesisOptions opts = mfd::preset_mulop_dc(5);
  opts.decomp.symmetric_sift = cfg.sift;
  opts.decomp.boundset.improvement_passes = cfg.improvement_passes;
  opts.decomp.boundset.max_evaluations = cfg.max_evaluations;
  return opts;
}

void print_table(const Table& rows) {
  std::printf("\nAblation C: bound-set search (CLB counts, n_LUT = 5).\n\n");
  std::printf("%-8s |", "circuit");
  for (const Config& cfg : kConfigs) std::printf(" %8s", cfg.label);
  std::printf("\n");
  mfd::bench::print_rule(48);
  std::map<std::string, long> totals;
  for (const auto& [name, cols] : rows) {
    std::printf("%-8s |", name.c_str());
    for (const Config& cfg : kConfigs) {
      std::printf(" %8d", cols.at(cfg.label));
      totals[cfg.label] += cols.at(cfg.label);
    }
    std::printf("\n");
  }
  mfd::bench::print_rule(48);
  std::printf("%-8s |", "total");
  for (const Config& cfg : kConfigs) std::printf(" %8ld", totals[cfg.label]);
  std::printf("\n\nshape check: full <= windows <= first; the search matters.\n");
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

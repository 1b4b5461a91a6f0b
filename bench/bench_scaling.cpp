// Scaling study: synthesis time and result size as the instance grows
// (adders and multipliers by operand width). No direct paper counterpart —
// this tracks that the implementation stays laptop-scale, which is the
// regime the paper's experiments ran in.
#include "bench_common.h"

int main(int argc, char** argv) {
  mfd::bench::parse_flags(&argc, argv);
  std::vector<mfd::bench::SweepRow> sweep;
  for (const char* name : {"add4", "add8", "add16", "mult4", "mult6", "pm3", "pm4",
                           "rd73", "rd84", "alu2", "alu4"})
    sweep.push_back({name, mfd::preset_mulop_dc(5), "mulop-dc"});
  const std::vector<mfd::bench::FlowRun> runs = mfd::bench::run_sweep(sweep);

  std::printf("\nScaling (mulop-dc, n_LUT = 5, matching CLB merge):\n\n");
  std::printf("%-8s %6s %6s %6s %8s\n", "circuit", "in", "LUTs", "CLBs", "time");
  mfd::bench::print_rule(40);
  for (std::size_t i = 0; i < runs.size(); ++i)
    std::printf("%-8s %6d %6d %6d %7.2fs\n", sweep[i].circuit.c_str(), runs[i].inputs,
                 runs[i].luts, runs[i].clb_matching, runs[i].seconds);
  mfd::bench::write_stats_json();
  return 0;
}

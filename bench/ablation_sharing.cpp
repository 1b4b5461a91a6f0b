// Ablation B (DESIGN.md): common decomposition functions across outputs
// ([21], Section 3) on vs off, and what sharing saves in emitted
// decomposition functions and CLBs.
#include <map>

#include "bench_common.h"

namespace {

using mfd::bench::FlowRun;

const std::vector<std::string> kCircuits{"5xp1", "rd73", "rd84", "z4ml",
                                         "alu2", "count", "misex1", "f51m"};

void print_table(const std::map<std::string, std::pair<FlowRun, FlowRun>>& rows) {
  std::printf("\nAblation B: shared vs per-output decomposition functions.\n");
  std::printf("'alpha' = decomposition functions emitted; 'saved' = sum r_i - alpha\n");
  std::printf("(what the common-function computation shares).\n\n");
  std::printf("%-8s | %5s %5s %5s | %5s %5s | %6s\n", "circuit", "clbS", "clbN",
               "ratio", "alpha", "saved", "sum_r");
  mfd::bench::print_rule(60);
  long tot_s = 0, tot_n = 0;
  for (const auto& [name, pair] : rows) {
    const auto& [with, without] = pair;
    tot_s += with.clb_greedy;
    tot_n += without.clb_greedy;
    std::printf("%-8s | %5d %5d %4.0f%% | %5ld %5ld | %6ld\n", name.c_str(),
                 with.clb_greedy, without.clb_greedy,
                 100.0 * with.clb_greedy / std::max(1, without.clb_greedy),
                 with.stats.total_decomposition_functions,
                 with.stats.sum_r - with.stats.total_decomposition_functions,
                 with.stats.sum_r);
  }
  mfd::bench::print_rule(60);
  std::printf("%-8s | %5ld %5ld\n", "total", tot_s, tot_n);
  std::printf("\nshape check: sharing never hurts, helps most on multi-output\n");
  std::printf("circuits with correlated outputs (adders, counters).\n");
}

}  // namespace

int main(int argc, char** argv) {
  mfd::bench::parse_flags(&argc, argv);
  mfd::SynthesisOptions share = mfd::preset_mulop_dc(5);
  mfd::SynthesisOptions noshare = share;
  noshare.decomp.share_functions = false;
  std::vector<mfd::bench::SweepRow> sweep;
  for (const std::string& name : kCircuits) {
    sweep.push_back({name, share, "share"});
    sweep.push_back({name, noshare, "noshare"});
  }
  const std::vector<FlowRun> runs = mfd::bench::run_sweep(sweep);
  std::map<std::string, std::pair<FlowRun, FlowRun>> rows;
  for (std::size_t i = 0; i < runs.size(); i += 2)
    rows[sweep[i].circuit] = {runs[i], runs[i + 1]};
  print_table(rows);
  mfd::bench::write_stats_json();
  return 0;
}

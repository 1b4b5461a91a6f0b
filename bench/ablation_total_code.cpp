// Ablation D: the paper's Section 3 design argument.
//
// [10] (Lai/Pedram/Vrudhula) minimizes the *total* number of decomposition
// functions by encoding the joint partition once for all outputs; the paper
// instead keeps every r_i minimal (r_i = ceil(log2 ncc_i)) and shares what
// can be shared, because with a joint code "the number of inputs of g_i can
// be (much) larger" and composition functions stop fitting LUTs. This
// benchmark runs both encodings through the identical rest of the flow.
#include <map>

#include "bench_common.h"

namespace {

using mfd::bench::FlowRun;

const std::vector<std::string> kCircuits{"5xp1", "rd73", "rd84", "z4ml",
                                         "alu2", "clip", "misex1", "count"};

void print_table(const std::map<std::string, std::pair<FlowRun, FlowRun>>& rows) {
  std::printf("\nAblation D: per-output-minimal codes (this paper) vs the\n");
  std::printf("total-minimal joint code of [10], identical flow otherwise.\n\n");
  std::printf("%-8s | %10s %7s | %10s %7s\n", "circuit", "per-output", "alpha",
               "total-min", "alpha");
  mfd::bench::print_rule(52);
  long t_ours = 0, t_theirs = 0;
  for (const auto& [name, pair] : rows) {
    const auto& [ours, theirs] = pair;
    t_ours += ours.clb_greedy;
    t_theirs += theirs.clb_greedy;
    std::printf("%-8s | %10d %7ld | %10d %7ld\n", name.c_str(), ours.clb_greedy,
                 ours.stats.total_decomposition_functions, theirs.clb_greedy,
                 theirs.stats.total_decomposition_functions);
  }
  mfd::bench::print_rule(52);
  std::printf("%-8s | %10ld %9s | %10ld\n", "total", t_ours, "", t_theirs);
  std::printf("\nshape check: the joint code may emit fewer alpha functions but\n");
  std::printf("costs CLBs overall — the paper's reason for per-output minima.\n");
}

}  // namespace

int main(int argc, char** argv) {
  mfd::bench::parse_flags(&argc, argv);
  mfd::SynthesisOptions total = mfd::preset_mulop_dc(5);
  total.decomp.total_minimal_code = true;
  std::vector<mfd::bench::SweepRow> sweep;
  for (const std::string& name : kCircuits) {
    sweep.push_back({name, mfd::preset_mulop_dc(5), "mulop-dc"});
    sweep.push_back({name, total, "total-code"});
  }
  const std::vector<FlowRun> runs = mfd::bench::run_sweep(sweep);
  std::map<std::string, std::pair<FlowRun, FlowRun>> rows;
  for (std::size_t i = 0; i < runs.size(); i += 2)
    rows[sweep[i].circuit] = {runs[i], runs[i + 1]};
  print_table(rows);
  mfd::bench::write_stats_json();
  return 0;
}

// Extension experiment (beyond the paper): the same mulop-dc flow targeting
// the Xilinx XC4000 (two independent 4-input generators + 3-input combiner
// per CLB), synthesized with n_LUT = 4. Reported next to the XC3000 numbers
// so the target comparison is apples-to-apples per circuit.
#include <map>

#include "bench_common.h"
#include "map/clb.h"

namespace {

struct Row {
  int xc3000 = 0;       // n_LUT = 5, matching merge
  int xc4000 = 0;       // n_LUT = 4, H-absorption + pairing
  int xc4000_luts = 0;
  int h_triples = 0;
};

/// The XC4000 half of a row (not a recorded sweep run).
void run_xc4000(const std::string& name, Row& row) {
  mfd::bdd::Manager m;
  const auto bench = mfd::circuits::build(name, m);
  const auto r4 = mfd::Synthesizer(mfd::preset_mulop_dc(4)).run(bench);
  const mfd::map::Xc4000Result packed = mfd::map::pack_xc4000(r4.network);
  row.xc4000 = packed.num_clbs;
  row.xc4000_luts = packed.num_luts;
  row.h_triples = packed.h_triples;
}

void print_table(const std::map<std::string, Row>& rows) {
  std::printf("\nExtension: XC4000 target (n_LUT = 4, H-block absorption)\n");
  std::printf("vs the paper's XC3000 target (n_LUT = 5, matching merge).\n\n");
  std::printf("%-8s | %7s | %7s %6s %8s\n", "circuit", "XC3000", "XC4000", "LUTs",
               "Htriples");
  mfd::bench::print_rule(48);
  long t3 = 0, t4 = 0;
  for (const auto& [name, row] : rows) {
    t3 += row.xc3000;
    t4 += row.xc4000;
    std::printf("%-8s | %7d | %7d %6d %8d\n", name.c_str(), row.xc3000, row.xc4000,
                 row.xc4000_luts, row.h_triples);
  }
  mfd::bench::print_rule(48);
  std::printf("%-8s | %7ld | %7ld\n", "total", t3, t4);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> circuits{"5xp1", "9sym", "alu2",   "clip",  "count",
                                          "f51m", "misex1", "rd73", "rd84",  "sao2",
                                          "vg2",  "z4ml"};
  mfd::bench::parse_flags(&argc, argv);
  std::vector<mfd::bench::SweepRow> sweep;
  for (const std::string& name : circuits)
    sweep.push_back({name, mfd::preset_mulop_dc(5), "mulop-dc"});
  const std::vector<mfd::bench::FlowRun> runs = mfd::bench::run_sweep(sweep);
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    Row& row = rows[sweep[i].circuit];
    row.xc3000 = runs[i].clb_matching;
    run_xc4000(sweep[i].circuit, row);
  }
  print_table(rows);
  mfd::bench::write_stats_json();
  return 0;
}

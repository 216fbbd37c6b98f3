// Table 2: SysNoise on the classification benchmark — ΔACC per noise axis
// for every model family, plus the all-noises Combined column. Expected
// shape vs the paper: resize & decode dominate pre-processing noise,
// FP16 ≈ 0, INT8 small alone, ceil-mode substantial on max-pool models,
// larger family members degrade less, Combined >> any single axis.
//
// Runs on the plan/execute/merge lifecycle via run_standard_modes
// (bench_util.h): --emit-plan, --shard i/N and --merge of the shard-result
// files, bit-identical to the unsharded run — and the distributed runtime
// on the same seam: --coordinate serves the plans to TCP workers
// (--connect / sysnoise_worker) and renders the merged report.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/report.h"
#include "models/classifiers.h"

using namespace sysnoise;

namespace {

void render_and_write(const std::vector<bench::PlanRun>& runs) {
  std::vector<core::AxisReport> reports;
  for (const bench::PlanRun& run : runs)
    reports.push_back(core::assemble_report(run.plan, run.metrics));
  const std::string table = core::render_axis_table(reports, "ACC");
  std::fputs(table.c_str(), stdout);
  bench::write_file("table2_classification.txt", table);
  bench::write_file("table2_classification.csv", core::axis_report_csv(reports));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli =
      bench::parse_cli(argc, argv, "table2_classification");
  bench::banner("Table 2 — ImageNet-substitute classification",
                "Sec. 4.2, Table 2");
  bench::BenchTrace trace(cli);

  auto specs = models::classifier_zoo();
  if (bench::fast_mode()) specs.resize(3);

  bench::PlanBenchDef def;
  def.units = specs.size();
  def.make = [&](std::size_t i) {
    const std::string& name = specs[i].name;
    std::printf("[table2] %s: training/loading...\n", name.c_str());
    std::fflush(stdout);
    bench::PlanUnit unit = bench::zoo_unit(dist::classifier_spec(name),
                                           core::AxisRegistry::global());
    std::printf("[table2] %s: trained ACC %.2f%%, sweeping noise axes...\n",
                name.c_str(), unit.seed_metric);
    std::fflush(stdout);
    return unit;
  };
  def.render = render_and_write;
  return bench::run_standard_modes(cli, trace, def);
}

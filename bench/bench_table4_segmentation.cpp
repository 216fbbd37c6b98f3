// Table 4: SysNoise on the CityScapes-substitute segmentation benchmark —
// ΔmIoU per axis. Expected shape vs the paper: decode/resize/color ≈ 0,
// upsample and ceil-mode dominate, U-Net (no max-pool) has no ceil entry.
//
// Runs on the plan/execute/merge lifecycle via run_standard_modes
// (bench_util.h): --emit-plan, --shard i/N and --merge, bit-identical to
// the unsharded run — and the distributed --coordinate / --connect modes
// on the same plan seam.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/report.h"

using namespace sysnoise;

namespace {

void render_and_write(const std::vector<bench::PlanRun>& runs) {
  std::vector<core::AxisReport> reports;
  for (const bench::PlanRun& run : runs)
    reports.push_back(core::assemble_report(run.plan, run.metrics));
  const std::string table = core::render_axis_table(reports, "mIoU");
  std::fputs(table.c_str(), stdout);
  bench::write_file("table4_segmentation.txt", table);
  bench::write_file("table4_segmentation.csv", core::axis_report_csv(reports));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli =
      bench::parse_cli(argc, argv, "table4_segmentation");
  bench::banner("Table 4 — CityScapes-substitute segmentation",
                "Sec. 4.2, Table 4");
  bench::BenchTrace trace(cli);

  std::vector<std::string> names = {"DeepLab-S", "DeepLab-M", "UNet"};
  if (bench::fast_mode()) names.resize(1);

  bench::PlanBenchDef def;
  def.units = names.size();
  def.make = [&](std::size_t i) {
    const std::string& name = names[i];
    std::printf("[table4] %s: training/loading...\n", name.c_str());
    std::fflush(stdout);
    bench::PlanUnit unit = bench::zoo_unit(dist::segmenter_spec(name),
                                           core::AxisRegistry::global());
    std::printf("[table4] %s: trained mIoU %.2f, sweeping noise axes...\n",
                name.c_str(), unit.seed_metric);
    std::fflush(stdout);
    return unit;
  };
  def.render = render_and_write;
  return bench::run_standard_modes(cli, trace, def);
}

// Table 3: SysNoise on the COCO-substitute detection benchmark — ΔmAP per
// noise axis including the detection-only upsample (FPN interpolation) and
// post-processing (box-decode offset) axes. Expected shape vs the paper:
// decode ≈ 0 for detection, resize/ceil/upsample/post-processing are the
// big hits, Combined approaches an order-of-magnitude mAP drop.
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
  const std::string table = core::render_axis_table(reports, "mAP");
  std::fputs(table.c_str(), stdout);
  bench::write_file("table3_detection.txt", table);
  bench::write_file("table3_detection.csv", core::axis_report_csv(reports));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table3_detection");
  bench::banner("Table 3 — COCO-substitute detection", "Sec. 4.2, Table 3");
  bench::BenchTrace trace(cli);

  std::vector<std::string> names = {"FasterRCNN-ResNet", "FasterRCNN-MobileNet",
                                    "RetinaNet-ResNet", "RetinaNet-MobileNet"};
  if (bench::fast_mode()) names.resize(1);

  bench::PlanBenchDef def;
  def.units = names.size();
  def.make = [&](std::size_t i) {
    const std::string& name = names[i];
    std::printf("[table3] %s: training/loading...\n", name.c_str());
    std::fflush(stdout);
    bench::PlanUnit unit = bench::zoo_unit(dist::detector_spec(name),
                                           core::AxisRegistry::global());
    std::printf("[table3] %s: trained mAP %.2f, sweeping noise axes...\n",
                name.c_str(), unit.seed_metric);
    std::fflush(stdout);
    return unit;
  };
  def.render = render_and_write;
  return bench::run_standard_modes(cli, trace, def);
}

// Fig. 3: worst-case study — stepwise accumulation of SysNoise on a
// classifier (ResNet-M, the ResNet-50 stand-in) and a detector
// (FasterRCNN-ResNet). Expected shape vs the paper: the delta grows
// monotonically-ish as noises stack, detection degrades far more than
// classification, and the ceil+upsample combination is super-additive.
//
// Runs on the plan/execute/merge lifecycle via run_standard_modes
// (bench_util.h) over stepwise SweepPlans: --emit-plan, --shard i/N and
// --merge, bit-identical to the unsharded run — and the distributed
// --coordinate / --connect modes on the same plan seam.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/report.h"

using namespace sysnoise;

namespace {

void render_and_write(const std::vector<bench::PlanRun>& runs) {
  if (runs.size() != 2) {
    std::fprintf(stderr, "fig3 expects 2 runs, got %zu\n", runs.size());
    std::exit(2);
  }
  const core::StepReport cls = {
      runs[0].plan.task, core::assemble_steps(runs[0].plan, runs[0].metrics)};
  const core::StepReport det = {
      runs[1].plan.task, core::assemble_steps(runs[1].plan, runs[1].metrics)};
  std::printf("(a) %s classification\n", cls.model.c_str());
  const std::string cls_table = core::render_step_table(cls.points, "ACC");
  std::fputs(cls_table.c_str(), stdout);
  std::printf("(b) %s detection\n", det.model.c_str());
  const std::string det_table = core::render_step_table(det.points, "mAP");
  std::fputs(det_table.c_str(), stdout);

  std::string csv = core::step_points_csv(cls.points, "cls");
  const std::string det_csv = core::step_points_csv(det.points, "det");
  csv += det_csv.substr(det_csv.find('\n') + 1);  // drop repeated header
  bench::write_file("fig3_combined.txt", cls_table + "\n" + det_table);
  bench::write_file("fig3_combined.csv", csv);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "fig3_combined");
  bench::banner("Fig. 3 — stepwise combined SysNoise", "Sec. 4.2, Fig. 3");
  bench::BenchTrace trace(cli);

  bench::PlanBenchDef def;
  def.units = 2;
  def.make = [&](std::size_t i) {
    std::printf(i == 0 ? "[fig3] classifier (ResNet-M)...\n"
                       : "[fig3] detector (FasterRCNN-ResNet)...\n");
    std::fflush(stdout);
    return bench::zoo_unit(i == 0 ? dist::classifier_spec("ResNet-M")
                                  : dist::detector_spec("FasterRCNN-ResNet"),
                           core::AxisRegistry::global(), core::plan_stepwise);
  };
  def.render = render_and_write;
  return bench::run_standard_modes(cli, trace, def);
}

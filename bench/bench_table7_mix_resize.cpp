// Table 7: mix training on the resize method — train x test accuracy
// matrix plus per-row mean/std. Expected shape vs the paper: diagonal
// (train==test) entries are the row maxima, single-method rows have large
// std across test methods, the "mix" row has the smallest std without
// losing clean accuracy.
//
// Each row is one plan unit: ResNet-S retrained with the row's recipe
// (tag "t7_<method>" or "t7_mix", core::get_tagged_classifier), swept over
// a local Resize axis listing the six test methods.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table7_mix_resize");
  bench::banner("Table 7 — mix training on resize", "Sec. 4.3, Table 7 / Algo. 1");
  bench::BenchTrace trace(cli);

  // The six resize methods of the paper's Table 7 grid.
  const std::vector<ResizeMethod> grid = {
      ResizeMethod::kPillowBilinear, ResizeMethod::kPillowNearest,
      ResizeMethod::kPillowBicubic,  ResizeMethod::kOpenCVNearest,
      ResizeMethod::kOpenCVBilinear, ResizeMethod::kOpenCVBicubic};
  const std::string model = "ResNet-S";  // the ResNet-50 stand-in of this repro

  // Test side: the training default is one of the options, so its cell
  // shares the seeded baseline's metric key.
  core::NoiseAxis axis;
  axis.name = "Resize";
  axis.key = "resize";
  for (auto m : grid) axis.option_labels.push_back(resize_method_name(m));
  axis.apply = [grid](SysNoiseConfig& cfg, int i) {
    cfg.resize = grid[static_cast<std::size_t>(i)];
  };
  core::AxisRegistry tests;
  tests.add(axis);

  std::vector<std::string> rows = axis.option_labels;
  if (bench::fast_mode()) rows.resize(1);
  rows.push_back("mix");

  bench::PlanBenchDef def;
  def.units = rows.size();
  def.make = [&](std::size_t i) {
    std::printf("[table7] training %s with %s preprocessing...\n",
                model.c_str(), rows[i].c_str());
    std::fflush(stdout);
    return bench::zoo_unit(dist::classifier_spec(model, "t7_" + rows[i]), tests);
  };
  def.render = [&](const std::vector<bench::PlanRun>& runs) {
    std::vector<std::vector<double>> accs;
    for (const bench::PlanRun& run : runs)
      accs.push_back(bench::option_metrics(run, axis.name, axis.option_labels));
    bench::write_accuracy_matrix(cli.bench, axis.option_labels, rows, accs);
  };
  return bench::run_standard_modes(cli, trace, def);
}

// Table 8: mix training on the decoder — train x test matrix + mean/std.
// Expected shape vs the paper: the mix row's std collapses (paper: 0.36 ->
// 0.065) while clean accuracy is preserved.
//
// Each row is one plan unit: ResNet-S retrained with the row's recipe
// (tag "t8_<decoder>" or "t8_mix", core::get_tagged_classifier), swept over
// a local Decode axis listing the three test decoders.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table8_mix_decoder");
  bench::banner("Table 8 — mix training on the decoder",
                "Sec. 4.3, Table 8 / Algo. 1");
  bench::BenchTrace trace(cli);

  const std::vector<jpeg::DecoderVendor> grid = {jpeg::DecoderVendor::kPillow,
                                                 jpeg::DecoderVendor::kOpenCV,
                                                 jpeg::DecoderVendor::kFFmpeg};
  const std::string model = "ResNet-S";

  // Test side: the training default is one of the options, so its cell
  // shares the seeded baseline's metric key.
  core::NoiseAxis axis;
  axis.name = "Decode";
  axis.key = "decode";
  for (auto v : grid) axis.option_labels.push_back(jpeg::vendor_name(v));
  axis.apply = [grid](SysNoiseConfig& cfg, int i) {
    cfg.decoder = grid[static_cast<std::size_t>(i)];
  };
  core::AxisRegistry tests;
  tests.add(axis);

  std::vector<std::string> rows = axis.option_labels;
  if (bench::fast_mode()) rows.resize(1);
  rows.push_back("mix");

  bench::PlanBenchDef def;
  def.units = rows.size();
  def.make = [&](std::size_t i) {
    std::printf("[table8] training %s with %s decoding...\n", model.c_str(),
                rows[i].c_str());
    std::fflush(stdout);
    return bench::zoo_unit(dist::classifier_spec(model, "t8_" + rows[i]), tests);
  };
  def.render = [&](const std::vector<bench::PlanRun>& runs) {
    std::vector<std::vector<double>> accs;
    for (const bench::PlanRun& run : runs)
      accs.push_back(bench::option_metrics(run, axis.name, axis.option_labels));
    bench::write_accuracy_matrix(cli.bench, axis.option_labels, rows, accs);
  };
  return bench::run_standard_modes(cli, trace, def);
}

// Table 9 (Appendix B): does a learning-based decoder improve robustness?
// Train x test matrix over {Pillow, OpenCV, Learned} decode stages.
// Expected shape vs the paper: no clear gain from the learned codec — its
// row looks like just another decoder.
//
// Each row is two plan units over ResNet-S retrained with the row's decode
// stage (tag "t9_<decoder>", core::get_tagged_classifier): the classifier
// swept over a local Pillow/OpenCV Decode axis, and core::LearnedDecodeTask
// for the Learned column.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli =
      bench::parse_cli(argc, argv, "table9_learned_decoder");
  bench::banner("Table 9 — learning-based decoder", "Appendix B, Table 9");
  bench::BenchTrace trace(cli);

  const std::string model = "ResNet-S";
  const std::vector<std::string> decoders = {"Pillow", "OpenCV", "Learned"};

  // Test side of the conventional decoders; Pillow, the training default,
  // shares the seeded baseline's metric key.
  core::NoiseAxis vendors;
  vendors.name = "Decode";
  vendors.key = "decode";
  vendors.option_labels = {"Pillow", "OpenCV"};
  vendors.apply = [](SysNoiseConfig& cfg, int i) {
    cfg.decoder =
        i == 0 ? jpeg::DecoderVendor::kPillow : jpeg::DecoderVendor::kOpenCV;
  };
  core::AxisRegistry vendor_tests;
  vendor_tests.add(vendors);

  bench::PlanBenchDef def;
  def.units = 2 * decoders.size();
  def.make = [&](std::size_t i) {
    const std::string& train = decoders[i / 2];
    const std::string tag = "t9_" + train;
    // LearnedDecodeTask replaces the whole pre-processing chain, so the
    // Decode options leave its accuracy unchanged; the column reads its
    // baseline. (A plan needs one applicable axis, so it reuses this one.)
    if (i % 2 == 1)
      return bench::zoo_unit(dist::learned_decode_spec(model, tag),
                             vendor_tests);
    std::printf("[table9] training %s with %s decode...\n", model.c_str(),
                train.c_str());
    std::fflush(stdout);
    return bench::zoo_unit(dist::classifier_spec(model, tag), vendor_tests);
  };
  def.render = [&](const std::vector<bench::PlanRun>& runs) {
    std::vector<std::vector<double>> accs;
    for (std::size_t r = 0; r < decoders.size(); ++r) {
      accs.push_back(bench::option_metrics(runs[2 * r], vendors.name,
                                           vendors.option_labels));
      accs.back().push_back(bench::planned_metric(
          runs[2 * r + 1], core::PlannedConfig::Role::kBaseline));
    }
    bench::write_accuracy_matrix(cli.bench, decoders, decoders, accs);
  };
  return bench::run_standard_modes(cli, trace, def);
}

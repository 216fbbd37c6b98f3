// Table 9 (Appendix B): does a learning-based decoder improve robustness?
// Train x test matrix over {Pillow, OpenCV, Learned} decode stages.
// Expected shape vs the paper: no clear gain from the learned codec — its
// row looks like just another decoder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "core/learned_codec.h"
#include "core/mitigation.h"
#include "core/report.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli =
      bench::parse_cli(argc, argv, "table9_learned_decoder");
  bench::banner("Table 9 — learning-based decoder", "Appendix B, Table 9");

  const std::string model = "ResNet-S";
  const auto& ds = models::benchmark_cls_dataset();
  const PipelineSpec spec = models::cls_pipeline_spec();
  auto codec = core::get_learned_codec();

  // Test-side evaluators per decode stage.
  auto eval_with_decoder = [&](models::TrainedClassifier& tc,
                               const std::string& dec) {
    if (dec == "Learned") {
      // The learned decode stage replaces the whole pre-processing chain;
      // the forward+metric loop is the shared classifier one.
      const int n = static_cast<int>(ds.eval.size());
      PreprocessedBatches batches;
      batches.batch_size = 16;
      batches.num_samples = n;
      for (int b = 0; b < n; b += 16) {
        std::vector<Tensor> inputs;
        for (int i = b; i < std::min(b + 16, n); ++i)
          inputs.push_back(core::preprocess_learned(
              ds.eval[static_cast<std::size_t>(i)].jpeg, *codec, spec));
        batches.inputs.push_back(models::stack_batch(inputs));
      }
      return models::eval_classifier_batches(
          *tc.model, batches, ds.eval, SysNoiseConfig::training_default(),
          &tc.ranges);
    }
    SysNoiseConfig cfg = SysNoiseConfig::training_default();
    cfg.decoder = dec == "Pillow" ? jpeg::DecoderVendor::kPillow
                                  : jpeg::DecoderVendor::kOpenCV;
    return models::eval_classifier(*tc.model, ds.eval, cfg, spec, &tc.ranges);
  };

  const std::vector<std::string> decoders = {"Pillow", "OpenCV", "Learned"};
  std::vector<std::string> headers = {"Train \\ Test"};
  for (const auto& d : decoders) headers.push_back(d);
  headers.push_back("Mean");
  headers.push_back("Std.");
  core::TextTable table(headers);
  std::string csv = "train,test,acc\n";

  return bench::run_standard_modes(
      cli, decoders,
      [&](const std::string& train_dec) {
        std::printf("[table9] training %s with %s decode...\n", model.c_str(),
                    train_dec.c_str());
        std::fflush(stdout);
        models::ClsPreprocessor prep;
        if (train_dec == "Learned") {
          prep = core::learned_decoder_preprocessor(spec);
        } else {
          SysNoiseConfig cfg = SysNoiseConfig::training_default();
          cfg.decoder = train_dec == "Pillow" ? jpeg::DecoderVendor::kPillow
                                              : jpeg::DecoderVendor::kOpenCV;
          prep = core::fixed_config_preprocessor(spec, cfg);
        }
        auto tc = models::get_classifier(model, "t9_" + train_dec, &prep);

        std::vector<std::string> cells = {train_dec};
        double sum = 0.0, sq = 0.0;
        for (const auto& test_dec : decoders) {
          const double acc = eval_with_decoder(tc, test_dec);
          cells.push_back(core::fmt(acc));
          csv += train_dec + "," + test_dec + "," + core::fmt(acc) + "\n";
          sum += acc;
          sq += acc * acc;
        }
        const double mean = sum / 3.0;
        const double var = sq / 3.0 - mean * mean;
        cells.push_back(core::fmt(mean));
        cells.push_back(core::fmt(std::sqrt(std::max(var, 0.0)), 3));
        table.add_row(std::move(cells));
      },
      [&] { return std::make_pair(table.str(), csv); });
}

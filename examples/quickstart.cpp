// Quickstart: the SysNoise phenomenon in 60 lines.
//
// Trains (or loads) a small classifier under the PyTorch-like training
// pipeline, then deploys it under a vendor-style pipeline (DALI-class
// decoder, OpenCV-nearest resize, NV12 color path, INT8) and shows the
// accuracy gap plus one image whose prediction flips.
#include <cstdio>

#include "core/axis.h"
#include "models/train.h"
#include "models/zoo.h"

using namespace sysnoise;

int main() {
  std::printf("SysNoise quickstart — training vs deployment pipelines\n\n");

  auto tc = models::get_classifier("ResNet-S");
  const auto& ds = models::benchmark_cls_dataset();
  const PipelineSpec spec = models::cls_pipeline_spec();

  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const SysNoiseConfig deploy_cfg = core::combined_config(
      {core::TaskKind::kClassification, tc.model->has_maxpool()});

  std::printf("training pipeline  : %s\n", train_cfg.describe().c_str());
  std::printf("deployment pipeline: %s\n\n", deploy_cfg.describe().c_str());

  const double acc_train =
      models::eval_classifier(*tc.model, ds.eval, train_cfg, spec, &tc.ranges);
  const double acc_deploy =
      models::eval_classifier(*tc.model, ds.eval, deploy_cfg, spec, &tc.ranges);
  std::printf("accuracy under training pipeline  : %.2f%%\n", acc_train);
  std::printf("accuracy under deployment pipeline: %.2f%%\n", acc_deploy);
  std::printf("SysNoise accuracy drop            : %.2f%%\n\n",
              acc_train - acc_deploy);

  // Find one sample whose prediction flips.
  for (std::size_t i = 0; i < ds.eval.size(); ++i) {
    auto predict = [&](const SysNoiseConfig& cfg) {
      nn::Tape t;
      t.ctx = cfg.inference_ctx(&tc.ranges);
      nn::Node* logits = tc.model->forward(
          t, t.input(preprocess(ds.eval[i].jpeg, cfg, spec)), nn::BnMode::kEval);
      return models::first_argmax(logits->value.data(), logits->value.dim(1));
    };
    const int p_train = predict(train_cfg);
    const int p_deploy = predict(deploy_cfg);
    if (p_train != p_deploy) {
      std::printf("sample %zu (label %d): predicted %d when trained-and-served "
                  "consistently, but %d under the deployment stack — the same "
                  "weights, different system.\n",
                  i, ds.eval[i].label, p_train, p_deploy);
      break;
    }
  }
  return 0;
}

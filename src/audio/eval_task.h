// StagedEvalTask adapter for the Table 10 TTS benchmark: a trained
// spectrogram predictor measured by system discrepancy (MSE between the
// deployment pipeline's prediction residual and the training pipeline's),
// factored into the three-stage split — preprocess = deployment feature
// extraction (Resample/Stft axes, audio/frontend.h), forward = per-item
// model predictions under the config's InferenceCtx (precision/backend
// axes), postprocess = residual MSE against the lazily-computed
// training-side reference. evaluate() reproduces tts_system_discrepancy()
// bit-identically (tested), so the legacy Table 10 numbers are unchanged.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "audio/tts.h"
#include "core/staged_eval.h"

namespace sysnoise::audio {

// A trained TTS model plus its dataset and INT8 calibration ranges,
// reproduced exactly like bench_table10_tts trains one (dataset seed 555,
// init Rng 21/22, 30 epochs at 2e-3, calibration over the train head).
// Deterministic, so dist workers hold bit-identical weights. get_tts trains
// once per model cache: it loads cache_dir()/tts_<name>_v1.{weights,ranges}
// when they parse (models::load_or_train_module).
struct TrainedTts {
  std::string name;
  TtsDataset ds;
  std::unique_ptr<TtsModel> model;
  nn::ActRanges ranges;
};

TrainedTts get_tts(const std::string& name);
// The Table 10 row models, in bench order.
std::vector<std::string> tts_model_names();

class TtsTask : public core::StagedEvalTask {
 public:
  explicit TtsTask(TrainedTts& tt) : tt_(tt) {}
  const std::string& name() const override { return tt_.name; }
  core::TaskTraits traits() const override {
    return {core::TaskKind::kTts, false};
  }
  std::string preprocess_key(const SysNoiseConfig& cfg) const override;
  std::string forward_key(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_forward(const SysNoiseConfig& cfg,
                                 const core::StageProduct& pre) const override;
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override;

 private:
  // Deployment predictions for one inference-knob suffix, memoized: the
  // forward stage is keyed preprocess_key + suffix per the staged contract,
  // but the network never reads the features — recomputing per front-end
  // variant would only repeat bit-identical work.
  std::shared_ptr<const std::vector<Tensor>> predictions(
      const SysNoiseConfig& cfg) const;
  // Training-side residuals (FP32 predictions minus reference features),
  // config-independent, computed once.
  std::shared_ptr<const std::vector<Tensor>> reference_residuals() const;

  TrainedTts& tt_;
  mutable std::mutex mu_;
  mutable std::map<std::string, std::shared_ptr<const std::vector<Tensor>>>
      preds_by_suffix_;
  mutable std::shared_ptr<const std::vector<Tensor>> ref_residuals_;
};

}  // namespace sysnoise::audio

#include "audio/eval_task.h"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "audio/frontend.h"
#include "models/zoo.h"

namespace sysnoise::audio {

namespace {

struct TtsForward {
  std::shared_ptr<const std::vector<Tensor>> features;     // per eval item
  std::shared_ptr<const std::vector<Tensor>> predictions;  // per eval item
};

}  // namespace

std::vector<std::string> tts_model_names() {
  return {"FastSpeech-mini", "Tacotron-mini"};
}

TrainedTts get_tts(const std::string& name) {
  TrainedTts out;
  out.name = name;
  out.ds = make_tts_dataset();
  Rng rng(name == "FastSpeech-mini" ? 21u : 22u);
  out.model = make_tts_model(name, out.ds, rng);  // throws on unknown name
  models::load_or_train_module(
      *out.model, out.ranges, "tts", name, /*tag=*/"",
      [&] { train_tts(*out.model, out.ds, /*epochs=*/30, 2e-3f); },
      [&] { calibrate_tts(*out.model, out.ds, out.ranges); });
  return out;
}

std::string TtsTask::preprocess_key(const SysNoiseConfig& cfg) const {
  // Every config knob the audio front-end reads (audio/frontend.h), with
  // round-trip float precision — injective over the Resample/Stft option
  // grids.
  std::ostringstream os;
  os.precision(std::numeric_limits<float>::max_digits10);
  os << "tts|resample=" << cfg.resample_ratio
     << "|stft=" << stft_impl_name(cfg.stft_impl) << ",w" << cfg.stft_window
     << ",h" << cfg.stft_hop;
  return os.str();
}

std::string TtsTask::forward_key(const SysNoiseConfig& cfg) const {
  return preprocess_key(cfg) + core::forward_key_suffix(cfg);
}

core::StageProduct TtsTask::run_preprocess(const SysNoiseConfig& cfg) const {
  auto feats = std::make_shared<std::vector<Tensor>>();
  feats->reserve(tt_.ds.eval.size());
  for (const TtsSample& s : tt_.ds.eval)
    feats->push_back(deployment_features(s.audio, tt_.ds.stft, cfg));
  return feats;
}

std::shared_ptr<const std::vector<Tensor>> TtsTask::predictions(
    const SysNoiseConfig& cfg) const {
  const std::string suffix = core::forward_key_suffix(cfg);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = preds_by_suffix_[suffix];
  if (!slot) {
    auto preds = std::make_shared<std::vector<Tensor>>();
    preds->reserve(tt_.ds.eval.size());
    for (const TtsSample& s : tt_.ds.eval) {
      nn::Tape t;
      t.ctx = cfg.inference_ctx(&tt_.ranges);
      nn::Node* pred = tt_.model->forward(t, s.tokens, 1, tt_.ds.spec.seq_len,
                                          nn::BnMode::kEval);
      preds->push_back(pred->value);
    }
    slot = std::move(preds);
  }
  return slot;
}

std::shared_ptr<const std::vector<Tensor>> TtsTask::reference_residuals()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ref_residuals_) {
    auto res = std::make_shared<std::vector<Tensor>>();
    res->reserve(tt_.ds.eval.size());
    for (const TtsSample& s : tt_.ds.eval) {
      nn::Tape t0;
      t0.ctx.precision = nn::Precision::kFP32;
      t0.ctx.ranges = &tt_.ranges;
      nn::Node* ref_pred = tt_.model->forward(t0, s.tokens, 1,
                                              tt_.ds.spec.seq_len,
                                              nn::BnMode::kEval);
      const Tensor ref_feat = tts_reference_features(s, tt_.ds);
      Tensor r_train = ref_pred->value;
      r_train.sub_(ref_feat.reshaped({1, static_cast<int>(ref_feat.size())}));
      res->push_back(std::move(r_train));
    }
    ref_residuals_ = std::move(res);
  }
  return ref_residuals_;
}

core::StageProduct TtsTask::run_forward(const SysNoiseConfig& cfg,
                                        const core::StageProduct& pre) const {
  auto fwd = std::make_shared<TtsForward>();
  fwd->features =
      std::static_pointer_cast<const std::vector<Tensor>>(pre);
  fwd->predictions = predictions(cfg);
  return fwd;
}

double TtsTask::run_postprocess(const SysNoiseConfig& cfg,
                                const core::StageProduct& fwd) const {
  (void)cfg;
  const auto& f = *static_cast<const TtsForward*>(fwd.get());
  const auto ref = reference_residuals();
  const std::size_t n = tt_.ds.eval.size();
  if (f.features->size() != n || f.predictions->size() != n)
    throw std::logic_error("TtsTask: stage product size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor& feat = (*f.features)[i];
    Tensor r_deploy = (*f.predictions)[i];
    r_deploy.sub_(feat.reshaped({1, static_cast<int>(feat.size())}));
    total += mse(r_deploy, (*ref)[i]);
  }
  return total / static_cast<double>(n);
}

}  // namespace sysnoise::audio

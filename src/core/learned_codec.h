// Learning-based image decoder (Appendix B / Table 9): a small
// convolutional autoencoder standing in for the learned codec of Sun et
// al. (2020). "Decoding" with it means Pillow-decode + autoencoder round
// trip — like a neural codec, it reproduces the image with small learned
// reconstruction error.
#pragma once

#include <memory>
#include <string>

#include "core/sweep.h"
#include "models/train.h"
#include "models/zoo.h"

namespace sysnoise::core {

class LearnedCodec : public nn::Module {
 public:
  explicit LearnedCodec(Rng& rng);
  // Round-trip an RGB image through the autoencoder.
  ImageU8 reconstruct(const ImageU8& img);
  void walk(nn::ModuleRefs& refs) override;
  float train(const std::vector<data::ClsSample>& samples, int epochs, float lr);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

// Trained-or-cached codec on the shared classification dataset.
std::shared_ptr<LearnedCodec> get_learned_codec();

// Preprocessor whose decode stage is the learned codec.
models::ClsPreprocessor learned_decoder_preprocessor(const PipelineSpec& spec);

// Eval-side preprocessing with a learned decode stage.
Tensor preprocess_learned(const std::vector<std::uint8_t>& jpeg_bytes,
                          LearnedCodec& codec, const PipelineSpec& spec);

// Table 9's "Learned" test column as a sweep task: `tc` on the shared
// benchmark eval set, with the learned codec (get_learned_codec) as the
// whole pre-processing chain. A config's pre-processing knobs therefore do
// not apply; its inference knobs do.
class LearnedDecodeTask : public EvalTask {
 public:
  explicit LearnedDecodeTask(models::TrainedClassifier& tc);
  const std::string& name() const override { return name_; }
  TaskTraits traits() const override;
  // Folds the training tag in, like models::ClassifierTask.
  std::string cache_identity() const override {
    return tc_.tag.empty() ? name_ : name_ + "#" + tc_.tag;
  }
  double evaluate(const SysNoiseConfig& cfg) const override;

 private:
  models::TrainedClassifier& tc_;
  std::shared_ptr<LearnedCodec> codec_;
  std::string name_;
};

}  // namespace sysnoise::core

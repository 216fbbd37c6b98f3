// Mitigation strategies evaluated by the paper:
//  * Mix training (Algo. 1, Tables 7/8): sample decoder / resize per batch.
//  * Data augmentation (Fig. 4a): Standard, APR-SP, DeepAug, AugMix and
//    combinations — laptop-scale re-implementations of each recipe's core
//    mechanism.
//  * Adversarial training (Fig. 4b): FGSM inner step (PGD-1).
//  * Test-time adaptation (TENT, Table 6): online entropy minimization of
//    normalization affine parameters during evaluation.
#pragma once

#include <string>

#include "core/sweep.h"
#include "models/train.h"
#include "models/zoo.h"

namespace sysnoise::core {

// ---- training-side preprocessors -------------------------------------------

// Mix training (Algo. 1): randomly sample the decoder and/or resize method
// for each training sample (training default for the axes not mixed).
models::ClsPreprocessor mix_training_preprocessor(const PipelineSpec& spec,
                                                  bool mix_decoder,
                                                  bool mix_resize);

// Fixed deployment config used for *training* (Tables 7/8 rows: "train with
// OpenCV-nearest" etc.).
models::ClsPreprocessor fixed_config_preprocessor(const PipelineSpec& spec,
                                                  const SysNoiseConfig& cfg);

enum class AugStrategy {
  kStandard = 0,       // flip + shift
  kAprSp = 1,          // amplitude-phase recombination
  kDeepaugAprSp = 2,
  kDeepaugAugmix = 3,
  kDeepaug = 4,        // stochastic color/noise distortions
  kAugmix = 5,         // mixed augmentation chains
};
constexpr int kNumAugStrategies = 6;
const char* aug_strategy_name(AugStrategy s);

// Augmentation applied after the training-default pipeline.
models::ClsPreprocessor augmented_preprocessor(const PipelineSpec& spec,
                                               AugStrategy strategy);

// ---- tagged training recipes ------------------------------------------------

// Train (or load) zoo classifier `model` with the recipe its cache tag
// names. The one tag -> recipe map, shared by the benches and the
// distributed task factory so both hold the same weights for a tag:
//   ""              the default recipe (models::get_classifier)
//   "t7_<resize>"   train with one fixed resize method (Table 7 rows)
//   "t7_mix"        mix training over resize methods (Table 7)
//   "t8_<decoder>"  train with one fixed decoder (Table 8 rows)
//   "t8_mix"        mix training over decoders (Table 8)
//   "t9_<decoder>"  train with one fixed decoder (Table 9 rows)
//   "t9_Learned"    train through the learned decoder (Table 9)
//   "f4_<strategy>" an augmentation strategy (Fig. 4a; aug_strategy_name)
//   "adv"           FGSM adversarial training (Fig. 4b), named "<model>-Adv"
// Any other tag throws std::invalid_argument before anything is trained or
// written to the model cache.
models::TrainedClassifier get_tagged_classifier(const std::string& model,
                                                const std::string& tag);

// ---- TENT --------------------------------------------------------------------

// Accuracy under `cfg` with online TENT adaptation (entropy minimization on
// each test batch, updating only normalization affine parameters). Mutates
// the model; callers should pass a freshly loaded instance.
double eval_classifier_tent(models::Classifier& model,
                            const std::vector<data::ClsSample>& eval,
                            const SysNoiseConfig& cfg, const PipelineSpec& spec,
                            nn::ActRanges* ranges, float lr = 5e-3f,
                            int batch_size = 16);

// Table 6's "w/ TENT" rows as a sweep task over the default-recipe
// classifier `tc`: adaptation is stateful, so every config reloads a fresh
// copy of the model and adapts it on the shared benchmark eval set. Named
// "<model> (w/ TENT)" so a shared SweepCache keeps it apart from the plain
// ClassifierTask.
class TentTask : public EvalTask {
 public:
  explicit TentTask(const models::TrainedClassifier& tc)
      : tc_(tc), name_(tc.name + " (w/ TENT)") {}
  const std::string& name() const override { return name_; }
  TaskTraits traits() const override;
  double evaluate(const SysNoiseConfig& cfg) const override;

 private:
  const models::TrainedClassifier& tc_;
  std::string name_;
};

}  // namespace sysnoise::core

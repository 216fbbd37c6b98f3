// The one training loop (models::train_loop) against verbatim copies of the
// per-recipe loops it replaced: SGD and Adam classifiers, the detector, the
// segmenter and FGSM adversarial training. Each pair trains twin models
// from the same init for a few steps on a small train subset (the last
// batch short) and must leave byte-identical parameters and BN state, so
// every zoo model trains to the same weights through either path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/mitigation.h"
#include "models/train.h"
#include "models/zoo.h"
#include "nn/optim.h"

namespace sysnoise::models {
namespace {

using namespace sysnoise::nn;

// ---- verbatim seed loops ----------------------------------------------------

float seed_train_classifier(Classifier& model, const std::vector<data::ClsSample>& train,
                            int num_classes, const ClsPreprocessor& prep,
                            const TrainConfig& cfg) {
  (void)num_classes;
  ParamRefs params;
  model.collect(params);
  Sgd sgd(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Adam adam(params, cfg.lr, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);
  Rng rng(cfg.seed);

  const int n = static_cast<int>(train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<int> labels;
      inputs.reserve(static_cast<std::size_t>(bs));
      for (int i = 0; i < bs; ++i) {
        const auto& s = train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(prep(s, rng));
        labels.push_back(s.label);
      }
      Tape t;
      t.training = true;
      const float lr = cosine_lr(cfg.lr, step, total_steps);
      sgd.set_lr(lr);
      adam.set_lr(lr);
      sgd.zero_grad();
      Node* x = t.input(stack_batch(inputs));
      Node* logits = model.forward(t, x, BnMode::kTrain);
      Node* loss = softmax_cross_entropy(t, logits, labels);
      t.backward(loss);
      clip_grad_norm(params, cfg.clip_norm);
      if (cfg.use_adam)
        adam.step();
      else
        sgd.step();
      last_loss = loss->value[0];
      ++step;
    }
  }
  return last_loss;
}

float seed_train_detector(Detector& model, const data::DetDataset& ds,
                          const PipelineSpec& spec, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Rng rng(cfg.seed);
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();

  const int n = static_cast<int>(ds.train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<std::vector<detect::GtBox>> gts;
      for (int i = 0; i < bs; ++i) {
        const auto& s = ds.train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(preprocess(s.jpeg, train_cfg, spec));
        gts.push_back(s.boxes);
      }
      Tape t;
      t.training = true;
      opt.set_lr(cosine_lr(cfg.lr, step, total_steps));
      opt.zero_grad();
      DetectorOutput out = model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
      Node* loss = detection_loss(t, model, out, gts, rng);
      t.backward(loss);
      clip_grad_norm(params, cfg.clip_norm);
      opt.step();
      last_loss = loss->value[0];
      ++step;
    }
  }
  return last_loss;
}

float seed_train_segmenter(Segmenter& model, const data::SegDataset& ds,
                           const PipelineSpec& spec, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Rng rng(cfg.seed);
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();

  const int n = static_cast<int>(ds.train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;
  const int hw = ds.input_size * ds.input_size;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<int> labels;
      labels.reserve(static_cast<std::size_t>(bs) * hw);
      for (int i = 0; i < bs; ++i) {
        const auto& s = ds.train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(preprocess(s.jpeg, train_cfg, spec));
        labels.insert(labels.end(), s.mask.begin(), s.mask.end());
      }
      Tape t;
      t.training = true;
      opt.set_lr(cosine_lr(cfg.lr, step, total_steps));
      opt.zero_grad();
      Node* logits = model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
      Node* rows = reshape(t, nchw_to_nhwc(t, logits),
                           {bs * hw, logits->value.dim(1)});
      Node* loss = softmax_cross_entropy(t, rows, labels);
      t.backward(loss);
      clip_grad_norm(params, cfg.clip_norm);
      opt.step();
      last_loss = loss->value[0];
      ++step;
    }
  }
  return last_loss;
}

// The FGSM recipe's loop, verbatim from its zoo routine (model, train set
// and config lifted to parameters).
void seed_train_fgsm(Classifier& model, const std::vector<data::ClsSample>& train,
                     const ClsPreprocessor& prep, const TrainConfig& cfg) {
  constexpr float epsilon = 0.05f;
  nn::ParamRefs params;
  model.collect(params);
  nn::Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Rng train_rng(7);
  const int n = static_cast<int>(train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total = cfg.epochs * steps_per_epoch;
  int step = 0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = train_rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<int> labels;
      for (int i = 0; i < bs; ++i) {
        const auto& s = train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(prep(s, train_rng));
        labels.push_back(s.label);
      }
      Tensor batch = models::stack_batch(inputs);

      // Pass 1: input gradient for FGSM.
      {
        nn::Tape t;
        t.training = true;
        opt.zero_grad();
        nn::Node* x = t.input(batch, /*requires_grad=*/true);
        nn::Node* loss = nn::softmax_cross_entropy(
            t, model.forward(t, x, nn::BnMode::kTrain), labels);
        t.backward(loss);
        for (std::size_t i = 0; i < batch.size(); ++i)
          batch[i] += epsilon * (x->grad[i] > 0.0f ? 1.0f : -1.0f);
      }
      // Pass 2: train on the perturbed batch.
      nn::Tape t;
      t.training = true;
      opt.set_lr(nn::cosine_lr(cfg.lr, step, total));
      opt.zero_grad();
      nn::Node* loss = nn::softmax_cross_entropy(
          t, model.forward(t, t.input(batch), nn::BnMode::kTrain), labels);
      t.backward(loss);
      nn::clip_grad_norm(params, cfg.clip_norm);
      opt.step();
      ++step;
    }
  }
}

// ---- harness ----------------------------------------------------------------

// Every parameter and BN-state byte of a model, with shapes.
template <typename Model>
std::string model_bytes(Model& model) {
  ParamRefs params;
  model.collect(params);
  StateRefs state;
  model.collect_state(state);
  std::vector<const Tensor*> all;
  for (const Param* p : params) all.push_back(&p->value);
  all.insert(all.end(), state.begin(), state.end());
  std::string out;
  for (const Tensor* t : all) {
    out.append(reinterpret_cast<const char*>(t->shape().data()),
               t->shape().size() * sizeof(int));
    out.append(reinterpret_cast<const char*>(t->data()), t->size() * sizeof(float));
  }
  return out;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Three steps per epoch (8 + 8 + a short 4) with clipping active.
TrainConfig three_step_config() {
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.clip_norm = 0.5f;
  return cfg;
}

const int kClasses = benchmark_cls_dataset().num_classes;

std::vector<data::ClsSample> cls_subset() {
  const auto& train = benchmark_cls_dataset().train;
  return {train.begin(), train.begin() + 20};
}

TEST(TrainLoops, SgdAndAdamClassifiersMatchTheSeedLoop) {
  const auto train = cls_subset();
  const ClsPreprocessor prep = default_cls_preprocessor(cls_pipeline_spec());
  for (const bool adam : {false, true}) {
    TrainConfig cfg = three_step_config();
    cfg.use_adam = adam;
    if (adam) cfg.lr = 1.5e-3f;
    Rng ra(5), rb(5);
    auto a = make_classifier("ResNet-XS", kClasses, ra);
    auto b = make_classifier("ResNet-XS", kClasses, rb);
    const float loss_a = train_classifier(*a, train, prep, cfg);
    const float loss_b = seed_train_classifier(*b, train, kClasses, prep, cfg);
    EXPECT_TRUE(same_bits(loss_a, loss_b)) << "adam " << adam;
    EXPECT_TRUE(model_bytes(*a) == model_bytes(*b)) << "adam " << adam;
  }
}

TEST(TrainLoops, DetectorMatchesTheSeedLoop) {
  data::DetDatasetSpec dspec;
  dspec.train_images = 20;
  dspec.eval_images = 1;
  const auto ds = data::make_detection_dataset(dspec);
  const TrainConfig cfg = three_step_config();
  for (const bool softmax : {false, true}) {
    Rng ra(6), rb(6);
    Detector a("mobilenet", softmax, ds.num_classes, ra);
    Detector b("mobilenet", softmax, ds.num_classes, rb);
    const float loss_a = train_detector(a, ds, det_pipeline_spec(), cfg);
    const float loss_b = seed_train_detector(b, ds, det_pipeline_spec(), cfg);
    EXPECT_TRUE(same_bits(loss_a, loss_b)) << "softmax " << softmax;
    EXPECT_TRUE(model_bytes(a) == model_bytes(b)) << "softmax " << softmax;
  }
}

TEST(TrainLoops, SegmenterMatchesTheSeedLoop) {
  data::SegDatasetSpec sspec;
  sspec.train_images = 10;
  sspec.eval_images = 1;
  const auto ds = data::make_segmentation_dataset(sspec);
  TrainConfig cfg = three_step_config();
  cfg.batch_size = 4;  // 4 + 4 + 2
  Rng ra(7), rb(7);
  auto a = make_segmenter("DeepLab-S", ds.num_classes, ra);
  auto b = make_segmenter("DeepLab-S", ds.num_classes, rb);
  const float loss_a = train_segmenter(*a, ds, seg_pipeline_spec(), cfg);
  const float loss_b = seed_train_segmenter(*b, ds, seg_pipeline_spec(), cfg);
  EXPECT_TRUE(same_bits(loss_a, loss_b));
  EXPECT_TRUE(model_bytes(*a) == model_bytes(*b));
}

TEST(TrainLoops, FgsmMatchesTheSeedLoop) {
  const auto train = cls_subset();
  const ClsPreprocessor prep = default_cls_preprocessor(cls_pipeline_spec());
  const TrainConfig cfg = three_step_config();
  Rng ra(8), rb(8);
  auto a = make_classifier("ResNet-XS", kClasses, ra);
  auto b = make_classifier("ResNet-XS", kClasses, rb);
  core::train_classifier_fgsm(*a, train, prep, cfg);
  seed_train_fgsm(*b, train, prep, cfg);
  EXPECT_TRUE(model_bytes(*a) == model_bytes(*b));
}

}  // namespace
}  // namespace sysnoise::models

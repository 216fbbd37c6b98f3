#include "serve/serving_model.h"

#include <stdexcept>

#include "models/train.h"
#include "nn/tape.h"
#include "tensor/tensor.h"

namespace sysnoise::serve {

ClassifierServingModel::ClassifierServingModel(
    models::TrainedClassifier& tc, const std::vector<data::ClsSample>& eval,
    const PipelineSpec& spec, const SysNoiseConfig& cfg)
    : tc_(tc), eval_(eval), spec_(spec), cfg_(cfg) {
  inputs_.reserve(eval_.size());
  for (const data::ClsSample& s : eval_)
    inputs_.push_back(preprocess(s.jpeg, cfg_, spec_));
}

std::vector<int> ClassifierServingModel::predict(
    const std::vector<int>& samples) const {
  std::vector<const Tensor*> parts;
  parts.reserve(samples.size());
  for (const int s : samples) {
    if (s < 0 || s >= num_samples())
      throw std::out_of_range("serving request for unknown sample " +
                              std::to_string(s));
    parts.push_back(&inputs_[static_cast<std::size_t>(s)]);
  }
  nn::Tape t;
  t.ctx = cfg_.inference_ctx(&tc_.ranges);
  const nn::Node* logits =
      tc_.model->forward(t, t.input(stack_parts(parts)), nn::BnMode::kEval);
  // The offline loop's top-1 rule, so a served prediction can never
  // disagree with the sweep over tie-breaking.
  const int classes = logits->value.dim(1);
  std::vector<int> preds;
  preds.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    preds.push_back(models::first_argmax(
        logits->value.data() + i * static_cast<std::size_t>(classes), classes));
  return preds;
}

bool ClassifierServingModel::correct(int sample, int prediction) const {
  return prediction == eval_[static_cast<std::size_t>(sample)].label;
}

double ClassifierServingModel::offline_accuracy() const {
  return models::eval_classifier_batches(
      *tc_.model,
      models::preprocess_samples(eval_, cfg_, spec_, /*batch_size=*/16),
      eval_, cfg_, &tc_.ranges);
}

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

SyntheticServingModel::SyntheticServingModel(int num_samples, int num_classes,
                                             std::uint64_t seed,
                                             int base_spin_rounds,
                                             int item_spin_rounds)
    : num_samples_(num_samples),
      num_classes_(num_classes),
      seed_(seed),
      base_spin_rounds_(base_spin_rounds),
      item_spin_rounds_(item_spin_rounds) {
  labels_.reserve(static_cast<std::size_t>(num_samples));
  for (int s = 0; s < num_samples; ++s)
    labels_.push_back(static_cast<int>(
        fnv_mix(fnv_mix(0xcbf29ce484222325ull, seed_ ^ 0x5bd1e995u),
                static_cast<std::uint64_t>(s)) %
        static_cast<std::uint64_t>(num_classes)));
}

std::vector<int> SyntheticServingModel::predict(
    const std::vector<int>& samples) const {
  const int rounds =
      base_spin_rounds_ +
      item_spin_rounds_ * static_cast<int>(samples.size());
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < rounds; ++r)
    sink = fnv_mix(sink, static_cast<std::uint64_t>(r));
  std::vector<int> preds;
  preds.reserve(samples.size());
  for (const int s : samples)
    preds.push_back(static_cast<int>(
        fnv_mix(fnv_mix(0xcbf29ce484222325ull, seed_),
                static_cast<std::uint64_t>(s)) %
        static_cast<std::uint64_t>(num_classes_)));
  return preds;
}

bool SyntheticServingModel::correct(int sample, int prediction) const {
  return prediction == labels_[static_cast<std::size_t>(sample)];
}

}  // namespace sysnoise::serve

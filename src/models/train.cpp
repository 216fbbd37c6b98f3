#include "models/train.h"

#include <algorithm>

#include "nn/optim.h"
#include "seg/miou.h"

namespace sysnoise::models {

using namespace sysnoise::nn;

Tensor stack_batch(const std::vector<Tensor>& items) { return stack_front(items); }

ClsPreprocessor default_cls_preprocessor(const PipelineSpec& spec) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  return [spec, train_cfg](const data::ClsSample& s, Rng&) {
    return preprocess(s.jpeg, train_cfg, spec);
  };
}

float train_loop(const ParamRefs& params, int n, const TrainConfig& cfg,
                 const BatchLoss& batch_loss) {
  Sgd sgd(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Adam adam(params, cfg.lr, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);
  Rng rng(cfg.seed);
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      const std::vector<int> idx(order.begin() + b, order.begin() + b + bs);
      Tape t;
      t.training = true;
      const float lr = cosine_lr(cfg.lr, step, total_steps);
      sgd.set_lr(lr);
      adam.set_lr(lr);
      Node* loss = batch_loss(t, idx, rng);
      sgd.zero_grad();
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

float train_classifier(Classifier& model, const std::vector<data::ClsSample>& train,
                       const ClsPreprocessor& prep, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  return train_loop(
      params, static_cast<int>(train.size()), cfg,
      [&](Tape& t, const std::vector<int>& idx, Rng& rng) {
        std::vector<Tensor> inputs;
        std::vector<int> labels;
        for (const int i : idx) {
          const auto& s = train[static_cast<std::size_t>(i)];
          inputs.push_back(prep(s, rng));
          labels.push_back(s.label);
        }
        Node* logits =
            model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
        return softmax_cross_entropy(t, logits, labels);
      });
}

double eval_classifier_batches(Classifier& model,
                               const PreprocessedBatches& batches,
                               const std::vector<data::ClsSample>& eval,
                               const SysNoiseConfig& cfg, ActRanges* ranges) {
  int correct = 0;
  std::size_t sample = 0;
  for (const Tensor& input : batches.inputs) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(t, t.input(input), BnMode::kEval);
    const int classes = logits->value.dim(1);
    const float* row_logits = logits->value.data();
    for (int i = 0; i < input.dim(0); ++i, row_logits += classes)
      if (first_argmax(row_logits, classes) == eval[sample++].label) ++correct;
  }
  return 100.0 * correct / std::max(1, batches.num_samples);
}

double eval_classifier(Classifier& model, const std::vector<data::ClsSample>& eval,
                       const SysNoiseConfig& cfg, const PipelineSpec& spec,
                       ActRanges* ranges, int batch_size) {
  return eval_classifier_batches(
      model, preprocess_samples(eval, cfg, spec, batch_size), eval, cfg,
      ranges);
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

float train_detector(Detector& model, const data::DetDataset& ds,
                     const PipelineSpec& spec, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  return train_loop(
      params, static_cast<int>(ds.train.size()), cfg,
      [&](Tape& t, const std::vector<int>& idx, Rng& rng) {
        std::vector<Tensor> inputs;
        std::vector<std::vector<detect::GtBox>> gts;
        for (const int i : idx) {
          const auto& s = ds.train[static_cast<std::size_t>(i)];
          inputs.push_back(preprocess(s.jpeg, train_cfg, spec));
          gts.push_back(s.boxes);
        }
        DetectorOutput out =
            model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
        return detection_loss(t, model, out, gts, rng);
      });
}

RawDetections detector_forward_batches(Detector& model,
                                       const PreprocessedBatches& batches,
                                       const SysNoiseConfig& cfg,
                                       ActRanges* ranges) {
  RawDetections raw;
  raw.batches.reserve(batches.inputs.size());
  for (const Tensor& input : batches.inputs) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    DetectorOutput o = model.forward(t, t.input(input), BnMode::kEval);
    raw.batches.push_back(detach_detector_output(o));
  }
  return raw;
}

double detector_map_from_raw(const Detector& model, const RawDetections& raw,
                             const data::DetDataset& ds,
                             const SysNoiseConfig& cfg) {
  std::vector<std::vector<detect::Detection>> all_dets;
  std::vector<std::vector<detect::GtBox>> all_gts;
  std::size_t sample = 0;
  for (const RawDetectorOutput& out : raw.batches) {
    auto dets = detection_postprocess(model, out, cfg, ds.input_size);
    for (auto& d : dets) {
      all_dets.push_back(std::move(d));
      all_gts.push_back(ds.eval[sample++].boxes);
    }
  }
  return 100.0 * detect::mean_average_precision(all_dets, all_gts, ds.num_classes);
}

double eval_detector(Detector& model, const data::DetDataset& ds,
                     const SysNoiseConfig& cfg, const PipelineSpec& spec,
                     ActRanges* ranges) {
  const RawDetections raw = detector_forward_batches(
      model, preprocess_samples(ds.eval, cfg, spec, /*batch_size=*/8), cfg,
      ranges);
  return detector_map_from_raw(model, raw, ds, cfg);
}

// ---------------------------------------------------------------------------
// Segmentation
// ---------------------------------------------------------------------------

float train_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const PipelineSpec& spec, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int hw = ds.input_size * ds.input_size;
  return train_loop(
      params, static_cast<int>(ds.train.size()), cfg,
      [&](Tape& t, const std::vector<int>& idx, Rng&) {
        const int bs = static_cast<int>(idx.size());
        std::vector<Tensor> inputs;
        std::vector<int> labels;
        labels.reserve(static_cast<std::size_t>(bs) * hw);
        for (const int i : idx) {
          const auto& s = ds.train[static_cast<std::size_t>(i)];
          inputs.push_back(preprocess(s.jpeg, train_cfg, spec));
          labels.insert(labels.end(), s.mask.begin(), s.mask.end());
        }
        Node* logits =
            model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
        Node* rows = reshape(t, nchw_to_nhwc(t, logits),
                             {bs * hw, logits->value.dim(1)});
        return softmax_cross_entropy(t, rows, labels);
      });
}

double eval_segmenter_batches(Segmenter& model,
                              const PreprocessedBatches& batches,
                              const data::SegDataset& ds,
                              const SysNoiseConfig& cfg, ActRanges* ranges) {
  std::vector<int> all_pred, all_gt;
  std::size_t sample = 0;
  for (const Tensor& input : batches.inputs) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(t, t.input(input), BnMode::kEval);
    const int c = logits->value.dim(1), h = logits->value.dim(2),
              w = logits->value.dim(3);
    // Per-pixel argmax over the channel axis (channel stride h * w).
    const float* scores = logits->value.data();
    for (int i = 0; i < input.dim(0); ++i, scores += c * h * w) {
      for (int px = 0; px < h * w; ++px)
        all_pred.push_back(first_argmax(scores + px, c, h * w));
      const auto& mask = ds.eval[sample++].mask;
      all_gt.insert(all_gt.end(), mask.begin(), mask.end());
    }
  }
  return 100.0 * seg::mean_iou(all_pred, all_gt, ds.num_classes);
}

double eval_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const SysNoiseConfig& cfg, const PipelineSpec& spec,
                      ActRanges* ranges) {
  return eval_segmenter_batches(
      model, preprocess_samples(ds.eval, cfg, spec, /*batch_size=*/4), ds, cfg,
      ranges);
}

}  // namespace sysnoise::models

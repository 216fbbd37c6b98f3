#include "models/train.h"

#include <algorithm>
#include <stdexcept>

#include "nn/optim.h"
#include "seg/miou.h"

namespace sysnoise::models {

using namespace sysnoise::nn;

Tensor stack_batch(const std::vector<Tensor>& items) { return stack_front(items); }

namespace {

// The multi-config loops stack aligned batch indices across configs, so
// every config's stage-1 product must carry the same batch layout (they all
// pre-process the same dataset with the same batch size — only the knobs
// differ).
void check_same_layout(const std::vector<const PreprocessedBatches*>& per_cfg) {
  const PreprocessedBatches* ref = per_cfg.front();
  for (const PreprocessedBatches* pc : per_cfg)
    if (pc == nullptr || pc->num_samples != ref->num_samples ||
        pc->batch_size != ref->batch_size ||
        pc->inputs.size() != ref->inputs.size())
      throw std::invalid_argument(
          "batched forward: configs' stage-1 batch layouts differ");
}

// Stack batch index `bi` of every config into one [sum(b_i), ...] tensor;
// `fronts` receives each config's contribution for the split on the way out.
Tensor stack_config_batch(const std::vector<const PreprocessedBatches*>& per_cfg,
                          std::size_t bi, std::vector<int>* fronts) {
  std::vector<const Tensor*> parts;
  parts.reserve(per_cfg.size());
  fronts->clear();
  for (const PreprocessedBatches* pc : per_cfg) {
    parts.push_back(&pc->inputs[bi]);
    fronts->push_back(pc->inputs[bi].dim(0));
  }
  return stack_parts(parts);
}

}  // namespace

ClsPreprocessor default_cls_preprocessor(const PipelineSpec& spec) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  return [spec, train_cfg](const data::ClsSample& s, Rng&) {
    return preprocess(s.jpeg, train_cfg, spec);
  };
}

float train_classifier(Classifier& model, const std::vector<data::ClsSample>& train,
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

PreprocessedBatches preprocess_cls_batches(const std::vector<data::ClsSample>& eval,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec,
                                           int batch_size) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  jpegs.reserve(eval.size());
  for (const auto& s : eval) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, batch_size);
}

std::vector<double> eval_classifier_batches_multi(
    Classifier& model, const std::vector<const PreprocessedBatches*>& per_cfg,
    const std::vector<data::ClsSample>& eval, const SysNoiseConfig& cfg,
    ActRanges* ranges) {
  if (per_cfg.empty()) return {};
  check_same_layout(per_cfg);
  const std::size_t k = per_cfg.size();
  std::vector<int> correct(k, 0);
  int b = 0;
  std::vector<int> fronts;
  for (std::size_t bi = 0; bi < per_cfg.front()->inputs.size(); ++bi) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(
        t, t.input(stack_config_batch(per_cfg, bi, &fronts)), BnMode::kEval);
    const int classes = logits->value.dim(1);
    const float* row_logits = logits->value.data();
    for (std::size_t ci = 0; ci < k; ++ci)
      for (int i = 0; i < fronts[ci]; ++i, row_logits += classes)
        if (first_argmax(row_logits, classes) ==
            eval[static_cast<std::size_t>(b + i)].label)
          ++correct[ci];
    b += fronts.front();
  }
  std::vector<double> accs;
  accs.reserve(k);
  for (std::size_t ci = 0; ci < k; ++ci)
    accs.push_back(100.0 * correct[ci] /
                   std::max(1, per_cfg[ci]->num_samples));
  return accs;
}

double eval_classifier(Classifier& model, const std::vector<data::ClsSample>& eval,
                       const SysNoiseConfig& cfg, const PipelineSpec& spec,
                       ActRanges* ranges, int batch_size) {
  const PreprocessedBatches batches =
      preprocess_cls_batches(eval, cfg, spec, batch_size);
  return eval_classifier_batches_multi(model, {&batches}, eval, cfg, ranges)
      .front();
}

void calibrate_classifier(Classifier& model,
                          const std::vector<data::ClsSample>& calib,
                          const PipelineSpec& spec, ActRanges& ranges,
                          int max_samples) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int n = std::min<int>(max_samples, static_cast<int>(calib.size()));
  for (int b = 0; b < n; b += 8) {
    const int bs = std::min(8, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(calib[static_cast<std::size_t>(b + i)].jpeg, train_cfg, spec));
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(stack_batch(inputs)), BnMode::kEval);
  }
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

float train_detector(Detector& model, const data::DetDataset& ds,
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

PreprocessedBatches preprocess_det_batches(const data::DetDataset& ds,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  jpegs.reserve(ds.eval.size());
  for (const auto& s : ds.eval) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, /*batch_size=*/8);
}

std::vector<RawDetections> detector_forward_batches_multi(
    Detector& model, const std::vector<const PreprocessedBatches*>& per_cfg,
    const SysNoiseConfig& cfg, ActRanges* ranges) {
  if (per_cfg.empty()) return {};
  check_same_layout(per_cfg);
  const std::size_t k = per_cfg.size();
  std::vector<RawDetections> out(k);
  for (RawDetections& r : out) r.batches.reserve(per_cfg.front()->inputs.size());
  std::vector<int> fronts;
  for (std::size_t bi = 0; bi < per_cfg.front()->inputs.size(); ++bi) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    DetectorOutput o = model.forward(
        t, t.input(stack_config_batch(per_cfg, bi, &fronts)), BnMode::kEval);
    const RawDetectorOutput raw = detach_detector_output(o);
    std::vector<RawDetectorOutput> subs(k);
    for (RawDetectorOutput& sub : subs) sub.shapes = raw.shapes;
    for (std::size_t l = 0; l < raw.cls.size(); ++l) {
      std::vector<Tensor> cls = unstack_parts(raw.cls[l], fronts);
      std::vector<Tensor> reg = unstack_parts(raw.reg[l], fronts);
      for (std::size_t ci = 0; ci < k; ++ci) {
        subs[ci].cls.push_back(std::move(cls[ci]));
        subs[ci].reg.push_back(std::move(reg[ci]));
      }
    }
    for (std::size_t ci = 0; ci < k; ++ci)
      out[ci].batches.push_back(std::move(subs[ci]));
  }
  return out;
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
  const PreprocessedBatches batches = preprocess_det_batches(ds, cfg, spec);
  const std::vector<RawDetections> raw =
      detector_forward_batches_multi(model, {&batches}, cfg, ranges);
  return detector_map_from_raw(model, raw.front(), ds, cfg);
}

void calibrate_detector(Detector& model, const data::DetDataset& ds,
                        const PipelineSpec& spec, ActRanges& ranges,
                        int max_samples) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int n = std::min<int>(max_samples, static_cast<int>(ds.train.size()));
  for (int b = 0; b < n; b += 4) {
    const int bs = std::min(4, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(ds.train[static_cast<std::size_t>(b + i)].jpeg, train_cfg, spec));
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(stack_batch(inputs)), BnMode::kEval);
  }
}

// ---------------------------------------------------------------------------
// Segmentation
// ---------------------------------------------------------------------------

float train_segmenter(Segmenter& model, const data::SegDataset& ds,
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

PreprocessedBatches preprocess_seg_batches(const data::SegDataset& ds,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  jpegs.reserve(ds.eval.size());
  for (const auto& s : ds.eval) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, /*batch_size=*/4);
}

std::vector<double> eval_segmenter_batches_multi(
    Segmenter& model, const std::vector<const PreprocessedBatches*>& per_cfg,
    const data::SegDataset& ds, const SysNoiseConfig& cfg, ActRanges* ranges) {
  if (per_cfg.empty()) return {};
  check_same_layout(per_cfg);
  const std::size_t k = per_cfg.size();
  std::vector<std::vector<int>> all_pred(k);
  std::vector<int> all_gt;  // dataset order; identical for every config
  std::size_t sample = 0;
  std::vector<int> fronts;
  for (std::size_t bi = 0; bi < per_cfg.front()->inputs.size(); ++bi) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(
        t, t.input(stack_config_batch(per_cfg, bi, &fronts)), BnMode::kEval);
    const int c = logits->value.dim(1), h = logits->value.dim(2),
              w = logits->value.dim(3);
    // Per-pixel argmax over the channel axis (channel stride h * w).
    const float* scores = logits->value.data();
    for (std::size_t ci = 0; ci < k; ++ci)
      for (int i = 0; i < fronts[ci]; ++i, scores += c * h * w)
        for (int px = 0; px < h * w; ++px)
          all_pred[ci].push_back(first_argmax(scores + px, c, h * w));
    for (int i = 0; i < fronts.front(); ++i) {
      const auto& mask = ds.eval[sample++].mask;
      all_gt.insert(all_gt.end(), mask.begin(), mask.end());
    }
  }
  std::vector<double> out;
  out.reserve(k);
  for (std::size_t ci = 0; ci < k; ++ci)
    out.push_back(100.0 * seg::mean_iou(all_pred[ci], all_gt, ds.num_classes));
  return out;
}

double eval_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const SysNoiseConfig& cfg, const PipelineSpec& spec,
                      ActRanges* ranges) {
  const PreprocessedBatches batches = preprocess_seg_batches(ds, cfg, spec);
  return eval_segmenter_batches_multi(model, {&batches}, ds, cfg, ranges)
      .front();
}

void calibrate_segmenter(Segmenter& model, const data::SegDataset& ds,
                         const PipelineSpec& spec, ActRanges& ranges,
                         int max_samples) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int n = std::min<int>(max_samples, static_cast<int>(ds.train.size()));
  for (int b = 0; b < n; b += 4) {
    const int bs = std::min(4, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(ds.train[static_cast<std::size_t>(b + i)].jpeg, train_cfg, spec));
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(stack_batch(inputs)), BnMode::kEval);
  }
}

}  // namespace sysnoise::models

// Model zoo with a disk cache: every (model, dataset) pair is trained once
// per machine; subsequent test/bench runs load weights, BN statistics and
// INT8 calibration ranges from SYSNOISE_CACHE_DIR (default
// /tmp/sysnoise_model_cache).
//
// The three image families share one seam: a hook struct per family
// (ClsFamily, DetFamily, SegFamily below) feeds the one load-or-train
// routine here and the one sweep adapter, models::ZooTask
// (models/eval_tasks.h). nlp::get_lm and audio::get_tts cache through the
// same protocol (load_or_train_module).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/axis.h"
#include "models/train.h"

namespace sysnoise::models {

std::string cache_dir();

// Shared benchmark datasets (constructed once per process, deterministic).
const data::ClsDataset& benchmark_cls_dataset();
const data::DetDataset& benchmark_det_dataset();
const data::SegDataset& benchmark_seg_dataset();

// Per-task pipeline specs (decode->32x32 for classification; detection and
// segmentation use 64x64 but own their spec so either can diverge without
// touching the other).
PipelineSpec cls_pipeline_spec();
PipelineSpec det_pipeline_spec();
PipelineSpec seg_pipeline_spec();

struct TrainedClassifier {
  std::string name;
  std::string tag;  // retrained-variant tag ("" for the default recipe)
  std::unique_ptr<Classifier> model;
  nn::ActRanges ranges;  // INT8 calibration
  double trained_acc = 0.0;
};

// Train (or load) a classifier on the shared dataset with the default
// recipe. `tag` distinguishes retrained variants (mitigation studies);
// `prep` overrides the training preprocessor (mix training / augmentation).
TrainedClassifier get_classifier(const std::string& name,
                                 const std::string& tag = "",
                                 const ClsPreprocessor* prep = nullptr);

struct TrainedDetector {
  std::string name;
  std::unique_ptr<Detector> model;
  nn::ActRanges ranges;
  double trained_map = 0.0;
};

// name: "FasterRCNN-ResNet" | "FasterRCNN-MobileNet" | "RetinaNet-ResNet" |
// "RetinaNet-MobileNet".
TrainedDetector get_detector(const std::string& name);

struct TrainedSegmenter {
  std::string name;
  std::unique_ptr<Segmenter> model;
  nn::ActRanges ranges;
  double trained_miou = 0.0;
};

// name: "DeepLab-S" | "DeepLab-M" | "UNet".
TrainedSegmenter get_segmenter(const std::string& name);

// ---- per-family hooks -------------------------------------------------------
//
// Each names the family's model and zoo types, its benchmark dataset and
// pipeline spec, its batch sizes, its existing forward loop and the
// post-processing that turns the loop's product into the metric. A fourth
// image family is one more struct like these.

struct ClsFamily {
  using Model = Classifier;
  using Trained = TrainedClassifier;
  using Forward = double;  // stage-2 product: the top-1 accuracy itself
  static constexpr core::TaskKind kKind = core::TaskKind::kClassification;
  static constexpr const char* kPrefix = "cls";  // cache stems, stage scope
  static constexpr std::uint64_t kInitSeed = 2024;
  static constexpr int kEvalBatch = 16;
  static constexpr int kCalibBatch = 8;
  static constexpr std::size_t kCalibSamples = 32;
  static constexpr double Trained::*kMetric = &Trained::trained_acc;
  static const data::ClsDataset& dataset() { return benchmark_cls_dataset(); }
  static PipelineSpec spec() { return cls_pipeline_spec(); }
  static std::unique_ptr<Model> make(const std::string& name, Rng& rng) {
    return make_classifier(name, dataset().num_classes, rng);
  }
  static Forward forward(Model& m, const PreprocessedBatches& pre,
                         const SysNoiseConfig& cfg, nn::ActRanges* ranges) {
    return eval_classifier_batches(m, pre, dataset().eval, cfg, ranges);
  }
  static double postprocess(const Model&, const Forward& acc,
                            const SysNoiseConfig&) {
    return acc;
  }
};

struct DetFamily {
  using Model = Detector;
  using Trained = TrainedDetector;
  using Forward = RawDetections;  // post-processing re-decodes boxes
  static constexpr core::TaskKind kKind = core::TaskKind::kDetection;
  static constexpr const char* kPrefix = "det";
  static constexpr std::uint64_t kInitSeed = 2025;
  static constexpr int kEvalBatch = 8;
  static constexpr int kCalibBatch = 4;
  static constexpr std::size_t kCalibSamples = 16;
  static constexpr double Trained::*kMetric = &Trained::trained_map;
  static const data::DetDataset& dataset() { return benchmark_det_dataset(); }
  static PipelineSpec spec() { return det_pipeline_spec(); }
  // Throws std::invalid_argument for a name get_detector does not list.
  static std::unique_ptr<Model> make(const std::string& name, Rng& rng);
  static Forward forward(Model& m, const PreprocessedBatches& pre,
                         const SysNoiseConfig& cfg, nn::ActRanges* ranges) {
    return detector_forward_batches(m, pre, cfg, ranges);
  }
  static double postprocess(const Model& m, const Forward& raw,
                            const SysNoiseConfig& cfg) {
    return detector_map_from_raw(m, raw, dataset(), cfg);
  }
};

struct SegFamily {
  using Model = Segmenter;
  using Trained = TrainedSegmenter;
  using Forward = double;  // stage-2 product: the mIoU itself
  static constexpr core::TaskKind kKind = core::TaskKind::kSegmentation;
  static constexpr const char* kPrefix = "seg";
  static constexpr std::uint64_t kInitSeed = 2026;
  static constexpr int kEvalBatch = 4;
  static constexpr int kCalibBatch = 4;
  static constexpr std::size_t kCalibSamples = 16;
  static constexpr double Trained::*kMetric = &Trained::trained_miou;
  static const data::SegDataset& dataset() { return benchmark_seg_dataset(); }
  static PipelineSpec spec() { return seg_pipeline_spec(); }
  static std::unique_ptr<Model> make(const std::string& name, Rng& rng) {
    return make_segmenter(name, dataset().num_classes, rng);
  }
  static Forward forward(Model& m, const PreprocessedBatches& pre,
                         const SysNoiseConfig& cfg, nn::ActRanges* ranges) {
    return eval_segmenter_batches(m, pre, dataset(), cfg, ranges);
  }
  static double postprocess(const Model&, const Forward& miou,
                            const SysNoiseConfig&) {
    return miou;
  }
};

// The zoo's one cache protocol for a trained module: loads weights and
// running state from <stem>.weights into `model`, or runs `train` and saves
// them; then loads INT8 ranges from <stem>.ranges into `ranges`, or (always
// after training) runs `calibrate` and saves them. <stem> is
// cache_dir()/<prefix>_<name>[_<tag>]_v1. A missing, truncated or damaged
// file leaves the model (or the ranges) as they were, so the module is
// retrained (or recalibrated) from its clean init. Behind load_or_train
// below, nlp::get_lm ("lm") and audio::get_tts ("tts").
void load_or_train_module(nn::Module& model, nn::ActRanges& ranges,
                          const std::string& prefix, const std::string& name,
                          const std::string& tag,
                          const std::function<void()>& train,
                          const std::function<void()>& calibrate);

// The image zoo's one load-or-train routine, behind get_classifier,
// get_detector, get_segmenter and the retrained recipes of
// core::get_tagged_classifier. It inits the model from the family's seed,
// runs load_or_train_module with the family's prefix (calibrating on the
// first training samples), then evaluates the training-default metric.
// The result's tag stays empty: callers name their variant.
template <typename Family>
typename Family::Trained load_or_train(
    const std::string& name, const std::string& tag,
    const std::function<void(typename Family::Model&)>& train);

}  // namespace sysnoise::models

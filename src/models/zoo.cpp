#include "models/zoo.h"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <tuple>

#include "nn/serialize.h"

namespace sysnoise::models {

namespace {
constexpr const char* kCacheVersion = "v1";
}  // namespace

std::string cache_dir() {
  const char* env = std::getenv("SYSNOISE_CACHE_DIR");
  std::string dir = env != nullptr ? env : "/tmp/sysnoise_model_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

const data::ClsDataset& benchmark_cls_dataset() {
  static const data::ClsDataset ds = data::make_classification_dataset({});
  return ds;
}

const data::DetDataset& benchmark_det_dataset() {
  static const data::DetDataset ds = data::make_detection_dataset({});
  return ds;
}

const data::SegDataset& benchmark_seg_dataset() {
  static const data::SegDataset ds = data::make_segmentation_dataset({});
  return ds;
}

PipelineSpec cls_pipeline_spec() { return PipelineSpec{.out_h = 32, .out_w = 32}; }

PipelineSpec det_pipeline_spec() { return PipelineSpec{.out_h = 64, .out_w = 64}; }

PipelineSpec seg_pipeline_spec() { return PipelineSpec{.out_h = 64, .out_w = 64}; }

std::unique_ptr<Detector> DetFamily::make(const std::string& name, Rng& rng) {
  // name -> (backbone, softmax head): FasterRCNN heads are softmax,
  // RetinaNet heads sigmoid.
  for (const auto& [known, backbone, softmax] :
       {std::tuple{"FasterRCNN-ResNet", "resnet", true},
        std::tuple{"FasterRCNN-MobileNet", "mobilenet", true},
        std::tuple{"RetinaNet-ResNet", "resnet", false},
        std::tuple{"RetinaNet-MobileNet", "mobilenet", false}})
    if (name == known)
      return std::make_unique<Detector>(backbone, softmax,
                                        dataset().num_classes, rng);
  throw std::invalid_argument("get_detector: unknown model " + name);
}

void load_or_train_module(nn::Module& model, nn::ActRanges& ranges,
                          const std::string& prefix, const std::string& name,
                          const std::string& tag,
                          const std::function<void()>& train,
                          const std::function<void()>& calibrate) {
  nn::ParamRefs params;
  model.collect(params);
  nn::StateRefs state;
  model.collect_state(state);
  const std::string stem = cache_dir() + "/" + prefix + "_" + name +
                           (tag.empty() ? "" : "_" + tag) + "_" + kCacheVersion;

  const bool trained = !nn::load_params(stem + ".weights", params, state);
  if (trained) {
    train();
    nn::save_params(stem + ".weights", params,
                    std::vector<const Tensor*>(state.begin(), state.end()));
  }
  if (trained || !nn::load_ranges(stem + ".ranges", ranges)) {
    calibrate();
    nn::save_ranges(stem + ".ranges", ranges);
  }
}

template <typename Family>
typename Family::Trained load_or_train(
    const std::string& name, const std::string& tag,
    const std::function<void(typename Family::Model&)>& train) {
  const SysNoiseConfig cfg = SysNoiseConfig::training_default();
  typename Family::Trained out;
  out.name = name;
  Rng rng(Family::kInitSeed);
  out.model = Family::make(name, rng);
  load_or_train_module(
      *out.model, out.ranges, Family::kPrefix, name, tag,
      [&] { train(*out.model); },
      [&] {
        calibrate(*out.model,
                  preprocess_samples(Family::dataset().train, cfg,
                                     Family::spec(), Family::kCalibBatch,
                                     Family::kCalibSamples),
                  out.ranges);
      });
  // The stage-1 batches die before post-processing, as in the eval_*
  // entry points: holding them through it (ZooTask::evaluate) raised the
  // set-up peak RSS of a four-model zoo load by about 6 MiB.
  const typename Family::Forward fwd = Family::forward(
      *out.model,
      preprocess_samples(Family::dataset().eval, cfg, Family::spec(),
                         Family::kEvalBatch),
      cfg, &out.ranges);
  out.*Family::kMetric = Family::postprocess(*out.model, fwd, cfg);
  return out;
}

template TrainedClassifier load_or_train<ClsFamily>(
    const std::string&, const std::string&,
    const std::function<void(Classifier&)>&);
template TrainedDetector load_or_train<DetFamily>(
    const std::string&, const std::string&,
    const std::function<void(Detector&)>&);
template TrainedSegmenter load_or_train<SegFamily>(
    const std::string&, const std::string&,
    const std::function<void(Segmenter&)>&);

TrainedClassifier get_classifier(const std::string& name, const std::string& tag,
                                 const ClsPreprocessor* prep) {
  TrainedClassifier out =
      load_or_train<ClsFamily>(name, tag, [&](Classifier& model) {
        TrainConfig cfg;
        // Transformers need the Adam recipe to converge from scratch at this
        // scale; convnets use SGD+momentum (both mirror common practice).
        if (name.rfind("ViT", 0) == 0 || name.rfind("Swin", 0) == 0) {
          cfg.use_adam = true;
          cfg.lr = 1.5e-3f;
          cfg.epochs = 30;
        }
        train_classifier(model, ClsFamily::dataset().train,
                         prep != nullptr
                             ? *prep
                             : default_cls_preprocessor(ClsFamily::spec()),
                         cfg);
      });
  out.tag = tag;
  return out;
}

TrainedDetector get_detector(const std::string& name) {
  return load_or_train<DetFamily>(name, "", [](Detector& model) {
    TrainConfig cfg;
    cfg.epochs = 16;
    cfg.batch_size = 8;
    cfg.lr = 0.02f;
    train_detector(model, DetFamily::dataset(), DetFamily::spec(), cfg);
  });
}

TrainedSegmenter get_segmenter(const std::string& name) {
  return load_or_train<SegFamily>(name, "", [](Segmenter& model) {
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batch_size = 8;
    cfg.lr = 0.05f;
    train_segmenter(model, SegFamily::dataset(), SegFamily::spec(), cfg);
  });
}

}  // namespace sysnoise::models

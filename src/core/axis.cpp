#include "core/axis.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sysnoise::core {

const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::kClassification: return "classification";
    case TaskKind::kDetection: return "detection";
    case TaskKind::kSegmentation: return "segmentation";
    case TaskKind::kNlp: return "nlp";
    case TaskKind::kTts: return "tts";
  }
  return "?";
}

namespace {

// Gate for the image pre-processing axes (decode/resize/color/norm/layout):
// NLP and TTS tasks have no image pipeline to perturb.
bool applies_to_images(const TaskTraits& t) { return is_image_kind(t.kind); }

}  // namespace

void AxisRegistry::add(NoiseAxis axis) {
  if (axis.name.empty() || axis.option_labels.empty() || !axis.apply)
    throw std::invalid_argument("AxisRegistry::add: axis needs a name, at "
                                "least one option and an apply function");
  if (find(axis.name) != nullptr)
    throw std::invalid_argument("AxisRegistry::add: duplicate axis " + axis.name);
  if (axis.step_label.empty()) axis.step_label = axis.name;
  if (axis.key.empty()) axis.key = axis.name;
  if (find_by_key(axis.key) != nullptr)
    throw std::invalid_argument("AxisRegistry::add: duplicate axis key " +
                                axis.key);
  axes_.push_back(std::move(axis));
}

const NoiseAxis* AxisRegistry::find(const std::string& name) const {
  for (const NoiseAxis& a : axes_)
    if (a.name == name) return &a;
  return nullptr;
}

const NoiseAxis* AxisRegistry::find_by_key(const std::string& key) const {
  for (const NoiseAxis& a : axes_)
    if (a.key == key) return &a;
  return nullptr;
}

std::vector<const NoiseAxis*> AxisRegistry::applicable(
    const TaskTraits& traits) const {
  std::vector<const NoiseAxis*> out;
  for (const NoiseAxis& a : axes_)
    if (a.applies_to(traits)) out.push_back(&a);
  return out;
}

AxisRegistry& AxisRegistry::global() {
  static AxisRegistry reg = [] {
    AxisRegistry r;
    for (NoiseAxis& a : builtin_axes()) r.add(std::move(a));
    return r;
  }();
  return reg;
}

std::vector<NoiseAxis> builtin_axes() {
  std::vector<NoiseAxis> axes;

  {
    NoiseAxis a;
    a.name = "Decode";
    a.key = "decode";
    const auto vendors = decoder_noise_options();
    for (auto v : vendors) a.option_labels.push_back(jpeg::vendor_name(v));
    a.apply = [vendors](SysNoiseConfig& cfg, int i) { cfg.decoder = vendors[i]; };
    // Worst common vendor (the DALI-class decoder) drives Combined/Fig. 3.
    a.combined_option = static_cast<int>(
        std::find(vendors.begin(), vendors.end(), jpeg::DecoderVendor::kDALI) -
        vendors.begin());
    a.applies = applies_to_images;
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "High";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Resize";
    a.key = "resize";
    const auto methods = resize_noise_options();
    for (auto m : methods) a.option_labels.push_back(resize_method_name(m));
    a.apply = [methods](SysNoiseConfig& cfg, int i) { cfg.resize = methods[i]; };
    a.combined_option = static_cast<int>(
        std::find(methods.begin(), methods.end(), ResizeMethod::kOpenCVNearest) -
        methods.begin());
    a.applies = applies_to_images;
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "Very High";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Crop";
    a.key = "crop";
    const auto fractions = crop_noise_options();
    for (auto f : fractions) {
      std::ostringstream label;
      label << "center-" << f;
      a.option_labels.push_back(label.str());
    }
    a.apply = [fractions](SysNoiseConfig& cfg, int i) {
      cfg.crop_fraction = fractions[static_cast<std::size_t>(i)];
    };
    // Crop-geometry mismatch is a classification-pipeline phenomenon (the
    // torchvision resize-then-center-crop convention); detection and
    // segmentation pipelines resize to the full input and would shift the
    // image against its ground-truth geometry.
    a.applies = [](const TaskTraits& t) {
      return t.kind == TaskKind::kClassification;
    };
    a.stage = "Pre-processing";
    a.tasks_label = "Cls";
    a.input_dependent = true;
    a.effect_level = "Middle";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Color Mode";
    a.key = "color";
    const auto modes = color_noise_options();
    for (auto m : modes) a.option_labels.push_back(color_mode_name(m));
    a.apply = [modes](SysNoiseConfig& cfg, int i) { cfg.color = modes[i]; };
    a.applies = applies_to_images;
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.input_dependent = true;
    a.effect_level = "Middle";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Normalize";
    a.key = "normalize";
    const auto stats = norm_noise_options();
    for (auto s : stats) a.option_labels.push_back(norm_stats_name(s));
    a.apply = [stats](SysNoiseConfig& cfg, int i) { cfg.norm = stats[i]; };
    // Integer-quantized means are the mismatch real converter stacks ship
    // (Caffe/TFLite bake round(mean*255)); that option drives Combined and
    // the Fig. 3 accumulation. The 0.5/0.5 option models generic mobile
    // runtime defaults and is far more destructive.
    a.combined_option = 0;
    a.applies = applies_to_images;
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "Middle";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Layout";
    a.key = "layout";
    const auto layouts = layout_noise_options();
    for (auto l : layouts) a.option_labels.push_back(channel_layout_name(l));
    a.apply = [layouts](SysNoiseConfig& cfg, int i) {
      cfg.layout = layouts[static_cast<std::size_t>(i)];
    };
    a.applies = applies_to_images;
    a.step_label = "NHWC";
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.input_dependent = true;
    a.effect_level = "Middle";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Precision";
    a.key = "precision";
    const auto precisions = precision_noise_options();
    for (auto p : precisions) a.option_labels.push_back(nn::precision_name(p));
    a.apply = [precisions](SysNoiseConfig& cfg, int i) {
      cfg.precision = precisions[i];
    };
    a.per_option = true;  // report FP16 and INT8 as separate columns
    a.combined_option = static_cast<int>(
        std::find(precisions.begin(), precisions.end(), nn::Precision::kINT8) -
        precisions.begin());
    a.step_label = "INT8";
    a.stage = "Model inference";
    a.tasks_label = "Cls/Det/Seg/NLP/TTS";
    a.input_dependent = true;
    a.effect_level = "High";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Backend";
    a.key = "backend";
    const auto backends = backend_noise_options();
    for (auto b : backends) a.option_labels.push_back(backend_name(b));
    a.apply = [backends](SysNoiseConfig& cfg, int i) {
      cfg.backend = backends[static_cast<std::size_t>(i)];
    };
    a.per_option = true;  // each kernel family is its own deployment column
    // The vectorized kernel is what a real deployment runtime would ship —
    // FMA contraction and lane-wise partial sums are the representative
    // hardware/implementation drift for Combined/Fig. 3. When simd *is* the
    // process default (SYSNOISE_BACKEND=simd) it is not an alternate; fall
    // back to the first option.
    const auto simd_it =
        std::find(backends.begin(), backends.end(), ComputeBackend::kSimd);
    a.combined_option =
        simd_it != backends.end()
            ? static_cast<int>(simd_it - backends.begin())
            : 0;
    a.step_label = "SIMD";
    a.stage = "Model inference";
    a.tasks_label = "Cls/Det/Seg/NLP/TTS";
    a.input_dependent = true;
    a.effect_level = "Low";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Ceil Mode";
    a.key = "ceil";
    a.option_labels = {"ceil"};
    a.applies = [](const TaskTraits& t) { return t.has_maxpool; };
    a.apply = [](SysNoiseConfig& cfg, int) { cfg.ceil_mode = true; };
    a.stage = "Model inference";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "High";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Upsample";
    a.key = "upsample";
    a.option_labels = {"bilinear"};
    a.applies = [](const TaskTraits& t) {
      return t.kind == TaskKind::kDetection || t.kind == TaskKind::kSegmentation;
    };
    a.apply = [](SysNoiseConfig& cfg, int) {
      cfg.upsample = nn::UpsampleMode::kBilinear;
    };
    a.stage = "Model inference";
    a.tasks_label = "Det/Seg";
    a.effect_level = "Very High";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Post-proc";
    a.key = "postproc";
    a.step_label = "Post processing";
    a.option_labels = {"offset-1"};
    a.applies = [](const TaskTraits& t) { return t.kind == TaskKind::kDetection; };
    a.apply = [](SysNoiseConfig& cfg, int) { cfg.proposal_offset = 1.0f; };
    a.stage = "Post-processing";
    a.tasks_label = "Det";
    a.effect_level = "Middle";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Tokenizer";
    a.key = "tokenizer";
    const auto profiles = tokenizer_noise_options();
    for (auto p : profiles) a.option_labels.push_back(tokenizer_profile_name(p));
    a.apply = [profiles](SysNoiseConfig& cfg, int i) {
      cfg.tokenizer = profiles[static_cast<std::size_t>(i)];
    };
    a.applies = [](const TaskTraits& t) { return t.kind == TaskKind::kNlp; };
    // The mild truncation (trunc-12) is what a pruned-embedding export
    // actually ships; it drives Combined. trunc-8 is the stress option.
    a.combined_option = 0;
    a.stage = "Pre-processing";
    a.tasks_label = "NLP";
    a.input_dependent = true;
    a.effect_level = "High";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Resample";
    a.key = "resample";
    const auto ratios = resample_noise_options();
    for (auto r : ratios) {
      std::ostringstream label;
      label << "round-" << r;
      a.option_labels.push_back(label.str());
    }
    a.apply = [ratios](SysNoiseConfig& cfg, int i) {
      cfg.resample_ratio = ratios[static_cast<std::size_t>(i)];
    };
    a.applies = [](const TaskTraits& t) { return t.kind == TaskKind::kTts; };
    a.combined_option = 0;  // the gentler 0.75 round trip drives Combined
    a.stage = "Pre-processing";
    a.tasks_label = "TTS";
    a.input_dependent = true;
    a.effect_level = "Middle";
    axes.push_back(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Stft";
    a.key = "stft";
    // Option 0 swaps the STFT operator implementation (the Table 10
    // "STFT operator" column); options 1/2 perturb the window/hop geometry
    // while keeping the reference operator.
    a.option_labels = {audio::stft_impl_name(audio::StftImpl::kFastFixed),
                       "win-48", "hop-16"};
    a.apply = [](SysNoiseConfig& cfg, int i) {
      if (i == 0)
        cfg.stft_impl = audio::StftImpl::kFastFixed;
      else if (i == 1)
        cfg.stft_window = 48;
      else
        cfg.stft_hop = 16;
    };
    a.applies = [](const TaskTraits& t) { return t.kind == TaskKind::kTts; };
    a.combined_option = 0;  // implementation swap is the legacy combined row
    a.stage = "Pre-processing";
    a.tasks_label = "TTS";
    a.input_dependent = true;
    a.effect_level = "High";
    axes.push_back(std::move(a));
  }

  return axes;
}

SysNoiseConfig combined_config(const TaskTraits& traits,
                               const AxisRegistry& registry) {
  SysNoiseConfig cfg = SysNoiseConfig::training_default();
  for (const NoiseAxis* axis : registry.applicable(traits))
    axis->apply(cfg, axis->combined_option);
  return cfg;
}

SysNoiseConfig combined_config(const TaskTraits& traits) {
  return combined_config(traits, AxisRegistry::global());
}

SysNoiseConfig combined_config(bool has_maxpool, bool with_upsample,
                               bool with_postproc) {
  // Legacy-faithful: each flag gates its axis independently (the traits
  // form would also enable Upsample whenever Post-proc applies), over the
  // built-in axes only. The old runner was detection-flavored, so kind-
  // gated axes outside the three flags (e.g. the classification-only Crop)
  // follow detection applicability.
  SysNoiseConfig cfg = SysNoiseConfig::training_default();
  const TaskTraits legacy{TaskKind::kDetection, has_maxpool};
  for (const NoiseAxis& axis : builtin_axes()) {
    if ((axis.name == "Ceil Mode" && !has_maxpool) ||
        (axis.name == "Upsample" && !with_upsample) ||
        (axis.name == "Post-proc" && !with_postproc))
      continue;
    if (axis.name != "Upsample" && axis.name != "Post-proc" &&
        !axis.applies_to(legacy))
      continue;
    axis.apply(cfg, axis.combined_option);
  }
  return cfg;
}

}  // namespace sysnoise::core

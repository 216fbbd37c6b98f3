// First-class representation of the SysNoise taxonomy (Table 1): each
// deployment-noise axis is a NoiseAxis value in a registry instead of a
// hardcoded field of the old NoiseRow. New axes register themselves here
// and flow through the sweep engine, reports and benches untouched.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "data/noise_config.h"

namespace sysnoise::core {

enum class TaskKind { kClassification, kDetection, kSegmentation, kNlp, kTts };

const char* task_kind_name(TaskKind k);

// Modality buckets for axis gating: the three vision tasks share the image
// pre-processing pipeline; NLP and TTS bring their own front-ends, so
// image-only axes must never plan against them (and vice versa).
constexpr bool is_image_kind(TaskKind k) {
  return k == TaskKind::kClassification || k == TaskKind::kDetection ||
         k == TaskKind::kSegmentation;
}

// What the sweep engine knows about a model/task pair when deciding which
// axes apply (e.g. ceil-mode needs a stride-2 max-pool).
struct TaskTraits {
  TaskKind kind = TaskKind::kClassification;
  bool has_maxpool = false;
};

// One noise axis: a named set of deployment options that perturb the
// SysNoiseConfig away from the training default.
struct NoiseAxis {
  std::string name;        // table column header, e.g. "Decode"
  std::string key;         // machine/CSV key, e.g. "decode"
  std::string step_label;  // Fig. 3 cumulative-step label (defaults to name)
  std::vector<std::string> option_labels;  // one per deployment option
  std::function<bool(const TaskTraits&)> applies;
  std::function<void(SysNoiseConfig&, int)> apply;  // flip cfg to option i
  // Rendering hint: per-option axes (Precision) get one report column per
  // option; the rest render one cell ("mean (max)" when multi-option).
  bool per_option = false;
  // Option index used for the Combined column and Fig. 3 stepwise curve.
  int combined_option = 0;
  // Table 1 taxonomy metadata.
  std::string stage;         // "Pre-processing" | "Model inference" | ...
  std::string tasks_label;   // "Cls/Det/Seg" etc.
  bool input_dependent = false;
  std::string effect_level;  // "Middle" | "High" | "Very High"

  int num_options() const { return static_cast<int>(option_labels.size()); }
  // Option count as Table 1 reports it (deployment options + the training
  // default).
  int taxonomy_categories() const { return num_options() + 1; }
  bool applies_to(const TaskTraits& t) const { return !applies || applies(t); }
};

// Ordered axis registry. Registration order is report/step order.
class AxisRegistry {
 public:
  AxisRegistry() = default;

  // Process-wide registry, pre-populated with the Table 1 axes.
  static AxisRegistry& global();

  void add(NoiseAxis axis);
  const std::vector<NoiseAxis>& axes() const { return axes_; }
  // Lookup by display name (table header, e.g. "Color Mode").
  const NoiseAxis* find(const std::string& name) const;
  // Lookup by machine key (e.g. "color") — what CSV columns and serialized
  // SweepPlans reference axes by.
  const NoiseAxis* find_by_key(const std::string& key) const;
  std::vector<const NoiseAxis*> applicable(const TaskTraits& traits) const;

 private:
  std::vector<NoiseAxis> axes_;
};

// The built-in Table 1 axes in paper order (decode, resize, color,
// precision, ceil, upsample, post-proc). Used to seed global(); exposed so
// tests can build private registries.
std::vector<NoiseAxis> builtin_axes();

// Deployment config with every applicable axis flipped to its combined
// option (the Combined column; Fig. 3 adds them one at a time).
SysNoiseConfig combined_config(const TaskTraits& traits,
                               const AxisRegistry& registry);
SysNoiseConfig combined_config(const TaskTraits& traits);

// Back-compat flag form: (has_maxpool, with_upsample, with_postproc) maps
// to classification / segmentation / detection traits.
SysNoiseConfig combined_config(bool has_maxpool, bool with_upsample,
                               bool with_postproc);

}  // namespace sysnoise::core

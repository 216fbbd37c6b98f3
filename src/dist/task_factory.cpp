#include "dist/task_factory.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "audio/eval_task.h"
#include "core/axis.h"
#include "core/learned_codec.h"
#include "core/mitigation.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "nlp/eval_task.h"

namespace sysnoise::dist {

namespace {

// Owns the trained model a task adapter borrows; heap-allocated (and never
// moved) so the adapter's reference stays valid for the worker's lifetime.
template <typename Trained, typename Task>
struct Holder {
  Trained trained;
  Task task;
  explicit Holder(Trained t) : trained(std::move(t)), task(trained) {}
};

template <typename Trained, typename Task>
ResolvedWorkerTask resolved(Trained trained, double trained_metric,
                            bool seed_baseline) {
  auto holder =
      std::make_shared<Holder<Trained, Task>>(std::move(trained));
  ResolvedWorkerTask out;
  out.task = &holder->task;
  if (seed_baseline)
    out.seeds.emplace(core::SweepCache::key_for(
                          holder->task, SysNoiseConfig::training_default()),
                      trained_metric);
  out.owner = std::move(holder);
  return out;
}

// NlpChoiceTask takes (trained, subtask), so the generic Holder's one-arg
// construction doesn't fit.
struct NlpHolder {
  nlp::TrainedLm trained;
  nlp::NlpChoiceTask task;
  NlpHolder(nlp::TrainedLm t, nlp::TaskKind k)
      : trained(std::move(t)), task(trained, k) {}
};

// Kinds of the two mitigation tasks; both wrap a classifier.
constexpr const char* kTentKind = "tent";
constexpr const char* kLearnedDecodeKind = "learned_decode";

}  // namespace

TaskSpec classifier_spec(const std::string& model, const std::string& tag) {
  TaskSpec spec;
  spec.kind = core::task_kind_name(core::TaskKind::kClassification);
  spec.model = model;
  spec.tag = tag;
  return spec;
}

TaskSpec tent_spec(const std::string& model) {
  TaskSpec spec;
  spec.kind = kTentKind;
  spec.model = model;
  return spec;
}

TaskSpec learned_decode_spec(const std::string& model, const std::string& tag) {
  TaskSpec spec;
  spec.kind = kLearnedDecodeKind;
  spec.model = model;
  spec.tag = tag;
  spec.seed_baseline = false;
  return spec;
}

TaskSpec detector_spec(const std::string& model) {
  TaskSpec spec;
  spec.kind = core::task_kind_name(core::TaskKind::kDetection);
  spec.model = model;
  return spec;
}

TaskSpec segmenter_spec(const std::string& model) {
  TaskSpec spec;
  spec.kind = core::task_kind_name(core::TaskKind::kSegmentation);
  spec.model = model;
  return spec;
}

TaskSpec nlp_spec(const std::string& model, const std::string& subtask) {
  TaskSpec spec;
  spec.kind = core::task_kind_name(core::TaskKind::kNlp);
  spec.model = model;
  spec.tag = subtask;
  spec.seed_baseline = false;
  return spec;
}

TaskSpec tts_spec(const std::string& model) {
  TaskSpec spec;
  spec.kind = core::task_kind_name(core::TaskKind::kTts);
  spec.model = model;
  spec.seed_baseline = false;
  return spec;
}

ResolvedWorkerTask resolve_zoo_task(const util::Json& spec_json) {
  const TaskSpec spec = TaskSpec::from_json(spec_json);
  if (spec.kind == core::task_kind_name(core::TaskKind::kClassification)) {
    auto tc = core::get_tagged_classifier(spec.model, spec.tag);
    const double metric = tc.trained_acc;
    return resolved<models::TrainedClassifier, models::ClassifierTask>(
        std::move(tc), metric, spec.seed_baseline);
  }
  if (spec.kind == kTentKind) {
    auto tc = models::get_classifier(spec.model);
    const double metric = tc.trained_acc;
    return resolved<models::TrainedClassifier, core::TentTask>(
        std::move(tc), metric, spec.seed_baseline);
  }
  if (spec.kind == kLearnedDecodeKind) {
    auto tc = core::get_tagged_classifier(spec.model, spec.tag);
    const double metric = tc.trained_acc;
    return resolved<models::TrainedClassifier, core::LearnedDecodeTask>(
        std::move(tc), metric, spec.seed_baseline);
  }
  if (spec.kind == core::task_kind_name(core::TaskKind::kDetection)) {
    auto td = models::get_detector(spec.model);
    const double metric = td.trained_map;
    return resolved<models::TrainedDetector, models::DetectorTask>(
        std::move(td), metric, spec.seed_baseline);
  }
  if (spec.kind == core::task_kind_name(core::TaskKind::kSegmentation)) {
    auto ts = models::get_segmenter(spec.model);
    const double metric = ts.trained_miou;
    return resolved<models::TrainedSegmenter, models::SegmenterTask>(
        std::move(ts), metric, spec.seed_baseline);
  }
  if (spec.kind == core::task_kind_name(core::TaskKind::kNlp)) {
    auto holder = std::make_shared<NlpHolder>(nlp::get_lm(spec.model),
                                              nlp::task_from_name(spec.tag));
    ResolvedWorkerTask out;
    out.task = &holder->task;
    out.owner = std::move(holder);
    return out;
  }
  if (spec.kind == core::task_kind_name(core::TaskKind::kTts)) {
    auto tt = audio::get_tts(spec.model);
    return resolved<audio::TrainedTts, audio::TtsTask>(
        std::move(tt), /*trained_metric=*/0.0, spec.seed_baseline);
  }
  throw std::invalid_argument("resolve_zoo_task: unknown task kind \"" +
                              spec.kind + "\"");
}

TaskResolver zoo_task_resolver() {
  return [](const util::Json& spec) { return resolve_zoo_task(spec); };
}

}  // namespace sysnoise::dist

// Zoo-backed task resolution for distributed workers: turn a TaskSpec
// ({kind, model, tag}) into a live StagedEvalTask over the shared benchmark
// dataset, training or loading the model exactly like the bench binaries
// do. Training is deterministic, so a worker resolving "classification /
// ResNet-M" holds bit-identical weights to the bench that planned the
// sweep — which is what makes the distributed report byte-identical to the
// single-process one.
#pragma once

#include "dist/protocol.h"
#include "dist/worker.h"

namespace sysnoise::dist {

// Build the spec for a zoo model (the submitting side of the contract).
TaskSpec classifier_spec(const std::string& model, const std::string& tag = "");
TaskSpec detector_spec(const std::string& model);
TaskSpec segmenter_spec(const std::string& model);
// NLP multiple-choice scoring (Table 5): `model` is an opt_mini_zoo name,
// `subtask` an nlp::task_name ("PIQA-like", ...), carried in the tag.
TaskSpec nlp_spec(const std::string& model, const std::string& subtask);
// TTS system discrepancy (Table 10): `model` is a tts_model_names entry.
TaskSpec tts_spec(const std::string& model);

// Resolve a TaskSpec JSON to a live task + baseline seed. Throws
// std::invalid_argument on an unknown kind/model.
ResolvedWorkerTask resolve_zoo_task(const util::Json& spec_json);

// The resolver the worker binary and bench --connect mode run with.
TaskResolver zoo_task_resolver();

}  // namespace sysnoise::dist

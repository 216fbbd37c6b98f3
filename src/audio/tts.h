// Text-to-speech SysNoise substrate (Appendix C / Table 10).
//
// The LJSpeech + FastSpeech2/Tacotron2 stack is replaced with: synthetic
// "utterances" (note-id sequences) whose waveform is a sum of sinusoids,
// a ground-truth spectrogram extracted by STFT, and two tiny spectrogram
// predictors — a feed-forward transformer ("FastSpeech-mini") and a
// convolutional one ("Tacotron-mini"). Deployment noise: model precision
// (FP16 / INT8) and the STFT operator used by the feature/vocoder path.
#pragma once

#include <memory>
#include <vector>

#include "audio/stft.h"
#include "data/noise_config.h"
#include "nn/layers.h"

namespace sysnoise::audio {

struct TtsSample {
  std::vector<int> tokens;     // note ids, fixed length
  std::vector<float> audio;    // synthesized waveform
};

struct TtsDatasetSpec {
  int vocab = 12;
  int seq_len = 8;           // notes per utterance
  int samples_per_note = 64; // waveform samples per note
  int train_items = 48;
  int eval_items = 16;
  std::uint64_t seed = 555;
};

struct TtsDataset {
  std::vector<TtsSample> train;
  std::vector<TtsSample> eval;
  TtsDatasetSpec spec;
  StftSpec stft;
};

TtsDataset make_tts_dataset(const TtsDatasetSpec& spec = {});

class TtsModel : public nn::Module {
 public:
  // tokens (batch of sequences) -> spectrogram [B, frames*bins].
  virtual nn::Node* forward(nn::Tape& t, const std::vector<int>& tokens, int batch,
                            int seq, nn::BnMode bn) = 0;
};

// name: "FastSpeech-mini" (transformer) | "Tacotron-mini" (conv).
std::unique_ptr<TtsModel> make_tts_model(const std::string& name,
                                         const TtsDataset& ds, Rng& rng);

// Train by MSE against reference-STFT spectrograms; returns final loss.
float train_tts(TtsModel& model, const TtsDataset& ds, int epochs, float lr,
                std::uint64_t seed = 3);

// The Table 10 metric: MSE between the *deployment* pipeline output and
// the *training* pipeline output. The training side is the model in FP32
// with reference-STFT features; the deployment side runs the model under
// the config's full InferenceCtx (precision/backend) and extracts features
// through the deployment front-end (audio/frontend.h: resample round trip,
// STFT impl/window/hop). Zero when the two systems agree; grows with each
// injected mismatch.
double tts_system_discrepancy(TtsModel& model, const TtsDataset& ds,
                              const SysNoiseConfig& cfg,
                              nn::ActRanges* ranges);

// Ground-truth/deployment feature accessor used by the staged adapter:
// stft_magnitude of the sample's waveform under the dataset spec.
Tensor tts_reference_features(const TtsSample& s, const TtsDataset& ds);

// Record activation ranges for INT8.
void calibrate_tts(TtsModel& model, const TtsDataset& ds, nn::ActRanges& ranges);

}  // namespace sysnoise::audio

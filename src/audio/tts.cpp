#include "audio/tts.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "audio/frontend.h"
#include "nn/ops_extra.h"
#include "nn/optim.h"

namespace sysnoise::audio {

using namespace sysnoise::nn;

namespace {

std::vector<float> synthesize(const std::vector<int>& tokens, int samples_per_note,
                              int vocab, Rng& rng) {
  std::vector<float> audio;
  audio.reserve(tokens.size() * static_cast<std::size_t>(samples_per_note));
  float phase = rng.uniform_f(0.0f, 2.0f * std::numbers::pi_v<float>);
  for (int tok : tokens) {
    // Note frequency ladder: normalized angular frequency per sample.
    const float omega = 2.0f * std::numbers::pi_v<float> *
                        (0.03f + 0.035f * static_cast<float>(tok) /
                                     static_cast<float>(vocab) * 10.0f);
    for (int i = 0; i < samples_per_note; ++i) {
      const float v = std::sin(phase) + 0.3f * std::sin(2.0f * phase);
      audio.push_back(0.6f * v);
      phase += omega;
    }
  }
  return audio;
}

}  // namespace

TtsDataset make_tts_dataset(const TtsDatasetSpec& spec) {
  Rng rng(spec.seed);
  TtsDataset ds;
  ds.spec = spec;
  ds.stft = StftSpec{.n_fft = 64, .hop = 32};
  auto emit = [&](std::vector<TtsSample>& out, int count) {
    for (int i = 0; i < count; ++i) {
      TtsSample s;
      s.tokens.resize(static_cast<std::size_t>(spec.seq_len));
      for (auto& t : s.tokens) t = rng.uniform_int(spec.vocab);
      s.audio = synthesize(s.tokens, spec.samples_per_note, spec.vocab, rng);
      out.push_back(std::move(s));
    }
  };
  emit(ds.train, spec.train_items);
  emit(ds.eval, spec.eval_items);
  return ds;
}

namespace {

int spec_frames(const TtsDataset& ds) {
  const int audio_len = ds.spec.seq_len * ds.spec.samples_per_note;
  return 1 + (audio_len - ds.stft.n_fft) / ds.stft.hop;
}

int spec_bins(const TtsDataset& ds) { return ds.stft.n_fft / 2 + 1; }

class FastSpeechMini : public TtsModel {
 public:
  FastSpeechMini(int vocab, int out_dim, Rng& rng)
      : embed_(vocab, 32, rng),
        pos_(Tensor({1, 64, 32})),
        block_(32, 4, 2, /*causal=*/false, rng, "fs.blk"),
        ln_(32),
        head_(32, out_dim, rng, "fs.head") {
    for (float& v : pos_.value.vec()) v = rng.normal_f(0.0f, 0.02f);
  }
  Node* forward(Tape& t, const std::vector<int>& tokens, int batch, int seq,
                BnMode) override {
    Node* x = embed_(t, tokens, batch, seq);
    x = add_pos_embedding(t, x, pos_);
    x = block_(t, x);
    x = ln_(t, x);
    Node* pooled = mean_tokens(t, x);  // [B, 32]
    return head_(t, pooled);
  }
  void walk(ModuleRefs& refs) override {
    refs.add(embed_, pos_, block_, ln_, head_);
  }

 private:
  Embedding embed_;
  Param pos_;
  TransformerBlock block_;
  LayerNorm ln_;
  Linear head_;
};

class TacotronMini : public TtsModel {
 public:
  TacotronMini(int vocab, int out_dim, Rng& rng)
      : embed_(vocab, 16, rng),
        conv1_(16, 24, 3, 1, 1, rng, "tc.c1"),
        bn1_(24),
        conv2_(24, 24, 3, 1, 1, rng, "tc.c2"),
        bn2_(24),
        head_(24, out_dim, rng, "tc.head") {}
  Node* forward(Tape& t, const std::vector<int>& tokens, int batch, int seq,
                BnMode bn) override {
    Node* x = embed_(t, tokens, batch, seq);                // [B, T, 16]
    // [B, T, 16] -> [B, 16, 1, T].
    Node* img = reshape(t, nchw_to_nhwc(t, reshape(t, x, {batch, seq, 1, 16})),
                        {batch, 16, 1, seq});
    Node* y = relu(t, bn1_(t, conv1_(t, img), bn));
    y = relu(t, bn2_(t, conv2_(t, y), bn));
    Node* pooled = global_avgpool(t, y);                    // [B, 24]
    return head_(t, pooled);
  }
  void walk(ModuleRefs& refs) override {
    refs.add(embed_, conv1_, bn1_, conv2_, bn2_, head_);
  }

 private:
  Embedding embed_;
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  Linear head_;
};

Tensor ground_truth_spec(const TtsSample& s, const TtsDataset& ds, StftImpl impl) {
  return stft_magnitude(s.audio, ds.stft, impl);
}

std::vector<int> flatten_tokens(const std::vector<const TtsSample*>& batch) {
  std::vector<int> out;
  for (const auto* s : batch)
    out.insert(out.end(), s->tokens.begin(), s->tokens.end());
  return out;
}

}  // namespace

std::unique_ptr<TtsModel> make_tts_model(const std::string& name,
                                         const TtsDataset& ds, Rng& rng) {
  const int out_dim = spec_frames(ds) * spec_bins(ds);
  if (name == "FastSpeech-mini")
    return std::make_unique<FastSpeechMini>(ds.spec.vocab, out_dim, rng);
  if (name == "Tacotron-mini")
    return std::make_unique<TacotronMini>(ds.spec.vocab, out_dim, rng);
  throw std::invalid_argument("make_tts_model: unknown model " + name);
}

float train_tts(TtsModel& model, const TtsDataset& ds, int epochs, float lr,
                std::uint64_t seed) {
  ParamRefs params;
  model.collect(params);
  Adam opt(params, lr);
  Rng rng(seed);
  const int n = static_cast<int>(ds.train.size());
  const int bs = 8;
  float last = 0.0f;
  for (int e = 0; e < epochs; ++e) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += bs) {
      const int cur = std::min(bs, n - b);
      std::vector<const TtsSample*> batch;
      for (int i = 0; i < cur; ++i)
        batch.push_back(&ds.train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])]);
      Tensor target({cur, spec_frames(ds) * spec_bins(ds)});
      for (int i = 0; i < cur; ++i) {
        const Tensor gt = ground_truth_spec(*batch[static_cast<std::size_t>(i)], ds,
                                            StftImpl::kReference);
        target.set_front(i, gt.reshaped({static_cast<int>(gt.size())}));
      }
      Tape t;
      t.training = true;
      opt.zero_grad();
      Node* pred = model.forward(t, flatten_tokens(batch), cur, ds.spec.seq_len,
                                 BnMode::kTrain);
      Node* loss = mse_loss(t, pred, target);
      t.backward(loss);
      opt.step();
      last = loss->value[0];
    }
  }
  return last;
}

double tts_system_discrepancy(TtsModel& model, const TtsDataset& ds,
                              const SysNoiseConfig& cfg, ActRanges* ranges) {
  double total = 0.0;
  for (const auto& s : ds.eval) {
    // Training-side pipeline output: FP32 prediction residual against the
    // reference-STFT features.
    Tape t0;
    t0.ctx.precision = Precision::kFP32;
    t0.ctx.ranges = ranges;
    Node* ref_pred = model.forward(t0, s.tokens, 1, ds.spec.seq_len, BnMode::kEval);
    const Tensor ref_feat = ground_truth_spec(s, ds, StftImpl::kReference);

    Tape t1;
    t1.ctx = cfg.inference_ctx(ranges);
    Node* dep_pred = model.forward(t1, s.tokens, 1, ds.spec.seq_len, BnMode::kEval);
    const Tensor dep_feat = deployment_features(s.audio, ds.stft, cfg);

    // Residual the downstream vocoder consumes: prediction minus features.
    Tensor r_train = ref_pred->value;
    r_train.sub_(ref_feat.reshaped({1, static_cast<int>(ref_feat.size())}));
    Tensor r_deploy = dep_pred->value;
    r_deploy.sub_(dep_feat.reshaped({1, static_cast<int>(dep_feat.size())}));
    total += mse(r_deploy, r_train);
  }
  return total / static_cast<double>(ds.eval.size());
}

Tensor tts_reference_features(const TtsSample& s, const TtsDataset& ds) {
  return ground_truth_spec(s, ds, StftImpl::kReference);
}

void calibrate_tts(TtsModel& model, const TtsDataset& ds, ActRanges& ranges) {
  for (std::size_t i = 0; i < ds.train.size() && i < 16; ++i) {
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, ds.train[i].tokens, 1, ds.spec.seq_len, BnMode::kEval);
  }
}

}  // namespace sysnoise::audio

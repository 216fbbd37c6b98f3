#include "core/learned_codec.h"

#include <algorithm>

#include "models/zoo.h"
#include "nn/optim.h"
#include "nn/serialize.h"

namespace sysnoise::core {

using namespace sysnoise::nn;

struct LearnedCodec::Impl {
  Conv2d enc1, enc2, dec1, dec2;
  Impl(Rng& rng)
      : enc1(3, 12, 3, 2, 1, rng, "ae.e1"),
        enc2(12, 12, 3, 1, 1, rng, "ae.e2"),
        dec1(12, 12, 3, 1, 1, rng, "ae.d1"),
        dec2(12, 3, 3, 1, 1, rng, "ae.d2") {}

  Node* forward(Tape& t, Node* x) {
    Node* h = relu(t, enc1(t, x));   // half resolution bottleneck
    h = relu(t, enc2(t, h));
    h = upsample2x(t, h);
    h = relu(t, dec1(t, h));
    return dec2(t, h);               // residual-free direct reconstruction
  }
  void walk(ModuleRefs& refs) { refs.add(enc1, enc2, dec1, dec2); }
};

LearnedCodec::LearnedCodec(Rng& rng) : impl_(std::make_shared<Impl>(rng)) {}

void LearnedCodec::walk(ModuleRefs& refs) { impl_->walk(refs); }

ImageU8 LearnedCodec::reconstruct(const ImageU8& img) {
  // Normalize to [0,1]; reconstruct; back to uint8.
  Tensor x = image_to_tensor_raw(img);
  x.mul_(1.0f / 255.0f);
  Tape t;
  Node* y = impl_->forward(t, t.input(x));
  Tensor out = y->value;
  out.mul_(255.0f);
  return tensor_to_image(out);
}

float LearnedCodec::train(const std::vector<data::ClsSample>& samples, int epochs,
                          float lr) {
  ParamRefs params;
  collect(params);
  Adam opt(params, lr);
  Rng rng(17);
  float last = 0.0f;
  const int n = static_cast<int>(samples.size());
  for (int e = 0; e < epochs; ++e) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += 8) {
      const int bs = std::min(8, n - b);
      std::vector<Tensor> imgs;
      for (int i = 0; i < bs; ++i) {
        const ImageU8 img = jpeg::decode(
            samples[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])].jpeg,
            jpeg::DecoderVendor::kPillow);
        Tensor x = image_to_tensor_raw(img);
        x.mul_(1.0f / 255.0f);
        imgs.push_back(std::move(x));
      }
      Tensor batch = models::stack_batch(imgs);
      Tape t;
      t.training = true;
      opt.zero_grad();
      Node* y = impl_->forward(t, t.input(batch));
      Node* loss = mse_loss(t, y, batch);
      t.backward(loss);
      opt.step();
      last = loss->value[0];
    }
  }
  return last;
}

std::shared_ptr<LearnedCodec> get_learned_codec() {
  static std::shared_ptr<LearnedCodec> codec = [] {
    Rng rng(404);
    auto c = std::make_shared<LearnedCodec>(rng);
    ParamRefs params;
    c->collect(params);
    const std::string path = models::cache_dir() + "/learned_codec_v1.weights";
    if (!load_params(path, params)) {
      c->train(models::benchmark_cls_dataset().train, /*epochs=*/12, 2e-3f);
      save_params(path, params);
    }
    return c;
  }();
  return codec;
}

Tensor preprocess_learned(const std::vector<std::uint8_t>& jpeg_bytes,
                          LearnedCodec& codec, const PipelineSpec& spec) {
  const SysNoiseConfig cfg = SysNoiseConfig::training_default();
  ImageU8 decoded = jpeg::decode(jpeg_bytes, cfg.decoder);
  decoded = codec.reconstruct(decoded);
  const ImageU8 resized = resize(decoded, spec.out_h, spec.out_w, cfg.resize);
  return image_to_tensor(resized, spec.mean, spec.stddev);
}

models::ClsPreprocessor learned_decoder_preprocessor(const PipelineSpec& spec) {
  auto codec = get_learned_codec();
  return [spec, codec](const data::ClsSample& s, Rng&) {
    return preprocess_learned(s.jpeg, *codec, spec);
  };
}

LearnedDecodeTask::LearnedDecodeTask(models::TrainedClassifier& tc)
    : tc_(tc), codec_(get_learned_codec()), name_(tc.name + " (Learned decode)") {}

TaskTraits LearnedDecodeTask::traits() const {
  return {TaskKind::kClassification, tc_.model->has_maxpool()};
}

double LearnedDecodeTask::evaluate(const SysNoiseConfig& cfg) const {
  const auto& eval = models::benchmark_cls_dataset().eval;
  const PipelineSpec spec = models::cls_pipeline_spec();
  constexpr int kBatch = 16;
  const int n = static_cast<int>(eval.size());
  PreprocessedBatches batches;
  batches.batch_size = kBatch;
  batches.num_samples = n;
  for (int b = 0; b < n; b += kBatch) {
    std::vector<Tensor> inputs;
    for (int i = b; i < std::min(b + kBatch, n); ++i)
      inputs.push_back(
          preprocess_learned(eval[static_cast<std::size_t>(i)].jpeg, *codec_, spec));
    batches.inputs.push_back(models::stack_batch(inputs));
  }
  return models::eval_classifier_batches(*tc_.model, batches, eval, cfg,
                                         &tc_.ranges);
}

}  // namespace sysnoise::core

#include "core/mitigation.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>

#include "audio/fft.h"
#include "core/learned_codec.h"
#include "image/synthetic.h"
#include "models/zoo.h"
#include "nn/optim.h"

namespace sysnoise::core {

using models::ClsPreprocessor;

models::ClsPreprocessor mix_training_preprocessor(const PipelineSpec& spec,
                                                  bool mix_decoder,
                                                  bool mix_resize) {
  return [spec, mix_decoder, mix_resize](const data::ClsSample& s, Rng& rng) {
    SysNoiseConfig cfg = SysNoiseConfig::training_default();
    if (mix_decoder)
      cfg.decoder = static_cast<jpeg::DecoderVendor>(
          rng.uniform_int(jpeg::kNumDecoderVendors));
    if (mix_resize)
      cfg.resize = all_resize_methods()[static_cast<std::size_t>(
          rng.uniform_int(kNumResizeMethods))];
    return preprocess(s.jpeg, cfg, spec);
  };
}

models::ClsPreprocessor fixed_config_preprocessor(const PipelineSpec& spec,
                                                  const SysNoiseConfig& cfg) {
  return [spec, cfg](const data::ClsSample& s, Rng&) {
    return preprocess(s.jpeg, cfg, spec);
  };
}

const char* aug_strategy_name(AugStrategy s) {
  switch (s) {
    case AugStrategy::kStandard: return "Standard";
    case AugStrategy::kAprSp: return "APR-SP";
    case AugStrategy::kDeepaugAprSp: return "Deepaug+APR-SP";
    case AugStrategy::kDeepaugAugmix: return "Deepaug+AugMix";
    case AugStrategy::kDeepaug: return "Deepaug";
    case AugStrategy::kAugmix: return "AugMix";
  }
  return "?";
}

namespace {

// ---- image-space augmentation primitives (operate on ImageU8) -------------

ImageU8 flip_horizontal(const ImageU8& img) {
  ImageU8 out(img.height(), img.width(), img.channels());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < img.channels(); ++c)
        out.at(y, x, c) = img.at(y, img.width() - 1 - x, c);
  return out;
}

ImageU8 translate(const ImageU8& img, int dy, int dx) {
  ImageU8 out(img.height(), img.width(), img.channels());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < img.channels(); ++c)
        out.at(y, x, c) = img.at_clamped(y + dy, x + dx, c);
  return out;
}

ImageU8 brightness(const ImageU8& img, float delta) {
  ImageU8 out = img;
  for (auto& v : out.vec()) v = clamp_u8f(static_cast<float>(v) + delta);
  return out;
}

ImageU8 contrast(const ImageU8& img, float gain) {
  ImageU8 out = img;
  for (auto& v : out.vec())
    v = clamp_u8f((static_cast<float>(v) - 128.0f) * gain + 128.0f);
  return out;
}

ImageU8 posterize(const ImageU8& img, int keep_bits) {
  const int mask = 0xFF << (8 - keep_bits);
  ImageU8 out = img;
  for (auto& v : out.vec()) v = static_cast<std::uint8_t>(v & mask);
  return out;
}

ImageU8 color_jitter(const ImageU8& img, Rng& rng) {
  float gain[3], bias[3];
  for (int c = 0; c < 3; ++c) {
    gain[c] = rng.uniform_f(0.8f, 1.2f);
    bias[c] = rng.uniform_f(-18.0f, 18.0f);
  }
  ImageU8 out(img.height(), img.width(), img.channels());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < 3; ++c)
        out.at(y, x, c) = clamp_u8f(static_cast<float>(img.at(y, x, c)) * gain[c] +
                                    bias[c]);
  return out;
}

ImageU8 blend(const ImageU8& a, const ImageU8& b, float w) {
  ImageU8 out(a.height(), a.width(), a.channels());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.vec()[i] = clamp_u8f(w * static_cast<float>(a.vec()[i]) +
                             (1.0f - w) * static_cast<float>(b.vec()[i]));
  return out;
}

ImageU8 random_op(const ImageU8& img, Rng& rng) {
  switch (rng.uniform_int(5)) {
    case 0: return flip_horizontal(img);
    case 1: return translate(img, rng.uniform_int(7) - 3, rng.uniform_int(7) - 3);
    case 2: return brightness(img, rng.uniform_f(-30.0f, 30.0f));
    case 3: return contrast(img, rng.uniform_f(0.7f, 1.3f));
    default: return posterize(img, 5 + rng.uniform_int(3));
  }
}

ImageU8 augmix_lite(const ImageU8& img, Rng& rng) {
  // Two chains of 1-2 ops blended with the original (AugMix's core idea).
  ImageU8 chain1 = random_op(img, rng);
  if (rng.bernoulli(0.5)) chain1 = random_op(chain1, rng);
  ImageU8 chain2 = random_op(img, rng);
  const ImageU8 mixed = blend(chain1, chain2, rng.uniform_f(0.3f, 0.7f));
  return blend(img, mixed, rng.uniform_f(0.4f, 0.7f));
}

ImageU8 deepaug_lite(const ImageU8& img, Rng& rng) {
  // DeepAug distorts images through a perturbed generative network; the
  // lite stand-in composes strong stochastic color/noise distortions.
  ImageU8 out = color_jitter(img, rng);
  add_pixel_noise(out, rng.uniform_f(2.0f, 8.0f), rng);
  if (rng.bernoulli(0.3)) out = posterize(out, 5);
  return out;
}

// APR-SP: keep the *phase* of img, take the *amplitude* from a partner
// (per channel, full-image 2D FFT). Sizes are powers of two (32x32).
ImageU8 apr_sp(const ImageU8& img, const ImageU8& partner, Rng& rng) {
  const int h = img.height(), w = img.width();
  if (!audio::is_power_of_two(h) || !audio::is_power_of_two(w) ||
      partner.height() != h || partner.width() != w)
    return img;
  ImageU8 out(h, w, 3);
  const bool swap = rng.bernoulli(0.5);  // APR-S vs APR-P direction
  for (int c = 0; c < 3; ++c) {
    // 2D FFT = rows then columns.
    auto fft2 = [&](const ImageU8& src) {
      std::vector<std::vector<std::complex<float>>> rows(
          static_cast<std::size_t>(h));
      for (int y = 0; y < h; ++y) {
        std::vector<std::complex<float>> row(static_cast<std::size_t>(w));
        for (int x = 0; x < w; ++x)
          row[static_cast<std::size_t>(x)] = static_cast<float>(src.at(y, x, c));
        audio::fft_radix2(row);
        rows[static_cast<std::size_t>(y)] = std::move(row);
      }
      for (int x = 0; x < w; ++x) {
        std::vector<std::complex<float>> col(static_cast<std::size_t>(h));
        for (int y = 0; y < h; ++y) col[static_cast<std::size_t>(y)] = rows[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)];
        audio::fft_radix2(col);
        for (int y = 0; y < h; ++y) rows[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = col[static_cast<std::size_t>(y)];
      }
      return rows;
    };
    auto fa = fft2(swap ? partner : img);   // amplitude source
    auto fp = fft2(swap ? img : partner);   // phase source... (see below)
    // Recombine: amplitude of fa with phase of the *original* image's
    // spectrum (APR keeps the structured phase of the clean image).
    auto forig = fft2(img);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const float amp = std::abs(fa[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)]);
        const float phase = std::arg(forig[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)]);
        fp[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
            std::polar(amp, phase);
      }
    // Inverse 2D FFT.
    for (int x = 0; x < w; ++x) {
      std::vector<std::complex<float>> col(static_cast<std::size_t>(h));
      for (int y = 0; y < h; ++y) col[static_cast<std::size_t>(y)] = fp[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)];
      audio::fft_radix2(col, /*inverse=*/true);
      for (int y = 0; y < h; ++y) fp[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = col[static_cast<std::size_t>(y)];
    }
    for (int y = 0; y < h; ++y) {
      auto row = fp[static_cast<std::size_t>(y)];
      audio::fft_radix2(row, /*inverse=*/true);
      for (int x = 0; x < w; ++x)
        out.at(y, x, c) = clamp_u8f(row[static_cast<std::size_t>(x)].real());
    }
  }
  return out;
}

}  // namespace

models::ClsPreprocessor augmented_preprocessor(const PipelineSpec& spec,
                                               AugStrategy strategy) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  // Partner pool for APR-SP amplitude swaps.
  const auto& pool = models::benchmark_cls_dataset().train;
  return [spec, train_cfg, strategy, &pool](const data::ClsSample& s, Rng& rng) {
    ImageU8 img = preprocess_image(s.jpeg, train_cfg, spec);
    auto apply_apr = [&](ImageU8 base) {
      const auto& partner =
          pool[static_cast<std::size_t>(rng.uniform_int(static_cast<int>(pool.size())))];
      const ImageU8 pimg = preprocess_image(partner.jpeg, train_cfg, spec);
      return apr_sp(base, pimg, rng);
    };
    switch (strategy) {
      case AugStrategy::kStandard:
        if (rng.bernoulli(0.5)) img = flip_horizontal(img);
        img = translate(img, rng.uniform_int(5) - 2, rng.uniform_int(5) - 2);
        break;
      case AugStrategy::kAprSp:
        if (rng.bernoulli(0.7)) img = apply_apr(img);
        break;
      case AugStrategy::kDeepaugAprSp:
        img = deepaug_lite(img, rng);
        if (rng.bernoulli(0.5)) img = apply_apr(img);
        break;
      case AugStrategy::kDeepaugAugmix:
        img = deepaug_lite(img, rng);
        img = augmix_lite(img, rng);
        break;
      case AugStrategy::kDeepaug:
        img = deepaug_lite(img, rng);
        break;
      case AugStrategy::kAugmix:
        img = augmix_lite(img, rng);
        break;
    }
    return image_to_tensor(img, spec.mean, spec.stddev);
  };
}

float train_classifier_fgsm(models::Classifier& model,
                            const std::vector<data::ClsSample>& train,
                            const models::ClsPreprocessor& prep,
                            const models::TrainConfig& cfg) {
  constexpr float epsilon = 0.05f;
  nn::ParamRefs params;
  model.collect(params);
  return models::train_loop(
      params, static_cast<int>(train.size()), cfg,
      [&](nn::Tape& t, const std::vector<int>& idx, Rng& rng) {
        std::vector<Tensor> inputs;
        std::vector<int> labels;
        for (const int i : idx) {
          const auto& s = train[static_cast<std::size_t>(i)];
          inputs.push_back(prep(s, rng));
          labels.push_back(s.label);
        }
        Tensor batch = models::stack_batch(inputs);
        // Pass 1: input gradient for FGSM (its parameter grads are zeroed
        // by train_loop before pass 2's backward).
        {
          nn::Tape t1;
          t1.training = true;
          nn::Node* x = t1.input(batch, /*requires_grad=*/true);
          t1.backward(nn::softmax_cross_entropy(
              t1, model.forward(t1, x, nn::BnMode::kTrain), labels));
          for (std::size_t i = 0; i < batch.size(); ++i)
            batch[i] += epsilon * (x->grad[i] > 0.0f ? 1.0f : -1.0f);
        }
        // Pass 2: train on the perturbed batch.
        return nn::softmax_cross_entropy(
            t, model.forward(t, t.input(batch), nn::BnMode::kTrain), labels);
      });
}

models::TrainedClassifier get_tagged_classifier(const std::string& model,
                                                const std::string& tag) {
  if (tag.empty()) return models::get_classifier(model);
  if (tag == "adv") {
    // Cached under the tag's stem, named "<model>-Adv" with an empty tag.
    models::TrainedClassifier out = models::load_or_train<models::ClsFamily>(
        model, tag, [](models::Classifier& m) {
          train_classifier_fgsm(m, models::ClsFamily::dataset().train,
                                models::default_cls_preprocessor(
                                    models::ClsFamily::spec()),
                                models::TrainConfig{});
        });
    out.name = model + "-Adv";
    return out;
  }
  // Resolve the recipe completely (the *_from_name parsers throw
  // std::invalid_argument) before get_classifier may train and cache.
  const PipelineSpec spec = models::cls_pipeline_spec();
  const std::string prefix = tag.substr(0, 3);
  const std::string name = tag.size() > 3 ? tag.substr(3) : "";
  SysNoiseConfig cfg = SysNoiseConfig::training_default();
  ClsPreprocessor prep;
  if (tag == "t7_mix") {
    prep = mix_training_preprocessor(spec, /*mix_decoder=*/false,
                                     /*mix_resize=*/true);
  } else if (tag == "t8_mix") {
    prep = mix_training_preprocessor(spec, /*mix_decoder=*/true,
                                     /*mix_resize=*/false);
  } else if (tag == "t9_Learned") {
    prep = learned_decoder_preprocessor(spec);
  } else if (prefix == "t7_") {
    cfg.resize = resize_method_from_name(name);
    prep = fixed_config_preprocessor(spec, cfg);
  } else if (prefix == "t8_" || prefix == "t9_") {
    cfg.decoder = decoder_vendor_from_name(name);
    prep = fixed_config_preprocessor(spec, cfg);
  } else if (prefix == "f4_") {
    for (int s = 0; s < kNumAugStrategies && !prep; ++s)
      if (name == aug_strategy_name(static_cast<AugStrategy>(s)))
        prep = augmented_preprocessor(spec, static_cast<AugStrategy>(s));
  }
  if (!prep)
    throw std::invalid_argument("get_tagged_classifier: unknown recipe tag \"" +
                                tag + "\"");
  return models::get_classifier(model, tag, &prep);
}

TaskTraits TentTask::traits() const {
  return {TaskKind::kClassification, tc_.model->has_maxpool()};
}

double TentTask::evaluate(const SysNoiseConfig& cfg) const {
  models::TrainedClassifier fresh = models::get_classifier(tc_.name);
  return eval_classifier_tent(*fresh.model, models::benchmark_cls_dataset().eval,
                              cfg, models::cls_pipeline_spec(), &fresh.ranges);
}

double eval_classifier_tent(models::Classifier& model,
                            const std::vector<data::ClsSample>& eval,
                            const SysNoiseConfig& cfg, const PipelineSpec& spec,
                            nn::ActRanges* ranges, float lr, int batch_size) {
  nn::ParamRefs affine;
  model.collect_bn_affine(affine);
  nn::Sgd opt(affine, lr, 0.9f);

  const int n = static_cast<int>(eval.size());
  int correct = 0;
  for (int b = 0; b < n; b += batch_size) {
    const int bs = std::min(batch_size, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(eval[static_cast<std::size_t>(b + i)].jpeg, cfg, spec));
    Tensor batch = models::stack_batch(inputs);

    // Adaptation step: minimize prediction entropy on this test batch
    // (batch statistics for BN, running stats frozen).
    if (!affine.empty()) {
      nn::Tape t;
      t.ctx = cfg.inference_ctx(ranges);
      opt.zero_grad();
      nn::Node* logits = model.forward(t, t.input(batch), nn::BnMode::kAdapt);
      nn::Node* h = nn::softmax_entropy(t, logits);
      t.backward(h);
      opt.step();
    }
    // Predict with the adapted parameters.
    nn::Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    nn::Node* logits = model.forward(t, t.input(batch), nn::BnMode::kAdapt);
    const int classes = logits->value.dim(1);
    for (int i = 0; i < bs; ++i)
      if (models::first_argmax(logits->value.data() +
                                   static_cast<std::size_t>(i) * classes,
                               classes) ==
          eval[static_cast<std::size_t>(b + i)].label)
        ++correct;
  }
  return 100.0 * correct / std::max(1, n);
}

}  // namespace sysnoise::core

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "audio/fft.h"
#include "audio/stft.h"
#include "audio/tts.h"
#include "tensor/rng.h"

namespace sysnoise::audio {
namespace {

TEST(Fft, PowerOfTwoCheck) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_FALSE(is_power_of_two(-4));
}

TEST(Fft, MatchesReferenceDft) {
  Rng rng(1);
  const int n = 64;
  std::vector<std::complex<float>> f(static_cast<std::size_t>(n));
  std::vector<std::complex<double>> d(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const float re = rng.uniform_f(-1.0f, 1.0f), im = rng.uniform_f(-1.0f, 1.0f);
    f[static_cast<std::size_t>(i)] = {re, im};
    d[static_cast<std::size_t>(i)] = {re, im};
  }
  fft_radix2(f);
  const auto ref = dft_reference(d);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(f[static_cast<std::size_t>(i)].real(), ref[static_cast<std::size_t>(i)].real(), 1e-3);
    EXPECT_NEAR(f[static_cast<std::size_t>(i)].imag(), ref[static_cast<std::size_t>(i)].imag(), 1e-3);
  }
}

TEST(Fft, InverseRecoversSignal) {
  Rng rng(2);
  std::vector<std::complex<float>> x(32);
  for (auto& v : x) v = {rng.uniform_f(-1.0f, 1.0f), rng.uniform_f(-1.0f, 1.0f)};
  auto y = x;
  fft_radix2(y);
  fft_radix2(y, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-4);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-4);
  }
}

TEST(Fft, PureToneHasSingleBin) {
  const int n = 64, k = 5;
  std::vector<std::complex<float>> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = std::polar(
        1.0f, 2.0f * std::numbers::pi_v<float> * k * i / static_cast<float>(n));
  fft_radix2(x);
  for (int i = 0; i < n; ++i) {
    if (i == k)
      EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(i)]), static_cast<float>(n), 1e-2);
    else
      EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(i)]), 0.0f, 1e-2) << i;
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<float>> x(12);
  EXPECT_THROW(fft_radix2(x), std::invalid_argument);
}

TEST(Stft, WindowProperties) {
  const auto w = hann_window(64, false);
  EXPECT_NEAR(w[0], 0.0f, 1e-6f);
  EXPECT_NEAR(w[63], 0.0f, 1e-6f);
  EXPECT_NEAR(w[31], 1.0f, 0.01f);  // near-center peak
  const auto wq = hann_window(64, true);
  float maxd = 0.0f;
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    maxd = std::max(maxd, std::fabs(w[static_cast<std::size_t>(i)] - wq[static_cast<std::size_t>(i)]));
    differs |= w[static_cast<std::size_t>(i)] != wq[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(differs);                 // quantization changes something
  EXPECT_LE(maxd, 1.0f / 32768.0f + 1e-7f);  // by at most half a Q15 step
}

TEST(Stft, FrameCountAndShape) {
  std::vector<float> audio(256, 0.1f);
  const Tensor spec = stft_magnitude(audio, {.n_fft = 64, .hop = 32},
                                     StftImpl::kReference);
  EXPECT_EQ(spec.dim(0), 7);   // 1 + (256-64)/32
  EXPECT_EQ(spec.dim(1), 33);  // 64/2+1
}

TEST(Stft, SineConcentratesEnergy) {
  std::vector<float> audio(256);
  for (std::size_t i = 0; i < audio.size(); ++i)
    audio[i] = std::sin(2.0f * std::numbers::pi_v<float> * 8.0f *
                        static_cast<float>(i) / 64.0f);
  const Tensor spec =
      stft_magnitude(audio, {.n_fft = 64, .hop = 32}, StftImpl::kReference);
  // Bin 8 dominates every frame.
  for (int f = 0; f < spec.dim(0); ++f) {
    int best = 0;
    for (int b = 1; b < spec.dim(1); ++b)
      if (spec.at2(f, b) > spec.at2(f, best)) best = b;
    EXPECT_EQ(best, 8) << f;
  }
}

TEST(Stft, ImplementationsDisagreeSlightly) {
  Rng rng(3);
  std::vector<float> audio(512);
  for (auto& v : audio) v = rng.uniform_f(-1.0f, 1.0f);
  const StftSpec spec{.n_fft = 64, .hop = 32};
  const Tensor a = stft_magnitude(audio, spec, StftImpl::kReference);
  const Tensor b = stft_magnitude(audio, spec, StftImpl::kFastFixed);
  const float d = max_abs_diff(a, b);
  EXPECT_GT(d, 1e-4f);  // the operator noise exists...
  EXPECT_LT(d, 0.5f);   // ...and is a perturbation, not a different answer
}

TEST(Tts, DatasetDeterministic) {
  const TtsDataset a = make_tts_dataset();
  const TtsDataset b = make_tts_dataset();
  ASSERT_FALSE(a.train.empty());
  EXPECT_EQ(a.train[0].tokens, b.train[0].tokens);
  EXPECT_EQ(a.train[0].audio.size(),
            static_cast<std::size_t>(a.spec.seq_len * a.spec.samples_per_note));
}

TEST(Tts, ModelsTrainAndDiscrepancyOrdering) {
  TtsDatasetSpec spec;
  spec.train_items = 16;
  spec.eval_items = 6;
  const TtsDataset ds = make_tts_dataset(spec);
  Rng rng(9);
  auto model = make_tts_model("FastSpeech-mini", ds, rng);
  const float first = train_tts(*model, ds, 1, 2e-3f);
  const float later = train_tts(*model, ds, 8, 2e-3f);
  EXPECT_LT(later, first);

  nn::ActRanges ranges;
  calibrate_tts(*model, ds, ranges);
  const auto discrepancy = [&](nn::Precision precision, StftImpl stft_impl) {
    SysNoiseConfig cfg;
    cfg.precision = precision;
    cfg.stft_impl = stft_impl;
    return tts_system_discrepancy(*model, ds, cfg, &ranges);
  };
  const double clean = discrepancy(nn::Precision::kFP32, StftImpl::kReference);
  const double int8 = discrepancy(nn::Precision::kINT8, StftImpl::kReference);
  const double stft = discrepancy(nn::Precision::kFP32, StftImpl::kFastFixed);
  const double comb = discrepancy(nn::Precision::kINT8, StftImpl::kFastFixed);
  EXPECT_DOUBLE_EQ(clean, 0.0);       // identical systems agree exactly
  EXPECT_GT(int8, 0.0);
  EXPECT_GT(stft, 0.0);
  EXPECT_GT(comb, std::max(int8, stft));  // combined noise compounds
}

TEST(Tts, FastSpeechRejectsMoreTokensThanItsPositionTable) {
  const TtsDataset ds = make_tts_dataset();
  Rng rng(9);
  auto model = make_tts_model("FastSpeech-mini", ds, rng);
  // The positional table holds 64 rows: 64 tokens fit, 65 must throw
  // rather than read past the table.
  const auto forward = [&](int seq) {
    nn::Tape t;
    model->forward(t, std::vector<int>(static_cast<std::size_t>(seq), 1), 1, seq,
                   nn::BnMode::kEval);
  };
  EXPECT_NO_THROW(forward(64));
  EXPECT_THROW(forward(65), std::invalid_argument);
}

}  // namespace
}  // namespace sysnoise::audio

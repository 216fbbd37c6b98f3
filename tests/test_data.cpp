#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "data/noise_config.h"
#include "data/pipeline.h"
#include "image/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysnoise {
namespace {

data::ClsDatasetSpec small_cls_spec() {
  data::ClsDatasetSpec s;
  s.num_classes = 4;
  s.train_per_class = 3;
  s.eval_per_class = 2;
  return s;
}

TEST(NoiseConfig, TrainingDefaultIsPyTorchLike) {
  const SysNoiseConfig cfg = SysNoiseConfig::training_default();
  EXPECT_EQ(cfg.decoder, jpeg::DecoderVendor::kPillow);
  EXPECT_EQ(cfg.resize, ResizeMethod::kPillowBilinear);
  EXPECT_EQ(cfg.color, ColorMode::kDirectRGB);
  EXPECT_EQ(cfg.norm, NormStats::kTorchvision);
  EXPECT_EQ(cfg.layout, ChannelLayout::kNCHW);
  EXPECT_EQ(cfg.precision, nn::Precision::kFP32);
  EXPECT_FALSE(cfg.ceil_mode);
  EXPECT_EQ(cfg.upsample, nn::UpsampleMode::kNearest);
  EXPECT_FLOAT_EQ(cfg.proposal_offset, 0.0f);
}

TEST(NoiseConfig, OptionCountsMatchTable1) {
  // Table 1 category counts: decoder 4, resize 11, color 2, precision 3.
  EXPECT_EQ(decoder_noise_options().size(), 3u);   // 4 incl. training default
  EXPECT_EQ(resize_noise_options().size(), 10u);   // 11 incl. default
  EXPECT_EQ(color_noise_options().size(), 1u);     // 2 incl. direct RGB
  EXPECT_EQ(precision_noise_options().size(), 2u); // 3 incl. FP32
  EXPECT_EQ(norm_noise_options().size(), 2u);      // 3 incl. torchvision
  EXPECT_EQ(crop_noise_options().size(), 1u);      // 2 incl. no-crop default
  EXPECT_EQ(layout_noise_options().size(), 1u);    // 2 incl. NCHW default
}

TEST(NoiseConfig, DescribeMentionsEveryKnob) {
  const std::string d = SysNoiseConfig::training_default().describe();
  for (const char* key : {"decoder=", "resize=", "crop=", "color=", "norm=",
                          "layout=", "prec=", "ceil=", "upsample=", "offset="})
    EXPECT_NE(d.find(key), std::string::npos) << key;
}

TEST(NoiseConfig, EffectiveNormStatsFollowTheKnob) {
  const PipelineSpec spec;
  SysNoiseConfig cfg;
  auto [m0, s0] = effective_norm_stats(cfg, spec);
  EXPECT_EQ(m0, spec.mean);
  EXPECT_EQ(s0, spec.stddev);

  cfg.norm = NormStats::kRoundedU8;
  auto [m1, s1] = effective_norm_stats(cfg, spec);
  // 0.485 * 255 = 123.675 -> 124/255: off the training stats by < 1/255.
  EXPECT_NE(m1, spec.mean);
  for (std::size_t c = 0; c < m1.size(); ++c) {
    EXPECT_NEAR(m1[c], spec.mean[c], 0.5f / 255.0f);
    EXPECT_NEAR(s1[c], spec.stddev[c], 0.5f / 255.0f);
  }

  cfg.norm = NormStats::kHalfHalf;
  auto [m2, s2] = effective_norm_stats(cfg, spec);
  for (std::size_t c = 0; c < m2.size(); ++c) {
    EXPECT_FLOAT_EQ(m2[c], 0.5f);
    EXPECT_FLOAT_EQ(s2[c], 0.5f);
  }
}

TEST(Pipeline, NormKnobChangesTensorNotImage) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const PipelineSpec spec;
  SysNoiseConfig deploy;
  deploy.norm = NormStats::kHalfHalf;
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const auto& jpeg = ds.eval.front().jpeg;
  // Normalization acts after the image-space pipeline...
  const ImageU8 a = preprocess_image(jpeg, train_cfg, spec);
  const ImageU8 b = preprocess_image(jpeg, deploy, spec);
  EXPECT_EQ(a.vec(), b.vec());
  // ...but shifts the network input tensor.
  const Tensor ta = preprocess(jpeg, train_cfg, spec);
  const Tensor tb = preprocess(jpeg, deploy, spec);
  EXPECT_GT(max_abs_diff(ta, tb), 0.01f);
}

TEST(ClsDataset, DeterministicAndBalanced) {
  const auto a = data::make_classification_dataset(small_cls_spec());
  const auto b = data::make_classification_dataset(small_cls_spec());
  ASSERT_EQ(a.train.size(), 12u);
  ASSERT_EQ(a.eval.size(), 8u);
  EXPECT_EQ(a.train[0].jpeg, b.train[0].jpeg);  // bitwise identical
  std::vector<int> counts(4, 0);
  for (const auto& s : a.eval) ++counts[static_cast<std::size_t>(s.label)];
  for (int c : counts) EXPECT_EQ(c, 2);
}

TEST(ClsDataset, SamplesAreValidJpegs) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  for (const auto& s : ds.eval) {
    const ImageU8 img = jpeg::decode(s.jpeg, jpeg::DecoderVendor::kPillow);
    EXPECT_EQ(img.height(), 48);
    EXPECT_EQ(img.width(), 48);
  }
}

TEST(Pipeline, OutputShapeAndNormalization) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const PipelineSpec spec{.out_h = 32, .out_w = 32};
  const Tensor t = preprocess(ds.eval[0].jpeg, SysNoiseConfig::training_default(), spec);
  EXPECT_EQ(t.shape(), (std::vector<int>{1, 3, 32, 32}));
  // Normalized values should live in a plausible range.
  EXPECT_GT(t.min(), -3.0f);
  EXPECT_LT(t.max(), 3.5f);
}

TEST(Pipeline, NoiseKnobsChangeTensor) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const PipelineSpec spec{.out_h = 32, .out_w = 32};
  const SysNoiseConfig base = SysNoiseConfig::training_default();
  const Tensor ref = preprocess(ds.eval[0].jpeg, base, spec);

  SysNoiseConfig dec = base;
  dec.decoder = jpeg::DecoderVendor::kDALI;
  SysNoiseConfig rez = base;
  rez.resize = ResizeMethod::kOpenCVNearest;
  SysNoiseConfig col = base;
  col.color = ColorMode::kNv12RoundTrip;

  const float d_dec = max_abs_diff(ref, preprocess(ds.eval[0].jpeg, dec, spec));
  const float d_rez = max_abs_diff(ref, preprocess(ds.eval[0].jpeg, rez, spec));
  const float d_col = max_abs_diff(ref, preprocess(ds.eval[0].jpeg, col, spec));
  EXPECT_GT(d_dec, 0.0f);
  EXPECT_GT(d_rez, d_dec);  // resize noise dominates decode noise
  EXPECT_GT(d_col, 0.0f);
  // All of them remain small perturbations, not content changes.
  EXPECT_LT(d_rez, 3.0f);
}

TEST(Pipeline, PreprocessImageMatchesTensorPath) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const PipelineSpec spec{.out_h = 32, .out_w = 32};
  const SysNoiseConfig cfg = SysNoiseConfig::training_default();
  const ImageU8 img = preprocess_image(ds.eval[0].jpeg, cfg, spec);
  const Tensor t = preprocess(ds.eval[0].jpeg, cfg, spec);
  // Undo normalization on one pixel and compare.
  const float v = t.at4(0, 0, 7, 9) * spec.stddev[0] + spec.mean[0];
  EXPECT_NEAR(v * 255.0f, static_cast<float>(img.at(7, 9, 0)), 0.75f);
}

TEST(DetDataset, BoxesWithinImageAndScaled) {
  data::DetDatasetSpec spec;
  spec.train_images = 4;
  spec.eval_images = 3;
  const auto ds = data::make_detection_dataset(spec);
  ASSERT_EQ(ds.eval.size(), 3u);
  for (const auto& s : ds.eval) {
    EXPECT_FALSE(s.boxes.empty());
    for (const auto& g : s.boxes) {
      EXPECT_GE(g.box.x1, 0.0f);
      EXPECT_LE(g.box.x2, 64.0f);
      EXPECT_GT(g.box.area(), 0.0f);
      EXPECT_GE(g.label, 0);
      EXPECT_LT(g.label, 3);
    }
  }
}

TEST(SegDataset, MaskLabelsInRangeAndNonTrivial) {
  data::SegDatasetSpec spec;
  spec.train_images = 3;
  spec.eval_images = 2;
  const auto ds = data::make_segmentation_dataset(spec);
  for (const auto& s : ds.eval) {
    ASSERT_EQ(s.mask.size(), 64u * 64u);
    int fg = 0;
    for (int v : s.mask) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 4);
      fg += v != 0;
    }
    EXPECT_GT(fg, 30);  // some foreground exists
    EXPECT_LT(fg, 64 * 64);
  }
}

TEST(SegDataset, MaskAlignsWithImageContent) {
  // Foreground pixels should differ in color statistics from background —
  // a sanity check that mask and JPEG describe the same scene.
  data::SegDatasetSpec spec;
  spec.train_images = 1;
  spec.eval_images = 1;
  const auto ds = data::make_segmentation_dataset(spec);
  const auto& s = ds.eval[0];
  const ImageU8 img = resize(jpeg::decode(s.jpeg, jpeg::DecoderVendor::kPillow), 64,
                             64, ResizeMethod::kPillowBilinear);
  double fg_sum = 0.0, bg_sum = 0.0;
  int fg_n = 0, bg_n = 0;
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      const int lum = img.at(y, x, 0) + img.at(y, x, 1) + img.at(y, x, 2);
      if (s.mask[static_cast<std::size_t>(y) * 64 + x] != 0) {
        fg_sum += lum;
        ++fg_n;
      } else {
        bg_sum += lum;
        ++bg_n;
      }
    }
  ASSERT_GT(fg_n, 0);
  ASSERT_GT(bg_n, 0);
  EXPECT_GT(std::abs(fg_sum / fg_n - bg_sum / bg_n), 5.0);
}

// ---------------------------------------------------------------------------
// DecodeMemo: one decode per (sample list, vendor), under real parallelism
// ---------------------------------------------------------------------------

// How many images the decoders produced while `fn` ran (the trace-gated
// jpeg.decode.images counter).
std::uint64_t decodes_during(const std::function<void()>& fn) {
  obs::metrics().reset();
  obs::trace_enable();
  fn();
  obs::trace_disable();
  obs::trace_reset();
  const std::uint64_t n = obs::metrics().counter_value("jpeg.decode.images");
  obs::metrics().reset();
  return n;
}

JpegList jpegs_of(const std::vector<data::ClsSample>& samples) {
  JpegList out;
  for (const auto& s : samples) out.push_back(&s.jpeg);
  return out;
}

// Runs fn(t) on `threads` threads released together by a latch.
void run_together(int threads, const std::function<void(int)>& fn) {
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      fn(t);
    });
  for (std::thread& th : pool) th.join();
}

constexpr int kRacers = 8;

TEST(DecodeMemo, ConcurrentRequestsShareOneDecode) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const JpegList jpegs = jpegs_of(ds.eval);
  DecodeMemo memo;
  std::vector<std::shared_ptr<const DecodeMemo::Images>> got(kRacers);
  const std::uint64_t decodes = decodes_during([&] {
    run_together(kRacers, [&](int t) {
      got[static_cast<std::size_t>(t)] =
          memo.get(jpegs, jpeg::DecoderVendor::kFFmpeg);
    });
  });
  EXPECT_EQ(decodes, jpegs.size());
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
  ASSERT_EQ(got[0]->size(), jpegs.size());
  for (std::size_t i = 0; i < jpegs.size(); ++i)
    EXPECT_EQ((*got[0])[i].vec(),
              jpeg::decode(*jpegs[i], jpeg::DecoderVendor::kFFmpeg).vec());
}

TEST(DecodeMemo, DistinctVendorsAndListsGetDistinctSets) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const JpegList all = jpegs_of(ds.eval);
  // Same first element as `all` but shorter; same elements reordered.
  const JpegList head(all.begin(), all.begin() + 2);
  JpegList swapped = all;
  std::swap(swapped[0], swapped[1]);
  DecodeMemo memo;
  const auto pillow = memo.get(all, jpeg::DecoderVendor::kPillow);
  const auto opencv = memo.get(all, jpeg::DecoderVendor::kOpenCV);
  const auto short_list = memo.get(head, jpeg::DecoderVendor::kPillow);
  const auto reordered = memo.get(swapped, jpeg::DecoderVendor::kPillow);
  const std::set<const void*> sets = {pillow.get(), opencv.get(),
                                      short_list.get(), reordered.get()};
  EXPECT_EQ(sets.size(), 4u);
  EXPECT_EQ(memo.get(all, jpeg::DecoderVendor::kPillow).get(), pillow.get());

  ASSERT_EQ(short_list->size(), 2u);
  EXPECT_EQ((*short_list)[1].vec(), (*pillow)[1].vec());
  EXPECT_EQ((*reordered)[0].vec(), (*pillow)[1].vec());
  EXPECT_EQ((*reordered)[1].vec(), (*pillow)[0].vec());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ((*opencv)[i].vec(),
              jpeg::decode(*all[i], jpeg::DecoderVendor::kOpenCV).vec());
}

TEST(DecodeMemo, KeepsOnlySetsInUseAndTheMostRecent) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const JpegList all = jpegs_of(ds.eval);
  DecodeMemo memo;
  std::weak_ptr<const DecodeMemo::Images> pillow, dali;
  pillow = memo.get(all, jpeg::DecoderVendor::kPillow);
  // Unused but the most recent: kept, and a repeat request decodes nothing.
  ASSERT_FALSE(pillow.expired());
  EXPECT_EQ(decodes_during([&] {
              EXPECT_EQ(memo.get(all, jpeg::DecoderVendor::kPillow).get(),
                        pillow.lock().get());
            }),
            0u);
  {
    const auto held = memo.get(all, jpeg::DecoderVendor::kDALI);
    dali = held;
    // Pillow has no user and is no longer the most recent.
    EXPECT_TRUE(pillow.expired());
    // A set in use outlives newer requests...
    memo.get(all, jpeg::DecoderVendor::kOpenCV);
    EXPECT_FALSE(dali.expired());
  }
  // ...until its user leaves.
  EXPECT_TRUE(dali.expired());
  // A freed set is decoded afresh when asked for again.
  EXPECT_EQ(decodes_during([&] { memo.get(all, jpeg::DecoderVendor::kPillow); }),
            all.size());
}

TEST(DecodeMemo, ThrowingDecodeReachesEveryWaiterAndIsNotKept) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  std::vector<std::uint8_t> bytes = {0xFF, 0xD8, 0x00};  // SOI, then garbage
  const JpegList list = {&ds.eval[0].jpeg, &bytes};
  DecodeMemo memo;
  std::atomic<int> failures{0};
  run_together(kRacers, [&](int) {
    try {
      memo.get(list, jpeg::DecoderVendor::kDALI);
    } catch (const std::runtime_error&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), kRacers);
  // Nothing was kept: once the bytes behind the same pointer are valid, the
  // same request decodes them.
  bytes = ds.eval[1].jpeg;
  const auto images = memo.get(list, jpeg::DecoderVendor::kDALI);
  ASSERT_EQ(images->size(), 2u);
  EXPECT_EQ((*images)[1].vec(),
            jpeg::decode(bytes, jpeg::DecoderVendor::kDALI).vec());
}

TEST(DecodeMemo, ScopedMemoFeedsPreprocessBatchesOnThisThreadOnly) {
  const auto ds = data::make_classification_dataset(small_cls_spec());
  const JpegList all = jpegs_of(ds.eval);
  const PipelineSpec spec{.out_h = 32, .out_w = 32};
  SysNoiseConfig cfg = SysNoiseConfig::training_default();
  DecodeMemo memo;
  std::uint64_t inside = 0, other_thread = 0, after = 0;
  {
    const DecodeMemoScope scope(memo);
    // Two keys over one vendor: one decode pass between them.
    inside = decodes_during([&] {
      preprocess_batches(all, cfg, spec, 3);
      cfg.resize = ResizeMethod::kOpenCVArea;
      preprocess_batches(all, cfg, spec, 3);
    });
    other_thread = decodes_during([&] {
      std::thread([&] { preprocess_batches(all, cfg, spec, 3); }).join();
    });
  }
  after = decodes_during([&] { preprocess_batches(all, cfg, spec, 3); });
  EXPECT_EQ(inside, all.size());
  EXPECT_EQ(other_thread, all.size());
  EXPECT_EQ(after, all.size());
}

}  // namespace
}  // namespace sysnoise

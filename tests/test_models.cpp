#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>

#include "models/train.h"
#include "models/zoo.h"
#include "nn/serialize.h"

namespace sysnoise::models {
namespace {

// Small dataset shared by the training tests in this file.
const data::ClsDataset& tiny_cls() {
  static const data::ClsDataset ds = [] {
    data::ClsDatasetSpec spec;
    spec.num_classes = 4;
    spec.train_per_class = 8;
    spec.eval_per_class = 5;
    spec.seed = 99;
    return data::make_classification_dataset(spec);
  }();
  return ds;
}

const PipelineSpec kSpec{.out_h = 32, .out_w = 32};

// Every zoo architecture, random init, one fixed normal input: an FP32 eval
// forward under reference and under blocked must leave bytewise-equal values
// on every tape node. From a zeroed output on finite operands, the blocked
// kernel runs each element's reference operation sequence, so Table 2's
// blocked column is a structural zero.
TEST(ZooBackends, ReferenceAndBlockedFp32ForwardsMatchOnEveryTapeNode) {
  auto expect_same_tapes = [](const std::string& name, int size,
                              const std::function<void(nn::Tape&, nn::Node*)>& fwd) {
    Rng rng(31);
    Tensor x({2, 3, size, size});
    for (float& v : x.vec()) v = rng.normal_f(0.0f, 1.0f);
    nn::Tape ref, blocked;
    ref.ctx.backend = ComputeBackend::kReference;
    blocked.ctx.backend = ComputeBackend::kBlocked;
    fwd(ref, ref.input(x));
    fwd(blocked, blocked.input(x));
    ASSERT_EQ(ref.num_nodes(), blocked.num_nodes()) << name;
    ASSERT_GT(ref.num_nodes(), 10u) << name;
    for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
      const Tensor& a = ref.node(i).value;
      const Tensor& b = blocked.node(i).value;
      ASSERT_EQ(a.shape(), b.shape()) << name << " node " << i;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << name << " node " << i;
    }
  };
  int models = 0;
  for (const ClassifierSpec& spec : classifier_zoo()) {
    Rng init(7);
    auto m = make_classifier(spec.name, 10, init);
    expect_same_tapes(spec.name, 32, [&](nn::Tape& t, nn::Node* x) {
      m->forward(t, x, nn::BnMode::kEval);
    });
    ++models;
  }
  for (const char* backbone : {"resnet", "mobilenet"})
    for (const bool softmax : {true, false}) {
      Rng init(8);
      Detector det(backbone, softmax, 4, init);
      expect_same_tapes(std::string(backbone) + (softmax ? " softmax" : " sigmoid"),
                        64, [&](nn::Tape& t, nn::Node* x) {
                          det.forward(t, x, nn::BnMode::kEval);
                        });
      ++models;
    }
  for (const char* name : {"DeepLab-S", "DeepLab-M", "UNet"}) {
    Rng init(9);
    auto m = make_segmenter(name, 4, init);
    expect_same_tapes(name, 64, [&](nn::Tape& t, nn::Node* x) {
      m->forward(t, x, nn::BnMode::kEval);
    });
    ++models;
  }
  EXPECT_EQ(models, 15 + 4 + 3);
}

TEST(EvalLoop, FirstArgmaxKeepsTheFirstOfTiedMaximaAndNeverPicksNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tied[] = {1.0f, 3.0f, 2.0f, 3.0f};
  EXPECT_EQ(first_argmax(tied, 4), 1);
  const float all_tied[] = {-inf, -inf, -inf};
  EXPECT_EQ(first_argmax(all_tied, 3), 0);
  // With a NaN in column 0 every `v[c] > NaN` is false: the prediction
  // stays 0.
  const float nan_first[] = {nan, 5.0f, 7.0f};
  EXPECT_EQ(first_argmax(nan_first, 3), 0);
  // A later NaN never wins, and the scan goes on past it.
  const float nan_later[] = {1.0f, nan, 0.5f, 4.0f, nan};
  EXPECT_EQ(first_argmax(nan_later, 5), 3);
  EXPECT_EQ(first_argmax(nan_later, 1), 0);
  // Strided: channel-major [C, H*W] logits, argmax over C at one pixel.
  const float chw[] = {0.0f, 9.0f,   // c0
                       2.0f, 1.0f,   // c1
                       2.0f, nan};   // c2
  EXPECT_EQ(first_argmax(chw, 3, 2), 1);
  EXPECT_EQ(first_argmax(chw + 1, 3, 2), 0);
}

TEST(Zoo, AllClassifiersConstructAndForward) {
  Tensor x({2, 3, 32, 32});
  Rng fill(3);
  for (float& v : x.vec()) v = fill.uniform_f(-1.0f, 1.0f);
  for (const auto& spec : classifier_zoo()) {
    Rng rng(1);
    auto model = make_classifier(spec.name, 10, rng);
    nn::Tape t;
    nn::Node* logits = model->forward(t, t.input(x), nn::BnMode::kEval);
    ASSERT_EQ(logits->value.shape(), (std::vector<int>{2, 10})) << spec.name;
    // Params collect without crashing and are non-empty.
    nn::ParamRefs params;
    model->collect(params);
    EXPECT_GT(params.size(), 4u) << spec.name;
  }
}

TEST(Zoo, ResNetFamilyRespectsMaxpoolFlag) {
  Rng rng(1);
  EXPECT_TRUE(make_classifier("ResNet-S", 10, rng)->has_maxpool());
  EXPECT_FALSE(make_classifier("MobileNetV2-1.0", 10, rng)->has_maxpool());
  EXPECT_FALSE(make_classifier("ViT-T", 10, rng)->has_maxpool());
}

TEST(Zoo, DeterministicInit) {
  Rng r1(5), r2(5);
  auto a = make_classifier("ResNet-XS", 10, r1);
  auto b = make_classifier("ResNet-XS", 10, r2);
  nn::ParamRefs pa, pb;
  a->collect(pa);
  b->collect(pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_FLOAT_EQ(max_abs_diff(pa[i]->value, pb[i]->value), 0.0f);
}

TEST(Training, SmallClassifierLearnsAboveChance) {
  const auto& ds = tiny_cls();
  Rng rng(11);
  auto model = make_classifier("ResNet-XS", ds.num_classes, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 8;
  cfg.lr = 0.08f;
  train_classifier(*model, ds.train, default_cls_preprocessor(kSpec), cfg);
  const double acc = eval_classifier(*model, ds.eval,
                                     SysNoiseConfig::training_default(), kSpec,
                                     nullptr);
  EXPECT_GT(acc, 45.0) << "4-class chance is 25%";
}

TEST(Training, NoiseConfigsShiftAccuracyOnTrainedModel) {
  const auto& ds = tiny_cls();
  Rng rng(12);
  auto model = make_classifier("MCUNet", ds.num_classes, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 8;
  cfg.lr = 0.08f;
  train_classifier(*model, ds.train, default_cls_preprocessor(kSpec), cfg);

  nn::ActRanges ranges;
  calibrate(*model,
            preprocess_samples(ds.train, SysNoiseConfig::training_default(),
                               kSpec, 8, 16),
            ranges);

  const double base = eval_classifier(*model, ds.eval,
                                      SysNoiseConfig::training_default(), kSpec,
                                      &ranges);
  // FP16: tiny or no change.
  SysNoiseConfig fp16 = SysNoiseConfig::training_default();
  fp16.precision = nn::Precision::kFP16;
  const double acc16 = eval_classifier(*model, ds.eval, fp16, kSpec, &ranges);
  EXPECT_NEAR(acc16, base, 10.0);

  // Resize flip must still produce a sane accuracy (not collapse to chance).
  SysNoiseConfig rez = SysNoiseConfig::training_default();
  rez.resize = ResizeMethod::kOpenCVNearest;
  const double accr = eval_classifier(*model, ds.eval, rez, kSpec, &ranges);
  EXPECT_GT(accr, 25.0);
}

TEST(Training, DetectorLearnsToLocalize) {
  data::DetDatasetSpec dspec;
  dspec.train_images = 40;
  dspec.eval_images = 10;
  dspec.seed = 77;
  const auto ds = data::make_detection_dataset(dspec);
  Rng rng(13);
  Detector det("mobilenet", /*softmax=*/false, ds.num_classes, rng);
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 8;
  cfg.lr = 0.02f;
  const PipelineSpec spec{.out_h = 64, .out_w = 64};
  train_detector(det, ds, spec, cfg);
  const double map = eval_detector(det, ds, SysNoiseConfig::training_default(),
                                   spec, nullptr);
  EXPECT_GT(map, 5.0);  // far above the ~0 of an untrained net

  // Proposal offset flip changes mAP but not catastrophically.
  SysNoiseConfig off = SysNoiseConfig::training_default();
  off.proposal_offset = 1.0f;
  const double map_off = eval_detector(det, ds, off, spec, nullptr);
  EXPECT_GT(map_off, 0.0);
  EXPECT_NE(map_off, map);
}

TEST(Training, SegmenterLearnsMasks) {
  data::SegDatasetSpec sspec;
  sspec.train_images = 16;
  sspec.eval_images = 6;
  sspec.seed = 88;
  const auto ds = data::make_segmentation_dataset(sspec);
  Rng rng(14);
  auto model = make_segmenter("UNet", ds.num_classes, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 4;
  cfg.lr = 0.05f;
  const PipelineSpec spec{.out_h = 64, .out_w = 64};
  train_segmenter(*model, ds, spec, cfg);
  const double miou = eval_segmenter(*model, ds, SysNoiseConfig::training_default(),
                                     spec, nullptr);
  EXPECT_GT(miou, 25.0);

  // Upsample flip (nearest->bilinear) must change predictions.
  SysNoiseConfig up = SysNoiseConfig::training_default();
  up.upsample = nn::UpsampleMode::kBilinear;
  const double miou_up = eval_segmenter(*model, ds, up, spec, nullptr);
  EXPECT_NE(miou, miou_up);
}

TEST(Zoo, StateRoundTripPreservesEval) {
  const auto& ds = tiny_cls();
  Rng rng(15);
  auto model = make_classifier("MCUNet", ds.num_classes, rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  train_classifier(*model, ds.train, default_cls_preprocessor(kSpec), cfg);
  const double acc = eval_classifier(*model, ds.eval,
                                     SysNoiseConfig::training_default(), kSpec,
                                     nullptr);

  nn::ParamRefs params;
  model->collect(params);
  nn::StateRefs state;
  model->collect_state(state);
  std::vector<const Tensor*> cstate(state.begin(), state.end());
  const std::string path =
      (std::filesystem::temp_directory_path() / "sysnoise_zoo_test.bin").string();
  nn::save_params(path, params, cstate);

  Rng rng2(999);  // different init
  auto fresh = make_classifier("MCUNet", ds.num_classes, rng2);
  nn::ParamRefs params2;
  fresh->collect(params2);
  nn::StateRefs state2;
  fresh->collect_state(state2);
  ASSERT_TRUE(nn::load_params(path, params2, state2));
  const double acc2 = eval_classifier(*fresh, ds.eval,
                                      SysNoiseConfig::training_default(), kSpec,
                                      nullptr);
  EXPECT_DOUBLE_EQ(acc, acc2);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sysnoise::models

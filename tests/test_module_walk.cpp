// Pins the one module walk every model lists its layers in: the shape
// sequences of its three derived views (trainable params, persistent state,
// norm affine params) for every zoo architecture, and a save/load round
// trip through exactly those lists. A layer left out of a walk changes the
// first and breaks the second.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "audio/tts.h"
#include "core/learned_codec.h"
#include "models/classifiers.h"
#include "models/detectors.h"
#include "models/segmenters.h"
#include "nlp/lm.h"
#include "nlp/tasks.h"
#include "nn/serialize.h"

namespace sysnoise {
namespace {

using nn::BnMode;

// "<count>:<FNV-1a 64 of the shape list>" — e.g. a [8,3,3,3] conv weight
// then an [8] bias hash the text "8x3x3x3,8,".
std::string shape_fingerprint(const std::vector<const Tensor*>& tensors) {
  std::string text;
  for (const Tensor* t : tensors) {
    for (std::size_t i = 0; i < t->shape().size(); ++i)
      text += (i > 0 ? "x" : "") + std::to_string(t->shape()[i]);
    text += ",";
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%zu:%016llx", tensors.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

std::string fingerprint(const nn::ParamRefs& params) {
  std::vector<const Tensor*> tensors;
  for (const nn::Param* p : params) tensors.push_back(&p->value);
  return shape_fingerprint(tensors);
}

std::string fingerprint(const nn::StateRefs& state) {
  return shape_fingerprint({state.begin(), state.end()});
}

// One zoo architecture: a factory, one forward under a BN mode (flattened
// outputs), and the golden fingerprints of collect / collect_state /
// collect_bn_affine.
struct Arch {
  std::string name;
  std::function<std::unique_ptr<nn::Module>(Rng&)> make;
  std::function<std::vector<float>(nn::Module&, BnMode)> forward;
  std::string params, state, norm_affine;
};

Tensor random_input(std::vector<int> shape) {
  Tensor x(std::move(shape));
  Rng fill(3);
  for (float& v : x.vec()) v = fill.uniform_f(-1.0f, 1.0f);
  return x;
}

std::vector<float> flat(const std::vector<nn::Node*>& nodes) {
  std::vector<float> out;
  for (const nn::Node* n : nodes)
    out.insert(out.end(), n->value.vec().begin(), n->value.vec().end());
  return out;
}

// Goldens recorded from the hand-written collect / collect_state /
// collect_bn_affine lists these walks replaced. Detectors, segmenters,
// TTS models, LMs and the codec had no norm-affine list (nor TTS/LM/codec
// a state list) before: theirs pin what the walk derives.
std::vector<Arch> zoo_architectures() {
  std::vector<Arch> archs;
  const std::vector<std::tuple<std::string, std::string, std::string, std::string>>
      classifiers = {
          {"MCUNet", "20:fea20491ccda8dac", "12:fbd958ac3f570c17", "12:fbd958ac3f570c17"},
          {"ResNet-XS", "29:1c2b9d762650386f", "18:e82c7165fdea3043", "18:e82c7165fdea3043"},
          {"ResNet-S", "29:9fee7c547e31cb7f", "18:dcc5ac5487f5b7f1", "18:dcc5ac5487f5b7f1"},
          {"ResNet-M", "47:86b9f739e03b2435", "30:25372277d59a5c63", "30:25372277d59a5c63"},
          {"ResNet-L", "47:90c784f0e7410707", "30:f45a84c865245d25", "30:f45a84c865245d25"},
          {"MobileNetV2-0.5", "50:50629cb4b047dee9", "32:bcf0996f6700d499", "32:bcf0996f6700d499"},
          {"MobileNetV2-1.0", "50:855fafa5cc1ed064", "32:61ef687a7a189069", "32:61ef687a7a189069"},
          {"RegNetX-S", "26:0359fc380e372ace", "16:c4caab3bfd7abc53", "16:c4caab3bfd7abc53"},
          {"RegNetX-M", "44:71781c165ff57204", "28:f2b20d3e5b4e72fb", "28:f2b20d3e5b4e72fb"},
          {"EffNet-S", "57:23184483ef2b5fa6", "26:fb6b08d4cf67994f", "26:fb6b08d4cf67994f"},
          {"EffNet-M", "57:c82e795a0e43b1e6", "26:25057b073ac39809", "26:25057b073ac39809"},
          {"ViT-T", "39:d6e2ddd3dd856c23", "0:14650fb0739d0383", "10:41658298ab643a81"},
          {"ViT-S", "55:843c057da06f31b2", "0:14650fb0739d0383", "14:ebcb244bf3feb88b"},
          {"Swin-T", "40:af03c929756e59e0", "0:14650fb0739d0383", "10:53850149f53c050b"},
          {"Swin-S", "56:ddd753519f480330", "0:14650fb0739d0383", "14:7fc2b917d57f1453"},
      };
  for (const auto& [name, params, state, affine] : classifiers)
    archs.push_back(
        {name,
         [name](Rng& rng) { return models::make_classifier(name, 10, rng); },
         [](nn::Module& m, BnMode bn) {
           nn::Tape t;
           return static_cast<models::Classifier&>(m)
               .forward(t, t.input(random_input({2, 3, 32, 32})), bn)
               ->value.vec();
         },
         params, state, affine});

  const std::vector<std::tuple<std::string, std::string, bool, std::string>>
      detectors = {
          {"FasterRCNN-ResNet", "resnet", true, "49:c220e5aeaf23e3fc"},
          {"FasterRCNN-MobileNet", "mobilenet", true, "49:c220e5aeaf23e3fc"},
          {"RetinaNet-ResNet", "resnet", false, "49:652e3ab2c3cdfd06"},
          {"RetinaNet-MobileNet", "mobilenet", false, "49:652e3ab2c3cdfd06"},
      };
  for (const auto& [name, backbone, softmax, params] : detectors)
    archs.push_back(
        {name,
         [backbone, softmax](Rng& rng) {
           return std::make_unique<models::Detector>(backbone, softmax, 3, rng);
         },
         [](nn::Module& m, BnMode bn) {
           nn::Tape t;
           const models::DetectorOutput out = static_cast<models::Detector&>(m).forward(
               t, t.input(random_input({2, 3, 64, 64})), bn);
           std::vector<float> v = flat(out.cls);
           const std::vector<float> reg = flat(out.reg);
           v.insert(v.end(), reg.begin(), reg.end());
           return v;
         },
         params, "22:e91f8586654505df", "22:e91f8586654505df"});

  const std::vector<std::tuple<std::string, std::string, std::string>> segmenters = {
      {"DeepLab-S", "14:016b11e0653f768e", "8:129b49677d9aa0e1"},
      {"DeepLab-M", "17:1b90fb80f5646346", "10:b72eed8d62acd117"},
      {"UNet", "20:21c633487dcff01b", "12:3ef694a3104f0dab"},
  };
  for (const auto& [name, params, state] : segmenters)
    archs.push_back(
        {name, [name](Rng& rng) { return models::make_segmenter(name, 4, rng); },
         [](nn::Module& m, BnMode bn) {
           nn::Tape t;
           return static_cast<models::Segmenter&>(m)
               .forward(t, t.input(random_input({2, 3, 64, 64})), bn)
               ->value.vec();
         },
         params, state, state});

  static const audio::TtsDataset tts_ds = audio::make_tts_dataset();
  const std::vector<std::tuple<std::string, std::string, std::string, std::string>>
      tts = {
          {"FastSpeech-mini", "22:c498ef3fa1b6e4df", "0:14650fb0739d0383", "6:159593a44bd32ea5"},
          {"Tacotron-mini", "11:759050a0ba8c7244", "4:e422533805add523", "4:e422533805add523"},
      };
  for (const auto& [name, params, state, affine] : tts)
    archs.push_back(
        {name, [name](Rng& rng) { return audio::make_tts_model(name, tts_ds, rng); },
         [](nn::Module& m, BnMode bn) {
           nn::Tape t;
           const std::vector<int> tokens = {1, 4, 2, 7, 0, 3, 5, 6, 2, 2, 9, 1, 0, 4, 8, 3};
           return static_cast<audio::TtsModel&>(m).forward(t, tokens, 2, 8, bn)->value.vec();
         },
         params, state, affine});

  const std::vector<std::tuple<std::string, std::string, std::string>> lms = {
      {"OPT-125M-mini", "38:191f8aa3f7d09fd4", "10:1bb91f3ee1c46853"},
      {"OPT-350M-mini", "38:28fe0916f004f81d", "10:41658298ab643a81"},
      {"OPT-1.3B-mini", "54:b4cb5e867c6fb06a", "14:ebcb244bf3feb88b"},
  };
  for (const auto& [name, params, affine] : lms)
    archs.push_back(
        {name,
         [name](Rng& rng) {
           for (const nlp::LmSpec& spec : nlp::opt_mini_zoo())
             if (spec.name == name)
               return std::make_unique<nlp::CausalLm>(spec, nlp::kVocab, rng);
           throw std::invalid_argument("unknown LM " + name);
         },
         [](nn::Module& m, BnMode) {
           nn::Tape t;
           const std::vector<int> ids = {1, 4, 2, 7, 0, 3, 5, 6};
           return static_cast<nlp::CausalLm&>(m).forward(t, ids, 1, 8)->value.vec();
         },
         params, "0:14650fb0739d0383", affine});

  archs.push_back(
      {"LearnedCodec",
       [](Rng& rng) { return std::make_unique<core::LearnedCodec>(rng); },
       [](nn::Module& m, BnMode) {
         ImageU8 img(16, 16, 3);
         for (int y = 0; y < 16; ++y)
           for (int x = 0; x < 16; ++x)
             for (int c = 0; c < 3; ++c)
               img.at(y, x, c) = static_cast<std::uint8_t>(13 * y + 7 * x + 50 * c);
         const ImageU8 out = static_cast<core::LearnedCodec&>(m).reconstruct(img);
         std::vector<float> v;
         for (int y = 0; y < out.height(); ++y)
           for (int x = 0; x < out.width(); ++x)
             for (int c = 0; c < 3; ++c) v.push_back(out.at(y, x, c));
         return v;
       },
       "8:4cd3751700c6035d", "0:14650fb0739d0383", "0:14650fb0739d0383"});
  return archs;
}

TEST(ModuleWalk, DerivedViewsMatchTheGoldenShapeSequences) {
  const std::vector<Arch> archs = zoo_architectures();
  ASSERT_EQ(archs.size(), 28u);  // 15 + 4 + 3 + 2 + 3 + the codec
  for (const Arch& arch : archs) {
    Rng rng(1);
    const std::unique_ptr<nn::Module> m = arch.make(rng);
    nn::ParamRefs params, affine;
    nn::StateRefs state;
    m->collect(params);
    m->collect_state(state);
    m->collect_bn_affine(affine);
    EXPECT_EQ(fingerprint(params), arch.params) << arch.name;
    EXPECT_EQ(fingerprint(state), arch.state) << arch.name;
    EXPECT_EQ(fingerprint(affine), arch.norm_affine) << arch.name;
  }
}

TEST(ModuleWalk, SaveLoadThroughTheWalkIsBitIdentical) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sysnoise_walk_" + std::to_string(::getpid()) + ".weights"))
          .string();
  for (const Arch& arch : zoo_architectures()) {
    Rng rng(7);
    const std::unique_ptr<nn::Module> trained = arch.make(rng);
    arch.forward(*trained, BnMode::kTrain);  // moves BN running stats
    nn::ParamRefs params;
    nn::StateRefs state;
    trained->collect(params);
    trained->collect_state(state);
    nn::save_params(path, params, {state.begin(), state.end()});

    Rng other(8);  // a different init, overwritten by the load
    const std::unique_ptr<nn::Module> fresh = arch.make(other);
    nn::ParamRefs fresh_params;
    nn::StateRefs fresh_state;
    fresh->collect(fresh_params);
    fresh->collect_state(fresh_state);
    ASSERT_TRUE(nn::load_params(path, fresh_params, fresh_state)) << arch.name;

    const std::vector<float> want = arch.forward(*trained, BnMode::kEval);
    const std::vector<float> got = arch.forward(*fresh, BnMode::kEval);
    ASSERT_EQ(want.size(), got.size()) << arch.name;
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << arch.name;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sysnoise

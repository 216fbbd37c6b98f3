// Conv building blocks shared by the classifiers, detectors and segmenters.
#pragma once

#include <memory>
#include <string>

#include "nn/layers.h"

namespace sysnoise::models {

// Bias-free conv + batch norm, with an optional ReLU.
struct ConvBn {
  nn::Conv2d conv;
  nn::BatchNorm2d bn;
  ConvBn(int in, int out, int k, int s, int p, Rng& rng, const std::string& id,
         int groups = 1)
      : conv(in, out, k, s, p, rng, id, groups, /*bias=*/false), bn(out) {}
  nn::Node* operator()(nn::Tape& t, nn::Node* x, nn::BnMode mode,
                       bool act = true) {
    nn::Node* y = bn(t, conv(t, x), mode);
    return act ? nn::relu(t, y) : y;
  }
  void walk(nn::ModuleRefs& refs) { refs.add(conv, bn); }
};

// ResNet basic block: two 3x3 conv+BN with a 1x1 projection on the skip
// path when the shape changes. The projection's layer id is
// id + down_suffix (".down" in classifiers, ".dn" in detectors): INT8
// range keys are built from layer ids, so the suffix is part of the cache.
struct ResidualBlock {
  ConvBn c1;
  nn::Conv2d c2;
  nn::BatchNorm2d bn2;
  std::unique_ptr<ConvBn> down;
  ResidualBlock(int in, int out, int stride, Rng& rng, const std::string& id,
                const std::string& down_suffix)
      : c1(in, out, 3, stride, 1, rng, id + ".c1"),
        c2(out, out, 3, 1, 1, rng, id + ".c2", 1, /*bias=*/false),
        bn2(out) {
    if (stride != 1 || in != out)
      down = std::make_unique<ConvBn>(in, out, 1, stride, 0, rng,
                                      id + down_suffix);
  }
  nn::Node* operator()(nn::Tape& t, nn::Node* x, nn::BnMode mode) {
    nn::Node* y = bn2(t, c2(t, c1(t, x, mode)), mode);
    nn::Node* skip = down ? (*down)(t, x, mode, /*act=*/false) : x;
    return nn::relu(t, nn::add(t, y, skip));
  }
  void walk(nn::ModuleRefs& refs) { refs.add(c1, c2, bn2, down); }
};

}  // namespace sysnoise::models

// Segmentation models (CityScapes-substitute, Table 4).
//  * DeepLab-mini: max-pool stem backbone (ceil-mode noise applies, like
//    the paper's ResNet-50/101 DeepLabV3), context convs, 1x1 classifier,
//    then three 2x upsampling steps back to full resolution — each one
//    reading the upsample-interpolation SysNoise knob.
//  * UNet-mini: strided-conv encoder (no max-pool, matching the paper's
//    "-" ceil entry for U-Net), skip connections, upsampling decoder.
#pragma once

#include <memory>
#include <string>

#include "nn/layers.h"

namespace sysnoise::models {

class Segmenter : public nn::Module {
 public:
  // Returns per-pixel logits [N, num_classes, H, W] at input resolution.
  virtual nn::Node* forward(nn::Tape& t, nn::Node* x, nn::BnMode bn) = 0;
  virtual bool has_maxpool() const = 0;
};

// name: "DeepLab-S" | "DeepLab-M" (deeper) | "UNet".
std::unique_ptr<Segmenter> make_segmenter(const std::string& name, int num_classes,
                                          Rng& rng);

}  // namespace sysnoise::models

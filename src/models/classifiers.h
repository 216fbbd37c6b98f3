// Classification model zoo mirroring the paper's Table 2 families at
// laptop scale: MCUNet, ResNet, MobileNetV2, RegNetX, EfficientNet, ViT,
// Swin. All take [N,3,32,32] inputs and emit [N,num_classes] logits.
//
// Family-defining traits preserved from the originals:
//  * ResNet: stride-2 3x3 max-pool stem  => ceil-mode noise applies;
//  * MobileNetV2: inverted residuals with depthwise convs, no max-pool;
//  * RegNetX: grouped 3x3 convs in residual bottlenecks;
//  * EfficientNet: MBConv with squeeze-excitation and SiLU;
//  * ViT: patch embedding + full self-attention + mean-token head;
//  * Swin: windowed attention + 2x2 patch merging between stages;
//  * MCUNet: extremely small depthwise pipeline (the paper's most fragile
//    model — 320KB-class).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/ops_extra.h"

namespace sysnoise::models {

// collect_bn_affine (nn::Module) lists what TENT updates: the BN affine
// params of a convnet, the LayerNorm affine params of a transformer.
class Classifier : public nn::Module {
 public:
  // bn: kTrain during optimization, kEval at test, kAdapt for TENT.
  virtual nn::Node* forward(nn::Tape& t, nn::Node* x, nn::BnMode bn) = 0;
  // Whether the architecture contains a stride-2 max-pool (Table 2 "-"
  // entries in the Ceil Mode column are models without one).
  virtual bool has_maxpool() const { return false; }
};

struct ClassifierSpec {
  std::string name;    // paper-style row name, e.g. "ResNet-M"
  std::string family;  // "resnet", "vit", ...
  int num_classes = 10;
};

// Families and sizes available (the Table 2 rows of this reproduction).
std::vector<ClassifierSpec> classifier_zoo();

// Instantiate by name with deterministic init.
std::unique_ptr<Classifier> make_classifier(const std::string& name, int num_classes,
                                            Rng& rng);

}  // namespace sysnoise::models

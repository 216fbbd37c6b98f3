// Secondary ops used by specific model families (SE blocks, transformer
// token plumbing, segmentation heads).
#pragma once

#include "nn/ops.h"

namespace sysnoise::nn {

// x * sigmoid(x) (EfficientNet's activation).
Node* silu(Tape& t, Node* x);

// Broadcast multiply: x [N,C,H,W] scaled per (n, c) by s [N,C] (SE gate).
Node* channel_scale(Tape& t, Node* x, Node* s);

// x [B,T,D] + the first T rows of pos [1,>=T,D], broadcast over batch
// (learned position embedding); only those rows of pos.grad accumulate.
// Throws std::invalid_argument when T exceeds the table or D differs.
Node* add_pos_embedding(Tape& t, Node* x, Param& pos);

// Mean over the token axis: [B,T,D] -> [B,D].
Node* mean_tokens(Tape& t, Node* x);

// Top-left crop of [N,C,H,W] to [N,C,h,w] (h <= H, w <= W); returns x
// itself when it already has that size. Matches feature maps whose sizes a
// ceil-mode pool shifted off by one.
Node* crop(Tape& t, Node* x, int h, int w);

// [N,C,H,W] -> [N,H,W,C] (for per-pixel losses over the channel axis).
Node* nchw_to_nhwc(Tape& t, Node* x);

// Partition a [B, H*W, D] token map (H, W given) into non-overlapping
// win x win windows: output [B*nw, win*win, D]. Inverse: window_merge.
Node* window_partition(Tape& t, Node* x, int h, int w, int win);
Node* window_merge(Tape& t, Node* x, int h, int w, int win, int batch);

// 2x2 patch merging for Swin-style downsampling: [B, H*W, D] ->
// [B, (H/2)*(W/2), 4D] by concatenating each 2x2 neighbourhood.
Node* patch_merge(Tape& t, Node* x, int h, int w);

}  // namespace sysnoise::nn

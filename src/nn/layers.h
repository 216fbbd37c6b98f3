// Parameter-owning layer structs. Each is a thin wrapper that owns Params
// (and running stats) and forwards through the ops in ops.h; models compose
// them freely in their own forward functions.
//
// Every layer and model lists its parts once, in walk(ModuleRefs&). Only the
// leaf layers here decide which tensors they own and in which role
// (trainable, normalization affine, persistent state); the three lists a
// caller needs are derived from that one walk by nn::Module.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "tensor/rng.h"

namespace sysnoise::nn {

// Every trainable Param of a module tree (for optimizers and
// serialization), in walk order.
using ParamRefs = std::vector<Param*>;
// Non-trainable persistent state (batch-norm running statistics).
using StateRefs = std::vector<Tensor*>;

// A module tree's tensors sorted by role, each list in walk order.
struct ModuleRefs {
  ParamRefs params;       // every trainable Param
  ParamRefs norm_affine;  // normalization gamma/beta: what TENT adapts
  StateRefs state;        // persisted with the weights, never trained

  // Walks each part in order: a layer or block (its walk()), a bare Param,
  // an optional part (a null unique_ptr adds nothing) or a vector of parts.
  template <typename... Parts>
  void add(Parts&... parts) {
    (add_one(parts), ...);
  }

 private:
  void add_one(Param& p) { params.push_back(&p); }
  template <typename T>
  void add_one(T& part) {
    part.walk(*this);
  }
  template <typename T>
  void add_one(std::unique_ptr<T>& part) {
    if (part) add_one(*part);
  }
  template <typename T>
  void add_one(std::vector<T>& parts) {
    for (T& part : parts) add_one(part);
  }
};

// Base of every model: one walk, three derived views. Each view appends
// to `out` in walk order.
class Module {
 public:
  virtual ~Module() = default;
  virtual void walk(ModuleRefs& refs) = 0;
  void collect(ParamRefs& out);            // every trainable Param
  void collect_state(StateRefs& out);      // BN running statistics
  void collect_bn_affine(ParamRefs& out);  // norm affine params (TENT)

 protected:
  Module() = default;
  Module(const Module&) = default;
  Module(Module&&) = default;
  Module& operator=(const Module&) = default;
  Module& operator=(Module&&) = default;
};

struct Conv2d {
  Param w;  // [OC, IC/groups, K, K]
  Param b;  // [OC] (empty when !has_bias)
  Conv2dSpec spec;
  bool has_bias = true;
  std::string id;

  Conv2d() = default;
  Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad, Rng& rng,
         std::string layer_id, int groups = 1, bool bias = true);
  Node* operator()(Tape& t, Node* x) {
    return conv2d(t, x, w, has_bias ? &b : nullptr, spec, id);
  }
  void walk(ModuleRefs& refs);
};

struct Linear {
  Param w;  // [out, in]
  Param b;  // [out]
  bool has_bias = true;
  std::string id;

  Linear() = default;
  Linear(int in_f, int out_f, Rng& rng, std::string layer_id, bool bias = true);
  Node* operator()(Tape& t, Node* x) {
    return linear(t, x, w, has_bias ? &b : nullptr, id);
  }
  void walk(ModuleRefs& refs);
};

struct BatchNorm2d {
  Param gamma, beta;
  Tensor running_mean, running_var;

  BatchNorm2d() = default;
  explicit BatchNorm2d(int channels);
  // Mode selected from the tape: training -> kTrain, else adapt flag.
  Node* operator()(Tape& t, Node* x, BnMode mode) {
    return batchnorm2d(t, x, gamma, beta, running_mean, running_var, mode);
  }
  // gamma, beta: trainable and norm affine; running stats: state.
  void walk(ModuleRefs& refs);
};

struct LayerNorm {
  Param gamma, beta;
  LayerNorm() = default;
  explicit LayerNorm(int dim);
  Node* operator()(Tape& t, Node* x) { return layernorm(t, x, gamma, beta); }
  void walk(ModuleRefs& refs);  // gamma, beta: trainable and norm affine
};

struct Embedding {
  Param table;  // [V, D]
  Embedding() = default;
  Embedding(int vocab, int dim, Rng& rng);
  Node* operator()(Tape& t, const std::vector<int>& ids, int batch, int seq) {
    return embedding(t, ids, batch, seq, table);
  }
  void walk(ModuleRefs& refs) { refs.add(table); }
};

// Multi-head self-attention block: q/k/v/out projections + attention core.
struct MultiHeadAttention {
  Linear wq, wk, wv, wo;
  int heads = 1;
  bool causal = false;

  MultiHeadAttention() = default;
  MultiHeadAttention(int dim, int num_heads, bool causal_mask, Rng& rng,
                     const std::string& layer_id);
  Node* operator()(Tape& t, Node* x);
  void walk(ModuleRefs& refs) { refs.add(wq, wk, wv, wo); }
};

// Pre-LN transformer block, the one block of ViT/Swin, OPT-mini and
// FastSpeech-mini: x + attn(ln1 x), then + mlp2(gelu(mlp1(ln2 x))). The MLP
// is dim -> mlp_ratio * dim -> dim. Layer ids: id.attn.{q,k,v,o}, id.mlp1,
// id.mlp2.
struct TransformerBlock {
  LayerNorm ln1, ln2;
  MultiHeadAttention attn;
  Linear mlp1, mlp2;

  TransformerBlock(int dim, int heads, int mlp_ratio, bool causal, Rng& rng,
                   const std::string& id);
  Node* operator()(Tape& t, Node* x);
  void walk(ModuleRefs& refs) { refs.add(ln1, ln2, attn, mlp1, mlp2); }
};

// Initializers (deterministic given the rng).
Tensor kaiming_normal(std::vector<int> shape, int fan_in, Rng& rng);
Tensor xavier_uniform(std::vector<int> shape, int fan_in, int fan_out, Rng& rng);

}  // namespace sysnoise::nn

// Binary (de)serialization of parameter lists + named tensors — backs the
// on-disk model cache so each model family is trained exactly once.
#pragma once

#include <string>
#include <vector>

#include "nn/tape.h"

namespace sysnoise::nn {

// Format: magic, count, then per tensor: rank, dims..., float data.
// Param order must match between save and load (checked by shape).
void save_params(const std::string& path, const std::vector<Param*>& params,
                 const std::vector<const Tensor*>& extra_state = {});

// Returns false, leaving every param and state tensor untouched, if the
// file is missing, truncated or has trailing bytes; throws on a bad magic,
// count or shape (a cache written for another architecture).
bool load_params(const std::string& path, const std::vector<Param*>& params,
                 const std::vector<Tensor*>& extra_state = {});

// Serialize calibrated activation ranges alongside weights. load_ranges
// returns false, leaving `ranges` untouched, if the file is missing,
// truncated, has trailing bytes or a key longer than the file.
void save_ranges(const std::string& path, const ActRanges& ranges);
bool load_ranges(const std::string& path, ActRanges& ranges);

}  // namespace sysnoise::nn

#include "models/eval_tasks.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

namespace sysnoise::models {

// ---------------------------------------------------------------------------
// Stage product (de)serialization for the disk StageCache
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kBatchesMagic = 0x53504231;    // "SPB1"
constexpr std::uint32_t kRawDetsMagic = 0x53504431;    // "SPD1"
constexpr std::uint32_t kMetricMagic = 0x53504D31;     // "SPM1"

void put_u32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool get_u32(const std::string& in, std::size_t* pos, std::uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

void put_tensor(std::string* out, const Tensor& t) {
  put_u32(out, static_cast<std::uint32_t>(t.rank()));
  for (const int d : t.shape()) put_u32(out, static_cast<std::uint32_t>(d));
  out->append(reinterpret_cast<const char*>(t.data()),
              t.size() * sizeof(float));
}

// A malformed payload must read as `false`, never throw or overflow: dims
// are bounded by what the whole payload could possibly hold, so `elems`
// cannot overflow and Tensor::from_vector cannot see a shape/data mismatch.
bool get_tensor(const std::string& in, std::size_t* pos, Tensor* t) {
  std::uint32_t rank = 0;
  if (!get_u32(in, pos, &rank) || rank > 8) return false;
  const std::size_t max_elems = in.size() / sizeof(float);
  std::vector<int> shape;
  std::size_t elems = 1;
  for (std::uint32_t r = 0; r < rank; ++r) {
    std::uint32_t d = 0;
    if (!get_u32(in, pos, &d)) return false;
    if (d == 0 || d > 0x7fffffffu || d > max_elems || elems > max_elems / d)
      return false;
    shape.push_back(static_cast<int>(d));
    elems *= d;
  }
  if (*pos + elems * sizeof(float) > in.size()) return false;
  std::vector<float> data(elems);
  std::memcpy(data.data(), in.data() + *pos, elems * sizeof(float));
  *pos += elems * sizeof(float);
  *t = Tensor::from_vector(std::move(shape), std::move(data));
  return true;
}

// Dataset/pipeline-spec identity the (dataset-agnostic) preprocess_key is
// relative to. The eval-set size is a cheap tripwire against pairing one
// benchmark dataset's products with another's.
std::string batches_scope(const char* task_kind, std::size_t num_samples,
                          const PipelineSpec& spec) {
  std::ostringstream os;
  os << "bench-" << task_kind << "|n=" << num_samples << "|out=" << spec.out_h
     << "x" << spec.out_w << "|v1";
  return os.str();
}

}  // namespace

std::string encode_batches(const PreprocessedBatches& batches) {
  std::string out;
  put_u32(&out, kBatchesMagic);
  put_u32(&out, static_cast<std::uint32_t>(batches.batch_size));
  put_u32(&out, static_cast<std::uint32_t>(batches.num_samples));
  put_u32(&out, static_cast<std::uint32_t>(batches.inputs.size()));
  for (const Tensor& t : batches.inputs) put_tensor(&out, t);
  return out;
}

bool decode_batches(const std::string& bytes, PreprocessedBatches* out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0, batch_size = 0, num_samples = 0, count = 0;
  if (!get_u32(bytes, &pos, &magic) || magic != kBatchesMagic ||
      !get_u32(bytes, &pos, &batch_size) ||
      !get_u32(bytes, &pos, &num_samples) || !get_u32(bytes, &pos, &count))
    return false;
  out->batch_size = static_cast<int>(batch_size);
  out->num_samples = static_cast<int>(num_samples);
  out->inputs.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    Tensor t;
    if (!get_tensor(bytes, &pos, &t)) return false;
    out->inputs.push_back(std::move(t));
  }
  return pos == bytes.size();
}

std::string encode_raw_detections(const RawDetections& raw) {
  std::string out;
  put_u32(&out, kRawDetsMagic);
  put_u32(&out, static_cast<std::uint32_t>(raw.batches.size()));
  for (const RawDetectorOutput& b : raw.batches) {
    if (b.cls.size() != b.reg.size() || b.cls.size() != b.shapes.size())
      return std::string();  // malformed product: refuse to persist
    put_u32(&out, static_cast<std::uint32_t>(b.cls.size()));
    for (std::size_t l = 0; l < b.cls.size(); ++l) {
      put_u32(&out, static_cast<std::uint32_t>(b.shapes[l].first));
      put_u32(&out, static_cast<std::uint32_t>(b.shapes[l].second));
      put_tensor(&out, b.cls[l]);
      put_tensor(&out, b.reg[l]);
    }
  }
  return out;
}

bool decode_raw_detections(const std::string& bytes, RawDetections* out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0, nbatches = 0;
  if (!get_u32(bytes, &pos, &magic) || magic != kRawDetsMagic ||
      !get_u32(bytes, &pos, &nbatches))
    return false;
  out->batches.clear();
  for (std::uint32_t b = 0; b < nbatches; ++b) {
    std::uint32_t nlevels = 0;
    if (!get_u32(bytes, &pos, &nlevels) || nlevels > 64) return false;
    RawDetectorOutput batch;
    for (std::uint32_t l = 0; l < nlevels; ++l) {
      std::uint32_t h = 0, w = 0;
      Tensor cls, reg;
      if (!get_u32(bytes, &pos, &h) || !get_u32(bytes, &pos, &w) ||
          !get_tensor(bytes, &pos, &cls) || !get_tensor(bytes, &pos, &reg))
        return false;
      batch.shapes.emplace_back(static_cast<int>(h), static_cast<int>(w));
      batch.cls.push_back(std::move(cls));
      batch.reg.push_back(std::move(reg));
    }
    out->batches.push_back(std::move(batch));
  }
  return pos == bytes.size();
}

namespace {

// The codec of each stage product type, picked by overload from the
// family's Forward type. Classification/segmentation forward products are
// the bare metric double, persisted with exact bits. An empty encoding
// means "do not persist".
std::string encode_product(const PreprocessedBatches& batches) {
  return encode_batches(batches);
}
std::string encode_product(const RawDetections& raw) {
  return encode_raw_detections(raw);
}
std::string encode_product(double metric) {
  std::string bytes;
  put_u32(&bytes, kMetricMagic);
  bytes.append(reinterpret_cast<const char*>(&metric), sizeof(metric));
  return bytes;
}

bool decode_product(const std::string& bytes, PreprocessedBatches* out) {
  return decode_batches(bytes, out);
}
bool decode_product(const std::string& bytes, RawDetections* out) {
  return decode_raw_detections(bytes, out);
}
bool decode_product(const std::string& bytes, double* metric) {
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  if (!get_u32(bytes, &pos, &magic) || magic != kMetricMagic ||
      bytes.size() != pos + sizeof(double))
    return false;
  std::memcpy(metric, bytes.data() + pos, sizeof(*metric));
  return true;
}

// Rows of each stage-1 batch run_preprocess yields for the family's eval
// set: the geometry every decoded product must match, because the forward
// loops and post-processing index the eval set once per row.
template <typename Family>
std::vector<int> eval_batch_rows() {
  const int n = static_cast<int>(Family::dataset().eval.size());
  std::vector<int> rows;
  for (int b = 0; b < n; b += Family::kEvalBatch)
    rows.push_back(std::min(Family::kEvalBatch, n - b));
  return rows;
}

template <typename Family>
bool has_eval_geometry(const PreprocessedBatches& p) {
  const std::vector<int> rows = eval_batch_rows<Family>();
  const PipelineSpec spec = Family::spec();
  if (p.num_samples != static_cast<int>(Family::dataset().eval.size()) ||
      p.batch_size != Family::kEvalBatch || p.inputs.size() != rows.size())
    return false;
  for (std::size_t b = 0; b < rows.size(); ++b)
    if (p.inputs[b].shape() != std::vector<int>{rows[b], 3, spec.out_h, spec.out_w})
      return false;
  return true;
}

// A metric has no geometry.
template <typename Family>
bool has_eval_geometry(double, const typename Family::Model&) {
  return true;
}

// One RawDetectorOutput per stage-1 batch, each level [rows, cls_ch, h, w]
// and [rows, 4, h, w] for the model's head and strides.
template <typename Family>
bool has_eval_geometry(const RawDetections& raw, const Detector& det) {
  const std::vector<int> rows = eval_batch_rows<Family>();
  if (raw.batches.size() != rows.size()) return false;
  const int cls_ch = det.softmax_head() ? det.num_classes() + 1 : det.num_classes();
  for (std::size_t b = 0; b < rows.size(); ++b) {
    const RawDetectorOutput& out = raw.batches[b];
    if (out.shapes.size() != det.strides().size()) return false;
    for (std::size_t l = 0; l < out.shapes.size(); ++l) {
      const auto [h, w] = out.shapes[l];
      if (out.cls[l].shape() != std::vector<int>{rows[b], cls_ch, h, w} ||
          out.reg[l].shape() != std::vector<int>{rows[b], 4, h, w})
        return false;
    }
  }
  return true;
}

template <typename T>
const T& as(const core::StageProduct& product) {
  return *static_cast<const T*>(product.get());
}

template <typename T>
bool encode_as(const core::StageProduct& product, std::string* bytes) {
  *bytes = encode_product(as<T>(product));
  return !bytes->empty();
}

// Decode, then keep the product only if `valid` accepts it: a rejected
// entry decodes to nullptr and counts as a disk miss.
template <typename T, typename Valid>
core::StageProduct decode_as(const std::string& bytes, const Valid& valid) {
  auto product = std::make_shared<T>();
  if (!decode_product(bytes, product.get()) || !valid(*product)) return nullptr;
  return std::shared_ptr<const T>(std::move(product));
}

// Stable fingerprint of a model's loaded parameters, BN state and INT8
// calibration ranges: forward products must never outlive the numbers that
// produced them, and the zoo's model names stay the same across retrains.
template <typename Model>
std::string weights_fingerprint(Model& model, const nn::ActRanges& ranges) {
  nn::ParamRefs params;
  model.collect(params);
  nn::StateRefs state;
  model.collect_state(state);
  std::uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_tensor = [&](const Tensor& t) {
    for (const int d : t.shape()) mix_bytes(&d, sizeof(d));
    mix_bytes(t.data(), t.size() * sizeof(float));
  };
  for (const nn::Param* p : params) mix_tensor(p->value);
  for (const Tensor* t : state) mix_tensor(*t);
  for (const auto& [key, obs] : ranges) {
    mix_bytes(key.data(), key.size());
    mix_bytes(&obs.lo, sizeof(obs.lo));
    mix_bytes(&obs.hi, sizeof(obs.hi));
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// ZooTask
// ---------------------------------------------------------------------------

template <typename Family>
std::string ZooTask<Family>::cache_identity() const {
  if constexpr (requires(const Trained& t) { t.tag; })
    if (!trained_.tag.empty()) return trained_.name + "#" + trained_.tag;
  return trained_.name;
}

template <typename Family>
std::string ZooTask<Family>::preprocess_key(const SysNoiseConfig& cfg) const {
  return sysnoise::preprocess_key(cfg, Family::spec());
}

template <typename Family>
std::string ZooTask<Family>::forward_key(const SysNoiseConfig& cfg) const {
  return preprocess_key(cfg) + core::forward_key_suffix(cfg);
}

template <typename Family>
core::StageProduct ZooTask<Family>::run_preprocess(const SysNoiseConfig& cfg) const {
  return std::make_shared<const PreprocessedBatches>(preprocess_samples(
      Family::dataset().eval, cfg, Family::spec(), Family::kEvalBatch));
}

template <typename Family>
core::StageProduct ZooTask<Family>::run_forward(
    const SysNoiseConfig& cfg, const core::StageProduct& pre) const {
  return std::make_shared<const typename Family::Forward>(Family::forward(
      *trained_.model, as<PreprocessedBatches>(pre), cfg, &trained_.ranges));
}

template <typename Family>
double ZooTask<Family>::run_postprocess(const SysNoiseConfig& cfg,
                                        const core::StageProduct& fwd) const {
  return Family::postprocess(*trained_.model,
                             as<typename Family::Forward>(fwd), cfg);
}

template <typename Family>
std::string ZooTask<Family>::preprocess_scope() const {
  return batches_scope(Family::kPrefix, Family::dataset().eval.size(),
                       Family::spec());
}

template <typename Family>
bool ZooTask<Family>::encode_preprocess(const core::StageProduct& product,
                                        std::string* bytes) const {
  return encode_as<PreprocessedBatches>(product, bytes);
}

template <typename Family>
core::StageProduct ZooTask<Family>::decode_preprocess(
    const std::string& bytes) const {
  return decode_as<PreprocessedBatches>(bytes, [](const PreprocessedBatches& p) {
    return has_eval_geometry<Family>(p);
  });
}

// The lazily-computed weights fingerprint pins the exact weights the
// outputs came from (zoo names survive retrains).
template <typename Family>
std::string ZooTask<Family>::forward_scope() const {
  std::call_once(weights_fp_once_, [&] {
    weights_fp_ = weights_fingerprint(*trained_.model, trained_.ranges);
  });
  return preprocess_scope() + "|fwd=" + cache_identity() + "#w" + weights_fp_;
}

template <typename Family>
bool ZooTask<Family>::encode_forward(const core::StageProduct& product,
                                     std::string* bytes) const {
  return encode_as<typename Family::Forward>(product, bytes);
}

template <typename Family>
core::StageProduct ZooTask<Family>::decode_forward(const std::string& bytes) const {
  using Forward = typename Family::Forward;
  return decode_as<Forward>(bytes, [this](const Forward& fwd) {
    return has_eval_geometry<Family>(fwd, *trained_.model);
  });
}

template class ZooTask<ClsFamily>;
template class ZooTask<DetFamily>;
template class ZooTask<SegFamily>;

}  // namespace sysnoise::models

// A zoo-cache file is used only when it parses completely. A truncated or
// corrupt .weights or .ranges file must leave the model and its ranges as
// they were, so the zoo retrains and recalibrates from the clean init and
// writes the same bytes a fresh cache gets. The OPT-mini LMs and TTS
// models cache through the same protocol: trained once, then loaded.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "audio/eval_task.h"
#include "core/axis.h"
#include "core/executor.h"
#include "core/plan.h"
#include "models/zoo.h"
#include "nlp/eval_task.h"
#include "nn/serialize.h"
#include "tests/temp_model_cache.h"

namespace sysnoise {
namespace {

using nn::ActRanges;
using nn::Param;

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("sysnoise_" + name + "_" + std::to_string(::getpid())))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Peak resident set of this process, in KiB.
long max_rss_kib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Every strict prefix worth trying, plus one trailing byte too many.
std::vector<std::string> damaged_copies(const std::string& bytes) {
  std::vector<std::string> out;
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{6}, std::size_t{10},
        bytes.size() / 3, bytes.size() / 2, bytes.size() - 1})
    out.push_back(bytes.substr(0, cut));
  out.push_back(bytes + '\0');
  return out;
}

TEST(Serialize, DamagedWeightsFileLeavesEveryTensorUntouched) {
  Param a(Tensor::full({3, 4}, 1.5f)), b(Tensor::full({7}, -2.0f));
  Tensor extra = Tensor::full({5}, 0.25f);
  const std::string path = temp_file("damaged_weights");
  nn::save_params(path, {&a, &b}, {&extra});
  const std::string bytes = read_file(path);

  for (const std::string& damaged : damaged_copies(bytes)) {
    write_file(path, damaged);
    Param a2(Tensor::full({3, 4}, 42.0f)), b2(Tensor::full({7}, 42.0f));
    Tensor extra2 = Tensor::full({5}, 42.0f);
    EXPECT_FALSE(nn::load_params(path, {&a2, &b2}, {&extra2}))
        << damaged.size() << " of " << bytes.size() << " bytes";
    for (const Tensor* t : {&a2.value, &b2.value, &extra2})
      for (const float v : t->vec())
        ASSERT_EQ(v, 42.0f) << damaged.size() << " of " << bytes.size() << " bytes";
  }
  std::filesystem::remove(path);
}

TEST(Serialize, DamagedRangesFileLeavesRangesUntouched) {
  ActRanges ranges;
  ranges["a.in"] = RangeObserver{-1.0f, 2.0f, true};
  ranges["bb.in"] = RangeObserver{0.0f, 3.0f, true};
  const std::string path = temp_file("damaged_ranges");
  nn::save_ranges(path, ranges);
  const std::string bytes = read_file(path);

  for (const std::string& damaged : damaged_copies(bytes)) {
    write_file(path, damaged);
    ActRanges back;
    back["keep.in"] = RangeObserver{5.0f, 6.0f, true};
    EXPECT_FALSE(nn::load_ranges(path, back))
        << damaged.size() << " of " << bytes.size() << " bytes";
    ASSERT_EQ(back.size(), 1u) << damaged.size() << " of " << bytes.size() << " bytes";
    EXPECT_EQ(back["keep.in"].lo, 5.0f);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, HugeRankOrKeyLengthIsRejectedWithoutAllocating) {
  // A rank of 2^26 would size a 256 MiB dims vector; the destination's
  // rank is 1, so the file is rejected before any dim is read.
  const std::string wpath = temp_file("huge_rank");
  std::string weights;
  put(weights, std::uint32_t{0x53594E50});  // magic
  put(weights, std::uint32_t{1});           // count
  put(weights, std::uint32_t{1} << 26);     // rank
  write_file(wpath, weights);
  const long before_kib = max_rss_kib();
  Param p(Tensor::full({4}, 42.0f));
  EXPECT_THROW(nn::load_params(wpath, {&p}), std::runtime_error);
  EXPECT_EQ(p.value[0], 42.0f);

  // A 2^28-byte key in a 12-byte file.
  const std::string rpath = temp_file("huge_key");
  std::string ranges;
  put(ranges, std::uint32_t{1});        // count
  put(ranges, std::uint32_t{1} << 28);  // key length
  put(ranges, std::uint32_t{0});
  write_file(rpath, ranges);
  ActRanges back;
  EXPECT_FALSE(nn::load_ranges(rpath, back));
  EXPECT_TRUE(back.empty());
  EXPECT_LT(max_rss_kib() - before_kib, 32L << 10)
      << "peak RSS grew by " << (max_rss_kib() - before_kib) << " KiB";
  std::filesystem::remove(wpath);
  std::filesystem::remove(rpath);
}

constexpr const char* kWeights = "cls_MCUNet_v1.weights";
constexpr const char* kRanges = "cls_MCUNet_v1.ranges";

TEST(ZooCache, TruncatedWeightsRetrainToTheFreshCacheBytes) {
  const TempModelCache cache;
  const double fresh_acc = models::get_classifier("MCUNet").trained_acc;
  const std::string weights = cache.bytes(kWeights);
  const std::string ranges = cache.bytes(kRanges);
  ASSERT_GT(weights.size(), 1000u);
  for (const std::size_t cut : {std::size_t{6}, weights.size() / 3,
                                weights.size() / 2, weights.size() - 1}) {
    write_file((cache.dir() / kWeights).string(), weights.substr(0, cut));
    EXPECT_EQ(models::get_classifier("MCUNet").trained_acc, fresh_acc) << cut;
    EXPECT_TRUE(cache.bytes(kWeights) == weights) << "cut at " << cut;
    EXPECT_TRUE(cache.bytes(kRanges) == ranges) << "cut at " << cut;
  }
}

TEST(ZooCache, PlantedPartialRangesRecalibrateToTheFreshCacheBytes) {
  const TempModelCache cache;
  const models::TrainedClassifier fresh = models::get_classifier("MCUNet");
  const std::string ranges = cache.bytes(kRanges);
  ASSERT_TRUE(fresh.ranges.count("stem.in"));

  // One complete, far too wide entry, then a second cut inside its key.
  std::string planted;
  put(planted, std::uint32_t{2});
  put(planted, std::uint32_t{7});
  planted += "stem.in";
  put(planted, -100.0f);
  put(planted, 100.0f);
  put(planted, std::uint32_t{7});
  planted += "b0";
  write_file((cache.dir() / kRanges).string(), planted);

  const models::TrainedClassifier again = models::get_classifier("MCUNet");
  EXPECT_EQ(again.ranges.at("stem.in").lo, fresh.ranges.at("stem.in").lo);
  EXPECT_EQ(again.ranges.at("stem.in").hi, fresh.ranges.at("stem.in").hi);
  EXPECT_TRUE(cache.bytes(kRanges) == ranges);
  EXPECT_EQ(again.trained_acc, fresh.trained_acc);
}

bool same_module_bytes(nn::Module& x, nn::Module& y) {
  nn::ParamRefs px, py;
  x.collect(px);
  y.collect(py);
  nn::StateRefs sx, sy;
  x.collect_state(sx);
  y.collect_state(sy);
  std::vector<const Tensor*> tx, ty;
  for (const Param* p : px) tx.push_back(&p->value);
  for (const Param* p : py) ty.push_back(&p->value);
  tx.insert(tx.end(), sx.begin(), sx.end());
  ty.insert(ty.end(), sy.begin(), sy.end());
  if (tx.size() != ty.size()) return false;
  for (std::size_t i = 0; i < tx.size(); ++i)
    if (tx[i]->shape() != ty[i]->shape() ||
        std::memcmp(tx[i]->data(), ty[i]->data(),
                    tx[i]->size() * sizeof(float)) != 0)
      return false;
  return true;
}

bool same_ranges(const ActRanges& x, const ActRanges& y) {
  if (x.size() != y.size()) return false;
  for (const auto& [key, r] : x) {
    const auto it = y.find(key);
    if (it == y.end() || it->second.seen != r.seen ||
        std::memcmp(&it->second.lo, &r.lo, sizeof(float)) != 0 ||
        std::memcmp(&it->second.hi, &r.hi, sizeof(float)) != 0)
      return false;
  }
  return true;
}

// The fast Table 5/10 metrics of one task: its whole global-registry plan.
core::MetricMap plan_metrics(const core::StagedEvalTask& task) {
  const core::SweepPlan plan =
      core::plan_sweep(task, core::AxisRegistry::global());
  return core::StagedExecutor().execute(task, plan);
}

TEST(ZooCache, LmTrainsOnceThenLoadsTheSameBytes) {
  const TempModelCache cache;
  const std::string name = nlp::opt_mini_zoo().front().name;
  const std::string weights_file = "lm_" + name + "_v1.weights";
  const std::string ranges_file = "lm_" + name + "_v1.ranges";
  nlp::TrainedLm first = nlp::get_lm(name);
  const std::string weights = cache.bytes(weights_file);
  const std::string ranges = cache.bytes(ranges_file);
  ASSERT_GT(weights.size(), 1000u);
  ASSERT_FALSE(ranges.empty());
  const auto stamp = std::filesystem::last_write_time(cache.dir() / weights_file);

  nlp::TrainedLm second = nlp::get_lm(name);
  EXPECT_EQ(std::filesystem::last_write_time(cache.dir() / weights_file), stamp)
      << "a second get_lm must load the file, not train and save again";
  EXPECT_TRUE(cache.bytes(weights_file) == weights);
  EXPECT_TRUE(cache.bytes(ranges_file) == ranges);
  EXPECT_TRUE(same_module_bytes(*first.lm, *second.lm));
  EXPECT_TRUE(same_ranges(first.ranges, second.ranges));
  for (int kind = 0; kind < nlp::kNumTasks; ++kind) {
    const nlp::NlpChoiceTask a(first, static_cast<nlp::TaskKind>(kind));
    const nlp::NlpChoiceTask b(second, static_cast<nlp::TaskKind>(kind));
    EXPECT_EQ(plan_metrics(a), plan_metrics(b)) << a.name();
  }

  // A valid file holding other weights is what get_lm returns.
  nn::ParamRefs params;
  first.lm->collect(params);
  params.front()->value[0] += 1.0f;
  nn::save_params((cache.dir() / weights_file).string(), params);
  nlp::TrainedLm planted = nlp::get_lm(name);
  nn::ParamRefs loaded;
  planted.lm->collect(loaded);
  EXPECT_EQ(loaded.front()->value[0], params.front()->value[0]);
}

TEST(ZooCache, TtsTrainsOnceThenLoadsTheSameBytes) {
  const TempModelCache cache;
  for (const std::string& name : audio::tts_model_names()) {
    const std::string weights_file = "tts_" + name + "_v1.weights";
    const std::string ranges_file = "tts_" + name + "_v1.ranges";
    audio::TrainedTts first = audio::get_tts(name);
    const std::string weights = cache.bytes(weights_file);
    const std::string ranges = cache.bytes(ranges_file);
    ASSERT_GT(weights.size(), 1000u) << name;
    ASSERT_FALSE(ranges.empty()) << name;
    const auto stamp =
        std::filesystem::last_write_time(cache.dir() / weights_file);

    audio::TrainedTts second = audio::get_tts(name);
    EXPECT_EQ(std::filesystem::last_write_time(cache.dir() / weights_file),
              stamp)
        << name;
    EXPECT_TRUE(cache.bytes(weights_file) == weights) << name;
    EXPECT_TRUE(cache.bytes(ranges_file) == ranges) << name;
    EXPECT_TRUE(same_module_bytes(*first.model, *second.model)) << name;
    EXPECT_TRUE(same_ranges(first.ranges, second.ranges)) << name;
    const audio::TtsTask a(first), b(second);
    EXPECT_EQ(plan_metrics(a), plan_metrics(b)) << name;
  }
}

}  // namespace
}  // namespace sysnoise

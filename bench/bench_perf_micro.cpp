// Library micro-benchmarks (google-benchmark): throughput of the
// substrates the harness exercises on every sample — JPEG decode per
// vendor, the resize kernels, color round trips, conv inference, and the
// full-table sweep engine (serial baseline vs memoized/parallel vs staged).
//
// Besides the google-benchmark tables, the binary emits a machine-readable
// BENCH_perf.json (serial vs memoized vs staged vs cross-config-batched
// sweep timings plus stage-cache/batched-forward accounting and bit-identity
// checks) so the perf trajectory is tracked across PRs — the CI perf-gate
// job asserts its invariants on every push. Set SYSNOISE_PERF_JSON to
// override the output path (default: $SYSNOISE_RESULTS_DIR/BENCH_perf.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "color/yuv.h"
#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "image/synthetic.h"
#include "jpeg/codec.h"
#include "models/classifiers.h"
#include "nn/ops.h"
#include "nn/tape.h"
#include "resize/resize.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

using namespace sysnoise;

namespace {

const std::vector<std::uint8_t>& sample_jpeg() {
  static const std::vector<std::uint8_t> bytes = [] {
    Rng rng(1);
    TextureParams p = class_texture(3, 10, rng);
    return jpeg::encode(render_texture(p, 96, 96, rng), {.quality = 90});
  }();
  return bytes;
}

const ImageU8& sample_image() {
  static const ImageU8 img = jpeg::decode(sample_jpeg(), jpeg::DecoderVendor::kPillow);
  return img;
}

void BM_JpegDecode(benchmark::State& state) {
  const auto vendor = static_cast<jpeg::DecoderVendor>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::decode(sample_jpeg(), vendor));
  state.SetLabel(jpeg::vendor_name(vendor));
}
BENCHMARK(BM_JpegDecode)->DenseRange(0, jpeg::kNumDecoderVendors - 1);

void BM_JpegEncode(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(sample_image(), {}));
}
BENCHMARK(BM_JpegEncode);

void BM_Resize(benchmark::State& state) {
  const auto method = static_cast<ResizeMethod>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(resize(sample_image(), 32, 32, method));
  state.SetLabel(resize_method_name(method));
}
BENCHMARK(BM_Resize)->DenseRange(0, kNumResizeMethods - 1);

void BM_ColorRoundTrip(benchmark::State& state) {
  const auto mode = static_cast<ColorMode>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(apply_color_mode(sample_image(), mode));
  state.SetLabel(color_mode_name(mode));
}
BENCHMARK(BM_ColorRoundTrip)->DenseRange(0, kNumColorModes - 1);

// GEMM kernel throughput per compute backend at an im2col-shaped problem
// (m = output channels, n = spatial positions, k = patch size).
void BM_Gemm(benchmark::State& state) {
  const auto backend = static_cast<ComputeBackend>(state.range(0));
  const BackendScope scope(backend);
  constexpr int kM = 64, kN = 784, kK = 576;
  Rng rng(7);
  std::vector<float> a(kM * kK), b(kK * kN), c(kM * kN);
  for (float& v : a) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm(kM, kN, kK, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(backend_name(backend));
}
BENCHMARK(BM_Gemm)
    ->DenseRange(0, kNumComputeBackends - 1)
    ->Unit(benchmark::kMillisecond);

void BM_ClassifierForward(benchmark::State& state) {
  Rng rng(3);
  auto model = models::make_classifier("ResNet-XS", 10, rng);
  Tensor x({1, 3, 32, 32});
  for (float& v : x.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto _ : state) {
    nn::Tape t;
    benchmark::DoNotOptimize(model->forward(t, t.input(x), nn::BnMode::kEval));
  }
}
BENCHMARK(BM_ClassifierForward);

// Detection-shaped staged SyntheticTasks with per-stage busywork mirroring
// where real evaluations spend time (pre-processing dominates, the forward
// pass is substantial with a fixed per-invocation overhead that batching
// amortizes, post-processing is cheap), so sweep-engine scheduling, stage
// sharing and cross-config batching can be measured without training a zoo.
core::SyntheticStagedTask make_sweep_task(core::TaskKind kind) {
  return {kind, /*has_maxpool=*/true, /*pre_rounds=*/4000,
          /*fwd_rounds=*/1000, /*post_rounds=*/50,
          /*fwd_overhead_rounds=*/2000};
}

int pool_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// The monolithic baselines run the ThreadPoolExecutor explicitly: sweep()
// and stepwise() run the staged engine, which these rows are measured
// against.
core::AxisReport monolithic_sweep(const core::EvalTask& task,
                                  const core::SweepOptions& opts) {
  const core::SweepPlan plan =
      core::plan_sweep(task, core::registry_or_global(opts));
  return core::assemble_report(
      plan, core::ThreadPoolExecutor().execute(task, plan, opts));
}

std::vector<core::StepPoint> monolithic_stepwise(
    const core::EvalTask& task, const core::SweepOptions& opts) {
  const core::SweepPlan plan =
      core::plan_stepwise(task, core::registry_or_global(opts));
  return core::assemble_steps(
      plan, core::ThreadPoolExecutor().execute(task, plan, opts));
}

// Old-runner behavior: sweep and stepwise each serial, unmemoized, each
// config re-running the full preprocess -> forward -> metric chain, and
// each call re-evaluating the trained baseline.
void BM_FullTableSweepSerial(benchmark::State& state) {
  const auto task = make_sweep_task(core::TaskKind::kDetection);
  core::SweepOptions opts;
  opts.threads = 1;
  opts.memoize = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monolithic_sweep(task, opts));
    benchmark::DoNotOptimize(monolithic_stepwise(task, opts));
  }
}
BENCHMARK(BM_FullTableSweepSerial)->Unit(benchmark::kMillisecond);

// PR 1 engine: thread-pool fan-out plus a shared cache seeded with the
// trained metric (as the zoo provides it), reused across sweep + stepwise —
// but every non-memoized config still runs the full monolithic chain.
void BM_FullTableSweepMemoParallel(benchmark::State& state) {
  const auto task = make_sweep_task(core::TaskKind::kDetection);
  const double trained = task.evaluate(SysNoiseConfig::training_default());
  for (auto _ : state) {
    core::SweepCache cache;
    cache.seed(task, SysNoiseConfig::training_default(), trained);
    core::SweepOptions opts;
    opts.threads = pool_threads();
    opts.cache = &cache;
    benchmark::DoNotOptimize(monolithic_sweep(task, opts));
    benchmark::DoNotOptimize(monolithic_stepwise(task, opts));
  }
}
BENCHMARK(BM_FullTableSweepMemoParallel)->Unit(benchmark::kMillisecond);

// Staged engine: same memo + pool, plus stage-keyed intermediate sharing —
// pre-processing runs once per preprocess key and the detection post-proc
// axis reuses cached forward outputs. Cross-config batching disabled so the
// batched engine below has a clean baseline.
void BM_FullTableSweepStaged(benchmark::State& state) {
  const auto task = make_sweep_task(core::TaskKind::kDetection);
  const double trained = task.evaluate(SysNoiseConfig::training_default());
  for (auto _ : state) {
    core::SweepCache cache;
    cache.seed(task, SysNoiseConfig::training_default(), trained);
    core::SweepOptions opts;
    opts.threads = pool_threads();
    opts.cache = &cache;
    opts.batch_forwards = false;
    benchmark::DoNotOptimize(core::sweep(task, opts));
    benchmark::DoNotOptimize(core::stepwise(task, opts));
  }
}
BENCHMARK(BM_FullTableSweepStaged)->Unit(benchmark::kMillisecond);

// Batched engine (PR 5): staged sharing plus cross-config batched forwards —
// configs sharing the synthetic task's forward_batch_key (it opts in: its
// per-invocation overhead is what stacking amortizes) go through one
// network invocation.
void BM_FullTableSweepBatched(benchmark::State& state) {
  const auto task = make_sweep_task(core::TaskKind::kDetection);
  const double trained = task.evaluate(SysNoiseConfig::training_default());
  for (auto _ : state) {
    core::SweepCache cache;
    cache.seed(task, SysNoiseConfig::training_default(), trained);
    core::SweepOptions opts;
    opts.threads = pool_threads();
    opts.cache = &cache;
    benchmark::DoNotOptimize(core::sweep(task, opts));
    benchmark::DoNotOptimize(core::stepwise(task, opts));
  }
}
BENCHMARK(BM_FullTableSweepBatched)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_perf.json: the cross-PR perf trajectory record
// ---------------------------------------------------------------------------

double time_ms(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

bool reports_identical(const core::AxisReport& a, const core::AxisReport& b) {
  if (a.trained != b.trained || a.combined != b.combined ||
      a.axes.size() != b.axes.size())
    return false;
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    if (a.axes[i].options.size() != b.axes[i].options.size()) return false;
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      if (a.axes[i].options[j].delta != b.axes[i].options[j].delta) return false;
  }
  return true;
}

std::string perf_json_workload(const char* name, core::TaskKind kind) {
  const auto task = make_sweep_task(kind);

  // The CI perf-gate hard-fails on the staged-vs-serial comparison, so the
  // gated timings take the best of more repetitions than the informational
  // ones — a noisy shared runner must not flip the verdict.
  constexpr int kGatedReps = 5;

  core::SweepOptions serial;
  serial.threads = 1;
  serial.memoize = false;
  core::AxisReport serial_report;
  const double serial_ms = time_ms(
      [&] { serial_report = monolithic_sweep(task, serial); }, kGatedReps);

  const double memo_ms = time_ms([&] {
    core::SweepCache cache;
    core::SweepOptions opts;
    opts.threads = pool_threads();
    opts.cache = &cache;
    monolithic_sweep(task, opts);
  });

  core::AxisReport staged_report;
  core::StageStats stats;
  const double staged_ms = time_ms(
      [&] {
        core::SweepCache cache;
        core::SweepOptions opts;
        opts.threads = pool_threads();
        opts.cache = &cache;
        opts.batch_forwards = false;
        stats = {};
        staged_report = core::sweep(task, opts, &stats);
      },
      kGatedReps);

  // The batched engine: staged sharing plus cross-config batched forwards.
  // Same report bits; fewer network invocations (batched_forward_calls).
  core::AxisReport batched_report;
  core::StageStats batched_stats;
  const double batched_ms = time_ms([&] {
    core::SweepCache cache;
    core::SweepOptions opts;
    opts.threads = pool_threads();
    opts.cache = &cache;
    batched_stats = {};
    batched_report = core::sweep(task, opts, &batched_stats);
  });
  const double configs_per_batch =
      static_cast<double>(batched_stats.evaluations) /
      static_cast<double>(std::max<std::size_t>(1, batched_stats.batched_forward_calls));

  std::ostringstream os;
  os << "    {\"task\": \"" << name << "\",\n"
     << "     \"serial_sweep_ms\": " << serial_ms << ",\n"
     << "     \"memo_parallel_sweep_ms\": " << memo_ms << ",\n"
     << "     \"staged_sweep_ms\": " << staged_ms << ",\n"
     << "     \"staged_speedup_vs_serial\": " << serial_ms / staged_ms << ",\n"
     << "     \"staged_strictly_faster_than_serial\": "
     << (staged_ms < serial_ms ? "true" : "false") << ",\n"
     << "     \"bit_identical_to_serial\": "
     << (reports_identical(serial_report, staged_report) ? "true" : "false")
     << ",\n"
     << "     \"batched_sweep_ms\": " << batched_ms << ",\n"
     << "     \"batched_speedup_vs_staged\": " << staged_ms / batched_ms
     << ",\n"
     << "     \"batched_bit_identical_to_serial\": "
     << (reports_identical(serial_report, batched_report) ? "true" : "false")
     << ",\n"
     << "     \"stage_stats\": {\"evaluations\": " << stats.evaluations
     << ", \"preprocess_misses\": " << stats.preprocess_misses
     << ", \"preprocess_hits\": " << stats.preprocess_hits
     << ", \"forward_misses\": " << stats.forward_misses
     << ", \"forward_hits\": " << stats.forward_hits << "},\n"
     << "     \"batched_stats\": {\"evaluations\": " << batched_stats.evaluations
     << ", \"batched_forward_calls\": " << batched_stats.batched_forward_calls
     << ", \"configs_per_batch\": " << configs_per_batch
     << ", \"max_configs_per_batch\": " << batched_stats.max_configs_per_batch
     << ", \"forward_misses\": " << batched_stats.forward_misses << "}}";
  return os.str();
}

// Cold-vs-warm disk StageCache: the same staged sweep run against an empty
// stage directory (cold: every preprocess product computed and persisted)
// and again in a fresh executor/memo against the populated directory
// (warm: every forward product loaded, so zero preprocess computations).
// Then in-memory retention: one executor (no disk) runs the sweep and then
// a second "model" — its own forward stage, the same preprocess scope —
// whose evaluations are all served by the stage-1 products kept from the
// first.
std::string perf_json_disk_cache() {
  const auto task = make_sweep_task(core::TaskKind::kDetection);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sysnoise_perf_stage_cache")
          .string();
  std::filesystem::remove_all(dir);
  const auto plan = core::plan_sweep(task, core::AxisRegistry::global());

  auto timed_run = [&](core::StageStats* stats) {
    core::DiskStageCache disk(dir);
    core::StagedExecutor ex(stats, &disk);
    core::SweepCache cache;
    core::SweepOptions opts;
    opts.threads = pool_threads();
    opts.cache = &cache;
    const auto t0 = std::chrono::steady_clock::now();
    const auto metrics = ex.execute(task, plan, opts);
    const auto t1 = std::chrono::steady_clock::now();
    (void)core::assemble_report(plan, metrics);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  core::StageStats cold_stats, warm_stats;
  const double cold_ms = timed_run(&cold_stats);
  const double warm_ms = timed_run(&warm_stats);
  std::filesystem::remove_all(dir);

  const core::SyntheticStagedTask second_model(
      core::TaskKind::kDetection, /*has_maxpool=*/true, /*pre_rounds=*/4000,
      /*fwd_rounds=*/999, /*post_rounds=*/50, /*fwd_overhead_rounds=*/2000);
  core::StageStats retained_stats;
  {
    const core::StagedExecutor ex(&retained_stats);
    ex.execute(task, plan);
    retained_stats = {};
    ex.execute(second_model,
               core::plan_sweep(second_model, core::AxisRegistry::global()));
  }

  std::ostringstream os;
  os << "  \"disk_stage_cache\": {\n"
     << "    \"cold_ms\": " << cold_ms << ",\n"
     << "    \"warm_ms\": " << warm_ms << ",\n"
     << "    \"cold_preprocess_computed\": " << cold_stats.preprocess_computed
     << ",\n"
     << "    \"cold_persisted\": " << cold_stats.preprocess_persisted << ",\n"
     << "    \"warm_disk_hits\": " << warm_stats.preprocess_disk_hits << ",\n"
     << "    \"warm_forward_disk_hits\": " << warm_stats.forward_disk_hits
     << ",\n"
     << "    \"preprocess_retained\": " << retained_stats.preprocess_retained
     << ",\n"
     << "    \"warm_preprocess_computed\": " << warm_stats.preprocess_computed
     << ",\n"
     << "    \"warm_skips_all_preprocessing\": "
     << (warm_stats.preprocess_computed == 0 ? "true" : "false") << "\n  }";
  return os.str();
}

// Per-backend compute-kernel microbench. The gated GEMM shape is the im2col
// matmul of a 3x3 conv over 64 channels at 28x28, a fixed yardstick: no zoo
// conv has it (zoo convs have 8-48 output channels at <= 64x64). Two real
// zoo shapes are timed alongside it: the ResNet-S last conv and the detector
// stem. The classifier timing runs a real ResNet-XS forward (conv +
// linear through the same backend seam), and conv_forward_ms times single
// conv2d forwards at three sweep shapes, one of them depthwise; reference and
// blocked must give those convs the same bytes. The reference gemm() is the
// seed loop. The CI perf-gate asserts the blocked and simd kernels are
// strictly faster than it at the gated shape and
// that every backend is bit-exactly repeatable, so the gated GEMM timings
// take the best of extra repetitions. Repetitions run round-robin over the
// backends, so a host slowdown hits every backend alike rather than only
// the ones timed last.
std::string perf_json_backends() {
  constexpr int kM = 64, kN = 784, kK = 576;
  constexpr int kKernelReps = 7;
  constexpr int kForwardReps = 3;
  struct ZooShape {
    const char* name;
    int m, n, k;
  };
  constexpr ZooShape kZooShapes[] = {{"resnet_s_last_conv", 48, 16, 432},
                                     {"detector_stem", 16, 4096, 27}};
  constexpr std::size_t kNumZooShapes = std::size(kZooShapes);
  // Repetitions of a zoo-shape GEMM per timed call, so each call is long
  // enough to time.
  constexpr int kZooCallsPerRep = 50;
  // 3x3, stride-1, pad-1 convs of a sweep: the detector stem on a batch of
  // 64x64 images, a ResNet-S block conv on a batch of 16x16 maps and the
  // MCUNet b1 depthwise conv on a batch of 8x8 maps.
  struct ConvShape {
    const char* name;
    int n, c, oc, hw, groups;
  };
  constexpr ConvShape kConvShapes[] = {{"detector_stem", 8, 3, 16, 64, 1},
                                       {"resnet_s_block", 16, 12, 12, 16, 1},
                                       {"mcunet_b1_dw", 16, 24, 24, 8, 24}};
  constexpr std::size_t kNumConvShapes = std::size(kConvShapes);
  constexpr int kConvCallsPerRep = 5;

  Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(kM) * kK);
  std::vector<float> b(static_cast<std::size_t>(kK) * kN);
  for (float& v : a) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform_f(-1.0f, 1.0f);
  std::vector<float> c(static_cast<std::size_t>(kM) * kN);
  std::vector<float> c2(c.size()), ref_c(c.size());

  Rng model_rng(3);
  auto model = models::make_classifier("ResNet-XS", 10, model_rng);
  Tensor x({4, 3, 32, 32});
  for (float& v : x.vec()) v = model_rng.uniform_f(-1.0f, 1.0f);

  struct ConvOperands {
    Tensor x;
    nn::Param w, bias;
    ConvOperands(Tensor x_, Tensor w_, Tensor b_)
        : x(std::move(x_)), w(std::move(w_)), bias(std::move(b_)) {}
  };
  std::deque<ConvOperands> convs;
  for (const ConvShape& s : kConvShapes) {
    Tensor cx({s.n, s.c, s.hw, s.hw}), cw({s.oc, s.c / s.groups, 3, 3}),
        cb({s.oc});
    for (Tensor* t : {&cx, &cw, &cb})
      for (float& v : t->vec()) v = model_rng.normal_f(0.0f, 1.0f);
    convs.emplace_back(std::move(cx), std::move(cw), std::move(cb));
  }
  // One conv2d forward; its output is copied to `out` when one is given.
  const auto conv_forward = [&](std::size_t ci, ComputeBackend backend,
                                Tensor* out) {
    nn::Tape tape;
    tape.ctx.backend = backend;
    ConvOperands& op = convs[ci];
    const nn::Node* y = nn::conv2d(tape, tape.input(op.x), op.w, &op.bias,
                                   {1, 1, kConvShapes[ci].groups}, "bench");
    benchmark::DoNotOptimize(y->value.data());
    if (out != nullptr) *out = y->value;
  };

  // Best-of timings per backend, one repetition of each per round.
  struct Timings {
    double gemm_ms = 1e300, fwd_ms = 1e300;
    std::array<double, kNumZooShapes> zoo_ms;
    std::array<double, kNumConvShapes> conv_ms;
    Timings() {
      zoo_ms.fill(1e300);
      conv_ms.fill(1e300);
    }
  };
  std::vector<Timings> best(static_cast<std::size_t>(kNumComputeBackends));
  for (int rep = 0; rep < kKernelReps; ++rep)
    for (int bi = 0; bi < kNumComputeBackends; ++bi) {
      const auto backend = static_cast<ComputeBackend>(bi);
      const BackendScope scope(backend);
      Timings& t = best[static_cast<std::size_t>(bi)];
      t.gemm_ms = std::min(
          t.gemm_ms,
          time_ms([&] { gemm(kM, kN, kK, a.data(), b.data(), c.data()); }, 1));
      for (std::size_t zi = 0; zi < kNumZooShapes; ++zi) {
        // The operands are prefixes of the gated shape's random A and B.
        const ZooShape& z = kZooShapes[zi];
        std::vector<float> zc(static_cast<std::size_t>(z.m) * z.n);
        const auto calls = [&] {
          for (int r = 0; r < kZooCallsPerRep; ++r)
            gemm(z.m, z.n, z.k, a.data(), b.data(), zc.data());
        };
        t.zoo_ms[zi] = std::min(t.zoo_ms[zi], time_ms(calls, 1) / kZooCallsPerRep);
      }
      for (std::size_t ci = 0; ci < kNumConvShapes; ++ci) {
        const auto calls = [&] {
          for (int r = 0; r < kConvCallsPerRep; ++r)
            conv_forward(ci, backend, nullptr);
        };
        t.conv_ms[ci] = std::min(t.conv_ms[ci], time_ms(calls, 1) / kConvCallsPerRep);
      }
      if (rep < kForwardReps)
        t.fwd_ms = std::min(t.fwd_ms, time_ms([&] {
                              nn::Tape tape;
                              tape.ctx.backend = backend;
                              model->forward(tape, tape.input(x), nn::BnMode::kEval);
                            }, 1));
    }

  bool conv_ref_equals_blocked = true;
  for (std::size_t ci = 0; ci < kNumConvShapes; ++ci) {
    Tensor ref, blocked;
    conv_forward(ci, ComputeBackend::kReference, &ref);
    conv_forward(ci, ComputeBackend::kBlocked, &blocked);
    conv_ref_equals_blocked =
        conv_ref_equals_blocked &&
        std::memcmp(ref.data(), blocked.data(), ref.size() * sizeof(float)) == 0;
  }

  const double ref_gemm_ms = best.front().gemm_ms;
  const double ref_fwd_ms = best.front().fwd_ms;
  std::ostringstream os;
  os << "  \"compute_backends\": {\n"
     << "    \"simd_isa\": \"" << simd_isa_name() << "\",\n"
     << "    \"gemm_shape\": {\"m\": " << kM << ", \"n\": " << kN
     << ", \"k\": " << kK << "},\n"
     << "    \"zoo_gemm_shapes\": {";
  for (const ZooShape& z : kZooShapes)
    os << (&z == kZooShapes ? "" : ", ") << "\"" << z.name << "\": {\"m\": "
       << z.m << ", \"n\": " << z.n << ", \"k\": " << z.k << "}";
  os << "},\n"
     << "    \"conv_shapes\": {";
  for (const ConvShape& c : kConvShapes)
    os << (&c == kConvShapes ? "" : ", ") << "\"" << c.name << "\": {\"n\": " << c.n
       << ", \"c\": " << c.c << ", \"oc\": " << c.oc << ", \"h\": " << c.hw
       << ", \"w\": " << c.hw << ", \"k\": 3, \"stride\": 1, \"pad\": 1"
       << ", \"groups\": " << c.groups << "}";
  os << "},\n"
     << "    \"conv_forward_reference_bytes_equal_blocked\": "
     << (conv_ref_equals_blocked ? "true" : "false") << ",\n"
     << "    \"backends\": [\n";
  for (int bi = 0; bi < kNumComputeBackends; ++bi) {
    const auto backend = static_cast<ComputeBackend>(bi);
    const BackendScope scope(backend);
    const Timings& t = best[static_cast<std::size_t>(bi)];

    gemm(kM, kN, kK, a.data(), b.data(), c.data());
    gemm(kM, kN, kK, a.data(), b.data(), c2.data());
    const bool repeatable =
        std::memcmp(c.data(), c2.data(), c.size() * sizeof(float)) == 0;
    if (backend == ComputeBackend::kReference) ref_c = c;
    float max_diff = 0.0f;
    for (std::size_t i = 0; i < c.size(); ++i)
      max_diff = std::max(max_diff, std::abs(c[i] - ref_c[i]));

    std::ostringstream zoo_ms, conv_ms;
    for (std::size_t zi = 0; zi < kNumZooShapes; ++zi)
      zoo_ms << (zi == 0 ? "" : ", ") << "\"" << kZooShapes[zi].name
             << "\": " << t.zoo_ms[zi];
    for (std::size_t ci = 0; ci < kNumConvShapes; ++ci)
      conv_ms << (ci == 0 ? "" : ", ") << "\"" << kConvShapes[ci].name
              << "\": " << t.conv_ms[ci];

    os << "      {\"backend\": \"" << backend_name(backend) << "\",\n"
       << "       \"gemm_ms\": " << t.gemm_ms << ",\n"
       << "       \"gemm_speedup_vs_reference\": " << ref_gemm_ms / t.gemm_ms
       << ",\n"
       << "       \"gemm_strictly_faster_than_reference\": "
       << (backend != ComputeBackend::kReference && t.gemm_ms < ref_gemm_ms
               ? "true"
               : "false")
       << ",\n"
       << "       \"gemm_bit_identical_across_repeats\": "
       << (repeatable ? "true" : "false") << ",\n"
       << "       \"gemm_max_abs_diff_vs_reference\": " << max_diff << ",\n"
       << "       \"zoo_gemm_ms\": {" << zoo_ms.str() << "},\n"
       << "       \"conv_forward_ms\": {" << conv_ms.str() << "},\n"
       << "       \"classifier_forward_ms\": " << t.fwd_ms << ",\n"
       << "       \"classifier_forward_speedup_vs_reference\": "
       << ref_fwd_ms / t.fwd_ms << "}"
       << (bi + 1 < kNumComputeBackends ? ",\n" : "\n");
  }
  os << "    ]\n  }";
  return os.str();
}

bool write_perf_json() {
  std::ostringstream os;
  os << "{\n  \"bench\": \"sweep_engine\",\n"
     << "  \"hardware_threads\": " << pool_threads() << ",\n"
     << "  \"simd_isa\": \"" << simd_isa_name() << "\",\n"
     << "  \"workloads\": [\n"
     << perf_json_workload("classification", core::TaskKind::kClassification)
     << ",\n"
     << perf_json_workload("detection", core::TaskKind::kDetection) << "\n"
     << "  ],\n"
     << perf_json_backends() << ",\n"
     << perf_json_disk_cache() << "\n}\n";

  const char* override_path = std::getenv("SYSNOISE_PERF_JSON");
  const std::string path = override_path != nullptr
                               ? std::string(override_path)
                               : bench::results_dir() + "/BENCH_perf.json";
  std::ofstream f(path);
  f << os.str();
  f.flush();
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_perf_json() ? 0 : 1;
}

// sysnoise_serve — command-line front end for the serving subsystem
// (src/serve/): generate request traces and replay them against a model.
//
//   sysnoise_serve gen [--seed S] [--num-samples N] [--random-samples]
//                  [--phase poisson:DUR_MS:RATE]
//                  [--phase burst:DUR_MS:EVERY_MS:SIZE]
//                  [--phase ramp:DUR_MS:RATE0:RATE1]  (repeatable, in order)
//                  [--out FILE]
//   sysnoise_serve replay --trace FILE
//                  [--model synthetic|MCUNet] [--config NAME]
//                  [--workers N] [--max-batch N] [--max-delay-ms X]
//                  [--queue-capacity N]
//                  [--virtual [--base-ms X] [--item-ms X]
//                             [--compute-threads N]]
//                  [--time-scale X] [--out FILE]
//
// `gen` expands a spec into its concrete arrival list (deterministic from
// the seed) and writes it as JSON: {"spec": ..., "requests": ...,
// "trace": [...]} — a file `replay --trace` takes back verbatim, so a trace
// generated on one machine replays bit-exactly on another. With no --phase,
// a single 1000ms/100rps Poisson phase is used.
//
// `replay` drives the trace through either the deterministic virtual clock
// (--virtual: the report is a pure function of trace + options) or the real
// InferenceServer (default; wall-clock sleeps and worker threads). --config
// picks the deployment config for --model MCUNet: training_default,
// backend=blocked, backend=simd, or resize=opencv_nearest. The replay
// report is printed as JSON (or written to --out).
#include <algorithm>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/noise_config.h"
#include "models/zoo.h"
#include "net/socket.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/trace.h"
#include "tensor/backend.h"
#include "util/json.h"

using namespace sysnoise;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s gen [--seed S] [--num-samples N] [--random-samples]\n"
      "          [--phase poisson:DUR:RATE | burst:DUR:EVERY:SIZE |\n"
      "           ramp:DUR:RATE0:RATE1]... [--out FILE]\n"
      "       %s replay --trace FILE [--model synthetic|MCUNet]\n"
      "          [--config NAME] [--workers N] [--max-batch N]\n"
      "          [--max-delay-ms X] [--queue-capacity N]\n"
      "          [--virtual [--base-ms X] [--item-ms X] "
      "[--compute-threads N]]\n"
      "          [--time-scale X] [--out FILE]\n",
      argv0, argv0);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_output(const std::string& out, const std::string& content) {
  if (out.empty()) {
    std::printf("%s\n", content.c_str());
    return;
  }
  std::ofstream f(out);
  f << content << "\n";
  f.flush();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());
}

// Strict numeric flag values (net::parse_int/parse_u64/parse_double): a
// typo is a usage error, never an atoi/atoll/atof prefix. Every real-valued
// flag (times, rates, the time scale) is a non-negative finite number.
int int_arg(const std::string& text, int min, const char* argv0) {
  int v = 0;
  if (!net::parse_int(text, min, INT_MAX, &v)) usage(argv0);
  return v;
}

std::uint64_t u64_arg(const std::string& text, std::uint64_t max,
                      const char* argv0) {
  std::uint64_t v = 0;
  if (!net::parse_u64(text, 0, max, &v)) usage(argv0);
  return v;
}

double number_arg(const std::string& text, const char* argv0) {
  double v = 0.0;
  if (!net::parse_double(text, 0.0, DBL_MAX, &v)) usage(argv0);
  return v;
}

// "poisson:1000:250" / "burst:500:100:10" / "ramp:1000:50:400"
serve::TracePhase parse_phase(const std::string& arg, const char* argv0) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char ch : arg) {
    if (ch == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  parts.push_back(cur);
  serve::TracePhase p;
  const auto want = [&](std::size_t n) {
    if (parts.size() != n) {
      std::fprintf(stderr, "bad --phase \"%s\"\n", arg.c_str());
      std::exit(2);
    }
  };
  if (parts[0] == "poisson") {
    want(3);
    p.kind = serve::PhaseKind::kPoisson;
    p.duration_ms = number_arg(parts[1], argv0);
    p.rate_rps = number_arg(parts[2], argv0);
  } else if (parts[0] == "burst") {
    want(4);
    p.kind = serve::PhaseKind::kBurst;
    p.duration_ms = number_arg(parts[1], argv0);
    p.burst_every_ms = number_arg(parts[2], argv0);
    p.burst_size = int_arg(parts[3], 1, argv0);
  } else if (parts[0] == "ramp") {
    want(4);
    p.kind = serve::PhaseKind::kRamp;
    p.duration_ms = number_arg(parts[1], argv0);
    p.rate_rps = number_arg(parts[2], argv0);
    p.end_rate_rps = number_arg(parts[3], argv0);
  } else {
    std::fprintf(stderr, "unknown phase kind \"%s\"\n", parts[0].c_str());
    std::exit(2);
  }
  return p;
}

SysNoiseConfig config_by_name(const std::string& name) {
  SysNoiseConfig cfg = SysNoiseConfig::training_default();
  if (name == "training_default" || name.empty()) return cfg;
  if (name == "backend=blocked") {
    cfg.backend = ComputeBackend::kBlocked;
    return cfg;
  }
  if (name == "backend=simd") {
    cfg.backend = ComputeBackend::kSimd;
    return cfg;
  }
  if (name == "resize=opencv_nearest") {
    cfg.resize = ResizeMethod::kOpenCVNearest;
    return cfg;
  }
  std::fprintf(stderr,
               "unknown --config \"%s\" (want training_default, "
               "backend=blocked, backend=simd, resize=opencv_nearest)\n",
               name.c_str());
  std::exit(2);
}

int run_gen(int argc, char** argv) {
  serve::TraceSpec spec;
  spec.num_samples = 1;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      // Trace files carry the seed as a JSON number: exact up to 2^53.
      spec.seed = u64_arg(argv[++i], std::uint64_t{1} << 53, argv[0]);
    } else if (arg == "--num-samples" && i + 1 < argc) {
      spec.num_samples = int_arg(argv[++i], 1, argv[0]);
    } else if (arg == "--random-samples") {
      spec.random_samples = true;
    } else if (arg == "--phase" && i + 1 < argc) {
      spec.phases.push_back(parse_phase(argv[++i], argv[0]));
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (spec.phases.empty()) {
    serve::TracePhase p;  // defaults: poisson, 1000ms, 100 rps
    spec.phases.push_back(p);
  }
  const auto trace = serve::generate_trace(spec);
  util::Json j = serve::trace_to_json(trace);
  j.set("spec", spec.to_json());
  write_output(out, j.dump(2));
  std::fprintf(stderr, "%zu requests over %.1f ms\n", trace.size(),
               spec.duration_ms());
  return 0;
}

int run_replay(int argc, char** argv) {
  std::string trace_file, model_name = "synthetic", config_name, out;
  serve::ReplayOptions opts;
  opts.server.workers = 2;
  opts.server.max_batch = 8;
  bool virtual_clock = false;
  bool cost_overridden = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--config" && i + 1 < argc) {
      config_name = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      opts.server.workers = int_arg(argv[++i], 1, argv[0]);
    } else if (arg == "--max-batch" && i + 1 < argc) {
      opts.server.max_batch = int_arg(argv[++i], 1, argv[0]);
    } else if (arg == "--max-delay-ms" && i + 1 < argc) {
      opts.server.max_delay_ms = number_arg(argv[++i], argv[0]);
    } else if (arg == "--queue-capacity" && i + 1 < argc) {
      opts.server.queue_capacity = u64_arg(argv[++i], SIZE_MAX, argv[0]);
    } else if (arg == "--virtual") {
      virtual_clock = true;
    } else if (arg == "--base-ms" && i + 1 < argc) {
      opts.cost.batch_base_ms = number_arg(argv[++i], argv[0]);
      cost_overridden = true;
    } else if (arg == "--item-ms" && i + 1 < argc) {
      opts.cost.batch_item_ms = number_arg(argv[++i], argv[0]);
      cost_overridden = true;
    } else if (arg == "--compute-threads" && i + 1 < argc) {
      opts.compute_threads = int_arg(argv[++i], 1, argv[0]);
    } else if (arg == "--time-scale" && i + 1 < argc) {
      opts.time_scale = number_arg(argv[++i], argv[0]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (trace_file.empty()) usage(argv[0]);
  if (cost_overridden && !virtual_clock) {
    std::fprintf(stderr, "--base-ms/--item-ms only apply with --virtual\n");
    return 2;
  }
  const auto trace =
      serve::trace_from_json(util::Json::parse(read_file(trace_file)));
  std::fprintf(stderr, "replaying %zu requests (%s clock)\n", trace.size(),
               virtual_clock ? "virtual" : "wall");

  // Keep the heavyweight model alive for the whole replay.
  std::unique_ptr<serve::ServingModel> model;
  models::TrainedClassifier tc;
  std::unique_ptr<serve::ClassifierServingModel> classifier;
  if (model_name == "synthetic") {
    int max_sample = 0;
    for (const serve::TraceRequest& r : trace)
      max_sample = std::max(max_sample, r.sample);
    model = std::make_unique<serve::SyntheticServingModel>(max_sample + 1);
  } else {
    tc = models::get_classifier(model_name);
    classifier = std::make_unique<serve::ClassifierServingModel>(
        tc, models::benchmark_cls_dataset().eval, models::cls_pipeline_spec(),
        config_by_name(config_name));
  }
  const serve::ServingModel& m = classifier ? *classifier : *model;

  const serve::ReplayReport report = virtual_clock
                                         ? serve::replay_virtual(m, trace, opts)
                                         : serve::replay_wall_clock(m, trace, opts);
  util::Json j = report.to_json();
  j.set("clock", virtual_clock ? "virtual" : "wall");
  j.set("model", model_name);
  if (classifier) j.set("config", config_name.empty() ? "training_default"
                                                      : config_name);
  write_output(out, j.dump(2));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "gen") return run_gen(argc, argv);
  if (cmd == "replay") return run_replay(argc, argv);
  usage(argv[0]);
}

// sysnoise_trace — merge + validate the per-process flight-recorder files
// a traced sweep leaves behind (obs/trace.h).
//
//   sysnoise_trace --dir DIR [--out PREFIX]
//   sysnoise_trace FILE_trace.json ... [--out PREFIX]
//
// Each process of a traced run (bench, sysnoise_worker, sysnoise_svc)
// writes its own <name>_<pid>_trace.json + _metrics.json.
// This tool:
//
//   1. validates every trace stream: balanced B/E pairs per (pid, tid) —
//      with matching span names in LIFO order — and non-decreasing
//      timestamps per (pid, tid);
//   2. merges the events into one Chrome trace_event timeline
//      (<PREFIX>_trace.json, loadable in chrome://tracing / Perfetto; each
//      process keeps its own pid track);
//   3. merges the metrics snapshots (obs::merge_snapshots) and writes a
//      fleet-wide summary (<PREFIX>_summary.json) via obs::summarize_events,
//      including a "leases" section correlating worker-side spans
//      (worker.lease) with their grant-side twins (svc.lease_grant) by the
//      shared lease-id attribute.
//
// --out defaults to DIR/merged (or ./merged for explicit file lists).
// Exit status: 0 valid, 1 validation failure, 2 usage/io errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

using namespace sysnoise;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir DIR [--out PREFIX]\n"
               "       %s FILE_trace.json ... [--out PREFIX]\n",
               argv0, argv0);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "sysnoise_trace: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
  if (!f) {
    std::fprintf(stderr, "sysnoise_trace: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Balanced B/E with LIFO name matching and non-decreasing timestamps, per
// (pid, tid). Prints a diagnostic and returns false on the first violation.
bool validate_stream(const std::string& label, const util::Json& trace) {
  const util::Json* events = trace.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: no traceEvents array\n", label.c_str());
    return false;
  }
  std::map<std::pair<int, int>, std::vector<std::string>> stacks;
  std::map<std::pair<int, int>, double> last_ts;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const util::Json& e = events->at(i);
    const std::string ph = e.at("ph").as_string();
    const std::pair<int, int> key{e.at("pid").as_int(), e.at("tid").as_int()};
    const double ts = e.at("ts").as_number();
    auto [it, fresh] = last_ts.emplace(key, ts);
    if (!fresh && ts < it->second) {
      std::fprintf(stderr,
                   "%s: event %zu: ts %.0f < %.0f on pid %d tid %d\n",
                   label.c_str(), i, ts, it->second, key.first, key.second);
      return false;
    }
    it->second = ts;
    if (ph == "B") {
      stacks[key].push_back(e.at("name").as_string());
    } else if (ph == "E") {
      std::vector<std::string>& stack = stacks[key];
      if (stack.empty()) {
        std::fprintf(stderr, "%s: event %zu: E with empty stack\n",
                     label.c_str(), i);
        return false;
      }
      if (stack.back() != e.at("name").as_string()) {
        std::fprintf(stderr, "%s: event %zu: E \"%s\" closes \"%s\"\n",
                     label.c_str(), i, e.at("name").as_string().c_str(),
                     stack.back().c_str());
        return false;
      }
      stack.pop_back();
    }
  }
  for (const auto& [key, stack] : stacks) {
    if (!stack.empty()) {
      std::fprintf(stderr,
                   "%s: pid %d tid %d: %zu span(s) never closed "
                   "(first: \"%s\")\n",
                   label.c_str(), key.first, key.second, stack.size(),
                   stack.front().c_str());
      return false;
    }
  }
  return true;
}

// Which side of the lease protocol a span name belongs to.
bool is_worker_lease_span(const std::string& name) {
  return name == "worker.lease";
}
bool is_grant_lease_span(const std::string& name) {
  return name == "svc.lease_grant";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string out_prefix;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir") {
      if (++i >= argc) usage(argv[0]);
      dir = argv[i];
    } else if (arg == "--out") {
      if (++i >= argc) usage(argv[0]);
      out_prefix = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument \"%s\"\n", arg.c_str());
      usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (!dir.empty()) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (ends_with(name, "_trace.json") && name.rfind("merged", 0) != 0)
        files.push_back(entry.path().string());
    }
    if (ec) {
      std::fprintf(stderr, "sysnoise_trace: cannot list %s: %s\n",
                   dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "sysnoise_trace: no *_trace.json inputs\n");
    usage(argv[0]);
  }
  std::sort(files.begin(), files.end());
  if (out_prefix.empty())
    out_prefix = dir.empty() ? "merged" : dir + "/merged";

  util::Json merged_events = util::Json::array();
  util::Json merged_metrics;
  std::size_t metrics_files = 0;
  bool valid = true;
  // Lease correlation: which sides saw each lease-id attribute.
  std::set<std::string> worker_leases, grant_leases;

  for (const std::string& path : files) {
    util::Json trace;
    try {
      trace = util::Json::parse(read_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sysnoise_trace: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
    if (!validate_stream(path, trace)) {
      valid = false;
      continue;
    }
    const util::Json& events = trace.at("traceEvents");
    std::printf("[trace] %s: %zu events OK\n", path.c_str(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const util::Json& e = events.at(i);
      const util::Json* args = e.get("args");
      if (args != nullptr && args->is_object()) {
        const util::Json* lease = args->get("lease");
        if (lease != nullptr && lease->is_string()) {
          const std::string name = e.at("name").as_string();
          if (is_worker_lease_span(name))
            worker_leases.insert(lease->as_string());
          else if (is_grant_lease_span(name))
            grant_leases.insert(lease->as_string());
        }
      }
      merged_events.push_back(e);
    }

    // Sibling metrics snapshot, when the process wrote one.
    std::string metrics_path = path;
    metrics_path.replace(metrics_path.size() - std::string("_trace.json").size(),
                         std::string::npos, "_metrics.json");
    std::ifstream probe(metrics_path);
    if (probe) {
      std::ostringstream os;
      os << probe.rdbuf();
      try {
        util::Json snap = util::Json::parse(os.str());
        merged_metrics = metrics_files == 0
                             ? std::move(snap)
                             : obs::merge_snapshots(merged_metrics, snap);
        ++metrics_files;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sysnoise_trace: %s: %s\n", metrics_path.c_str(),
                     e.what());
        return 1;
      }
    }
  }
  if (!valid) {
    std::fprintf(stderr, "sysnoise_trace: validation FAILED\n");
    return 1;
  }

  util::Json merged = util::Json::object();
  merged.set("traceEvents", std::move(merged_events));
  util::Json summary = obs::summarize_events(merged);
  summary.set("processes", files.size());
  if (metrics_files > 0) summary.set("metrics", merged_metrics);

  std::size_t correlated = 0;
  for (const std::string& id : worker_leases)
    if (grant_leases.count(id) > 0) ++correlated;
  util::Json leases = util::Json::object();
  leases.set("worker_side", worker_leases.size());
  leases.set("grant_side", grant_leases.size());
  leases.set("correlated", correlated);
  summary.set("leases", std::move(leases));

  write_file(out_prefix + "_trace.json", merged.dump(1) + "\n");
  write_file(out_prefix + "_summary.json", summary.dump(2) + "\n");
  std::printf(
      "[trace] merged %zu process(es): %d events, %d threads, "
      "%.1f ms top-level; leases: %zu worker-side, %zu grant-side, "
      "%zu correlated\n",
      files.size(), summary.at("events").as_int(),
      summary.at("threads").as_int(), summary.at("top_level_ms").as_number(),
      worker_leases.size(), grant_leases.size(), correlated);
  std::printf("[trace] wrote %s_trace.json and %s_summary.json\n",
              out_prefix.c_str(), out_prefix.c_str());
  return 0;
}

// sysnoise_ctl — control-plane client for the resident sweep service
// (sysnoise_svc):
//
//   sysnoise_ctl submit --connect host:port --jobs FILE [--priority N]
//                [--name S] [--token T] [--watch]
//   sysnoise_ctl status --connect host:port [--token T]
//   sysnoise_ctl watch  --connect host:port --job N [--token T]
//   sysnoise_ctl fetch  --connect host:port --job N [--token T] [--out FILE]
//   sysnoise_ctl cancel --connect host:port --job N [--token T]
//
// `submit` reads a jobs file written by a bench's --emit-jobs (an object
// with a "jobs" array of {task, plan} entries) and submits every entry,
// printing one "job <id>" line per submission. With --watch it then blocks
// until each job is terminal and writes the merged metrics of every job to
// stdout (or --out FILE) as JSON — reconnecting across service restarts, so
// a kill -9'd and resumed service still yields the complete, byte-identical
// result. `fetch` prints a finished job's metrics as sorted compact JSON
// (deterministic bytes, made for diffing). Exit status: 0 on success, 2 on
// usage errors, 1 on any failure (including a job that ends canceled or
// failed).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.h"
#include "net/socket.h"
#include "svc/client.h"
#include "util/json.h"

using namespace sysnoise;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s submit --connect host:port --jobs FILE [--priority N] "
      "[--name S] [--token T] [--watch]\n"
      "       %s status --connect host:port [--token T]\n"
      "       %s watch  --connect host:port --job N [--token T]\n"
      "       %s fetch  --connect host:port --job N [--token T] [--out FILE]\n"
      "       %s cancel --connect host:port --job N [--token T]\n",
      argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "sysnoise_ctl: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_output(const std::string& out_file, const std::string& content) {
  if (out_file.empty()) {
    std::fputs(content.c_str(), stdout);
    return;
  }
  std::ofstream f(out_file, std::ios::binary | std::ios::trunc);
  f << content;
  if (!f) {
    std::fprintf(stderr, "sysnoise_ctl: cannot write %s\n", out_file.c_str());
    std::exit(1);
  }
}

util::Json metrics_json(const core::MetricMap& metrics) {
  util::Json j = util::Json::object();
  for (const auto& [key, value] : metrics) j.set(key, value);
  return j;
}

void print_progress(const util::Json& p) {
  std::fprintf(stderr, "[ctl] job %d: %s %d/%d units (%d/%d configs)\n",
               p.at("job").as_int(), p.at("state").as_string().c_str(),
               p.at("units_done").as_int(), p.at("units_total").as_int(),
               p.at("configs_done").as_int(), p.at("configs_total").as_int());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  svc::ClientOptions copts;
  std::string jobs_path;
  std::string name;
  std::string out_file;
  int priority = 0;
  int job = -1;
  bool watch_after_submit = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_host_port(argv[i], &copts.host, &copts.port))
        usage(argv[0]);
    } else if (arg == "--token") {
      if (++i >= argc) usage(argv[0]);
      copts.token = argv[i];
    } else if (arg == "--jobs") {
      if (++i >= argc) usage(argv[0]);
      jobs_path = argv[i];
    } else if (arg == "--priority") {
      if (++i >= argc || !net::parse_int(argv[i], INT_MIN, INT_MAX, &priority))
        usage(argv[0]);
    } else if (arg == "--name") {
      if (++i >= argc) usage(argv[0]);
      name = argv[i];
    } else if (arg == "--job") {
      if (++i >= argc || !net::parse_int(argv[i], 0, INT_MAX, &job))
        usage(argv[0]);
    } else if (arg == "--out") {
      if (++i >= argc) usage(argv[0]);
      out_file = argv[i];
    } else if (arg == "--watch") {
      watch_after_submit = true;
    } else {
      std::fprintf(stderr, "unknown argument \"%s\"\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (copts.port == 0) usage(argv[0]);

  try {
    svc::ServiceClient client(copts);
    if (command == "submit") {
      if (jobs_path.empty()) usage(argv[0]);
      const util::Json doc = util::Json::parse(read_file(jobs_path));
      const util::Json& jjobs = doc.at("jobs");
      std::vector<std::pair<int, std::string>> ids;
      for (std::size_t i = 0; i < jjobs.size(); ++i) {
        const util::Json& jj = jjobs.at(i);
        const std::string job_name =
            !name.empty() ? name + "#" + std::to_string(i)
                          : (doc.get("bench") != nullptr
                                 ? doc.at("bench").as_string() + "#" +
                                       std::to_string(i)
                                 : "job#" + std::to_string(i));
        const int id = client.submit(
            jj.at("task"), core::SweepPlan::from_json(jj.at("plan")), priority,
            job_name);
        std::printf("job %d\n", id);
        std::fflush(stdout);
        ids.emplace_back(id, job_name);
      }
      if (watch_after_submit) {
        // Keyed by the (deterministic) job name, not the service-assigned
        // id: ids depend on how concurrent submitters interleave, and this
        // output exists to be byte-diffed across runs.
        util::Json all = util::Json::object();
        for (const auto& [id, job_name] : ids) {
          const core::MetricMap metrics = client.collect(id, print_progress);
          all.set(job_name, metrics_json(metrics));
        }
        write_output(out_file, all.dump() + "\n");
      }
    } else if (command == "status") {
      write_output(out_file, client.status().dump(2) + "\n");
    } else if (command == "watch") {
      if (job < 0) usage(argv[0]);
      const core::MetricMap metrics = client.collect(job, print_progress);
      write_output(out_file, metrics_json(metrics).dump() + "\n");
    } else if (command == "fetch") {
      if (job < 0) usage(argv[0]);
      const util::Json result = client.fetch(job);
      const std::string state = result.at("state").as_string();
      if (state != "done") {
        std::fprintf(stderr, "sysnoise_ctl: job %d is %s\n", job,
                     state.c_str());
        return 1;
      }
      write_output(out_file, result.at("metrics").dump() + "\n");
    } else if (command == "cancel") {
      if (job < 0) usage(argv[0]);
      client.cancel(job);
      std::printf("job %d canceled\n", job);
    } else {
      std::fprintf(stderr, "unknown command \"%s\"\n", command.c_str());
      usage(argv[0]);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sysnoise_ctl: %s\n", e.what());
    return 1;
  }
}

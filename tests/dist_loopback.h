// Loopback harness of the distributed-runtime tests: one in-process sweep
// service (svc/service.h) plus worker threads running dist::run_worker
// against it over 127.0.0.1, every task spec resolved to in-process tasks.
// Tests submit jobs (or drive a DistExecutor at client_options()), collect
// the merged metrics, then stop() — which tells attached workers `done` —
// and read every worker's run stats. RawWorker is the hand-driven
// connection the fault tests use to misbehave on purpose.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "net/frame.h"
#include "net/socket.h"
#include "svc/client.h"
#include "svc/service.h"
#include "util/json.h"

namespace sysnoise::loopback {

// Every spec resolves to the one in-process task.
inline dist::TaskResolver fixed_resolver(const core::EvalTask& task) {
  return [&task](const util::Json&) {
    dist::ResolvedWorkerTask out;
    out.task = &task;
    return out;
  };
}

// Lease/heartbeat timing short enough for tests to exercise expiry; pass a
// longer lease for tasks whose units take seconds (real models).
inline svc::ServiceOptions fast_options(
    std::chrono::milliseconds lease_timeout = std::chrono::milliseconds(400)) {
  svc::ServiceOptions opts;
  opts.lease_timeout = lease_timeout;
  opts.heartbeat_interval = std::chrono::milliseconds(50);
  return opts;
}

inline util::Json metrics_json(const core::MetricMap& metrics) {
  util::Json j = util::Json::object();
  for (const auto& [key, value] : metrics) j.set(key, value);
  return j;
}

class Loopback {
 public:
  explicit Loopback(svc::ServiceOptions opts = fast_options())
      : service_(std::move(opts)) {}
  ~Loopback() { stop(); }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  int port() const { return service_.port(); }
  svc::SweepService& service() { return service_; }
  svc::ClientOptions client_options() const {
    svc::ClientOptions copts;
    copts.port = service_.port();
    return copts;
  }

  // Start a run_worker thread that connects after `delay`.
  void add_worker(dist::TaskResolver resolver, dist::WorkerOptions opts = {},
                  std::chrono::milliseconds delay = {}) {
    dist::WorkerRunStats& out = stats_.emplace_back();
    threads_.emplace_back([&out, port = port(), resolver = std::move(resolver),
                           opts, delay] {
      std::this_thread::sleep_for(delay);
      try {
        out = dist::run_worker("127.0.0.1", port, resolver, opts);
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    });
  }
  void add_workers(int n, const dist::TaskResolver& resolver) {
    for (int w = 0; w < n; ++w) add_worker(resolver);
  }

  int submit(const core::SweepPlan& plan,
             const util::Json& spec = util::Json::object()) {
    return svc::ServiceClient(client_options()).submit(spec, plan);
  }
  core::MetricMap collect(int job) {
    return svc::ServiceClient(client_options()).collect(job);
  }
  // Submit every (spec, plan) job first, then collect them in order.
  std::vector<core::MetricMap> run(
      const std::vector<std::pair<util::Json, core::SweepPlan>>& jobs) {
    std::vector<int> ids;
    for (const auto& [spec, plan] : jobs) ids.push_back(submit(plan, spec));
    std::vector<core::MetricMap> out;
    for (const int id : ids) out.push_back(collect(id));
    return out;
  }
  core::MetricMap run(const core::SweepPlan& plan,
                      const util::Json& spec = util::Json::object()) {
    return collect(submit(plan, spec));
  }

  // Stop the service (attached workers get `done` on their next request)
  // and join every worker thread; idempotent. Returns the workers' stats in
  // add_worker order.
  std::vector<dist::WorkerRunStats> stop() {
    service_.stop();
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
    return {stats_.begin(), stats_.end()};
  }

 private:
  svc::SweepService service_;
  std::deque<dist::WorkerRunStats> stats_;  // stable slots for the threads
  std::vector<std::thread> threads_;
};

// A hand-driven worker session: hello at construction, then whatever frames
// the test sends — in protocol order or deliberately not.
class RawWorker {
 public:
  explicit RawWorker(int port)
      : sock_(net::TcpSocket::connect("127.0.0.1", port)) {
    util::Json hello = dist::make_message(dist::msg::kHello);
    hello.set("protocol", dist::kProtocolVersion);
    util::Json welcome;
    EXPECT_TRUE(net::send_json(sock_, hello) &&
                net::recv_json(sock_, &welcome));
    EXPECT_EQ(dist::message_type(welcome), dist::msg::kWelcome);
  }

  // lease_request until the service answers anything but `wait`: the lease
  // frame, or done/error (a null Json when the connection dropped).
  util::Json lease() {
    const util::Json request = dist::make_message(dist::msg::kLeaseRequest);
    while (true) {
      util::Json reply;
      if (!net::send_json(sock_, request) || !net::recv_json(sock_, &reply))
        return util::Json();
      if (dist::message_type(reply) != dist::msg::kWait) return reply;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(reply.at("ms").as_int()));
    }
  }

  // The lease's slice of its job's plan, fetched with job_request like
  // run_worker does.
  core::SweepPlan slice(const util::Json& lease) {
    util::Json req = dist::make_message(dist::msg::kJobRequest);
    req.set("job", lease.at("job").as_int());
    util::Json info;
    EXPECT_TRUE(net::send_json(sock_, req) && net::recv_json(sock_, &info));
    std::vector<std::size_t> indices;
    const util::Json& jconfigs = lease.at("configs");
    for (std::size_t i = 0; i < jconfigs.size(); ++i)
      indices.push_back(static_cast<std::size_t>(jconfigs.at(i).as_int()));
    return core::SweepPlan::from_json(info.at("plan")).slice(indices);
  }

  // Send a result frame for `lease`; returns the reply (ok, or an error
  // frame when rejected), or a null Json when the connection dropped.
  util::Json result(const util::Json& lease, util::Json metrics) {
    util::Json frame = dist::make_message(dist::msg::kResult);
    frame.set("job", lease.at("job").as_int());
    frame.set("unit", lease.at("unit").as_int());
    frame.set("metrics", std::move(metrics));
    util::Json reply;
    if (!net::send_json(sock_, frame) || !net::recv_json(sock_, &reply))
      return util::Json();
    return reply;
  }

 private:
  net::TcpSocket sock_;
};

}  // namespace sysnoise::loopback

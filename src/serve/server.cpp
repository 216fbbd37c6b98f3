#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>

#include "obs/trace.h"

namespace sysnoise::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ServerOptions sanitized(ServerOptions o) {
  o.workers = std::max(1, o.workers);
  o.max_batch = std::max(1, o.max_batch);
  o.max_delay_ms = std::max(0.0, o.max_delay_ms);
  return o;
}

}  // namespace

double ServingStats::served_accuracy() const {
  // Same expression shape as the offline eval metric (100.0 * correct /
  // max(1, n) with int operands) so equal ratios give the identical double.
  return 100.0 * correct / std::max(1, static_cast<int>(served));
}

util::Json ServingStats::to_json() const {
  util::Json j = util::Json::object();
  j.set("submitted", submitted);
  j.set("served", served);
  j.set("shed", shed);
  j.set("batches", batches);
  j.set("correct", correct);
  j.set("served_accuracy", served_accuracy());
  j.set("latency", latency.to_json());
  j.set("queue_depth", queue_depth.to_json());
  j.set("batch_occupancy", batch_occupancy.to_json());
  return j;
}

struct InferenceServer::Impl {
  const ServingModel& model;
  const ServerOptions opts;

  std::mutex mu;
  std::condition_variable cv;
  struct Pending {
    int id;
    int sample;
    Clock::time_point arrival;
  };
  std::deque<Pending> queue;
  bool draining = false;
  ServingStats stats;
  std::vector<std::thread> threads;

  Impl(const ServingModel& m, const ServerOptions& o)
      : model(m), opts(sanitized(o)) {
    threads.reserve(static_cast<std::size_t>(opts.workers));
    for (int w = 0; w < opts.workers; ++w)
      threads.emplace_back([this] { worker_loop(); });
  }

  bool submit(int id, int sample) {
    obs::TraceSpan span("serve.admit");
    std::lock_guard<std::mutex> lock(mu);
    stats.submitted++;
    stats.queue_depth.add(static_cast<double>(queue.size()));
    if (draining ||
        (opts.queue_capacity > 0 && queue.size() >= opts.queue_capacity)) {
      stats.shed++;
      if (span.active()) {
        span.attr("request", id);
        span.attr("shed", 1);
        obs::metrics().counter_add("serve.shed");
      }
      return false;
    }
    queue.push_back(Pending{id, sample, Clock::now()});
    cv.notify_one();
    return true;
  }

  void drain() {
    {
      std::lock_guard<std::mutex> lock(mu);
      draining = true;
    }
    cv.notify_all();
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }

  void worker_loop() {
    const Clock::duration delay = ms_duration(opts.max_delay_ms);
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [this] { return draining || !queue.empty(); });
      if (queue.empty()) {
        if (draining) return;
        continue;
      }
      std::size_t k = 0;
      std::vector<Pending> batch;
      {
        // Batching window: hold for more requests until the batch fills or
        // the oldest request's deadline passes; a drain flushes immediately.
        obs::TraceSpan form_span("serve.batch_form");
        while (!draining && static_cast<int>(queue.size()) < opts.max_batch) {
          const Clock::time_point deadline = queue.front().arrival + delay;
          const bool woke = cv.wait_until(lock, deadline, [this] {
            return draining || queue.empty() ||
                   static_cast<int>(queue.size()) >= opts.max_batch;
          });
          if (!woke) break;          // deadline: launch what we have
          if (queue.empty()) break;  // a peer took everything; start over
        }
        if (queue.empty()) continue;

        k = std::min<std::size_t>(queue.size(),
                                  static_cast<std::size_t>(opts.max_batch));
        batch.assign(queue.begin(), queue.begin() + static_cast<long>(k));
        queue.erase(queue.begin(), queue.begin() + static_cast<long>(k));
        stats.batches++;
        stats.batch_occupancy.add(static_cast<double>(k));
        if (form_span.active()) {
          form_span.attr("batch", k);
          obs::metrics().counter_add("serve.batches");
          obs::metrics().counter_add("serve.batched_requests",
                                     static_cast<std::int64_t>(k));
        }
      }
      if (!queue.empty()) cv.notify_one();

      lock.unlock();
      std::vector<int> samples;
      samples.reserve(k);
      for (const Pending& p : batch) samples.push_back(p.sample);
      std::vector<int> preds;
      {
        obs::TraceSpan fwd_span("serve.forward");
        if (fwd_span.active()) fwd_span.attr("batch", k);
        preds = model.predict(samples);
      }
      const Clock::time_point done = Clock::now();
      lock.lock();
      obs::TraceSpan done_span("serve.complete");
      if (done_span.active()) done_span.attr("batch", k);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        stats.served++;
        if (model.correct(batch[i].sample, preds[i])) stats.correct++;
        stats.latency.record(ms_between(batch[i].arrival, done));
      }
    }
  }
};

InferenceServer::InferenceServer(const ServingModel& model,
                                 const ServerOptions& opts)
    : impl_(new Impl(model, opts)) {}

InferenceServer::~InferenceServer() {
  impl_->drain();
  delete impl_;
}

bool InferenceServer::submit(int id, int sample) {
  return impl_->submit(id, sample);
}

void InferenceServer::drain() { impl_->drain(); }

ServingStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

util::Json ReplayReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("requests", requests);
  j.set("duration_ms", duration_ms);
  j.set("offered_rps", offered_rps);
  j.set("throughput_rps", throughput_rps);
  j.set("stats", stats.to_json());
  return j;
}

namespace {

struct SimRequest {
  int id;
  int sample;
  double arrival;
};

struct SimBatch {
  double launch = 0.0;
  double finish = 0.0;
  std::vector<SimRequest> members;
};

struct SimWorker {
  double free_at;
  int index;
};

// Min-heap on (free_at, index): earliest-free worker first, lowest index on
// ties, so the simulation is order-deterministic.
struct WorkerAfter {
  bool operator()(const SimWorker& a, const SimWorker& b) const {
    if (a.free_at != b.free_at) return a.free_at > b.free_at;
    return a.index > b.index;
  }
};

}  // namespace

ReplayReport replay_virtual(const ServingModel& model,
                            const std::vector<TraceRequest>& trace,
                            const ReplayOptions& opts) {
  const ServerOptions so = sanitized(opts.server);
  ReplayReport report;
  report.requests = trace.size();

  // Phase 1: decide every batch (composition, launch, finish) and every
  // shed with the server's policy on the virtual clock. Nothing here
  // touches the model or a real thread, so the decisions are a pure
  // function of (trace, options).
  std::priority_queue<SimWorker, std::vector<SimWorker>, WorkerAfter> workers;
  for (int w = 0; w < so.workers; ++w) workers.push(SimWorker{0.0, w});
  std::deque<SimRequest> pending;
  std::vector<SimBatch> batches;
  std::size_t next = 0;
  const double inf = std::numeric_limits<double>::infinity();
  while (next < trace.size() || !pending.empty()) {
    const double next_arrival =
        next < trace.size() ? trace[next].arrival_ms : inf;
    double launch = inf;
    std::size_t k = 0;
    if (!pending.empty()) {
      k = std::min<std::size_t>(pending.size(),
                                static_cast<std::size_t>(so.max_batch));
      // A full batch launches as soon as a worker frees (but never before
      // its youngest member arrived); a partial batch additionally waits
      // for the oldest member's batching deadline.
      const double trigger =
          k == static_cast<std::size_t>(so.max_batch)
              ? pending[k - 1].arrival
              : pending.front().arrival + so.max_delay_ms;
      launch = std::max(workers.top().free_at, trigger);
    }
    if (launch < next_arrival) {
      SimWorker w = workers.top();
      workers.pop();
      SimBatch b;
      b.launch = launch;
      b.finish = launch + opts.cost.batch_base_ms +
                 opts.cost.batch_item_ms * static_cast<double>(k);
      b.members.assign(pending.begin(),
                       pending.begin() + static_cast<long>(k));
      pending.erase(pending.begin(), pending.begin() + static_cast<long>(k));
      w.free_at = b.finish;
      workers.push(w);
      report.stats.batches++;
      report.stats.batch_occupancy.add(static_cast<double>(k));
      batches.push_back(std::move(b));
    } else {
      // Admit (or shed) the next arrival; on a launch/arrival tie the
      // arrival wins, mirroring a submit that lands just before the
      // worker's queue grab.
      report.stats.submitted++;
      report.stats.queue_depth.add(static_cast<double>(pending.size()));
      if (so.queue_capacity > 0 && pending.size() >= so.queue_capacity) {
        report.stats.shed++;
      } else {
        pending.push_back(SimRequest{trace[next].id, trace[next].sample,
                                     trace[next].arrival_ms});
      }
      ++next;
    }
  }

  // Phase 2: run the decided batches through the real model. Thread count
  // affects wall time only — compositions and result slots are fixed.
  std::vector<std::vector<int>> preds(batches.size());
  const int threads = std::max(1, opts.compute_threads);
  std::atomic<std::size_t> cursor{0};
  const auto run = [&] {
    while (true) {
      const std::size_t b = cursor.fetch_add(1);
      if (b >= batches.size()) return;
      std::vector<int> samples;
      samples.reserve(batches[b].members.size());
      for (const SimRequest& r : batches[b].members)
        samples.push_back(r.sample);
      preds[b] = model.predict(samples);
    }
  };
  if (threads == 1 || batches.size() <= 1) {
    run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(run);
    for (std::thread& t : pool) t.join();
  }

  // Assemble in batch order: identical accounting regardless of which real
  // thread executed which batch.
  double last_finish = 0.0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const SimBatch& batch = batches[b];
    last_finish = std::max(last_finish, batch.finish);
    for (std::size_t i = 0; i < batch.members.size(); ++i) {
      report.stats.served++;
      if (model.correct(batch.members[i].sample, preds[b][i]))
        report.stats.correct++;
      report.stats.latency.record(batch.finish - batch.members[i].arrival);
    }
  }
  const double last_arrival = trace.empty() ? 0.0 : trace.back().arrival_ms;
  report.duration_ms = std::max(last_finish, last_arrival);
  report.offered_rps =
      last_arrival > 0.0
          ? 1000.0 * static_cast<double>(trace.size()) / last_arrival
          : 0.0;
  report.throughput_rps =
      report.duration_ms > 0.0
          ? 1000.0 * static_cast<double>(report.stats.served) /
                report.duration_ms
          : 0.0;
  return report;
}

ReplayReport replay_wall_clock(const ServingModel& model,
                               const std::vector<TraceRequest>& trace,
                               const ReplayOptions& opts) {
  InferenceServer server(model, opts.server);
  const Clock::time_point start = Clock::now();
  for (const TraceRequest& r : trace) {
    std::this_thread::sleep_until(
        start + ms_duration(r.arrival_ms * opts.time_scale));
    server.submit(r.id, r.sample);
  }
  server.drain();
  const double wall_ms = ms_between(start, Clock::now());

  ReplayReport report;
  report.requests = trace.size();
  report.stats = server.stats();
  report.duration_ms = wall_ms;
  const double last_arrival =
      trace.empty() ? 0.0 : trace.back().arrival_ms * opts.time_scale;
  report.offered_rps =
      last_arrival > 0.0
          ? 1000.0 * static_cast<double>(trace.size()) / last_arrival
          : 0.0;
  report.throughput_rps =
      wall_ms > 0.0
          ? 1000.0 * static_cast<double>(report.stats.served) / wall_ms
          : 0.0;
  return report;
}

}  // namespace sysnoise::serve

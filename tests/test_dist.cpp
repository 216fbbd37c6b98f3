// Tests of the distributed sweep runtime: net framing (including the
// bounded receive of an oversized claimed frame), protocol round trips,
// work-unit grouping, the lease scheduler (expiry, re-lease, disconnect
// release, duplicate completion), service/worker loopback bit-identity for
// N ∈ {1,2,3} workers, the min-workers quorum, fault tolerance (a worker
// killed mid-lease — by disconnect and by silent death — still yields a
// byte-identical report; incomplete or contradicting results fail the job
// loudly), the DistExecutor seam, a real-model loopback run matching the
// seeded single-process sweep, and the zoo task factory's recipe tags and
// mitigation tasks.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/learned_codec.h"
#include "core/mitigation.h"
#include "core/plan.h"
#include "core/report.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "dist/protocol.h"
#include "dist/scheduler.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "net/frame.h"
#include "net/socket.h"
#include "svc/dist_executor.h"
#include "tests/dist_loopback.h"
#include "tests/temp_model_cache.h"
#include "util/json.h"

namespace sysnoise::dist {
namespace {

using core::AxisRegistry;
using core::AxisReport;
using core::MetricMap;
using core::SweepPlan;
using core::SyntheticStagedTask;
using core::TaskKind;
using loopback::fixed_resolver;
using loopback::Loopback;
using loopback::RawWorker;

void expect_reports_identical(const AxisReport& a, const AxisReport& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.combined, b.combined);
  ASSERT_EQ(a.axes.size(), b.axes.size());
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    EXPECT_EQ(a.axes[i].axis, b.axes[i].axis);
    EXPECT_EQ(a.axes[i].mean, b.axes[i].mean) << a.axes[i].axis;
    EXPECT_EQ(a.axes[i].max, b.axes[i].max) << a.axes[i].axis;
    ASSERT_EQ(a.axes[i].options.size(), b.axes[i].options.size());
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      EXPECT_EQ(a.axes[i].options[j].delta, b.axes[i].options[j].delta)
          << a.axes[i].axis << "/" << a.axes[i].options[j].label;
  }
}

// ---------------------------------------------------------------------------
// net: strict integer, number and host:port parsing (every numeric CLI
// flag)
// ---------------------------------------------------------------------------

TEST(NetParse, StrictIntegerRejectsTyposSignsAndOverflow) {
  int v = 42;
  EXPECT_FALSE(net::parse_int("", 0, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("1O", 0, INT_MAX, &v));  // letter O, not zero
  EXPECT_FALSE(net::parse_int("2x", 0, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("30s", 0, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int(" 7", 0, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("+3", INT_MIN, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("-", INT_MIN, INT_MAX, &v));
  // A sign only where the flag accepts negatives.
  EXPECT_FALSE(net::parse_int("-3", 0, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("-0", 0, INT_MAX, &v));
  EXPECT_EQ(v, 42);  // failures never write
  ASSERT_TRUE(net::parse_int("-3", INT_MIN, INT_MAX, &v));
  EXPECT_EQ(v, -3);
  // Range: the bounds themselves pass, one past them fails.
  ASSERT_TRUE(net::parse_int("0", 0, 65535, &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(net::parse_int("65535", 0, 65535, &v));
  EXPECT_EQ(v, 65535);
  EXPECT_FALSE(net::parse_int("65536", 0, 65535, &v));
  EXPECT_FALSE(net::parse_int("0", 1, INT_MAX, &v));
  // Overflow: INT_MAX/INT_MIN exactly, and no wrap-around past them.
  ASSERT_TRUE(net::parse_int("2147483647", INT_MIN, INT_MAX, &v));
  EXPECT_EQ(v, INT_MAX);
  ASSERT_TRUE(net::parse_int("-2147483648", INT_MIN, INT_MAX, &v));
  EXPECT_EQ(v, INT_MIN);
  EXPECT_FALSE(net::parse_int("2147483648", INT_MIN, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("-2147483649", INT_MIN, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("4294967297", INT_MIN, INT_MAX, &v));
  EXPECT_FALSE(net::parse_int("99999999999999999999999", 0, INT_MAX, &v));
  ASSERT_TRUE(net::parse_int("007", 0, INT_MAX, &v));
  EXPECT_EQ(v, 7);
}

TEST(NetParse, StrictU64RejectsSignsJunkAndOverflow) {
  std::uint64_t v = 42;
  EXPECT_FALSE(net::parse_u64("", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64("1O", 0, UINT64_MAX, &v));  // letter O
  EXPECT_FALSE(net::parse_u64("12abc", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64(" 7", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64("7 ", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64("+3", 0, UINT64_MAX, &v));
  // No sign at all: atoll("-1") cast to size_t was a SIZE_MAX queue.
  EXPECT_FALSE(net::parse_u64("-1", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64("-0", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, 42u);  // failures never write
  // Range: the bounds themselves pass, one past them fails.
  ASSERT_TRUE(net::parse_u64("0", 0, 256, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(net::parse_u64("256", 0, 256, &v));
  EXPECT_EQ(v, 256u);
  EXPECT_FALSE(net::parse_u64("257", 0, 256, &v));
  EXPECT_FALSE(net::parse_u64("0", 1, UINT64_MAX, &v));
}

TEST(NetParse, StrictU64TakesTheFullRangeWithoutWrapping) {
  std::uint64_t v = 0;
  // Past every int and long long, where atoll saturates.
  ASSERT_TRUE(net::parse_u64("9223372036854775808", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, std::uint64_t{1} << 63);
  ASSERT_TRUE(net::parse_u64("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  ASSERT_TRUE(net::parse_u64("00018446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 42;
  EXPECT_FALSE(net::parse_u64("18446744073709551616", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64("18446744073709551620", 0, UINT64_MAX, &v));
  EXPECT_FALSE(net::parse_u64("99999999999999999999999", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, 42u);
}

TEST(NetParse, StrictDoubleRejectsJunkNonFiniteAndOutOfRange) {
  double v = 42.0;
  EXPECT_FALSE(net::parse_double("", 0.0, 1e9, &v));
  EXPECT_FALSE(net::parse_double("2ms", 0.0, 1e9, &v));   // trailing junk
  EXPECT_FALSE(net::parse_double("1.5 ", 0.0, 1e9, &v));  // trailing space
  EXPECT_FALSE(net::parse_double(" 1.5", 0.0, 1e9, &v));  // leading space
  EXPECT_FALSE(net::parse_double("1.2.3", 0.0, 1e9, &v));
  EXPECT_FALSE(net::parse_double("e5", 0.0, 1e9, &v));
  EXPECT_FALSE(net::parse_double("-", -1.0, 1e9, &v));
  EXPECT_FALSE(net::parse_double("0x10", 0.0, 1e9, &v));  // no hex floats
  EXPECT_FALSE(net::parse_double("nan", -1e9, 1e9, &v));
  EXPECT_FALSE(net::parse_double("NAN", -1e9, 1e9, &v));
  EXPECT_FALSE(net::parse_double("inf", -1e9, 1e9, &v));
  EXPECT_FALSE(net::parse_double("-infinity", -1e9, 1e9, &v));
  EXPECT_FALSE(net::parse_double("1e400", 0.0, DBL_MAX, &v));   // overflow
  EXPECT_FALSE(net::parse_double("1e-400", 0.0, DBL_MAX, &v));  // underflow
  // Range: the bounds themselves pass, values past them fail.
  EXPECT_FALSE(net::parse_double("-0.5", 0.0, 1e9, &v));
  EXPECT_FALSE(net::parse_double("1000.01", 0.0, 1000.0, &v));
  EXPECT_EQ(v, 42.0);  // failures never write
  ASSERT_TRUE(net::parse_double("1000", 0.0, 1000.0, &v));
  EXPECT_EQ(v, 1000.0);
  ASSERT_TRUE(net::parse_double("0", 0.0, 1000.0, &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(net::parse_double("-2.5e-1", -1.0, 1.0, &v));
  EXPECT_EQ(v, -0.25);
  ASSERT_TRUE(net::parse_double(".5", 0.0, 1.0, &v));
  EXPECT_EQ(v, 0.5);
  ASSERT_TRUE(net::parse_double("+3", 0.0, 10.0, &v));
  EXPECT_EQ(v, 3.0);
}

TEST(NetParse, HostPortSplitsOnTheLastColonAndChecksThePort) {
  std::string host = "unchanged";
  int port = -1;
  ASSERT_TRUE(net::parse_host_port("127.0.0.1:4510", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 4510);
  ASSERT_TRUE(net::parse_host_port("a:b:65535", &host, &port));
  EXPECT_EQ(host, "a:b");
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"", "4510", ":4510", "host:", "host:0",
                          "host:65536", "host:-1", "host:+1", "host:45x",
                          "host:1O", "host: 1", "host:99999999999"}) {
    std::string h = "unchanged";
    EXPECT_FALSE(net::parse_host_port(bad, &h, &port)) << bad;
    EXPECT_EQ(h, "unchanged") << bad;
  }
}

// ---------------------------------------------------------------------------
// net: framing
// ---------------------------------------------------------------------------

TEST(NetFrame, JsonRoundTripsIncludingLargeFrames) {
  net::TcpListener listener = net::TcpListener::listen(0);
  ASSERT_GT(listener.port(), 0);

  util::Json big = util::Json::object();
  std::string blob(300000, 'x');
  blob[7] = '"';  // exercise escaping
  big.set("blob", blob);
  big.set("n", 42);

  std::thread client([&] {
    net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", listener.port());
    util::Json m;
    ASSERT_TRUE(net::recv_json(sock, &m));
    EXPECT_EQ(m.at("n").as_int(), 42);
    EXPECT_EQ(m.at("blob").as_string(), blob);
    // echo back
    ASSERT_TRUE(net::send_json(sock, m));
  });
  net::TcpSocket conn = listener.accept(2000);
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(net::send_json(conn, big));
  util::Json echo;
  ASSERT_TRUE(net::recv_json(conn, &echo));
  EXPECT_EQ(echo.dump(), big.dump());
  client.join();

  // Clean close reads as false, not an exception.
  conn.close();
  util::Json dummy;
  net::TcpSocket closed;
  EXPECT_FALSE(net::recv_json(closed, &dummy));
}

// Peak resident set of this process, in KiB.
long max_rss_kib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(NetFrame, ClaimedFrameLengthIsNotAllocatedUpFront) {
  // A peer declares a frame just under the cap, sends one byte and hangs
  // up: the receive must fail without ever holding the claimed size.
  net::TcpListener listener = net::TcpListener::listen(0);
  const std::uint32_t claimed = static_cast<std::uint32_t>(net::kMaxFrameBytes);
  std::thread peer([&] {
    net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", listener.port());
    const unsigned char frame[] = {
        static_cast<unsigned char>(claimed >> 24),
        static_cast<unsigned char>(claimed >> 16),
        static_cast<unsigned char>(claimed >> 8),
        static_cast<unsigned char>(claimed), '['};
    sock.send_all(frame, sizeof(frame));
  });
  net::TcpSocket conn = listener.accept(2000);
  ASSERT_TRUE(conn.valid());
  const long before_kib = max_rss_kib();
  util::Json ignored;
  EXPECT_FALSE(net::recv_json(conn, &ignored));
  peer.join();
  EXPECT_LT(max_rss_kib() - before_kib, 32L << 10)
      << "peak RSS grew by " << (max_rss_kib() - before_kib) << " KiB for a "
      << (claimed >> 20) << " MiB claim";
}

// ---------------------------------------------------------------------------
// protocol
// ---------------------------------------------------------------------------

TEST(Protocol, TaskSpecRoundTrips) {
  TaskSpec spec = classifier_spec("ResNet-M", "mix");
  spec.seed_baseline = false;
  const TaskSpec back = TaskSpec::from_json(spec.to_json());
  EXPECT_EQ(back.kind, "classification");
  EXPECT_EQ(back.model, "ResNet-M");
  EXPECT_EQ(back.tag, "mix");
  EXPECT_FALSE(back.seed_baseline);
  EXPECT_EQ(TaskSpec::from_json(detector_spec("RetinaNet-ResNet").to_json()).kind,
            "detection");
  EXPECT_EQ(TaskSpec::from_json(segmenter_spec("UNet").to_json()).kind,
            "segmentation");

  EXPECT_EQ(message_type(make_message(msg::kHello)), "hello");
  EXPECT_EQ(message_type(util::Json()), "");
}

// ---------------------------------------------------------------------------
// work units
// ---------------------------------------------------------------------------

TEST(WorkUnits, PartitionCoversPlanAndKeepsForwardGroupsTogether) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const auto units = core::plan_work_units(plan);

  // Exact partition of the config indices.
  std::set<std::size_t> seen;
  for (const auto& unit : units)
    for (const std::size_t i : unit) {
      EXPECT_LT(i, plan.configs.size());
      EXPECT_TRUE(seen.insert(i).second) << "index leased twice: " << i;
    }
  EXPECT_EQ(seen.size(), plan.configs.size());

  // Configs sharing a forward key are in the same unit (the post-proc axis
  // options ride on the baseline's forward pass).
  std::map<std::string, std::set<const std::vector<std::size_t>*>> by_fwd;
  for (const auto& unit : units)
    for (const std::size_t i : unit)
      by_fwd[plan.configs[i].forward_key].insert(&unit);
  for (const auto& [key, owners] : by_fwd)
    EXPECT_EQ(owners.size(), 1u) << key;
  // Forward groups sharing inference knobs merge into one lease, so there
  // are fewer units than forward keys, and fewer than configs.
  EXPECT_LT(units.size(), by_fwd.size());
  EXPECT_LT(units.size(), plan.configs.size());
}

// ---------------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, LeasesInOrderThenWaits) {
  using Clock = LeaseScheduler::Clock;
  const auto now = Clock::now();
  LeaseScheduler sched({{0, {0}}, {0, {1}}}, std::chrono::milliseconds(1000));
  EXPECT_EQ(sched.acquire(1, now), std::optional<std::size_t>(0));
  EXPECT_EQ(sched.acquire(2, now), std::optional<std::size_t>(1));
  EXPECT_EQ(sched.acquire(3, now), std::nullopt);  // everything leased
  EXPECT_FALSE(sched.all_done());
  EXPECT_TRUE(sched.complete(0));
  EXPECT_TRUE(sched.complete(1));
  EXPECT_TRUE(sched.all_done());
  EXPECT_EQ(sched.acquire(3, now), std::nullopt);
}

TEST(Scheduler, ExpiredLeaseIsReLeasedAndDeadWorkerLosesLeases) {
  using Clock = LeaseScheduler::Clock;
  const auto now = Clock::now();
  LeaseScheduler sched({{0, {0}}, {0, {1}}}, std::chrono::milliseconds(100));
  ASSERT_TRUE(sched.acquire(1, now).has_value());
  ASSERT_TRUE(sched.acquire(1, now).has_value());

  // Heartbeats keep leases alive past the nominal deadline.
  sched.heartbeat(1, now + std::chrono::milliseconds(90));
  EXPECT_EQ(sched.acquire(2, now + std::chrono::milliseconds(150)),
            std::nullopt);

  // Silence past the deadline expires both leases to the next worker.
  const auto later = now + std::chrono::milliseconds(300);
  EXPECT_EQ(sched.acquire(2, later), std::optional<std::size_t>(0));
  EXPECT_EQ(sched.acquire(2, later), std::optional<std::size_t>(1));
  EXPECT_EQ(sched.stats().expired, 2u);
  EXPECT_EQ(sched.stats().re_leases, 2u);

  // Disconnect release: worker 2 dies, worker 3 inherits immediately.
  sched.release_worker(2);
  EXPECT_EQ(sched.stats().released, 2u);
  EXPECT_EQ(sched.acquire(3, later), std::optional<std::size_t>(0));
  EXPECT_TRUE(sched.complete(0));
  EXPECT_FALSE(sched.complete(0));  // duplicate (late worker finished too)
  EXPECT_EQ(sched.stats().duplicate_results, 1u);
}

// ---------------------------------------------------------------------------
// service/worker loopback
// ---------------------------------------------------------------------------

AxisReport local_report(const core::EvalTask& task, const SweepPlan& plan) {
  return core::assemble_report(plan,
                               core::ThreadPoolExecutor().execute(task, plan));
}

TEST(Distributed, LoopbackMatchesThreadPoolForOneTwoThreeWorkers) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected = local_report(task, plan);

  for (const int workers : {1, 2, 3}) {
    Loopback lb;
    lb.add_workers(workers, fixed_resolver(task));
    expect_reports_identical(expected,
                             core::assemble_report(plan, lb.run(plan)));
    for (const WorkerRunStats& w : lb.stop())
      EXPECT_TRUE(w.done) << w.error;
    const svc::ServiceStats stats = lb.service().stats();
    EXPECT_EQ(stats.workers_joined, static_cast<std::size_t>(workers))
        << workers;
    EXPECT_EQ(stats.worker_errors, 0u);
    EXPECT_GE(stats.results_received,
              stats.scheduler.completed);  // duplicates allowed, gaps not
  }
}

TEST(Distributed, MinWorkersHoldsLeasesUntilQuorum) {
  // --coordinate submits only once the quorum joined, so no lease can go
  // out before it: the first worker idles on `wait` until the second comes.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  Loopback lb;
  lb.add_worker(fixed_resolver(task));
  lb.add_worker(fixed_resolver(task), {}, std::chrono::milliseconds(100));
  ASSERT_TRUE(lb.service().wait_workers(2, std::chrono::seconds(10)));
  EXPECT_EQ(lb.service().stats().scheduler.leases_granted, 0u);
  expect_reports_identical(local_report(task, plan),
                           core::assemble_report(plan, lb.run(plan)));
  lb.stop();
  EXPECT_EQ(lb.service().stats().workers_joined, 2u);
}

TEST(Distributed, MinWorkersTimeoutFailsLoudly) {
  // A quorum that never arrives must end the wait with a verdict the bench
  // turns into a diagnostic, not hold the plans forever.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  Loopback lb;
  lb.add_worker(fixed_resolver(task));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(lb.service().wait_workers(2, std::chrono::seconds(1)));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(lb.service().wait_workers(1, std::chrono::seconds(10)));
}

TEST(Distributed, WorkerRetryReportsAttemptCount) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  // Grab an ephemeral port, then close it: connecting gets refused, and the
  // retry loop must give up after the timeout naming its attempt count.
  int dead_port = 0;
  {
    net::TcpListener probe = net::TcpListener::listen(0);
    dead_port = probe.port();
  }
  const WorkerRunStats stats = run_worker_retrying(
      "127.0.0.1", dead_port, fixed_resolver(task), {},
      std::chrono::seconds(1));
  EXPECT_FALSE(stats.done);
  EXPECT_NE(stats.error.find("attempt"), std::string::npos) << stats.error;
}

TEST(Distributed, MultipleJobsMergePerJob) {
  const SyntheticStagedTask det(TaskKind::kDetection, true);
  const SyntheticStagedTask seg(TaskKind::kSegmentation, false, 2, 2, 2);
  const SweepPlan det_plan = core::plan_sweep(det, AxisRegistry::global());
  const SweepPlan seg_plan = core::plan_sweep(seg, AxisRegistry::global());

  // Spec-aware resolver: jobs name which task they are.
  const TaskResolver resolver = [&](const util::Json& spec) {
    ResolvedWorkerTask out;
    out.task = spec.at("which").as_string() == "det"
                   ? static_cast<const core::EvalTask*>(&det)
                   : &seg;
    return out;
  };
  util::Json det_spec = util::Json::object();
  det_spec.set("which", "det");
  util::Json seg_spec = util::Json::object();
  seg_spec.set("which", "seg");

  Loopback lb;
  lb.add_workers(2, resolver);
  const std::vector<MetricMap> results =
      lb.run({{det_spec, det_plan}, {seg_spec, seg_plan}});
  lb.stop();

  expect_reports_identical(local_report(det, det_plan),
                           core::assemble_report(det_plan, results.at(0)));
  expect_reports_identical(local_report(seg, seg_plan),
                           core::assemble_report(seg_plan, results.at(1)));
}

// ---------------------------------------------------------------------------
// fault tolerance
// ---------------------------------------------------------------------------

TEST(Distributed, WorkerKilledMidLeaseByDisconnectIsReLeased) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected = local_report(task, plan);

  Loopback lb;
  const int job = lb.submit(plan);
  // The doomed worker completes one lease, takes another, and drops the
  // connection without a result — a worker killed mid-lease. The survivor
  // joins a beat later and finishes everything.
  WorkerOptions doomed;
  doomed.abandon_after_leases = 1;
  lb.add_worker(fixed_resolver(task), doomed);
  lb.add_worker(fixed_resolver(task), {}, std::chrono::milliseconds(50));
  const AxisReport report = core::assemble_report(plan, lb.collect(job));
  const std::vector<WorkerRunStats> workers = lb.stop();
  EXPECT_TRUE(workers.at(0).abandoned);
  EXPECT_TRUE(workers.at(1).done) << workers.at(1).error;

  expect_reports_identical(expected, report);
  // Byte-identical all the way to the rendered artifact, not just the
  // doubles: the CI diff contract.
  EXPECT_EQ(core::render_axis_table({expected}, "METRIC"),
            core::render_axis_table({report}, "METRIC"));
  EXPECT_EQ(core::axis_report_csv({expected}), core::axis_report_csv({report}));
  const SchedulerStats stats = lb.service().stats().scheduler;
  EXPECT_GE(stats.released + stats.expired, 1u);
  EXPECT_GE(stats.re_leases, 1u);
}

TEST(Distributed, SilentWorkerLeaseExpiresAndIsReLeased) {
  const SyntheticStagedTask task(TaskKind::kClassification, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());

  Loopback lb(loopback::fast_options(std::chrono::milliseconds(200)));
  const int job = lb.submit(plan);
  // A raw client that takes a lease and then holds the socket open in
  // silence — no heartbeat, no disconnect. Only lease expiry can save the
  // sweep.
  RawWorker zombie(lb.port());
  ASSERT_EQ(message_type(zombie.lease()), msg::kLease);
  lb.add_worker(fixed_resolver(task), {}, std::chrono::milliseconds(100));
  const MetricMap metrics = lb.collect(job);
  EXPECT_TRUE(lb.stop().at(0).done);

  expect_reports_identical(local_report(task, plan),
                           core::assemble_report(plan, metrics));
  const SchedulerStats stats = lb.service().stats().scheduler;
  EXPECT_GE(stats.expired, 1u);
  EXPECT_GE(stats.re_leases, 1u);
}

TEST(Distributed, LateResultFromExpiredLeaseIsAcceptedOrDuplicate) {
  // A worker whose lease expired (and was re-leased to someone else) sends
  // its result anyway: the service verifies agreement instead of failing,
  // and the run stays byte-identical.
  const SyntheticStagedTask task(TaskKind::kSegmentation, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());

  Loopback lb(loopback::fast_options(std::chrono::milliseconds(150)));
  const int job = lb.submit(plan);
  RawWorker slow(lb.port());
  const util::Json lease = slow.lease();
  ASSERT_EQ(message_type(lease), msg::kLease);
  const SweepPlan slice = slow.slice(lease);
  lb.add_worker(fixed_resolver(task), {}, std::chrono::milliseconds(50));
  // Sleep past expiry, then evaluate honestly and submit late.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const util::Json reply = slow.result(
      lease, loopback::metrics_json(core::ThreadPoolExecutor().execute(
                 task, slice)));
  EXPECT_EQ(message_type(reply), msg::kOk);
  const MetricMap metrics = lb.collect(job);
  lb.stop();
  expect_reports_identical(local_report(task, plan),
                           core::assemble_report(plan, metrics));
  EXPECT_GE(lb.service().stats().scheduler.re_leases, 1u);
}

TEST(Distributed, DisagreeingDuplicateResultFailsTheRunLoudly) {
  // Executors must be bit-identical; a worker contradicting an already-
  // merged metric has to fail the sweep with a diagnostic — not average,
  // not hang. The liar reports its unit honestly first, then again with
  // one real key changed (a made-up key would be rejected as missing).
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());

  Loopback lb;
  const int job = lb.submit(plan);
  RawWorker liar(lb.port());
  const util::Json lease = liar.lease();
  ASSERT_EQ(message_type(lease), msg::kLease);
  MetricMap honest =
      core::ThreadPoolExecutor().execute(task, liar.slice(lease));
  EXPECT_EQ(message_type(liar.result(lease, loopback::metrics_json(honest))),
            msg::kOk);
  honest.begin()->second += 1.0;
  const util::Json rejected =
      liar.result(lease, loopback::metrics_json(honest));
  EXPECT_EQ(message_type(rejected), msg::kError);

  EXPECT_THROW(
      {
        try {
          lb.collect(job);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("disagree"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  EXPECT_GE(lb.service().stats().worker_errors, 1u);
}

TEST(Distributed, ResultMissingItsUnitsMetricsFailsTheJob) {
  // A worker that answers every lease with metrics its unit never planned
  // must not complete the job: the first such frame fails it, naming the
  // missing key, and the worker is told so.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  ASSERT_EQ(plan.configs.size(), 24u);

  const std::size_t units = core::plan_work_units(plan).size();

  Loopback lb;
  const int job = lb.submit(plan);
  RawWorker bogus(lb.port());
  util::Json junk = util::Json::object();
  junk.set("bogus", 1);
  std::size_t answered = 0;
  while (answered < units) {
    const util::Json lease = bogus.lease();
    if (message_type(lease) != msg::kLease) break;
    ++answered;
    const util::Json reply = bogus.result(lease, junk);
    if (message_type(reply) != msg::kOk) {
      EXPECT_EQ(message_type(reply), msg::kError);
      EXPECT_NE(reply.at("message").as_string().find("no metric for"),
                std::string::npos)
          << reply.dump();
      break;
    }
  }
  EXPECT_EQ(answered, 1u);
  ASSERT_TRUE(lb.service().wait_idle(std::chrono::seconds(10)));
  const util::Json fetched = svc::ServiceClient(lb.client_options()).fetch(job);
  EXPECT_EQ(fetched.at("state").as_string(), "failed");
  EXPECT_NE(fetched.at("error").as_string().find("no metric for \""),
            std::string::npos)
      << fetched.dump();
  EXPECT_EQ(fetched.get("metrics"), nullptr);
}

TEST(Distributed, GarbageConnectionDoesNotKillTheService) {
  // A non-protocol client (port scanner, version skew) sends a length-valid
  // frame of non-JSON bytes: the handler contains the parse error, the
  // sweep completes off the healthy worker.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  Loopback lb;
  {
    net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", lb.port());
    const unsigned char frame[] = {0, 0, 0, 4, 'j', 'u', 'n', 'k'};
    sock.send_all(frame, sizeof(frame));
    util::Json ignored;
    net::recv_json(sock, &ignored);  // error reply or close — either is fine
  }
  lb.add_worker(fixed_resolver(task));
  expect_reports_identical(local_report(task, plan),
                           core::assemble_report(plan, lb.run(plan)));
  lb.stop();
  EXPECT_GE(lb.service().stats().worker_errors, 1u);
}

// ---------------------------------------------------------------------------
// DistExecutor seam
// ---------------------------------------------------------------------------

TEST(Distributed, DistExecutorMatchesStagedExecutorAndFillsTheCache) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::StagedExecutor().execute(task, plan);

  Loopback lb;
  lb.add_worker(fixed_resolver(task));
  core::SweepCache cache;
  core::SweepOptions opts;
  opts.cache = &cache;
  const svc::DistExecutor dist(lb.client_options(), util::Json::object());
  const MetricMap metrics = dist.execute(task, plan, opts);
  lb.stop();

  EXPECT_EQ(metrics, expected);  // bit-identical, key for key
  EXPECT_EQ(cache.size(), metrics.size());  // remote results memoized
  EXPECT_STREQ(dist.name(), "dist");
}

// ---------------------------------------------------------------------------
// real models
// ---------------------------------------------------------------------------

TEST(Distributed, RealClassifierLoopbackMatchesSeededSingleProcessSweep) {
  auto tc = models::get_classifier("MCUNet");
  models::ClassifierTask task(tc);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());

  // Reference: the seeded staged sweep the table benches run.
  core::SweepCache cache;
  cache.seed(task, SysNoiseConfig::training_default(), tc.trained_acc);
  core::SweepOptions opts;
  opts.cache = &cache;
  const AxisReport expected = core::sweep(task, opts);

  // Distributed: two workers resolving the spec through the zoo, exactly
  // like sysnoise_worker would (same process here, so the zoo cache is
  // warm and the resolution is instant).
  Loopback lb(loopback::fast_options(std::chrono::milliseconds(5000)));
  lb.add_workers(2, zoo_task_resolver());
  const MetricMap metrics = lb.run(plan, classifier_spec("MCUNet").to_json());
  for (const WorkerRunStats& w : lb.stop()) {
    EXPECT_TRUE(w.done);
    EXPECT_TRUE(w.error.empty()) << w.error;
  }

  expect_reports_identical(expected, core::assemble_report(plan, metrics));
}

// ---------------------------------------------------------------------------
// zoo task factory: recipe tags and mitigation tasks
// ---------------------------------------------------------------------------

TEST(TaskFactory, TaggedClassifierSpecTrainsTheTagsRecipe) {
  const TempModelCache cache;
  const ResolvedWorkerTask resolved =
      resolve_zoo_task(classifier_spec("MCUNet", "t8_OpenCV").to_json());

  // The bench's recipe for that tag, spelled out and cached under another
  // tag: the worker must have trained exactly these weights.
  SysNoiseConfig opencv = SysNoiseConfig::training_default();
  opencv.decoder = jpeg::DecoderVendor::kOpenCV;
  const models::ClsPreprocessor prep =
      core::fixed_config_preprocessor(models::cls_pipeline_spec(), opencv);
  const models::TrainedClassifier reference =
      models::get_classifier("MCUNet", "reference", &prep);

  const std::string weights = cache.bytes("cls_MCUNet_t8_OpenCV_v1.weights");
  ASSERT_FALSE(weights.empty());
  EXPECT_TRUE(weights == cache.bytes("cls_MCUNet_reference_v1.weights"))
      << "tagged spec trained another recipe than its tag names";
  EXPECT_EQ(resolved.task->cache_identity(), "MCUNet#t8_OpenCV");
  ASSERT_EQ(resolved.seeds.size(), 1u);
  EXPECT_EQ(resolved.seeds.begin()->second, reference.trained_acc);
}

TEST(TaskFactory, UnknownRecipeTagThrowsBeforeTrainingOrCaching) {
  const TempModelCache cache;
  for (const char* tag : {"mix", "t7_bogus", "t8_Bogus", "t9_", "f4_NoSuch",
                          "adversarial", "t7_mix_extra"}) {
    EXPECT_THROW(resolve_zoo_task(classifier_spec("MCUNet", tag).to_json()),
                 std::invalid_argument)
        << tag;
    EXPECT_THROW(
        resolve_zoo_task(learned_decode_spec("MCUNet", tag).to_json()),
        std::invalid_argument)
        << tag;
  }
  EXPECT_TRUE(std::filesystem::is_empty(cache.dir()));
}

TEST(TaskFactory, TentSpecAdaptsAFreshModelSeededWithThePlainAccuracy) {
  const ResolvedWorkerTask resolved =
      resolve_zoo_task(tent_spec("MCUNet").to_json());
  EXPECT_EQ(resolved.task->name(), "MCUNet (w/ TENT)");
  auto tc = models::get_classifier("MCUNet");
  const SysNoiseConfig base = SysNoiseConfig::training_default();
  ASSERT_EQ(resolved.seeds.size(), 1u);
  EXPECT_EQ(resolved.seeds.at(core::SweepCache::key_for(*resolved.task, base)),
            tc.trained_acc);

  SysNoiseConfig cfg = base;
  cfg.resize = ResizeMethod::kOpenCVNearest;
  const double first = resolved.task->evaluate(cfg);
  // TENT mutates the model it adapts: a task that reused one copy would
  // drift on the second call.
  EXPECT_EQ(resolved.task->evaluate(cfg), first);
  EXPECT_EQ(first, core::eval_classifier_tent(
                       *tc.model, models::benchmark_cls_dataset().eval, cfg,
                       models::cls_pipeline_spec(), &tc.ranges));
}

TEST(TaskFactory, LearnedDecodeSpecRunsTheLearnedCodecChainUnseeded) {
  const ResolvedWorkerTask resolved =
      resolve_zoo_task(learned_decode_spec("MCUNet", "").to_json());
  EXPECT_EQ(resolved.task->name(), "MCUNet (Learned decode)");
  EXPECT_TRUE(resolved.seeds.empty());

  // Oracle: the learned decode stage per sample, batches of 16, the shared
  // classifier forward loop.
  auto tc = models::get_classifier("MCUNet");
  const auto& eval = models::benchmark_cls_dataset().eval;
  auto codec = core::get_learned_codec();
  const int n = static_cast<int>(eval.size());
  PreprocessedBatches batches;
  batches.batch_size = 16;
  batches.num_samples = n;
  for (int b = 0; b < n; b += 16) {
    std::vector<Tensor> inputs;
    for (int i = b; i < std::min(b + 16, n); ++i)
      inputs.push_back(core::preprocess_learned(
          eval[static_cast<std::size_t>(i)].jpeg, *codec,
          models::cls_pipeline_spec()));
    batches.inputs.push_back(models::stack_batch(inputs));
  }
  SysNoiseConfig int8 = SysNoiseConfig::training_default();
  int8.precision = nn::Precision::kINT8;
  for (const SysNoiseConfig& cfg : {SysNoiseConfig::training_default(), int8})
    EXPECT_EQ(resolved.task->evaluate(cfg),
              models::eval_classifier_batches(*tc.model, batches, eval, cfg,
                                              &tc.ranges));
}

}  // namespace
}  // namespace sysnoise::dist

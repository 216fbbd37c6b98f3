#include "obs/trace.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "util/fs.h"

namespace sysnoise::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

// One steady epoch per process: every thread's timestamps share it, so
// per-thread streams are non-decreasing and cross-thread deltas are real.
std::uint64_t now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

struct TraceEvent {
  const char* name;  // span-site string literals; never freed
  char ph;           // 'B' or 'E'
  std::uint64_t ts_us;
  std::vector<std::pair<std::string, std::string>> args;
};

// Buffers are shared_ptr so a thread can exit before the drain: the
// registry keeps its events alive until they are collected.
struct ThreadBuffer {
  std::mutex mu;  // only the drain ever contends with the owning thread
  std::vector<TraceEvent> events;
  int tid = 0;
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

BufferRegistry& registry() {
  static auto* r = new BufferRegistry();  // never destroyed: threads may
  return *r;                              // outlive static teardown order
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void append_event(TraceEvent ev) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(ev));
}

// Atomic, so concurrent readers (CI polling for trace files) never see a
// partial document. A failed write publishes nothing and says so.
void publish(const std::string& path, const std::string& bytes) {
  if (!util::write_file_atomic(path, bytes))
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
}

}  // namespace

TraceSpan::TraceSpan(const char* name) {
  if (!trace_enabled()) return;  // the whole disabled cost: one relaxed load
  active_ = true;
  name_ = name;
  append_event(TraceEvent{name, 'B', now_us(), {}});
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  append_event(TraceEvent{name_, 'E', now_us(), std::move(args_)});
}

void TraceSpan::attr(const char* key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

void TraceSpan::attr(const char* key, std::int64_t value) {
  if (!active_) return;
  args_.emplace_back(key, std::to_string(value));
}

void trace_enable() {
  now_us();  // pin the epoch before any span can race the static init
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void trace_reset() {
  BufferRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> blk(buf->mu);
    buf->events.clear();
  }
}

util::Json trace_drain() {
  struct Tagged {
    int tid;
    TraceEvent ev;
  };
  std::vector<Tagged> all;
  {
    BufferRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& buf : r.buffers) {
      std::vector<TraceEvent> events;
      {
        std::lock_guard<std::mutex> blk(buf->mu);
        events.swap(buf->events);
      }
      for (auto& ev : events) all.push_back(Tagged{buf->tid, std::move(ev)});
    }
  }
  // Stable by timestamp: within a thread events were appended in
  // non-decreasing ts order, so their relative order survives and B/E
  // balance per thread is preserved.
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.ev.ts_us < b.ev.ts_us;
                   });
  const int pid = static_cast<int>(::getpid());
  util::Json events = util::Json::array();
  for (const auto& t : all) {
    util::Json e = util::Json::object();
    e.set("name", t.ev.name);
    e.set("cat", "sysnoise");
    e.set("ph", std::string(1, t.ev.ph));
    e.set("ts", t.ev.ts_us);
    e.set("pid", pid);
    e.set("tid", t.tid);
    if (!t.ev.args.empty()) {
      util::Json args = util::Json::object();
      for (const auto& [k, v] : t.ev.args) args.set(k, v);
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  util::Json trace = util::Json::object();
  trace.set("traceEvents", std::move(events));
  return trace;
}

util::Json summarize_events(const util::Json& trace) {
  struct Open {
    std::string name;
    std::uint64_t ts;
  };
  struct Agg {
    std::size_t count = 0;
    double total_ms = 0.0;
  };
  std::map<std::pair<int, int>, std::vector<Open>> stacks;
  std::map<std::string, Agg> spans;
  double top_level_ms = 0.0;
  std::uint64_t min_ts = 0, max_ts = 0;
  bool any = false;
  const util::Json& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    const auto ts = static_cast<std::uint64_t>(e.at("ts").as_number());
    if (!any || ts < min_ts) min_ts = ts;
    if (!any || ts > max_ts) max_ts = ts;
    any = true;
    const auto key = std::make_pair(e.at("pid").as_int(), e.at("tid").as_int());
    auto& stack = stacks[key];
    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") {
      stack.push_back(Open{e.at("name").as_string(), ts});
    } else if (ph == "E" && !stack.empty()) {
      const Open open = stack.back();
      stack.pop_back();
      const double ms = static_cast<double>(ts - open.ts) / 1000.0;
      Agg& agg = spans[open.name];
      agg.count += 1;
      agg.total_ms += ms;
      if (stack.empty()) top_level_ms += ms;
    }
  }
  util::Json j = util::Json::object();
  j.set("events", events.size());
  j.set("threads", stacks.size());
  j.set("wall_us", any ? max_ts - min_ts : 0);
  j.set("top_level_ms", top_level_ms);
  util::Json span_json = util::Json::object();
  for (const auto& [name, agg] : spans) {
    util::Json s = util::Json::object();
    s.set("count", agg.count);
    s.set("total_ms", agg.total_ms);
    span_json.set(name, std::move(s));
  }
  j.set("spans", std::move(span_json));
  return j;
}

TraceSession::TraceSession(std::string dir, std::string name)
    : dir_(std::move(dir)), name_(std::move(name)) {
  if (dir_.empty()) return;
  ::mkdir(dir_.c_str(), 0777);  // best effort; EEXIST is the common case
  trace_reset();
  metrics().reset();
  trace_enable();
}

TraceSession TraceSession::from_env(std::string name) {
  const char* dir = std::getenv("SYSNOISE_TRACE");
  if (dir == nullptr || dir[0] == '\0') return TraceSession();
  return TraceSession(dir, std::move(name));
}

TraceSession::TraceSession(TraceSession&& other) noexcept
    : dir_(std::move(other.dir_)),
      name_(std::move(other.name_)),
      extras_(std::move(other.extras_)),
      finished_(other.finished_) {
  other.dir_.clear();
  other.finished_ = true;
}

TraceSession& TraceSession::operator=(TraceSession&& other) noexcept {
  if (this == &other) return *this;
  if (active()) finish();
  dir_ = std::move(other.dir_);
  name_ = std::move(other.name_);
  extras_ = std::move(other.extras_);
  finished_ = other.finished_;
  other.dir_.clear();
  other.finished_ = true;
  return *this;
}

TraceSession::~TraceSession() {
  if (active()) finish();
}

void TraceSession::add_summary(const std::string& key, util::Json value) {
  if (active()) extras_.set(key, std::move(value));
}

std::string TraceSession::trace_path() const {
  return dir_ + "/" + name_ + "_" + std::to_string(::getpid()) +
         "_trace.json";
}

util::Json TraceSession::finish() {
  if (!active()) return util::Json::object();
  finished_ = true;
  trace_disable();
  const util::Json trace = trace_drain();
  const util::Json snap = metrics().snapshot();
  util::Json summary = summarize_events(trace);
  summary.set("metrics", snap);
  for (const auto& [key, value] : extras_.items()) summary.set(key, value);
  const std::string base =
      dir_ + "/" + name_ + "_" + std::to_string(::getpid());
  publish(base + "_trace.json", trace.dump(1) + "\n");
  publish(base + "_metrics.json", snap.dump(1) + "\n");
  publish(base + "_summary.json", summary.dump(1) + "\n");
  return summary;
}

}  // namespace sysnoise::obs

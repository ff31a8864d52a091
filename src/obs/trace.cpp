#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/numfmt.h"
#include "obs/obs.h"

namespace ffet::obs {

namespace {

/// 0 = uninitialized (read the environment on first query), 1 = off, 2 = on.
std::atomic<int> g_trace_state{0};

struct Event {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// One thread's lane.  The owner appends under `m`; snapshot/dump readers
/// copy under the same mutex, so recording may continue during a dump.
struct ThreadBuf {
  int tid = 0;
  std::mutex m;
  std::string name;
  std::vector<Event> events;
};

struct TraceRegistry {
  std::mutex m;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  int next_tid = 0;
};

// Leaked intentionally: the at-exit dump may run after static destructors.
TraceRegistry& registry() {
  static auto* r = new TraceRegistry;
  return *r;
}

ThreadBuf& local_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    b->tid = r.next_tid++;
    b->name = "thread." + std::to_string(b->tid);
    r.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

std::uint64_t steady_raw_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raw steady_clock ns of the trace epoch; 0 = not yet pinned.
std::atomic<std::uint64_t> g_epoch_raw_ns{0};

std::uint64_t trace_epoch() {
  std::uint64_t e = g_epoch_raw_ns.load(std::memory_order_relaxed);
  if (e == 0) {
    std::uint64_t now = steady_raw_ns();
    if (now == 0) now = 1;  // 0 means "unpinned"; never store it
    if (g_epoch_raw_ns.compare_exchange_strong(e, now,
                                               std::memory_order_relaxed)) {
      e = now;
    }
  }
  return e;
}

std::string& exit_dump_path() {
  static auto* p = new std::string;
  return *p;
}

/// Microseconds with fixed 3-decimal precision from integer nanoseconds —
/// pure integer formatting, byte-stable across runs for equal inputs.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

bool tracing_enabled() {
  int s = g_trace_state.load(std::memory_order_relaxed);
  if (s == 0) {
    init_from_env();
    s = g_trace_state.load(std::memory_order_relaxed);
  }
  return s == 2;
}

void set_tracing(bool on) {
  if (on) trace_epoch();  // pin the epoch no later than the first enable
  g_trace_state.store(on ? 2 : 1, std::memory_order_relaxed);
}

namespace detail {

void init_tracing_from_env() {
  const EnvSink& sink = env().trace;
  if (sink.on()) {
    set_tracing(true);
    if (sink.mode == EnvSink::kPath) dump_trace_at_exit(sink.path);
  } else {
    // Only settle to "off" if nobody called set_tracing() first.
    int expected = 0;
    g_trace_state.compare_exchange_strong(expected, 1,
                                          std::memory_order_relaxed);
  }
}

}  // namespace detail

void set_thread_name(std::string name) {
  ThreadBuf& b = local_buf();
  std::lock_guard<std::mutex> lk(b.m);
  b.name = std::move(name);
}

std::uint64_t trace_now_ns() {
  const std::uint64_t epoch = trace_epoch();
  const std::uint64_t now = steady_raw_ns();
  return now > epoch ? now - epoch : 0;
}

std::uint64_t trace_epoch_raw_ns() { return trace_epoch(); }

void set_trace_epoch_raw_ns(std::uint64_t raw_ns) {
  g_epoch_raw_ns.store(raw_ns == 0 ? 1 : raw_ns, std::memory_order_relaxed);
}

void record_span(std::string name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  ThreadBuf& b = local_buf();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back(
      {std::move(name), start_ns, end_ns > start_ns ? end_ns - start_ns : 0});
}

void clear_trace() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (auto& b : r.bufs) {
    std::lock_guard<std::mutex> blk(b->m);
    b->events.clear();
  }
}

std::vector<TraceEventView> snapshot_trace() {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    bufs = r.bufs;
  }
  std::vector<TraceEventView> out;
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->m);
    for (const Event& e : b->events) {
      out.push_back({b->tid, b->name, e.name, e.start_ns, e.dur_ns});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.name < b.name;
            });
  return out;
}

std::string trace_to_json() {
  const std::vector<TraceEventView> events = snapshot_trace();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  // Thread-name metadata for every lane that recorded something.
  int last_tid = -1;
  for (const TraceEventView& e : events) {
    if (e.tid == last_tid) continue;
    last_tid = e.tid;
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, e.thread);
    out += "\"}}";
  }
  for (const TraceEventView& e : events) {
    sep();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":";
    append_us(out, e.start_ns);
    out += ",\"dur\":";
    append_us(out, e.dur_ns);
    out += ",\"cat\":\"ffet\",\"name\":\"";
    append_escaped(out, e.name);
    out += "\"}";
  }
  out += "\n]}\n";
  return out;
}

bool dump_trace(const std::string& path) {
  const std::string json = trace_to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return n == json.size();
}

void dump_trace_at_exit(std::string path) {
  static std::once_flag once;
  std::call_once(once, [&path] {
    exit_dump_path() = std::move(path);
    std::atexit([] {
      if (!exit_dump_path().empty()) dump_trace(exit_dump_path());
    });
  });
}

}  // namespace ffet::obs

// trace.h — span tracing for the dual-sided P&R pipeline.
//
// Records RAII spans into per-thread buffers and serializes them as Chrome
// trace-event JSON ("X" complete events plus "M" thread-name metadata),
// loadable in chrome://tracing or https://ui.perfetto.dev.  Worker threads
// of the runtime ThreadPool register named lanes ("pool.worker.N"), so a
// traced sweep shows which stages ran where and how much parallelism was
// realized.
//
// Disabled by default with near-zero overhead: `FFET_TRACE_SCOPE(...)`
// compiles to one relaxed atomic flag check when tracing is off — no
// allocation, no clock read, no formatting.  Enable with
// `obs::set_tracing(true)` or the `FFET_TRACE=<path>` environment variable
// (which also dumps the trace to <path> at process exit).
//
// Serialization is deterministic for a given set of recorded events: events
// are sorted by (lane, start, duration, name) and numbers are formatted
// with std::to_chars, so dumping the same trace twice yields identical
// bytes.

#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ffet::obs {

/// Is span recording on?  One relaxed atomic load; the first call reads
/// env().trace / env().metrics (see env.h) to pick the default.
bool tracing_enabled();
void set_tracing(bool on);

/// Label the calling thread's lane in the trace (e.g. "main",
/// "pool.worker.3").  Retained across enable/disable and clear_trace().
void set_thread_name(std::string name);

/// Monotonic nanoseconds since the process trace epoch.
std::uint64_t trace_now_ns();

/// The trace epoch as raw steady_clock (CLOCK_MONOTONIC) nanoseconds —
/// pinned lazily on first use.  A parent process may pass this value to a
/// forked child, which calls set_trace_epoch_raw_ns() so spans recorded in
/// both processes share one timeline (steady_clock is machine-wide on
/// Linux).  Setting the epoch does not rebase spans already recorded.
std::uint64_t trace_epoch_raw_ns();
void set_trace_epoch_raw_ns(std::uint64_t raw_ns);

/// Append one complete span to the calling thread's lane.
void record_span(std::string name, std::uint64_t start_ns,
                 std::uint64_t end_ns);

/// Drop all recorded events (lane names and ids survive).
void clear_trace();

struct TraceEventView {
  int tid = 0;
  std::string thread;  ///< lane name
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// All recorded events in dump order: sorted by (tid, start, dur, name).
std::vector<TraceEventView> snapshot_trace();

/// Chrome trace-event JSON of everything recorded so far.
std::string trace_to_json();

/// Write trace_to_json() to `path`; returns false on I/O failure.
bool dump_trace(const std::string& path);

/// Dump the trace to `path` when the process exits (first caller wins).
void dump_trace_at_exit(std::string path);

/// RAII span: records [construction, destruction) on the calling thread's
/// lane.  The variadic form streams the extra parts onto the name — the
/// parts are only evaluated into a string when tracing is enabled.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (tracing_enabled()) begin(name);
  }
  explicit TraceScope(std::string name) {
    if (tracing_enabled()) begin(std::move(name));
  }
  template <class Part0, class... Parts>
  TraceScope(const char* name, Part0&& part0, Parts&&... parts) {
    if (!tracing_enabled()) return;
    std::ostringstream os;
    os << name << std::forward<Part0>(part0);
    static_cast<void>((os << ... << std::forward<Parts>(parts)));
    begin(os.str());
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (active_) record_span(std::move(name_), start_ns_, trace_now_ns());
  }

 private:
  void begin(std::string name) {
    name_ = std::move(name);
    start_ns_ = trace_now_ns();
    active_ = true;
  }

  std::string name_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

#define FFET_OBS_CONCAT2(a, b) a##b
#define FFET_OBS_CONCAT(a, b) FFET_OBS_CONCAT2(a, b)

/// Trace the enclosing scope: FFET_TRACE_SCOPE("route.pass.", pass).
#define FFET_TRACE_SCOPE(...)                                         \
  ::ffet::obs::TraceScope FFET_OBS_CONCAT(ffet_trace_scope_,          \
                                          __LINE__) {                 \
    __VA_ARGS__                                                       \
  }

}  // namespace ffet::obs

#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "flow/config_json.h"
#include "flow/flow.h"
#include "flow/report_json.h"
#include "obs/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/config_codec.h"
#include "serve/protocol.h"
#include "serve/tracemerge.h"
#include "serve/worker.h"

namespace ffet::serve {

namespace {

/// Close every inherited fd except std{in,out,err} and `keep` — a freshly
/// forked worker must not hold the listening socket, client connections or
/// sibling socketpairs open (a held listen fd would keep the socket alive
/// after the daemon exits; a held client fd would defeat EOF detection).
/// Respawn forks happen from a monitor thread while other threads run, so
/// the child side must stick to async-signal-safe calls here: a plain
/// close() loop, no opendir/readdir (either may block on a lock a sibling
/// thread held at fork time).
void close_all_fds_except(int keep) {
  int max_fd = ::getdtablesize();
  if (max_fd < 1024) max_fd = 1024;
  if (max_fd > 65536) max_fd = 65536;
  for (int fd = 3; fd < max_fd; ++fd) {
    if (fd != keep) ::close(fd);
  }
}

/// The synthetic flow-report line for a point whose worker died on every
/// attempt: a valid()==false record whose invalid_reason names worker_died,
/// so it flows through ffet_report / read_flow_reports like any other
/// invalid point instead of poisoning the stream.  Never cached.
std::string worker_died_line(const flow::FlowConfig& config, int attempts) {
  flow::FlowResult res;
  res.config = config;
  res.invalid_reason =
      "worker_died: worker process exited abnormally on all " +
      std::to_string(attempts) + " attempt(s)";
  return flow::flow_report_json(res);
}

enum class LogLevel { kInfo, kWarn, kError };

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    default:
      return "info";
  }
}

/// Serialize one phase histogram into an open "latency_ms" object:
///   "<key>":{"count":..,"sum":..,"min":..,"max":..,"mean":..,
///            "p50":..,"p95":..,"p99":..,"buckets":[[lower_ms,count],...]}
/// Only non-empty buckets are listed — 32 mostly-zero pairs per phase
/// would dwarf the rest of the snapshot.
void append_hist_json(std::string& out, flow::JsonBuilder& j, const char* key,
                      const obs::HistSnapshot& h) {
  j.open_nested(key);
  j.field("count", static_cast<long long>(h.count));
  j.field("sum", h.sum);
  j.field("min", h.min);
  j.field("max", h.max);
  j.field("mean", h.mean());
  j.field("p50", h.quantile(0.50));
  j.field("p95", h.quantile(0.95));
  j.field("p99", h.quantile(0.99));
  j.open_array("buckets");
  for (int i = 0; i < static_cast<int>(h.buckets.size()); ++i) {
    if (h.buckets[i] == 0) continue;
    j.element();
    out += '[';
    obs::append_double(out, obs::Histogram::bucket_lower_bound(i));
    out += ',';
    out += std::to_string(h.buckets[i]);
    out += ']';
  }
  j.close_array();
  j.close_obj();
}

}  // namespace

struct Server::Impl {
  // ---- immutable after start() -------------------------------------------
  ServeOptions opts;
  int n_workers = 0;
  ResultCache cache;

  // ---- single-flight + job queue (guarded by mu) -------------------------
  struct Flight {
    bool done = false;
    std::uint32_t flags = 0;  ///< ResultFlag bits of the *producing* run
    std::string line;
    // Latency attribution of the producing run (zero for cached flights).
    double queue_ms = 0.0;
    double run_ms = 0.0;
    int retries = 0;
    int worker_pid = 0;
  };
  struct Job {
    std::string label;
    std::string config_json;       ///< canonical (config_to_json) object
    flow::FlowConfig config;       ///< for the synthetic worker_died line
    std::shared_ptr<Flight> flight;
    std::uint64_t enqueue_ns = 0;  ///< trace-epoch clock, for queue-wait
  };
  std::mutex mu;
  std::condition_variable queue_cv;   ///< workers: a job or stop arrived
  std::condition_variable flight_cv;  ///< clients: some flight completed
  std::deque<Job> queue;
  std::map<std::string, std::shared_ptr<Flight>> flights;  ///< label -> open
  bool stopping = false;
  bool shutdown_requested = false;
  /// Set from a signal handler — the only member a handler may touch.
  std::atomic<bool> signal_stop{false};

  // ---- worker fleet ------------------------------------------------------
  struct Slot {
    pid_t pid = -1;
    int fd = -1;
    std::uint64_t spawn_ns = 0;  ///< trace-epoch clock at fork
    long long jobs = 0;          ///< jobs completed, cumulative per slot
    long long deaths = 0;        ///< worker deaths, cumulative per slot
    std::string running;         ///< label of the in-flight point, "" = idle
  };
  std::vector<Slot> slots;            ///< guarded by mu
  std::vector<std::thread> monitors;  ///< one per slot

  // ---- accept loop + clients ---------------------------------------------
  int listen_fd = -1;
  std::thread acceptor;
  std::vector<std::thread> handlers;  ///< guarded by mu
  std::set<int> client_fds;           ///< guarded by mu
  bool started = false;
  bool stopped = false;

  ServeStats st;  ///< guarded by mu

  // ---- observability plane -----------------------------------------------
  /// Cross-process tracing: on iff opts.trace_path is non-empty.
  bool tracing = false;
  bool prev_tracing = false;  ///< obs state to restore at stop()
  std::string span_dir;       ///< <trace_path>.spans/, worker span files
  std::atomic<std::uint64_t> span_seq{0};
  TraceMerger merger;
  /// Latency attribution on served flow-report lines (opts.attribution),
  /// resolved at start().
  bool attribution = false;
  std::string serve_ledger_path;  ///< "" = no serve ledger lines
  /// Phase latency histograms (milliseconds).  Pure atomics, recorded
  /// unconditionally — they surface only through the kStats snapshot, so
  /// always-on costs nothing on any output path.
  obs::Histogram hist_queue_wait;
  obs::Histogram hist_cache_probe;
  obs::Histogram hist_worker_run;
  std::uint64_t start_ns = 0;  ///< trace-epoch clock at start(), for uptime

  explicit Impl(ServeOptions o) : opts(std::move(o)), cache(opts.cache_dir) {}

  // ---- logging -----------------------------------------------------------
  void logf(LogLevel level, const char* fmt, ...) {
    std::FILE* out = opts.log ? opts.log : stderr;
    char ts[40];
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    localtime_r(&now, &tm);
    // ISO-8601 with the numeric UTC offset, e.g. 2026-08-08T14:03:07+0000.
    std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%S%z", &tm);
    std::fprintf(out, "[ffet_serve %s %s] ", ts, level_name(level));
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(out, fmt, ap);
    va_end(ap);
    std::fputc('\n', out);
    std::fflush(out);
  }

  // ---- fleet management --------------------------------------------------
  bool fork_worker(Slot& slot, std::string* error) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      if (error) *error = "socketpair failed: " + std::string(strerror(errno));
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      if (error) *error = "fork failed: " + std::string(strerror(errno));
      return false;
    }
    if (pid == 0) {
      // Worker child.  Drop everything inherited except our pair end; the
      // loop never returns.  A respawned child inherits the daemon's
      // stop-requesting SIGTERM/SIGINT handlers — reset them so stop()'s
      // SIGTERM actually terminates the worker.
      ::signal(SIGTERM, SIG_DFL);
      ::signal(SIGINT, SIG_DFL);
      close_all_fds_except(sv[1]);
      worker_loop(sv[1]);
    }
    ::close(sv[1]);
    slot.pid = pid;
    slot.fd = sv[0];
    slot.spawn_ns = obs::trace_now_ns();
    return true;
  }

  /// Reap a dead worker and (unless stopping) put a fresh fork in its
  /// slot, retrying with backoff on transient fork/socketpair failure — a
  /// slot left with no worker would otherwise keep draining jobs it can
  /// never run.  On return the slot is live unless the daemon is stopping.
  void replace_worker(int idx, const std::string& label) {
    Slot dead;
    {
      std::lock_guard<std::mutex> lk(mu);
      dead = slots[idx];
      slots[idx] = Slot{};
      // The slot's job/death history survives the respawn — the stats
      // snapshot reports them per slot, not per incarnation.
      slots[idx].jobs = dead.jobs;
      slots[idx].deaths = dead.deaths + 1;
      slots[idx].running = dead.running;
    }
    if (dead.fd >= 0) ::close(dead.fd);
    int status = 0;
    if (dead.pid > 0) ::waitpid(dead.pid, &status, 0);
    const char* how = WIFSIGNALED(status) ? "signal" : "exit";
    const int code = WIFSIGNALED(status) ? WTERMSIG(status)
                                         : (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    {
      std::lock_guard<std::mutex> lk(mu);
      ++st.worker_deaths;
      if (stopping) return;
    }
    FFET_METRIC_ADD("serve.worker_deaths", 1);
    logf(LogLevel::kWarn, "worker %ld died (%s %d) on point %s; forking "
         "replacement", static_cast<long>(dead.pid), how, code,
         label.empty() ? "(idle)" : label.c_str());
    int delay_ms = 10;
    while (true) {
      Slot fresh;
      std::string error;
      if (fork_worker(fresh, &error)) {
        bool discard = false;
        {
          std::lock_guard<std::mutex> lk(mu);
          if (stopping) {
            discard = true;  // raced with stop(); nobody will retire it
          } else {
            ++st.worker_restarts;
            fresh.jobs = slots[idx].jobs;
            fresh.deaths = slots[idx].deaths;
            fresh.running = slots[idx].running;
            slots[idx] = fresh;
          }
        }
        if (discard) {
          ::kill(fresh.pid, SIGTERM);
          ::close(fresh.fd);
          ::waitpid(fresh.pid, nullptr, 0);
          return;
        }
        FFET_METRIC_ADD("serve.worker_restarts", 1);
        logf(LogLevel::kInfo, "worker %ld up in slot %d",
             static_cast<long>(fresh.pid), idx);
        return;
      }
      logf(LogLevel::kWarn, "worker respawn failed: %s (retry in %d ms)",
           error.c_str(), delay_ms);
      // Sleep in short slices so a concurrent stop() is never held up by
      // the backoff.
      for (int slept = 0; slept < delay_ms; slept += 50) {
        {
          std::lock_guard<std::mutex> lk(mu);
          if (stopping) return;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(50, delay_ms - slept)));
      }
      delay_ms = std::min(delay_ms * 2, 1000);
    }
  }

  /// One monitor thread per worker slot: pop a job, run it on this slot's
  /// worker, retrying once on a fresh worker if the process dies mid-point.
  void monitor_loop(int idx) {
    if (tracing) obs::set_thread_name("serve.monitor." + std::to_string(idx));
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lk(mu);
        queue_cv.wait(lk, [&] { return stopping || !queue.empty(); });
        if (stopping) return;
        job = std::move(queue.front());
        queue.pop_front();
        slots[idx].running = job.label;
        FFET_METRIC_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(queue.size()));
      }

      // Queue-wait phase ends the moment a monitor picks the job up.
      const std::uint64_t dequeue_ns = obs::trace_now_ns();
      const double queue_ms =
          dequeue_ns > job.enqueue_ns
              ? static_cast<double>(dequeue_ns - job.enqueue_ns) / 1e6
              : 0.0;
      hist_queue_wait.observe(queue_ms);
      if (obs::tracing_enabled()) {
        obs::record_span("serve.queue_wait " + job.label, job.enqueue_ns,
                         dequeue_ns);
      }

      // One span file per job; a retry on a fresh worker overwrites it.
      std::string span_path;
      if (tracing) {
        span_path =
            span_dir + "/span." +
            std::to_string(span_seq.fetch_add(1, std::memory_order_relaxed)) +
            ".json";
      }

      std::uint32_t flags = 0;
      std::string line;
      bool ran = false;
      int attempt = 0;
      int run_pid = 0;
      double run_ms = 0.0;
      for (; attempt < std::max(1, opts.max_attempts); ++attempt) {
        int fd = -1;
        pid_t wpid = -1;
        {
          std::lock_guard<std::mutex> lk(mu);
          fd = stopping ? -1 : slots[idx].fd;
          wpid = slots[idx].pid;
        }
        if (fd < 0) {
          // Only possible when the daemon is stopping (replace_worker
          // retries respawns until it succeeds or stop() begins): hand
          // the job back instead of consuming and failing the point.
          {
            std::lock_guard<std::mutex> lk(mu);
            queue.push_front(std::move(job));
          }
          queue_cv.notify_one();
          return;
        }
        if (attempt > 0) {
          {
            std::lock_guard<std::mutex> lk(mu);
            ++st.retries;
          }
          FFET_METRIC_ADD("serve.retries", 1);
          logf(LogLevel::kWarn, "retrying point %s on worker %ld (attempt %d)",
               job.label.c_str(), static_cast<long>(wpid), attempt + 1);
        }
        const std::uint64_t run_start_ns = obs::trace_now_ns();
        const bool sent = write_frame(
            fd, FrameType::kJob,
            pack_job(static_cast<std::uint32_t>(attempt), job.config_json,
                     tracing ? obs::trace_epoch_raw_ns() : 0, span_path));
        std::optional<Frame> reply;
        if (sent) reply = read_frame(fd);
        if (!sent || !reply || reply->type != FrameType::kResult) {
          // Short read / EPIPE: the worker process is gone (segfault, OOM
          // kill, test SIGKILL).  Reap it, refresh the slot, maybe retry.
          replace_worker(idx, job.label);
          continue;
        }
        std::uint32_t ignored_index = 0, ignored_flags = 0;
        if (!unpack_result(reply->payload, ignored_index, ignored_flags,
                           line)) {
          replace_worker(idx, job.label);
          continue;
        }
        const std::uint64_t run_end_ns = obs::trace_now_ns();
        run_ms = static_cast<double>(run_end_ns - run_start_ns) / 1e6;
        run_pid = static_cast<int>(wpid);
        hist_worker_run.observe(run_ms);
        if (obs::tracing_enabled()) {
          obs::record_span("serve.worker_run " + job.label, run_start_ns,
                           run_end_ns);
        }
        if (tracing) {
          merger.set_process_name(run_pid,
                                  "worker." + std::to_string(run_pid));
          std::string ierr;
          if (!merger.ingest_file(span_path, run_pid, &ierr)) {
            logf(LogLevel::kWarn, "cannot merge worker spans: %s",
                 ierr.c_str());
          }
          ::unlink(span_path.c_str());
        }
        ran = true;
        if (attempt > 0) flags |= kFlagRetried;
        break;
      }
      if (tracing && !ran && !span_path.empty()) {
        ::unlink(span_path.c_str());  // a dead worker may have left a torn file
      }

      if (ran) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ++st.flow_runs;
          ++slots[idx].jobs;
        }
        FFET_METRIC_ADD("serve.flow_runs", 1);
        // Write-through to the persistent cache — only genuine results;
        // a worker_died line must never mask a future successful run.
        cache.store(job.label, line);
      } else {
        flags |= kFlagWorkerDied;
        line = worker_died_line(job.config, std::max(1, opts.max_attempts));
        logf(LogLevel::kError, "point failed on all attempts (worker_died): %s",
             job.label.c_str());
      }

      {
        std::lock_guard<std::mutex> lk(mu);
        slots[idx].running.clear();
        job.flight->done = true;
        job.flight->flags = flags;
        job.flight->line = std::move(line);
        job.flight->queue_ms = queue_ms;
        job.flight->run_ms = run_ms;
        job.flight->retries = ran ? attempt : std::max(1, opts.max_attempts) - 1;
        job.flight->worker_pid = run_pid;
        flights.erase(job.label);
      }
      flight_cv.notify_all();
    }
  }

  // ---- request handling --------------------------------------------------
  /// Resolve one sweep point to a Flight (completed or pending) plus the
  /// requester-side flags.  Exactly one resolve() per label schedules a
  /// flow run; everyone else hits the cache or joins the open flight.
  std::shared_ptr<Flight> resolve(const flow::FlowConfig& config,
                                  std::uint32_t* req_flags,
                                  double* cache_ms) {
    const std::string label = config.label();
    *req_flags = 0;

    std::string cached_line;
    const std::uint64_t probe_start_ns = obs::trace_now_ns();
    std::unique_lock<std::mutex> lk(mu);
    // Cache lookup under mu: the check and the flight insertion must be
    // one atomic step or two concurrent misses both schedule the point.
    const bool hit = cache.lookup(label, &cached_line);
    const std::uint64_t probe_end_ns = obs::trace_now_ns();
    *cache_ms = static_cast<double>(probe_end_ns - probe_start_ns) / 1e6;
    hist_cache_probe.observe(*cache_ms);
    if (obs::tracing_enabled()) {
      obs::record_span("serve.cache_probe " + label, probe_start_ns,
                       probe_end_ns);
    }
    if (hit) {
      ++st.cache_hits;
      lk.unlock();
      FFET_METRIC_ADD("serve.cache_hits", 1);
      auto f = std::make_shared<Flight>();
      f->done = true;
      f->flags = kFlagCached;
      f->line = std::move(cached_line);
      *req_flags = kFlagCached;
      return f;
    }
    if (const auto it = flights.find(label); it != flights.end()) {
      ++st.single_flight_joins;
      // Copy the shared_ptr while still holding mu: the producing monitor
      // erases this map entry the moment the flight completes, so `it`
      // must not be dereferenced after the unlock.
      auto f = it->second;
      lk.unlock();
      FFET_METRIC_ADD("serve.single_flight_joins", 1);
      *req_flags = kFlagJoined;
      return f;
    }
    ++st.cache_misses;
    auto f = std::make_shared<Flight>();
    flights[label] = f;
    queue.push_back(Job{label, flow::config_to_json(config), config, f,
                        probe_end_ns});
    FFET_METRIC_GAUGE_SET("serve.queue_depth", static_cast<double>(queue.size()));
    lk.unlock();
    FFET_METRIC_ADD("serve.cache_misses", 1);
    queue_cv.notify_one();
    return f;
  }

  /// Append one kind="serve" ledger line for a streamed point, so
  /// `ffet_report trend` can watch queue/cache/run latency drift per label.
  void append_serve_ledger(const std::string& label,
                           const flow::ServeAttribution& attr,
                           bool line_valid) {
    const flow::LedgerLine line{
        .kind = "serve",
        .label = label,
        .threads = n_workers,
        .valid = line_valid,
        .metrics = {{"cache_hit", attr.cache_hit ? 1LL : 0LL},
                    {"cache_ms", attr.cache_ms},
                    {"queue_ms", attr.queue_ms},
                    {"retries", static_cast<long long>(attr.retries)},
                    {"run_ms", attr.run_ms}}};
    std::string error;
    if (!flow::append_ledger(serve_ledger_path, line, &error)) {
      logf(LogLevel::kWarn, "serve ledger append failed: %s", error.c_str());
    }
  }

  void handle_submit(int fd, const std::string& payload) {
    std::string error;
    const auto sub = submission_from_json_text(payload, &error);
    if (!sub) {
      write_frame(fd, FrameType::kError, "bad submission: " + error);
      return;
    }
    const std::vector<flow::FlowConfig>& configs = sub->configs;
    if (configs.empty()) {
      write_frame(fd, FrameType::kError, "bad submission: empty sweep");
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      ++st.requests;
      st.points += static_cast<long long>(configs.size());
    }
    FFET_METRIC_ADD("serve.requests", 1);
    FFET_METRIC_ADD("serve.points", static_cast<long long>(configs.size()));
    if (sub->trace_id.empty()) {
      logf(LogLevel::kInfo, "submit: %zu point(s)", configs.size());
    } else {
      logf(LogLevel::kInfo, "submit: %zu point(s) [trace %s]", configs.size(),
           sub->trace_id.c_str());
    }
    // The whole request — resolution through streaming — as one span on
    // this handler's lane, named by the client's trace id when present.
    obs::TraceScope submit_scope(
        sub->trace_id.empty() ? std::string("serve.submit")
                              : "serve.submit " + sub->trace_id);

    struct Pending {
      std::shared_ptr<Flight> flight;
      std::uint32_t req_flags = 0;
      std::string label;
      double cache_ms = 0.0;
    };
    std::vector<Pending> pending(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      pending[i].label = configs[i].label();
      pending[i].flight =
          resolve(configs[i], &pending[i].req_flags, &pending[i].cache_ms);
    }

    // Stream results back in point order: workers complete out of order,
    // but waiting on flight i before i+1 makes the reply deterministic.
    long long hits = 0, joins = 0, runs = 0, retried = 0, died = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      std::string line;
      std::uint32_t flags = 0;
      flow::ServeAttribution attr;
      {
        std::unique_lock<std::mutex> lk(mu);
        flight_cv.wait(lk, [&] {
          return pending[i].flight->done || stopping;
        });
        if (!pending[i].flight->done) {
          // Daemon is tearing down under us; answer what we can.
          write_frame(fd, FrameType::kError, "daemon shutting down");
          return;
        }
        line = pending[i].flight->line;
        flags = pending[i].flight->flags | pending[i].req_flags;
        attr.queue_ms = pending[i].flight->queue_ms;
        attr.run_ms = pending[i].flight->run_ms;
        attr.retries = pending[i].flight->retries;
        attr.worker_pid = pending[i].flight->worker_pid;
      }
      attr.cache_ms = pending[i].cache_ms;
      attr.cache_hit = (flags & kFlagCached) != 0;
      if (attribution) {
        flow::append_serve_report(line, attr);
        if (!serve_ledger_path.empty()) {
          append_serve_ledger(pending[i].label, attr,
                              line.find("\"valid\":true") != std::string::npos);
        }
      }
      if (flags & kFlagCached) ++hits;
      if (flags & kFlagJoined) ++joins;
      if (flags & kFlagRetried) ++retried;
      if (flags & kFlagWorkerDied) ++died;
      if (!(flags & (kFlagCached | kFlagJoined))) ++runs;
      if (!write_frame(fd, FrameType::kResult,
                       pack_result(static_cast<std::uint32_t>(i), flags,
                                   line))) {
        logf(LogLevel::kWarn, "client went away mid-stream (point %zu)", i);
        return;  // flights keep running; their results stay cached
      }
    }

    std::string stats_buf;
    flow::JsonBuilder stats_json(stats_buf);
    stats_json.open_obj();
    stats_json.field("points", static_cast<long long>(pending.size()));
    stats_json.field("cache_hits", hits);
    stats_json.field("joined", joins);
    stats_json.field("ran", runs);
    stats_json.field("retried", retried);
    stats_json.field("worker_died", died);
    stats_json.close_obj();
    write_frame(fd, FrameType::kDone, stats_buf);
    logf(LogLevel::kInfo,
         "submit done: %lld cached, %lld joined, %lld ran, %lld died", hits,
         joins, runs, died);
  }

  /// The ffet.serve_stats.v1 snapshot.  One pass under mu for counters and
  /// slots; the phase histograms are snapshotted lock-free (atomics).
  std::string stats_json_impl() {
    const obs::HistSnapshot queue_wait = hist_queue_wait.snapshot();
    const obs::HistSnapshot cache_probe = hist_cache_probe.snapshot();
    const obs::HistSnapshot worker_run = hist_worker_run.snapshot();
    const std::uint64_t now_ns = obs::trace_now_ns();

    ServeStats counters;
    std::size_t queue_depth = 0, in_flight = 0;
    std::vector<Slot> slot_copy;
    {
      std::lock_guard<std::mutex> lk(mu);
      counters = st;
      queue_depth = queue.size();
      in_flight = flights.size();
      slot_copy = slots;
    }

    std::string out;
    flow::JsonBuilder j(out);
    j.open_obj();
    j.field("schema", "ffet.serve_stats.v1");
    j.field("pid", static_cast<long long>(::getpid()));
    j.field("uptime_ms",
            static_cast<double>(now_ns > start_ns ? now_ns - start_ns : 0) /
                1e6);
    j.field("workers", n_workers);
    j.field("queue_depth", static_cast<long long>(queue_depth));
    j.field("in_flight", static_cast<long long>(in_flight));
    j.field("cache_entries", cache.entries());
    j.open_nested("counters");
    j.field("requests", counters.requests);
    j.field("points", counters.points);
    j.field("cache_hits", counters.cache_hits);
    j.field("cache_misses", counters.cache_misses);
    j.field("single_flight_joins", counters.single_flight_joins);
    j.field("flow_runs", counters.flow_runs);
    j.field("retries", counters.retries);
    j.field("worker_deaths", counters.worker_deaths);
    j.field("worker_restarts", counters.worker_restarts);
    j.close_obj();
    j.open_nested("latency_ms");
    append_hist_json(out, j, "queue_wait", queue_wait);
    append_hist_json(out, j, "cache_probe", cache_probe);
    append_hist_json(out, j, "worker_run", worker_run);
    j.close_obj();
    j.open_array("worker_slots");
    for (std::size_t i = 0; i < slot_copy.size(); ++i) {
      const Slot& s = slot_copy[i];
      j.element();
      j.open_obj();
      j.field("slot", static_cast<long long>(i));
      j.field("pid", static_cast<long long>(s.pid > 0 ? s.pid : 0));
      j.field("state", s.running.empty() ? "idle" : "running");
      j.field("point", s.running);
      j.field("jobs", s.jobs);
      j.field("deaths", s.deaths);
      j.field("uptime_ms",
              static_cast<double>(s.pid > 0 && now_ns > s.spawn_ns
                                      ? now_ns - s.spawn_ns
                                      : 0) /
                  1e6);
      j.close_obj();
    }
    j.close_array();
    j.close_obj();
    return out;
  }

  void handle_client(int fd) {
    if (tracing) obs::set_thread_name("serve.client");
    while (true) {
      const auto frame = read_frame(fd);
      if (!frame) break;
      if (frame->type == FrameType::kSubmit) {
        handle_submit(fd, frame->payload);
      } else if (frame->type == FrameType::kPing) {
        write_frame(fd, FrameType::kDone, "{}");
      } else if (frame->type == FrameType::kStats) {
        write_frame(fd, FrameType::kDone, stats_json_impl());
      } else if (frame->type == FrameType::kShutdown) {
        write_frame(fd, FrameType::kDone, "{}");
        logf(LogLevel::kInfo, "shutdown requested by client");
        {
          std::lock_guard<std::mutex> lk(mu);
          shutdown_requested = true;
        }
        // wait() observes the flag and the daemon main calls stop();
        // stopping from this thread would join ourselves.
        flight_cv.notify_all();
        break;
      } else {
        write_frame(fd, FrameType::kError, "unexpected frame type");
        break;
      }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lk(mu);
    client_fds.erase(fd);
  }

  void accept_loop() {
    if (tracing) obs::set_thread_name("serve.acceptor");
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listen fd shut down by stop()
      }
      std::lock_guard<std::mutex> lk(mu);
      if (stopping) {
        ::close(fd);
        return;
      }
      client_fds.insert(fd);
      handlers.emplace_back([this, fd] { handle_client(fd); });
    }
  }
};

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

int Server::resolve_workers(int requested) {
  if (requested > 0) return std::min(requested, obs::kMaxEnvWorkers);
  if (obs::env().workers > 0) return obs::env().workers;
  return 2;
}

bool Server::start(std::string* error) {
  Impl& im = *impl_;
  if (im.started) {
    if (error) *error = "server already started";
    return false;
  }
  // A client or worker that vanishes mid-write must surface as EPIPE, not
  // kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  im.n_workers = resolve_workers(im.opts.workers);
  im.start_ns = obs::trace_now_ns();

  if (im.opts.attribution) {
    im.attribution = true;
    im.serve_ledger_path = flow::resolve_ledger_path(im.opts.ledger_path);
    im.logf(LogLevel::kInfo, "latency attribution on%s",
            im.serve_ledger_path.empty() ? "" : " (with serve ledger)");
  }

  im.tracing = !im.opts.trace_path.empty();
  if (im.tracing) {
    // The daemon records its own spans; workers dump theirs to private
    // files under <trace_path>.spans/ and the merger stitches everything
    // into one Chrome trace at stop().
    im.prev_tracing = obs::tracing_enabled();
    obs::set_tracing(true);
    im.span_dir = im.opts.trace_path + ".spans";
    if (::mkdir(im.span_dir.c_str(), 0777) != 0 && errno != EEXIST) {
      if (error) *error = "cannot create span dir " + im.span_dir;
      return false;
    }
    obs::set_thread_name("serve.main");
    im.logf(LogLevel::kInfo, "tracing to %s (span dir %s)",
            im.opts.trace_path.c_str(), im.span_dir.c_str());
  }
  if (im.cache.enabled()) {
    const int loaded = im.cache.load_index();
    im.logf(LogLevel::kInfo, "cache %s: %d entr%s loaded%s",
            im.cache.dir().c_str(), loaded,
            loaded == 1 ? "y" : "ies",
            im.cache.skipped_files() > 0 ? " (some files skipped)" : "");
  } else {
    im.logf(LogLevel::kInfo, "cache disabled");
  }

  im.listen_fd = listen_unix(im.opts.socket_path, error);
  if (im.listen_fd < 0) return false;

  // Fork the fleet BEFORE any request threads exist: each worker inherits
  // only the daemon's quiescent state plus its own socketpair end.
  im.slots.resize(static_cast<std::size_t>(im.n_workers));
  for (int i = 0; i < im.n_workers; ++i) {
    if (!im.fork_worker(im.slots[static_cast<std::size_t>(i)], error)) {
      stop();
      return false;
    }
  }
  for (int i = 0; i < im.n_workers; ++i) {
    im.monitors.emplace_back([this, i] { impl_->monitor_loop(i); });
  }
  im.acceptor = std::thread([this] { impl_->accept_loop(); });
  im.started = true;
  im.logf(LogLevel::kInfo, "listening on %s with %d worker(s)",
          im.opts.socket_path.c_str(),
          im.n_workers);
  return true;
}

void Server::wait() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lk(im.mu);
  // Polling interval exists only for signal_stop, which a signal handler
  // sets without being able to notify the condition variable.
  while (!im.shutdown_requested && !im.stopping &&
         !im.signal_stop.load(std::memory_order_relaxed)) {
    im.flight_cv.wait_for(lk, std::chrono::milliseconds(200));
  }
}

void Server::request_stop_from_signal() {
  impl_->signal_stop.store(true, std::memory_order_relaxed);
}

void Server::stop() {
  Impl& im = *impl_;
  if (!im.started || im.stopped) return;
  im.stopped = true;

  {
    std::lock_guard<std::mutex> lk(im.mu);
    im.stopping = true;
    // Unresolved flights stay !done; handlers woken below observe stopping
    // and answer kError instead of hanging on them.
    im.queue.clear();
  }
  im.queue_cv.notify_all();
  im.flight_cv.notify_all();

  // Unblock the acceptor and any handler blocked in read_frame.  The
  // listen fd is shutdown() now but close()d only after the acceptor is
  // joined — the acceptor reads it unlocked, and closing early would both
  // race that read and allow the fd number to be reused under it.
  if (im.listen_fd >= 0) ::shutdown(im.listen_fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lk(im.mu);
    for (const int fd : im.client_fds) ::shutdown(fd, SHUT_RDWR);
  }
  if (im.acceptor.joinable()) im.acceptor.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    handlers.swap(im.handlers);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }

  // Retire the fleet.  shutdown() first: unlike close() it wakes a
  // monitor blocked in read_frame on the pair, and the worker end sees
  // EOF; SIGTERM cuts short a worker mid-flow so the waitpid below never
  // waits out a long point.  Monitors are joined BEFORE any slot fd is
  // closed so a concurrently reused fd number can never be misrouted
  // into worker I/O.
  {
    std::lock_guard<std::mutex> lk(im.mu);
    for (const auto& s : im.slots) {
      if (s.fd >= 0) ::shutdown(s.fd, SHUT_RDWR);
      if (s.pid > 0) ::kill(s.pid, SIGTERM);
    }
  }
  for (std::thread& t : im.monitors) {
    if (t.joinable()) t.join();
  }
  im.monitors.clear();
  std::vector<Impl::Slot> slots;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    slots = im.slots;
    for (auto& s : im.slots) s = Impl::Slot{};
  }
  for (const auto& s : slots) {
    if (s.fd >= 0) ::close(s.fd);
  }
  for (const auto& s : slots) {
    if (s.pid > 0) ::waitpid(s.pid, nullptr, 0);
  }

  if (im.tracing) {
    // All monitors are joined, so every ingested span file is final; add
    // the daemon's own spans and write the single merged timeline.
    im.merger.set_process_name(static_cast<int>(::getpid()), "ffet_serve");
    im.merger.ingest_local(static_cast<int>(::getpid()));
    if (im.merger.write(im.opts.trace_path)) {
      im.logf(LogLevel::kInfo, "merged trace: %s (%zu span(s), %zu process(es))",
              im.opts.trace_path.c_str(), im.merger.span_count(),
              im.merger.process_count());
    } else {
      im.logf(LogLevel::kError, "cannot write merged trace %s",
              im.opts.trace_path.c_str());
    }
    ::rmdir(im.span_dir.c_str());  // best effort; non-empty on torn points
    obs::set_tracing(im.prev_tracing);
  }

  ::unlink(im.opts.socket_path.c_str());
  im.logf(LogLevel::kInfo, "stopped");
}

int Server::workers() const { return impl_->n_workers; }

std::vector<pid_t> Server::worker_pids() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<pid_t> pids;
  for (const auto& s : impl_->slots) {
    if (s.pid > 0) pids.push_back(s.pid);
  }
  return pids;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->st;
}

int Server::cache_entries() const { return impl_->cache.entries(); }

std::string Server::stats_json() const { return impl_->stats_json_impl(); }

}  // namespace ffet::serve

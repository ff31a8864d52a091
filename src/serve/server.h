// server.h — the `ffet_serve` daemon core.
//
// One Server owns:
//
//   * a Unix-domain listening socket (protocol.h framing) with one handler
//     thread per connected client;
//   * a fleet of forked worker processes (worker.h), one monitor thread
//     per worker slot, fed from a shared job queue;
//   * the persistent result cache (cache.h) plus the in-daemon
//     single-flight table: concurrent identical submissions — same
//     FlowConfig::label() — resolve to ONE flow run, every other request
//     joins the in-flight entry and is answered from its result;
//   * crash isolation: a worker that segfaults, OOMs, or is SIGKILLed is
//     reaped with waitpid and replaced by a fresh fork; its in-flight
//     point is retried once on the replacement and otherwise answered
//     with a synthetic invalid line whose reason names worker_died.  The
//     daemon, the cache, and every other point survive.
//
// Results stream back per completed point, in submission (point) order —
// deterministic regardless of which worker finishes first.
//
// The same class backs the standalone daemon binary, bench_serve and the
// tests (which run a Server inside the test process and poke its workers).

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

namespace ffet::serve {

struct ServeOptions {
  std::string socket_path = ".ffet_serve.sock";
  /// Worker processes.  0 = FFET_WORKERS (obs/env.h), or 2 when that is
  /// unset/invalid.
  int workers = 0;
  /// Result-cache directory; empty disables persistence (single-flight
  /// dedup still applies within the daemon's lifetime).
  std::string cache_dir = ".ffet_serve_cache";
  /// Attempts per point (first run + retries on a died worker).
  int max_attempts = 2;
  /// Daemon log sink; nullptr = stderr.
  std::FILE* log = nullptr;
  /// Merged cross-process trace output path; empty = tracing off.  When
  /// set, the daemon records its own spans (queueing, cache probes, worker
  /// dispatch), runs every job with a per-process span file and a shared
  /// trace epoch, and writes ONE Chrome trace covering the daemon plus all
  /// worker pids at stop().  The ffet_serve binary maps FFET_TRACE here.
  std::string trace_path;
  /// Attach the "serve" latency-attribution object to every streamed
  /// flow-report line (queue_ms / cache_ms / run_ms / retries / worker_pid
  /// / cache_hit).  Off by default: served lines stay byte-identical to an
  /// in-process run.
  bool attribution = false;
  /// When attribution is on and this is non-empty, the daemon also appends
  /// one kind="serve" ffet.ledger.v1 line per served point here, so
  /// `ffet_report trend` can watch service-latency drift.
  std::string ledger_path;
};

/// Cumulative counters since start() (mirrored to obs serve.* metrics when
/// metrics are enabled).
struct ServeStats {
  long long requests = 0;      ///< kSubmit frames accepted
  long long points = 0;        ///< sweep points across all requests
  long long cache_hits = 0;
  long long cache_misses = 0;  ///< points that needed a flow run scheduled
  long long single_flight_joins = 0;
  long long flow_runs = 0;     ///< jobs completed by a worker
  long long retries = 0;       ///< points re-run after a worker death
  long long worker_deaths = 0;
  long long worker_restarts = 0;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen, load the cache index, fork the fleet, start threads.
  bool start(std::string* error);

  /// Block until a client sends kShutdown, stop() is called elsewhere, or
  /// request_stop_from_signal() fires.
  void wait();

  /// Async-signal-safe shutdown request (a lock-free atomic store): makes
  /// wait() return so the main thread can run the actual stop().
  void request_stop_from_signal();

  /// Tear down: close the socket, fail unresolved points, retire workers
  /// (EOF on their pair, then reap), join threads.  Idempotent.
  void stop();

  int workers() const;
  /// Live worker pids (test hook: the crash-isolation test SIGKILLs one).
  std::vector<pid_t> worker_pids() const;
  ServeStats stats() const;
  int cache_entries() const;

  /// The live ffet.serve_stats.v1 snapshot (what the kStats verb answers):
  /// queue depth, in-flight points, per-slot worker state, the ServeStats
  /// counters, and p50/p95/p99 latency histograms for the queue-wait,
  /// cache-probe and worker-run phases.  Safe to call from any thread.
  std::string stats_json() const;

  /// Resolve the fleet size an options struct implies (FFET_WORKERS etc.).
  static int resolve_workers(int requested);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ffet::serve

// ffet_serve — the sweep-service daemon.
//
// Listens on a Unix-domain socket for framed sweep submissions (see
// src/serve/protocol.h), shards the points across a fleet of forked worker
// processes, streams one ffet.flow_report.v1 line back per point in
// submission order, and memoizes every completed point in a persistent
// result cache keyed on FlowConfig::label().  A second submission of the
// same sweep — even from a different client, even after a daemon restart —
// runs zero flows.
//
//   ffet_serve [--socket PATH] [--workers N] [--cache DIR|none]
//              [--log PATH] [--trace PATH] [--attrib] [--ledger PATH]
//              [--version]
//
// Worker count: --workers beats FFET_WORKERS beats the default of 2.
//
// Observability plane (all off by default):
//   --trace PATH   write ONE merged Chrome trace at shutdown covering the
//                  daemon and every worker process (real pids; workers ship
//                  span files the daemon merges).  FFET_TRACE=<path> means
//                  the same thing here — the daemon consumes the variable,
//                  so the in-process atexit dump never clobbers the merge.
//   --attrib       annotate every served flow_report line with a "serve"
//                  latency object (queue/cache/run ms, retries, worker pid,
//                  cache_hit) and append kind="serve" ledger lines.
//   --ledger PATH  where those serve ledger lines go (defaults to the flow
//                  ledger resolution: FFET_LEDGER or .ffet_ledger.jsonl).
// SIGINT/SIGTERM (and a client's `ffet_submit --shutdown`) stop the daemon
// cleanly: workers are retired via shutdown(2)+SIGTERM and reaped, the
// socket unlinked.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "flow/version.h"
#include "obs/env.h"
#include "serve/server.h"

using namespace ffet;

namespace {

serve::Server* g_server = nullptr;

void on_signal(int) {
  // Async-signal-safe enough for our purpose: stop() is NOT safe here, so
  // just ask wait() to return; main does the teardown.  Re-raise semantics
  // are unnecessary — a second signal while stopping kills us, fine.
  if (g_server) g_server->request_stop_from_signal();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--workers N] [--cache DIR|none]\n"
               "       [--log PATH] [--trace PATH] [--attrib] [--ledger "
               "PATH] [--version]\n"
               "defaults: --socket .ffet_serve.sock --workers $FFET_WORKERS"
               "|2 --cache .ffet_serve_cache\n"
               "env: FFET_TRACE=<path> == --trace\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions opts;
  std::string log_path;
  // The daemon owns FFET_TRACE: consume it into the merged-trace path and
  // clear it, so neither the in-process atexit dump (which would overwrite
  // the merge) nor a forked worker inherits it.  --trace beats the env.
  obs::EnvSink& env_trace = obs::env().trace;
  if (env_trace.mode == obs::EnvSink::kPath) opts.trace_path = env_trace.path;
  env_trace = {};
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--socket")) {
      opts.socket_path = need("--socket");
    } else if (!std::strcmp(argv[i], "--workers")) {
      const char* v = need("--workers");
      const std::optional<int> workers = obs::parse_number<int>(v);
      if (!workers || *workers <= 0) {
        std::fprintf(stderr, "bad value for --workers: %s\n", v);
        usage(argv[0]);
      }
      opts.workers = *workers;
    } else if (!std::strcmp(argv[i], "--cache")) {
      const std::string v = need("--cache");
      opts.cache_dir = v == "none" ? std::string() : v;
    } else if (!std::strcmp(argv[i], "--log")) {
      log_path = need("--log");
    } else if (!std::strcmp(argv[i], "--trace")) {
      opts.trace_path = need("--trace");
    } else if (!std::strcmp(argv[i], "--attrib")) {
      opts.attribution = true;
    } else if (!std::strcmp(argv[i], "--ledger")) {
      opts.ledger_path = need("--ledger");
    } else if (!std::strcmp(argv[i], "--version")) {
      std::printf("ffet_serve %s\n", kVersion);
      return 0;
    } else {
      usage(argv[0]);
    }
  }

  std::FILE* log = nullptr;
  if (!log_path.empty()) {
    log = std::fopen(log_path.c_str(), "a");
    if (!log) {
      std::fprintf(stderr, "cannot open log file %s\n", log_path.c_str());
      return 2;
    }
    opts.log = log;
  }

  serve::Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "ffet_serve: %s\n", error.c_str());
    if (log) std::fclose(log);
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  server.wait();
  g_server = nullptr;
  server.stop();

  const serve::ServeStats st = server.stats();
  std::fprintf(stderr,
               "ffet_serve: served %lld request(s), %lld point(s) "
               "(%lld cached, %lld joined, %lld flow runs, %lld worker "
               "deaths)\n",
               st.requests, st.points, st.cache_hits, st.single_flight_joins,
               st.flow_runs, st.worker_deaths);
  if (log) std::fclose(log);
  return 0;
}

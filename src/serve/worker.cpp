#include "serve/worker.h"

#include <csignal>
#include <string>

#include <unistd.h>

#include "flow/flow.h"
#include "flow/report_json.h"
#include "obs/env.h"
#include "obs/trace.h"
#include "serve/config_codec.h"
#include "serve/protocol.h"

namespace ffet::serve {

namespace {

/// Deterministic crash hooks for the crash-isolation tests: SIGKILL
/// ourselves mid-point on the *first* attempt of a label containing
/// env().serve_test_crash (the retry then succeeds), or on every attempt
/// of one containing env().serve_test_crash_always (the daemon must
/// report the point as worker_died and survive).
void maybe_crash(const std::string& label, std::uint32_t attempt) {
  const std::string& once = obs::env().serve_test_crash;
  const std::string& always = obs::env().serve_test_crash_always;
  const bool hit_once = !once.empty() && attempt == 0 &&
                        label.find(once) != std::string::npos;
  const bool hit_always =
      !always.empty() && label.find(always) != std::string::npos;
  if (hit_once || hit_always) {
    ::raise(SIGKILL);  // indistinguishable from a real segfault/OOM kill
  }
}

}  // namespace

void worker_loop(int fd) {
  // The daemon streams result lines back to clients itself; a worker
  // appending to the process-wide report/trace sinks would duplicate every
  // line.  The ledger stays on (per env) — its appends are multi-process-
  // safe and "one ledger line per flow run" is exactly what a worker does.
  obs::env().flow_report = {};
  obs::env().trace = {};

  while (true) {
    const auto frame = read_frame(fd);
    if (!frame) _exit(0);  // daemon closed the pair: clean shutdown
    if (frame->type != FrameType::kJob) _exit(1);

    std::uint32_t attempt = 0;
    std::string config_json;
    std::uint64_t trace_epoch = 0;
    std::string span_path;
    if (!unpack_job(frame->payload, attempt, config_json, trace_epoch,
                    span_path)) {
      _exit(1);
    }

    std::string error;
    auto cfg = configs_from_json_text("[" + config_json + "]", &error);
    if (!cfg || cfg->size() != 1) {
      // The daemon validated the submission; a bad job here is a protocol
      // bug, not a client error.  Die loudly — the daemon will flag the
      // point rather than wedge.
      _exit(1);
    }
    flow::FlowConfig config = (*cfg)[0];
    // The fleet owns the parallelism: an auto-thread point would spawn one
    // pool per worker times one worker per core.  Explicit requests are
    // honored (mirrors flow::run_sweep's pin_point_threads).
    if (config.threads == 0) config.threads = 1;
    // Per-point sinks are daemon-side concerns; a worker writing trace
    // files would race its siblings on one path.
    config.trace_path.clear();
    config.flow_report_path.clear();

    maybe_crash(config.label(), attempt);

    // Traced job: record this flow's spans against the daemon's shared
    // epoch and dump them to the private span file the daemon named — it
    // ingests (and unlinks) the file when the point completes.
    const bool traced = !span_path.empty();
    if (traced) {
      if (trace_epoch != 0) obs::set_trace_epoch_raw_ns(trace_epoch);
      obs::set_thread_name("worker." + std::to_string(::getpid()));
      obs::clear_trace();
      obs::set_tracing(true);
    }
    const flow::FlowResult res = flow::run_flow(config);
    if (traced) {
      obs::set_tracing(false);
      obs::dump_trace(span_path);
      obs::clear_trace();
    }
    const std::string line = flow::flow_report_json(res);
    if (!write_frame(fd, FrameType::kResult, pack_result(0, 0, line))) {
      _exit(0);  // daemon went away mid-result
    }
  }
}

}  // namespace ffet::serve

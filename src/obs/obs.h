// obs.h — umbrella header of the instrumentation layer.
//
// src/obs is a leaf library (standard library only) providing:
//
//   * trace.h    — RAII span tracer, Chrome trace-event JSON dumps
//   * metrics.h  — counters / gauges / log-bucket histograms
//   * resource.h — process resource probe (RSS / page-fault sampling)
//   * numfmt.h   — deterministic (to_chars) number formatting for sinks
//   * env.h      — the one reader of the FFET_* environment variables
//
// Tracing and metrics are compiled in but disabled by default; call sites
// branch on one relaxed atomic flag, so the disabled cost is a few
// nanoseconds per site.  The resource probe is the one *enabled-by-default*
// instrument (reports are expected to carry peak RSS).  The FFET_*
// variables that switch them are decoded by env.h (table in README.md).
//
// The environment is read lazily on the first tracing_enabled() /
// metrics_enabled() query; explicit set_tracing()/set_metrics() calls made
// before that take precedence over the environment default.

#pragma once

#include "obs/env.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace ffet::obs {

/// Settle both enable flags from env().trace / env().metrics, once.
/// Idempotent and thread-safe; called automatically on the first
/// tracing_enabled()/metrics_enabled() query.
void init_from_env();

/// env().verbose: human-oriented per-stage convergence logging.
bool verbose();

/// CPU time consumed by the calling thread, in milliseconds (0 where
/// unsupported).  Stage timings report this next to wall time so
/// parallel-stage speedups and lock waits are visible.
double thread_cpu_ms();

/// Append `line` + '\n' to the JSONL file at `path` so that the record
/// stays whole even when *multiple processes* append concurrently: the file
/// is opened with O_APPEND and the whole record (newline included) goes out
/// in a single write(2), which POSIX makes atomic with respect to other
/// O_APPEND writers for regular files.  Creates one parent directory level
/// on first use.  This is the one writer behind every append-only sink
/// (flow report, run ledger, serve cache journal) — a worker fleet of
/// forked processes shares those files.  Returns false (and sets `error`
/// when non-null) on open/short-write failure; never throws.
bool append_jsonl_line(const std::string& path, std::string_view line,
                       std::string* error = nullptr);

namespace detail {
void init_tracing_from_env();  // trace.cpp
void init_metrics_from_env();  // metrics.cpp
}  // namespace detail

}  // namespace ffet::obs

// env.h — the one reader of the FFET_* environment.
//
// Every variable the program honours is decoded here, once, into
// obs::Env; callers read the struct, never the environment.  README.md
// tables the variables.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ffet::obs {

/// A sink variable: "0" switches it off, "1" on without naming a file, any
/// other value names the file.  Empty reads as unset, which stays distinct
/// from "0" (benches turn metrics on unless they are switched off).
struct EnvSink {
  enum Mode { kUnset, kOff, kOn, kPath };
  Mode mode = kUnset;
  std::string path;  ///< the value when mode == kPath, else empty

  bool on() const { return mode == kOn || mode == kPath; }
};

/// Bounds of the count variables: parallel_for starts up to one helper
/// thread per chunk, and the serve fleet forks one process per worker.
inline constexpr int kMaxEnvThreads = 256;
inline constexpr int kMaxEnvWorkers = 64;

struct Env {
  EnvSink trace;        ///< FFET_TRACE: a path receives the trace at exit
  EnvSink metrics;      ///< FFET_METRICS: a path receives the registry
  EnvSink ledger;       ///< FFET_LEDGER: on = the default ledger file
  EnvSink flow_report;  ///< FFET_FLOW_REPORT: only a path is a sink
  bool verbose = false;  ///< FFET_VERBOSE: anything but "0" turns it on
  bool resource = true;  ///< FFET_RESOURCE: "0" turns the probe off
  /// FFET_THREADS / FFET_WORKERS: a plain decimal count, clamped to its
  /// bound; 0 when unset, malformed or not positive.
  int threads = 0;
  int workers = 0;
  /// FFET_SERVE_TEST_CRASH{,_ALWAYS}: a serve worker whose point label
  /// contains this SIGKILLs itself on the first / every attempt.
  std::string serve_test_crash;
  std::string serve_test_crash_always;
};

/// Decode the variables `lookup` returns (nullptr = unset).  Pure: tests
/// pass a table, env() passes std::getenv.
Env parse_env(const std::function<const char*(const char*)>& lookup);

/// The process environment, decoded on first use.  Mutable so a process
/// can drop a sink for itself (ffet_serve consumes FFET_TRACE, a forked
/// serve worker drops the trace and flow-report sinks) before any other
/// thread reads it.
Env& env();

/// Strict number parsing for command-line flags: all of `text` must be one
/// decimal T in T's range (std::from_chars rules: no leading whitespace or
/// '+', nothing trailing), and a double must be finite.  nullopt otherwise
/// — the caller reports a usage error.  Defined for int, unsigned, double.
template <class T>
std::optional<T> parse_number(std::string_view text);

/// This machine's name for ledger lines: gethostname(), else $HOSTNAME,
/// else "unknown".
std::string host_name();

}  // namespace ffet::obs

// bench_common.h — shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the flow at the paper's configurations and prints the measured series
// next to the paper's reported numbers.  Absolute values are expected to
// differ (our substrate is a from-scratch simulator, not Innovus+StarRC on
// a proprietary PDK); the *shape* — who wins, by roughly what factor, where
// crossovers and saturation points sit — is the reproduction target.
// EXPERIMENTS.md records the paper-vs-measured comparison these benches
// print.

#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.h"
#include "flow/report_json.h"
#include "obs/numfmt.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace ffet::bench {

/// Shared command-line handling for the bench binaries.
///   --quick         reduced sweep (each bench decides what that means)
///   --trace[=path]  enable span tracing; dump a Chrome trace-event JSON
///                   to `path` (default "trace_<bench>.json") at exit
/// Unknown arguments are ignored so benches stay forward-compatible with
/// run_benches.sh flags they don't care about.
struct BenchArgs {
  bool quick = false;
  bool trace = false;
  std::string trace_path;
};

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const std::string& bench) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      args.trace = true;
      args.trace_path = "trace_" + bench + ".json";
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      args.trace = true;
      args.trace_path = a + 8;
    }
  }
  if (args.trace) {
    obs::set_tracing(true);
    obs::dump_trace_at_exit(args.trace_path);
    std::printf("  [trace] writing Chrome trace to %s on exit\n",
                args.trace_path.c_str());
  }
  return args;
}

inline void print_title(const std::string& id, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& s) {
  std::printf("  %s\n", s.c_str());
}

inline flow::FlowConfig cfet_config() {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Cfet4T;
  cfg.front_layers = 12;
  cfg.back_layers = 0;
  return cfg;
}

/// FFET with single-sided signals ("FFET FM12" in the paper).
inline flow::FlowConfig ffet_fm12_config() {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  cfg.front_layers = 12;
  cfg.back_layers = 0;
  cfg.backside_input_fraction = 0.0;
  return cfg;
}

/// FFET with dual-sided signals and the given pin/layer DoE.
inline flow::FlowConfig ffet_dual_config(double backside_fraction,
                                         int front_layers = 12,
                                         int back_layers = 12) {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  cfg.front_layers = front_layers;
  cfg.back_layers = back_layers;
  cfg.backside_input_fraction = backside_fraction;
  return cfg;
}

inline double pct(double ours, double base) {
  return base == 0.0 ? 0.0 : (ours - base) / base * 100.0;
}

/// Wall-clock instrumentation for the sweep benches.  Construction turns
/// the obs metrics registry on (cheap — pure atomics) and clears the
/// per-point window; destruction prints the elapsed time plus per-point
/// min/mean/max from the "flow.point.ms" histogram run_physical records.
/// run_benches.sh records each bench's wall time and peak RSS in the run
/// ledger.
class SweepTimer {
 public:
  /// `threads` follows the flow convention: 0 = auto (see
  /// runtime::resolve_threads) — record what the sweep actually used.
  SweepTimer(std::string bench, int points, int threads = 0)
      : bench_(std::move(bench)),
        points_(points),
        threads_(runtime::resolve_threads(threads)) {
    obs::init_from_env();
    obs::set_thread_name("main");
    // Benches default to metrics-on (per-point stats below are worth the
    // few atomics); FFET_METRICS=0 is the explicit opt-out.
    if (obs::env().metrics.mode != obs::EnvSink::kOff) obs::set_metrics(true);
    obs::histogram("flow.point.ms").reset();  // own the per-point window
    start_ = std::chrono::steady_clock::now();
  }

  SweepTimer(const SweepTimer&) = delete;
  SweepTimer& operator=(const SweepTimer&) = delete;

  ~SweepTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::printf("\n  [timing] %s: %d sweep points in %.2f s (%d threads)\n",
                bench_.c_str(), points_, seconds, threads_);

    const obs::Histogram& point = obs::histogram("flow.point.ms");
    if (point.count() > 0) {
      std::printf("  [points] per-point wall: min %.0f ms, mean %.0f ms, max %.0f ms (%llu points)\n",
                  point.min(), point.mean(), point.max(),
                  static_cast<unsigned long long>(point.count()));
    }
  }

 private:
  std::string bench_;
  int points_;
  int threads_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ffet::bench

// bench_serve — service overhead and scaling vs in-process sweeps.
//
// Runs the Fig. 8 utilization sweep (--quick grid by default here: the
// point of this bench is service mechanics, not the figure) three ways:
//
//   1. in-process flow::run_sweep          (the baseline everything else
//                                           in the repo uses)
//   2. through a local ffet_serve daemon with 2 / 4 / 8 workers, cold
//      cache — measures fork/IPC/protocol overhead and scaling
//   3. the same submission again, warm cache — measures pure service
//      round-trip (zero flow runs; asserts 100% cache hits)
//
// Every service configuration is gated on per-point QoR identity with the
// in-process baseline (report::diff_flow_reports in qor_only mode): a
// sharded fleet that returned even one bit-different PPA number would make
// the speedup meaningless.

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "report/qor.h"
#include "report/serve_stats.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace ffet;

namespace {

/// The bench sweep: the Fig. 8 --quick grid (3 curves x 6 utils) so the
/// numbers line up with the CI smoke; --quick here halves the grid again.
std::vector<flow::FlowConfig> sweep_configs(bool quick) {
  std::vector<flow::FlowConfig> sweep;
  const int points = quick ? 3 : 6;
  const double step = quick ? 0.16 : 0.08;
  for (flow::FlowConfig base :
       {bench::cfet_config(), bench::ffet_dual_config(0.5),
        bench::ffet_fm12_config()}) {
    for (int i = 0; i < points; ++i) {
      base.utilization = 0.46 + step * i;
      sweep.push_back(base);
    }
  }
  return sweep;
}

/// Parse a JSONL blob into records and QoR-diff it against the baseline.
/// Returns true when every point is bit-identical on the QoR axes.
bool qor_identical(const std::string& baseline_jsonl,
                   const std::string& candidate_jsonl, const char* what) {
  std::istringstream base_is(baseline_jsonl), cand_is(candidate_jsonl);
  const auto base = report::read_flow_reports(base_is);
  const auto cand = report::read_flow_reports(cand_is);
  report::DiffOptions opts;
  opts.qor_only = true;
  const report::DiffReport d = report::diff_flow_reports(base, cand, opts);
  if (d.regressions == 0 && d.deltas.empty()) return true;
  std::printf("  [FAIL] %s: %zu QoR delta(s) vs in-process baseline\n", what,
              d.deltas.size());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "bench_serve");
  bench::print_title("serve", "sweep service vs in-process run_sweep");

  const std::vector<flow::FlowConfig> sweep = sweep_configs(args.quick);
  std::printf("  sweep: %zu points\n", sweep.size());

  // ---- 1. in-process baseline ---------------------------------------------
  std::string baseline_jsonl;
  double baseline_s = 0.0;
  {
    bench::SweepTimer timer("bench_serve_inproc",
                            static_cast<int>(sweep.size()));
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<flow::FlowResult> results = flow::run_sweep(sweep);
    baseline_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (const flow::FlowResult& r : results) {
      baseline_jsonl += flow::flow_report_json(r);
      baseline_jsonl += '\n';
    }
  }
  std::printf("\n  in-process run_sweep: %.2f s\n", baseline_s);

  // ---- 2./3. through the service at each fleet size -----------------------
  bool all_identical = true;
  for (const int workers : {2, 4, 8}) {
    const std::string tag = std::string("w").append(std::to_string(workers));
    serve::ServeOptions opts;
    opts.socket_path = ".bench_serve_" + tag + ".sock";
    opts.cache_dir = ".bench_serve_cache_" + tag;  // fresh per fleet size
    opts.workers = workers;
    // Cold cache: wipe any leftovers from a previous bench run.
    std::remove(opts.socket_path.c_str());
    {
      const std::string rm = "rm -rf " + opts.cache_dir;
      if (std::system(rm.c_str()) != 0) { /* best effort */ }
    }

    serve::Server server(opts);
    std::string error;
    if (!server.start(&error)) {
      std::printf("  [FAIL] start(%d workers): %s\n", workers, error.c_str());
      return 1;
    }

    const auto run_once = [&](const char* mode, std::string* jsonl,
                              serve::SubmitStats* stats) -> double {
      std::vector<serve::ResultLine> results;
      const auto t0 = std::chrono::steady_clock::now();
      if (!serve::submit_sweep(opts.socket_path, sweep, &results, stats,
                               &error)) {
        std::printf("  [FAIL] submit (%s, %d workers): %s\n", mode, workers,
                    error.c_str());
        return -1.0;
      }
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      jsonl->clear();
      for (const serve::ResultLine& r : results) {
        *jsonl += r.line;
        *jsonl += '\n';
      }
      return s;
    };

    std::string cold_jsonl, warm_jsonl;
    serve::SubmitStats cold, warm;
    const double cold_s = run_once("cold", &cold_jsonl, &cold);
    const double warm_s = run_once("warm", &warm_jsonl, &warm);

    // Live introspection: the snapshot must parse and its histograms must
    // have seen the cold pass (every point crossed queue-wait and
    // cache-probe at least once).
    bool stats_ok = false;
    {
      std::string serr;
      if (const auto snap =
              report::parse_serve_stats(server.stats_json(), &serr)) {
        stats_ok = snap->phases.count("queue_wait") != 0 &&
                   snap->phases.at("queue_wait").count > 0 &&
                   snap->phases.count("cache_probe") != 0 &&
                   snap->phases.at("cache_probe").count > 0;
        if (!stats_ok) {
          std::printf("  [FAIL] %s stats: empty latency histograms\n",
                      tag.c_str());
        }
      } else {
        std::printf("  [FAIL] %s stats snapshot: %s\n", tag.c_str(),
                    serr.c_str());
      }
    }
    server.stop();
    if (cold_s < 0 || warm_s < 0) return 1;
    all_identical = all_identical && stats_ok;

    const bool cold_ok = qor_identical(baseline_jsonl, cold_jsonl, tag.c_str());
    const bool warm_ok = qor_identical(baseline_jsonl, warm_jsonl, tag.c_str());
    const bool cached_ok = warm.cache_hits == warm.points;
    if (!cached_ok) {
      std::printf("  [FAIL] %s warm pass: %lld/%lld cache hits\n", tag.c_str(),
                  warm.cache_hits, warm.points);
    }
    all_identical = all_identical && cold_ok && warm_ok && cached_ok;

    std::printf(
        "  %d workers: cold %.2f s (%.2fx vs in-process), warm %.3f s "
        "(%lld/%lld cached)%s\n",
        workers, cold_s, cold_s > 0 ? baseline_s / cold_s : 0.0, warm_s,
        warm.cache_hits, warm.points,
        cold_ok && warm_ok ? "" : "  QOR MISMATCH");
  }

  if (!all_identical) {
    std::printf("\n  RESULT: FAIL — service output diverged from in-process "
                "baseline\n");
    return 1;
  }
  std::printf("\n  RESULT: every fleet size QoR-identical to in-process, "
              "warm pass fully cached\n");
  return 0;
}

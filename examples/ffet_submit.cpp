// ffet_submit — client CLI for the ffet_serve sweep service.
//
//   ffet_submit [--socket PATH] [--out FILE] [--trace-id ID] SWEEP
//   ffet_submit --ping [--count N] | --shutdown [--socket PATH]
//   ffet_submit --stats [--watch] [--socket PATH] [--out FILE]
//
// SWEEP is one of:
//   --configs FILE     submit the JSON array of FlowConfig objects in FILE
//   --fig8-quick       the Fig. 8 --quick sweep (3 curves x 6 utilization
//                      points), the CI smoke workload
//   [flow-opts]        a single point built from --tech/--fm/--bm/... flags
//                      (the same flags ffet_report takes); flow-opts also
//                      override every point of --fig8-quick
//
// Results (one ffet.flow_report.v1 line per point, in sweep order) go to
// --out FILE or stdout, ready for `ffet_report diff --qor`.
//
//   --local            run the sweep in-process with flow::run_sweep
//                      instead of contacting a daemon — the baseline side
//                      of the service-vs-in-process identity check
//   --expect-cached    exit 3 unless every point was served from the
//                      daemon's cache (CI asserts the second submission of
//                      an identical sweep runs zero flows)
//   --trace-id ID      stamp the submission: the daemon names its request
//                      span after ID so a merged cross-process trace ties
//                      this client's points to their worker spans
//   --ping             one round trip; prints the RTT in ms.  --count N
//                      repeats N times and adds a min/avg/max summary
//   --stats            fetch the daemon's live ffet.serve_stats.v1 JSON
//                      snapshot (pretty-print with `ffet_report
//                      serve-stats`); --watch re-polls every 2 s, one
//                      snapshot line per poll, until the daemon goes away

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "flow/flow.h"
#include "flow/report_json.h"
#include "flow/version.h"
#include "obs/env.h"
#include "serve/client.h"
#include "serve/config_codec.h"

using namespace ffet;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH] [--out FILE] [--trace-id ID] [--configs "
      "FILE | --fig8-quick | flow-opts]\n"
      "       %s [--socket PATH] --ping [--count N] | --shutdown\n"
      "       %s [--socket PATH] [--out FILE] --stats [--watch]\n"
      "       %s --version\n"
      "options: --local (run in-process, no daemon)   --expect-cached\n"
      "flow-opts: --tech ffet|cfet --fm N --bm N --backside-pins F --util F\n"
      "           --freq F --registers N --eco N --seed N --threads N\n",
      argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// The Fig. 8 --quick grid: CFET, FFET FM12BM12 (pins 50/50) and FFET FM12
/// single-sided, each at utilization 0.46 + 0.08*i for i in [0, 6).  Must
/// stay in lockstep with bench_fig8.cpp so the CI smoke exercises the same
/// points the bench does.
std::vector<flow::FlowConfig> fig8_quick_sweep() {
  flow::FlowConfig cfet;
  cfet.tech_kind = tech::TechKind::Cfet4T;
  cfet.front_layers = 12;
  cfet.back_layers = 0;

  flow::FlowConfig dual;
  dual.tech_kind = tech::TechKind::Ffet3p5T;
  dual.front_layers = 12;
  dual.back_layers = 12;
  dual.backside_input_fraction = 0.5;

  flow::FlowConfig single;
  single.tech_kind = tech::TechKind::Ffet3p5T;
  single.front_layers = 12;
  single.back_layers = 0;
  single.backside_input_fraction = 0.0;

  std::vector<flow::FlowConfig> sweep;
  for (flow::FlowConfig base : {cfet, dual, single}) {
    for (int i = 0; i < 6; ++i) {
      base.utilization = 0.46 + 0.08 * i;
      sweep.push_back(base);
    }
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = ".ffet_serve.sock";
  std::string out_path;
  std::string configs_path;
  bool fig8_quick = false;
  bool local = false;
  bool expect_cached = false;
  bool do_ping = false;
  bool do_shutdown = false;
  bool do_stats = false;
  bool watch = false;
  int ping_count = 1;
  std::string trace_id;
  // Flow-opt overrides are applied on top of whatever SWEEP source is
  // chosen; `overridden` tracks whether they alone define a single point.
  flow::FlowConfig point;
  bool any_flow_opt = false;
  std::vector<std::function<void(flow::FlowConfig&)>> overrides;

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // A numeric flag's value; garbage, trailing characters or an
    // out-of-range value is a usage error.
    const auto need_number = [&](const char* flag, auto& out) {
      const char* v = need(flag);
      const auto n = obs::parse_number<std::decay_t<decltype(out)>>(v);
      if (!n) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag, v);
        usage(argv[0]);
      }
      out = *n;
    };
    // A numeric flow-opt: parsed now, applied to every point of the sweep.
    const auto set_number = [&](auto field, const char* flag) {
      std::decay_t<decltype(point.*field)> value{};
      need_number(flag, value);
      overrides.push_back(
          [field, value](flow::FlowConfig& c) { c.*field = value; });
      any_flow_opt = true;
    };
    if (!std::strcmp(argv[i], "--socket")) {
      socket_path = need("--socket");
    } else if (!std::strcmp(argv[i], "--out")) {
      out_path = need("--out");
    } else if (!std::strcmp(argv[i], "--configs")) {
      configs_path = need("--configs");
    } else if (!std::strcmp(argv[i], "--fig8-quick")) {
      fig8_quick = true;
    } else if (!std::strcmp(argv[i], "--local")) {
      local = true;
    } else if (!std::strcmp(argv[i], "--expect-cached")) {
      expect_cached = true;
    } else if (!std::strcmp(argv[i], "--ping")) {
      do_ping = true;
    } else if (!std::strcmp(argv[i], "--count")) {
      need_number("--count", ping_count);
      if (ping_count < 1) ping_count = 1;
    } else if (!std::strcmp(argv[i], "--shutdown")) {
      do_shutdown = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      do_stats = true;
    } else if (!std::strcmp(argv[i], "--watch")) {
      watch = true;
    } else if (!std::strcmp(argv[i], "--trace-id")) {
      trace_id = need("--trace-id");
    } else if (!std::strcmp(argv[i], "--version")) {
      std::printf("ffet_submit %s\n", kVersion);
      return 0;
    } else if (!std::strcmp(argv[i], "--tech")) {
      const std::string v = need("--tech");
      if (v != "ffet" && v != "cfet") {
        std::fprintf(stderr, "unknown tech \"%s\"\n", v.c_str());
        std::exit(2);
      }
      const tech::TechKind kind =
          v == "ffet" ? tech::TechKind::Ffet3p5T : tech::TechKind::Cfet4T;
      overrides.push_back([kind](flow::FlowConfig& c) { c.tech_kind = kind; });
      any_flow_opt = true;
    } else if (!std::strcmp(argv[i], "--fm")) {
      set_number(&flow::FlowConfig::front_layers, "--fm");
    } else if (!std::strcmp(argv[i], "--bm")) {
      set_number(&flow::FlowConfig::back_layers, "--bm");
    } else if (!std::strcmp(argv[i], "--backside-pins")) {
      set_number(&flow::FlowConfig::backside_input_fraction, "--backside-pins");
    } else if (!std::strcmp(argv[i], "--util")) {
      set_number(&flow::FlowConfig::utilization, "--util");
    } else if (!std::strcmp(argv[i], "--freq")) {
      set_number(&flow::FlowConfig::target_freq_ghz, "--freq");
    } else if (!std::strcmp(argv[i], "--registers")) {
      set_number(&flow::FlowConfig::rv32_registers, "--registers");
    } else if (!std::strcmp(argv[i], "--eco")) {
      set_number(&flow::FlowConfig::eco_passes, "--eco");
    } else if (!std::strcmp(argv[i], "--seed")) {
      set_number(&flow::FlowConfig::seed, "--seed");
    } else if (!std::strcmp(argv[i], "--threads")) {
      set_number(&flow::FlowConfig::threads, "--threads");
    } else {
      usage(argv[0]);
    }
  }

  if (do_ping) {
    double min_ms = 0.0, max_ms = 0.0, sum_ms = 0.0;
    for (int n = 0; n < ping_count; ++n) {
      std::string error;
      double rtt_ms = 0.0;
      if (!serve::ping(socket_path, &error, &rtt_ms)) {
        std::fprintf(stderr, "ffet_submit: %s\n", error.c_str());
        return 1;
      }
      std::printf("ping ok  rtt %.3f ms\n", rtt_ms);
      if (n == 0 || rtt_ms < min_ms) min_ms = rtt_ms;
      if (rtt_ms > max_ms) max_ms = rtt_ms;
      sum_ms += rtt_ms;
    }
    if (ping_count > 1) {
      std::printf("rtt min/avg/max = %.3f/%.3f/%.3f ms over %d ping(s)\n",
                  min_ms, sum_ms / ping_count, max_ms, ping_count);
    }
    return 0;
  }
  if (do_shutdown) {
    std::string error;
    if (!serve::request_shutdown(socket_path, &error)) {
      std::fprintf(stderr, "ffet_submit: %s\n", error.c_str());
      return 1;
    }
    std::printf("shutdown ok\n");
    return 0;
  }
  if (do_stats) {
    std::FILE* out = stdout;
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), "w");
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
      }
    }
    int rc = 0;
    do {
      std::string stats_json, error;
      if (!serve::query_stats(socket_path, &stats_json, &error)) {
        std::fprintf(stderr, "ffet_submit: %s\n", error.c_str());
        rc = 1;
        break;
      }
      std::fwrite(stats_json.data(), 1, stats_json.size(), out);
      std::fputc('\n', out);
      std::fflush(out);
      if (watch) std::this_thread::sleep_for(std::chrono::seconds(2));
    } while (watch);
    if (out != stdout) std::fclose(out);
    return rc;
  }

  // ---- assemble the sweep -------------------------------------------------
  std::vector<flow::FlowConfig> sweep;
  if (!configs_path.empty()) {
    std::ifstream f(configs_path);
    if (!f) {
      std::fprintf(stderr, "cannot read %s\n", configs_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    std::string error;
    const auto parsed = serve::configs_from_json_text(ss.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", configs_path.c_str(), error.c_str());
      return 2;
    }
    sweep = *parsed;
  } else if (fig8_quick) {
    sweep = fig8_quick_sweep();
  } else if (any_flow_opt) {
    sweep.push_back(point);
  } else {
    std::fprintf(stderr, "no sweep given (--configs, --fig8-quick or "
                         "flow-opts)\n");
    usage(argv[0]);
  }
  for (flow::FlowConfig& cfg : sweep) {
    for (const auto& apply : overrides) apply(cfg);
  }

  // ---- run it -------------------------------------------------------------
  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
  }

  int rc = 0;
  if (local) {
    const std::vector<flow::FlowResult> results = flow::run_sweep(sweep);
    for (const flow::FlowResult& r : results) {
      const std::string line = flow::flow_report_json(r);
      std::fwrite(line.data(), 1, line.size(), out);
      std::fputc('\n', out);
    }
    std::fprintf(stderr, "ffet_submit: ran %zu point(s) in-process\n",
                 results.size());
  } else {
    std::vector<serve::ResultLine> results;
    serve::SubmitStats stats;
    std::string error;
    if (!serve::submit_sweep(socket_path, sweep, &results, &stats, &error,
                             trace_id)) {
      std::fprintf(stderr, "ffet_submit: %s\n", error.c_str());
      if (out != stdout) std::fclose(out);
      return 1;
    }
    for (const serve::ResultLine& r : results) {
      std::fwrite(r.line.data(), 1, r.line.size(), out);
      std::fputc('\n', out);
    }
    std::fprintf(stderr,
                 "ffet_submit: %lld point(s): %lld cached, %lld joined, "
                 "%lld ran, %lld retried, %lld worker_died\n",
                 stats.points, stats.cache_hits, stats.joined, stats.ran,
                 stats.retried, stats.worker_died);
    if (expect_cached && stats.cache_hits != stats.points) {
      std::fprintf(stderr,
                   "ffet_submit: --expect-cached: %lld of %lld point(s) "
                   "missed the cache\n",
                   stats.points - stats.cache_hits, stats.points);
      rc = 3;
    }
    for (const serve::ResultLine& r : results) {
      if (r.worker_died) {
        std::fprintf(stderr, "ffet_submit: point %u reported worker_died\n",
                     r.index);
        rc = rc == 0 ? 4 : rc;
      }
    }
  }
  if (out != stdout) std::fclose(out);
  return rc;
}

// ffet_report — signoff reporting and QoR regression CLI.
//
// Three subcommands:
//
//   ffet_report timing [flow-opts] [--top K] [--period PS]
//       Run the physical flow for the given config, keep its signed-off
//       state, then print the top-K worst endpoint paths stage by stage:
//       arrival / slew / load / fanout per pin, the wafer side of every
//       pin, and explicit markers where the path crosses front<->back
//       through a dual-sided Drain-Merge output pin.  The worst path's name chain is
//       bit-identical to the STA report's critical_path string.
//
//   ffet_report nets [flow-opts] [--top N] [--net NAME]
//       Per-net attribution over the merged DEF + RC extraction: routed
//       length per side and per layer, via count, wire R / total C, worst
//       sink Elmore and its design share, plus log-bucket histograms.
//
//   ffet_report diff [--mode flow|eco|router] [thresholds] BASE NEW
//       QoR diff / regression gate.  Mode "flow" compares two flow-report
//       JSONL files (FFET_FLOW_REPORT output) metric by metric with
//       configurable thresholds; "eco" and "router" run the bench gates
//       formerly implemented by scripts/check_bench_{eco,router}.py on two
//       BENCH_*.json files.  Exit 0 = pass, 1 = regression, 2 = bad input.
//
//   ffet_report history [LABEL] [--ledger PATH] [--kind flow|bench]
//       Chronological listing of the run ledger (ffet.ledger.v1 JSONL the
//       flow and run_benches.sh append to), optionally filtered to one
//       label.
//
//   ffet_report trend [LABEL] [--ledger PATH] [--kind flow|bench|serve]
//                     [--window N] [thresholds]
//       Per-label time series over the ledger: for every (kind, label)
//       group the latest run is gated against the median of the previous
//       N runs (default 5) with the same thresholds as `diff`.  Exit 0 =
//       no regression, 1 = regression, 2 = bad input.
//
//   ffet_report serve-stats FILE
//       Pretty-print an ffet.serve_stats.v1 snapshot (the output of
//       `ffet_submit --stats`; "-" reads stdin): daemon header, counters,
//       per-phase latency table, per-worker slot lines.  Exit 0 = ok,
//       2 = missing or malformed snapshot.
//
// Flow options (timing/nets): --tech ffet|cfet  --fm N  --bm N
//   --backside-pins F  --util F  --freq F  --registers N  --eco N
//   --seed N  --threads N

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "flow/flow.h"
#include "flow/version.h"
#include "io/def.h"
#include "obs/env.h"
#include "report/ledger.h"
#include "report/net_report.h"
#include "report/qor.h"
#include "report/serve_stats.h"
#include "report/timing_report.h"
#include "sta/sta.h"

using namespace ffet;

namespace {

// Usage goes to stderr and exits nonzero: an unknown subcommand or flag
// must never look like a successful (empty) report to a calling script.
[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s timing  [flow-opts] [--top K] [--period PS]\n"
      "       %s nets    [flow-opts] [--top N] [--net NAME]\n"
      "       %s diff    [--mode flow|eco|router] [--qor] [--freq-drop PCT]\n"
      "                  [--power-rise PCT] [--wl-rise PCT] [--runtime-rise "
      "PCT] BASE NEW\n"
      "       %s history [LABEL] [--ledger PATH] [--kind flow|bench|serve]\n"
      "       %s trend   [LABEL] [--ledger PATH] [--kind flow|bench|serve]\n"
      "                  [--window N] [--freq-drop PCT] [--power-rise PCT]\n"
      "                  [--wl-rise PCT] [--runtime-rise PCT] [--rss-rise "
      "PCT]\n"
      "       %s serve-stats FILE   (\"-\" reads stdin)\n"
      "       %s --version\n"
      "flow-opts: --tech ffet|cfet --fm N --bm N --backside-pins F --util F\n"
      "           --freq F --registers N --eco N --seed N --threads N\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

struct ArgReader {
  int argc;
  char** argv;
  int i = 2;  ///< argv[1] is the subcommand

  const char* need_value(const char* flag) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag);
      usage(argv[0]);
    }
    return argv[++i];
  }

  /// Read a numeric flag's value into `out`; garbage, trailing characters
  /// or an out-of-range value is a usage error.
  template <class T>
  void need_number(const char* flag, T& out) {
    const char* v = need_value(flag);
    const std::optional<T> n = obs::parse_number<T>(v);
    if (!n) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag, v);
      usage(argv[0]);
    }
    out = *n;
  }

  /// Consume one flow-config flag; false if argv[i] is not one.
  bool take_flow_flag(flow::FlowConfig& cfg) {
    char** a = argv;
    if (!std::strcmp(a[i], "--tech")) {
      const std::string v = need_value("--tech");
      if (v == "ffet") {
        cfg.tech_kind = tech::TechKind::Ffet3p5T;
      } else if (v == "cfet") {
        cfg.tech_kind = tech::TechKind::Cfet4T;
      } else {
        usage(a[0]);
      }
    } else if (!std::strcmp(a[i], "--fm")) {
      need_number("--fm", cfg.front_layers);
    } else if (!std::strcmp(a[i], "--bm")) {
      need_number("--bm", cfg.back_layers);
    } else if (!std::strcmp(a[i], "--backside-pins")) {
      need_number("--backside-pins", cfg.backside_input_fraction);
    } else if (!std::strcmp(a[i], "--util")) {
      need_number("--util", cfg.utilization);
    } else if (!std::strcmp(a[i], "--freq")) {
      need_number("--freq", cfg.target_freq_ghz);
    } else if (!std::strcmp(a[i], "--registers")) {
      need_number("--registers", cfg.rv32_registers);
    } else if (!std::strcmp(a[i], "--eco")) {
      need_number("--eco", cfg.eco_passes);
    } else if (!std::strcmp(a[i], "--seed")) {
      need_number("--seed", cfg.seed);
    } else if (!std::strcmp(a[i], "--threads")) {
      need_number("--threads", cfg.threads);
    } else {
      return false;
    }
    return true;
  }
};

int cmd_timing(ArgReader& args) {
  flow::FlowConfig cfg;
  report::TimingReportOptions opts;
  for (; args.i < args.argc; ++args.i) {
    if (args.take_flow_flag(cfg)) continue;
    if (!std::strcmp(args.argv[args.i], "--top")) {
      args.need_number("--top", opts.top_k);
    } else if (!std::strcmp(args.argv[args.i], "--period")) {
      args.need_number("--period", opts.target_period_ps);
    } else {
      usage(args.argv[0]);
    }
  }

  std::printf("config: %s\n", cfg.label().c_str());
  const auto ctx = flow::prepare_design(cfg);
  flow::PhysicalState st;
  flow::run_physical(*ctx, cfg, &st);
  sta::Sta sta(&st.nl, &st.rc, st.sta_options);
  const sta::TimingReport timing = sta.analyze_timing(&st.cts.sink_latency_ps);
  std::printf("signoff: %.3f GHz (critical path %.2f ps)%s\n\n",
              timing.achieved_freq_ghz, timing.critical_path_ps,
              st.eco_ran ? "  [post-ECO]" : "");

  const auto paths = report::build_timing_paths(
      sta, st.nl, &st.rc, &st.cts.sink_latency_ps, opts);
  const double period = opts.target_period_ps > 0.0
                            ? opts.target_period_ps
                            : timing.critical_path_ps;
  std::fputs(report::format_timing_report(paths, period).c_str(), stdout);

  if (!paths.empty() && paths[0].path_names != timing.critical_path) {
    std::printf("\nERROR: worst path disagrees with STA critical_path:\n"
                "  report: %s\n  sta:    %s\n",
                paths[0].path_names.c_str(), timing.critical_path.c_str());
    return 1;
  }
  std::printf("\nworst path verified against STA critical_path (%d paths)\n",
              static_cast<int>(paths.size()));
  return 0;
}

int cmd_nets(ArgReader& args) {
  flow::FlowConfig cfg;
  int top_n = 20;
  std::string net_name;
  for (; args.i < args.argc; ++args.i) {
    if (args.take_flow_flag(cfg)) continue;
    if (!std::strcmp(args.argv[args.i], "--top")) {
      args.need_number("--top", top_n);
    } else if (!std::strcmp(args.argv[args.i], "--net")) {
      net_name = args.need_value("--net");
    } else {
      usage(args.argv[0]);
    }
  }

  std::printf("config: %s\n\n", cfg.label().c_str());
  const auto ctx = flow::prepare_design(cfg);
  flow::PhysicalState st;
  flow::run_physical(*ctx, cfg, &st);
  const io::Def merged =
      io::merge_defs(io::build_def(st.nl, st.routes, tech::Side::Front),
                     io::build_def(st.nl, st.routes, tech::Side::Back));
  const report::NetReport rep = report::build_net_report(st.nl, merged, st.rc);
  if (!net_name.empty()) {
    std::fputs(report::format_net_detail(rep, net_name).c_str(), stdout);
  } else {
    std::fputs(report::format_net_report(rep, top_n).c_str(), stdout);
  }
  return 0;
}

/// Whole-file read for the single-document bench JSONs.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

int cmd_diff(ArgReader& args) {
  std::string mode = "flow";
  report::DiffOptions opts;
  std::vector<std::string> files;
  for (; args.i < args.argc; ++args.i) {
    if (!std::strcmp(args.argv[args.i], "--mode")) {
      mode = args.need_value("--mode");
    } else if (!std::strcmp(args.argv[args.i], "--freq-drop")) {
      args.need_number("--freq-drop", opts.freq_drop_pct);
    } else if (!std::strcmp(args.argv[args.i], "--power-rise")) {
      args.need_number("--power-rise", opts.power_rise_pct);
    } else if (!std::strcmp(args.argv[args.i], "--wl-rise")) {
      args.need_number("--wl-rise", opts.wirelength_rise_pct);
    } else if (!std::strcmp(args.argv[args.i], "--runtime-rise")) {
      args.need_number("--runtime-rise", opts.runtime_rise_pct);
    } else if (!std::strcmp(args.argv[args.i], "--qor")) {
      // QoR-identity mode for results streamed back from ffet_serve:
      // compare only the QoR sections, and gate on exact equality.
      opts.qor_only = true;
    } else if (args.argv[args.i][0] == '-' && args.argv[args.i][1] == '-') {
      usage(args.argv[0]);
    } else {
      files.push_back(args.argv[args.i]);
    }
  }
  if (files.size() != 2) usage(args.argv[0]);

  if (mode == "flow") {
    report::ReadStats bstats, nstats;
    std::string err;
    const auto base = report::read_flow_reports_file(files[0], &bstats, &err);
    if (!err.empty()) {
      std::printf("error: %s\n", err.c_str());
      return 2;
    }
    const auto now = report::read_flow_reports_file(files[1], &nstats, &err);
    if (!err.empty()) {
      std::printf("error: %s\n", err.c_str());
      return 2;
    }
    if (base.empty() || now.empty()) {
      std::printf("error: no parseable report lines (%s: %d/%d, %s: %d/%d)\n",
                  files[0].c_str(), bstats.parsed, bstats.lines,
                  files[1].c_str(), nstats.parsed, nstats.lines);
      return 2;
    }
    if (bstats.malformed || nstats.malformed) {
      std::printf("note: skipped %d malformed line(s) in base, %d in new\n",
                  bstats.malformed, nstats.malformed);
    }
    const report::DiffReport rep = report::diff_flow_reports(base, now, opts);
    std::fputs(report::format_diff(rep).c_str(), stdout);
    return rep.ok() ? 0 : 1;
  }

  if (mode != "eco" && mode != "router") usage(args.argv[0]);
  std::string btext, ntext;
  if (!read_file(files[0], btext)) {
    std::printf("error: cannot open %s\n", files[0].c_str());
    return 2;
  }
  if (!read_file(files[1], ntext)) {
    std::printf("error: cannot open %s\n", files[1].c_str());
    return 2;
  }
  std::string err;
  const auto bdoc = report::json::parse(btext, &err);
  if (!bdoc) {
    std::printf("error: %s: %s\n", files[0].c_str(), err.c_str());
    return 2;
  }
  const auto ndoc = report::json::parse(ntext, &err);
  if (!ndoc) {
    std::printf("error: %s: %s\n", files[1].c_str(), err.c_str());
    return 2;
  }
  std::string out;
  const int rc = mode == "eco" ? report::eco_gate(*bdoc, *ndoc, out)
                               : report::router_gate(*bdoc, *ndoc, out);
  std::fputs(out.c_str(), stdout);
  return rc;
}

/// Shared argument handling for `history` and `trend`: a positional LABEL,
/// --ledger PATH, --kind, plus (trend only) --window and the thresholds.
struct LedgerArgs {
  std::string path;
  report::TrendOptions opts;
};

bool parse_ledger_args(ArgReader& args, LedgerArgs& out, bool trend) {
  for (; args.i < args.argc; ++args.i) {
    char* arg = args.argv[args.i];
    if (!std::strcmp(arg, "--ledger")) {
      out.path = args.need_value("--ledger");
    } else if (!std::strcmp(arg, "--kind")) {
      out.opts.kind = args.need_value("--kind");
    } else if (trend && !std::strcmp(arg, "--window")) {
      args.need_number("--window", out.opts.window);
    } else if (trend && !std::strcmp(arg, "--freq-drop")) {
      args.need_number("--freq-drop", out.opts.freq_drop_pct);
    } else if (trend && !std::strcmp(arg, "--power-rise")) {
      args.need_number("--power-rise", out.opts.power_rise_pct);
    } else if (trend && !std::strcmp(arg, "--wl-rise")) {
      args.need_number("--wl-rise", out.opts.wirelength_rise_pct);
    } else if (trend && !std::strcmp(arg, "--runtime-rise")) {
      args.need_number("--runtime-rise", out.opts.runtime_rise_pct);
    } else if (trend && !std::strcmp(arg, "--rss-rise")) {
      args.need_number("--rss-rise", out.opts.rss_rise_pct);
    } else if (arg[0] == '-' && arg[1] == '-') {
      return false;
    } else if (out.opts.label.empty()) {
      out.opts.label = arg;
    } else {
      return false;
    }
  }
  if (out.path.empty()) out.path = flow::resolve_ledger_path();
  if (out.path.empty()) out.path = flow::kDefaultLedgerPath;
  return true;
}

std::vector<report::LedgerEntry> load_ledger(const LedgerArgs& la, int& rc) {
  report::ReadStats stats;
  std::string err;
  const auto entries = report::read_ledger_file(la.path, &stats, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    rc = 2;
    return {};
  }
  if (stats.malformed) {
    std::printf("note: skipped %d malformed ledger line(s)\n", stats.malformed);
  }
  rc = 0;
  return entries;
}

int cmd_history(ArgReader& args) {
  LedgerArgs la;
  if (!parse_ledger_args(args, la, /*trend=*/false)) usage(args.argv[0]);
  int rc = 0;
  const auto entries = load_ledger(la, rc);
  if (rc) return rc;
  std::printf("ledger: %s (%d entries)\n", la.path.c_str(),
              static_cast<int>(entries.size()));
  std::fputs(report::format_history(entries, la.opts.label).c_str(), stdout);
  return 0;
}

int cmd_serve_stats(ArgReader& args) {
  std::string path;
  for (; args.i < args.argc; ++args.i) {
    if (args.argv[args.i][0] == '-' && args.argv[args.i][1] == '-') {
      usage(args.argv[0]);
    } else if (path.empty()) {
      path = args.argv[args.i];
    } else {
      usage(args.argv[0]);
    }
  }
  if (path.empty()) usage(args.argv[0]);

  std::string text;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else if (!read_file(path, text)) {
    // Exit 2 on a missing file, matching diff's stderr/exit-code
    // convention — a calling script must never mistake this for an empty
    // but healthy snapshot.
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string err;
  const auto snap = report::parse_serve_stats(text, &err);
  if (!snap) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  std::fputs(report::format_serve_stats(*snap).c_str(), stdout);
  return 0;
}

int cmd_trend(ArgReader& args) {
  LedgerArgs la;
  if (!parse_ledger_args(args, la, /*trend=*/true)) usage(args.argv[0]);
  int rc = 0;
  const auto entries = load_ledger(la, rc);
  if (rc) return rc;
  std::printf("ledger: %s (%d entries)\n", la.path.c_str(),
              static_cast<int>(entries.size()));
  const report::TrendReport rep = report::analyze_trend(entries, la.opts);
  std::fputs(report::format_trend(rep).c_str(), stdout);
  return rep.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  if (!std::strcmp(argv[1], "--version") || !std::strcmp(argv[1], "version")) {
    std::printf("ffet_report %s\n", ffet::kVersion);
    return 0;
  }
  ArgReader args{argc, argv};
  if (!std::strcmp(argv[1], "timing")) return cmd_timing(args);
  if (!std::strcmp(argv[1], "nets")) return cmd_nets(args);
  if (!std::strcmp(argv[1], "diff")) return cmd_diff(args);
  if (!std::strcmp(argv[1], "history")) return cmd_history(args);
  if (!std::strcmp(argv[1], "trend")) return cmd_trend(args);
  if (!std::strcmp(argv[1], "serve-stats")) return cmd_serve_stats(args);
  usage(argv[0]);
}

// flowbench — one process of the flow benchmark (perfbench/run.py drives it;
// README.md defines the workloads and every metric).
//
//   flowbench --workload W --seed N --seconds T --mode setup|run|trace
//             --tmp DIR [--trace-out FILE]
//
//   setup  set the workload up once in this fresh process and report the
//          cold set-up time;
//   run    untraced: set up, then repeat the workload while another
//          repetition fits in T seconds, checking that every repetition
//          reproduces the first;
//   trace  traced: drive the stage calls of every in-process point one by
//          one, each inside a span recorded here (nothing inside src/ is
//          instrumented), check the result against run_physical and against
//          a one-thread run, and report per-layer times and work counters.
//
// The last line on stdout is one JSON object:
//   {"setup_s":...,"attempted":N,"failed":N,"metrics":{...},"info":{...}}
// where setup_s is set in setup mode only.
// Diagnostics go to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.h"
#include "flow/report_json.h"
#include "io/def.h"
#include "liberty/characterize.h"
#include "netlist/workload.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "opt/eco.h"
#include "pnr/cts.h"
#include "pnr/drc.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "report/qor.h"
#include "report/serve_stats.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sta/sta.h"
#include "synth/synth.h"

namespace {

using namespace ffet;
using Clock = std::chrono::steady_clock;

/// Intra-flow worker threads of every point (FlowConfig::threads).
constexpr int kFlowThreads = 2;
/// Worker processes of the served workload's daemon.
constexpr int kServeWorkers = 3;
/// Fully cached resubmissions per served cycle.
constexpr int kWarmSubmits = 100;
/// Pings per served cycle in the traced run.
constexpr int kPings = 50;

// ---- process probes ---------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tv_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

/// User + system CPU of this process (all threads), or of its reaped
/// children.
double cpu_s(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

/// Largest resident set of any reaped child (kB).
long long children_peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return ru.ru_maxrss;
}

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The fastest repetition.  Other tenants of a shared host slow single
/// repetitions by up to 2x for seconds at a time and never speed one up,
/// so the minimum is the steadiest estimate of the code's own time.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// The median over points of each point's fastest time across repetitions
/// (`times[rep][point]`): the per-point time of a typical point.
double point_p50(const std::vector<std::vector<double>>& times) {
  std::vector<double> per_point;
  for (std::size_t i = 0; !times.empty() && i < times.front().size(); ++i) {
    std::vector<double> reps;
    for (const auto& rep : times) reps.push_back(rep[i]);
    per_point.push_back(fastest(reps));
  }
  return median(per_point);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- spans ------------------------------------------------------------------

/// Run `f` inside a span on the process trace.  obs::record_span records
/// whether or not the flow's own tracing is on; the benchmark leaves that
/// off, so the trace holds only the spans recorded here.
template <class F>
auto span(std::string name, F&& f) {
  const std::uint64_t t0 = obs::trace_now_ns();
  auto out = f();
  obs::record_span(std::move(name), t0, obs::trace_now_ns());
  return out;
}

/// One layer's totals over the calls of a traced pass.
struct LayerTotals {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU, all threads
  double rss_delta_mb = 0.0;
};
using PassLayers = std::map<std::string, LayerTotals>;

/// A call into one layer: a span, plus the call's wall time, process CPU
/// time and RSS growth added to the layer's totals for this pass.
template <class F>
auto stage(PassLayers& layers, const char* layer, F&& f) {
  const auto t0 = Clock::now();
  const double c0 = cpu_s();
  const long long r0 = obs::sample_current_rss_kb();
  auto out = span(layer, std::forward<F>(f));
  LayerTotals& l = layers[layer];
  l.wall_s += seconds_since(t0);
  l.cpu_s += cpu_s() - c0;
  l.rss_delta_mb +=
      static_cast<double>(obs::sample_current_rss_kb() - r0) / 1024.0;
  return out;
}

// ---- workloads --------------------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  std::string mode = "run";
  std::string tmp;
  std::string trace_out;
};

/// FlowConfig::seed of every point.  The flow's work is chaotic in the
/// placement seed (FFET FM2BM2 at 82 % takes 0.5 s to 14 s across seeds
/// 1-6), so the operating points keep the seed they are
/// characterized at; the workload seed orders the served submission
/// instead (see workload_points).
constexpr unsigned kFlowSeed = 1;

flow::FlowConfig base_config(tech::TechKind kind, int front, int back,
                             double backside_fraction, double util) {
  flow::FlowConfig cfg;
  cfg.tech_kind = kind;
  cfg.front_layers = front;
  cfg.back_layers = back;
  cfg.backside_input_fraction = backside_fraction;
  cfg.target_freq_ghz = 1.5;
  cfg.utilization = util;
  cfg.seed = kFlowSeed;
  cfg.threads = kFlowThreads;
  return cfg;
}

constexpr auto kCfet = tech::TechKind::Cfet4T;
constexpr auto kFfet = tech::TechKind::Ffet3p5T;

std::vector<flow::FlowConfig> operating_points(const std::string& w) {
  if (w == "rv32_fig9") {
    flow::FlowConfig dual = base_config(kFfet, 12, 12, 0.5, 0.76);
    dual.eco_passes = 2;
    return {base_config(kCfet, 12, 0, 0.0, 0.76),
            base_config(kFfet, 12, 0, 0.0, 0.76), dual};
  }
  if (w == "mesh_99k") return {base_config(kFfet, 12, 12, 0.5, 0.60)};
  if (w == "served_fig8") {
    // Fig. 8 quick grid: three curves at six utilizations each.
    std::vector<flow::FlowConfig> grid;
    for (const flow::FlowConfig& curve :
         {base_config(kCfet, 12, 0, 0.0, 0.0),
          base_config(kFfet, 12, 12, 0.5, 0.0),
          base_config(kFfet, 12, 0, 0.0, 0.0)}) {
      for (int i = 0; i < 6; ++i) {
        flow::FlowConfig p = curve;
        p.utilization = 0.46 + 0.08 * i;
        grid.push_back(p);
      }
    }
    return grid;
  }
  return {};
}

/// The workload's points in the order a run requests them.  The served
/// sweep is submitted in a permutation drawn from the workload seed.  An
/// in-process pass keeps one order, so every run times each point after
/// the same predecessor.
std::vector<flow::FlowConfig> workload_points(const std::string& w,
                                              unsigned seed) {
  std::vector<flow::FlowConfig> points = operating_points(w);
  if (w != "served_fig8") return points;
  std::mt19937 rng(seed);
  for (std::size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng() % i]);
  }
  return points;
}

/// The 3x3 replicated-tile mesh of bench_scale (~11k cells per tile),
/// built on the same technology and library construction as
/// flow::prepare_design, with the RISC-V core swapped for the mesh.
std::unique_ptr<flow::DesignContext> prepare_mesh(const flow::FlowConfig& cfg) {
  auto tech = std::make_unique<tech::Technology>(
      tech::make_ffet_3p5t().with_routing_limit(cfg.front_layers,
                                                cfg.back_layers));
  stdcell::PinConfig pc;
  pc.backside_input_fraction = cfg.backside_input_fraction;
  auto lib =
      std::make_unique<stdcell::Library>(stdcell::build_library(*tech, pc));
  liberty::characterize_library(*lib);
  netlist::WorkloadOptions wopt;
  wopt.num_gates = 10000;
  wopt.num_flops = 1000;
  wopt.num_inputs = 64;
  wopt.num_outputs = 64;
  wopt.anonymous = true;
  wopt.tile_cols = 3;
  wopt.tile_rows = 3;
  wopt.seed = cfg.seed;
  netlist::Netlist nl = netlist::generate_workload(*lib, wopt);
  return std::make_unique<flow::DesignContext>(cfg, std::move(tech),
                                               std::move(lib), std::move(nl));
}

std::vector<std::unique_ptr<flow::DesignContext>> prepare_contexts(
    const std::string& w, const std::vector<flow::FlowConfig>& points) {
  std::vector<std::unique_ptr<flow::DesignContext>> ctxs;
  for (const flow::FlowConfig& cfg : points) {
    ctxs.push_back(w == "mesh_99k" ? prepare_mesh(cfg)
                                   : flow::prepare_design(cfg));
  }
  return ctxs;
}

// ---- QoR identity -----------------------------------------------------------

/// The flow-report line of a result, as a served worker would write it,
/// with eco.sta_speedup (a ratio of two wall times, the one timing field
/// in a QoR section) zeroed.
std::string report_line(flow::FlowResult r) {
  r.eco_sta_speedup = 0.0;
  return flow::flow_report_json(r);
}

/// Everything an in-process result is compared on: flow::to_json holds
/// every QoR field (validity, placement, router counters, clock and hold
/// buffers, hold slack and violations, critical path, HPWL, power, ECO
/// counters), plus the RC-node count.  eco_sta_speedup is zeroed.
std::string identity(flow::FlowResult r) {
  r.eco_sta_speedup = 0.0;
  return flow::to_json(r) + "\nrc_nodes " +
         std::to_string(r.resource.rc_nodes);
}

std::vector<report::FlowRecord> parse_lines(
    const std::vector<std::string>& lines) {
  std::string jsonl;
  for (const std::string& l : lines) jsonl += l + '\n';
  std::istringstream is(jsonl);
  return report::read_flow_reports(is);
}

/// Served lines of `now` that differ from `base` on any QoR field (the
/// repo's `ffet_report diff --qor` identity gate) or in their RC-node count
/// (a resource-section work counter that gate skips), index-paired.
int qor_mismatches(const std::vector<std::string>& base,
                   const std::vector<std::string>& now, const char* what) {
  auto b = parse_lines(base);
  auto n = parse_lines(now);
  for (auto* records : {&b, &n}) {
    for (report::FlowRecord& r : *records) {
      r.diagnostics["rc_nodes"] = r.resource["rc_nodes"];
    }
  }
  if (b.size() != n.size() || b.size() != base.size()) {
    std::fprintf(stderr, "[flowbench] %s: %zu vs %zu parsed points\n", what,
                 b.size(), n.size());
    return static_cast<int>(std::max(base.size(), now.size()));
  }
  int bad = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    report::DiffOptions opts;
    opts.qor_only = true;
    const report::DiffReport d =
        report::diff_flow_reports({b[i]}, {n[i]}, opts);
    if (d.deltas.empty()) continue;
    ++bad;
    std::fprintf(stderr, "[flowbench] %s: %s: %s %.17g -> %.17g\n", what,
                 b[i].label.c_str(), d.deltas[0].metric.c_str(),
                 d.deltas[0].base, d.deltas[0].now);
  }
  return bad;
}

/// In-process results of `now` whose identity() differs from `base`'s,
/// index-paired.
int result_mismatches(const std::vector<flow::FlowResult>& base,
                      const std::vector<flow::FlowResult>& now,
                      const char* what) {
  if (base.size() != now.size()) {
    std::fprintf(stderr, "[flowbench] %s: %zu vs %zu points\n", what,
                 base.size(), now.size());
    return static_cast<int>(std::max(base.size(), now.size()));
  }
  int bad = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const std::string b = identity(base[i]);
    const std::string n = identity(now[i]);
    if (b == n) continue;
    ++bad;
    // Name the first field that differs.
    std::istringstream bs(b), ns(n);
    std::string bl, nl;
    while (std::getline(bs, bl) && std::getline(ns, nl) && bl == nl) {
    }
    std::fprintf(stderr, "[flowbench] %s: %s: %s -> %s\n", what,
                 base[i].config.label().c_str(), bl.c_str(), nl.c_str());
  }
  return bad;
}

// ---- the traced stage sequence ----------------------------------------------

/// Work counters of one traced pass, summed over its points.
using Counters = std::map<std::string, double>;

/// run_physical's stage sequence, driven call by call through the public
/// module APIs with one span per call.  Produces the same FlowResult QoR
/// as flow::run_physical (checked against it on every point).
flow::FlowResult traced_point(const flow::DesignContext& ctx,
                              const flow::FlowConfig& config,
                              PassLayers& layers, Counters& c) {
  const std::uint64_t point_start = obs::trace_now_ns();
  flow::FlowResult res;
  res.config = config;
  const int threads = runtime::resolve_threads(config.threads);
  netlist::Netlist nl = ctx.netlist;

  pnr::FloorplanOptions fo;
  fo.target_utilization = config.utilization;
  fo.aspect_ratio = config.aspect_ratio;
  const pnr::Floorplan fp = stage(layers, "pnr.floorplan", [&] {
    return pnr::make_floorplan(nl, ctx.tech(), fo);
  });
  res.core_area_um2 = fp.core_area_um2();
  res.core_width_um = geom::to_um(fp.core.width());
  res.core_height_um = geom::to_um(fp.core.height());
  res.utilization = fp.achieved_utilization;

  const pnr::PowerPlan pp = stage(layers, "pnr.powerplan", [&] {
    return pnr::build_power_plan(nl, fp, *ctx.library);
  });
  res.num_tap_cells = static_cast<int>(pp.tap_cells.size());

  pnr::PlacementOptions po;
  po.seed = config.seed;
  const pnr::PlacementResult pres =
      stage(layers, "pnr.place", [&] { return pnr::place(nl, fp, pp, po); });
  res.placement_legal = pres.legal;
  res.placement_violations = pres.violations;
  res.hpwl_um = pres.hpwl_um;
  res.place_mean_displacement_um = pres.mean_displacement_um;
  res.place_max_displacement_um = pres.max_displacement_um;
  res.placement_drc = stage(layers, "pnr.place_drc", [&] {
    return static_cast<int>(pnr::check_placement(nl, fp, pp).violations.size());
  });

  const pnr::CtsResult cts = stage(
      layers, "pnr.cts", [&] { return pnr::build_clock_tree(nl, fp); });
  res.clock_skew_ps = cts.skew_ps;
  res.clock_latency_ps = cts.mean_latency_ps;
  res.clock_buffers = cts.num_buffers;
  res.hold_buffers = stage(layers, "synth.hold_fix", [&] {
    return synth::fix_hold(nl, cts.sink_latency_ps);
  });

  pnr::RouteOptions ro;
  ro.threads = threads;
  pnr::RouteResult routes = stage(
      layers, "pnr.route", [&] { return pnr::route_design(nl, fp, ro); });
  res.route_valid = routes.valid;
  res.drv = routes.drv_estimate;
  res.route_passes = routes.rrr_passes;
  res.route_ripups = routes.ripups_total;
  res.route_region_ripups = routes.region_ripups_total;
  res.route_overflow = routes.overflow_total;
  res.route_settled_nodes = routes.settled_nodes;
  res.route_window_expansions = routes.window_expansions;
  res.route_steiner_subnets = routes.steiner_subnets;
  res.route_fastpath = routes.fastpath_routes;
  res.drv_wire = routes.drv_wire;
  res.drv_pin_access = routes.drv_pin_access;
  res.wirelength_front_um = routes.wirelength_front_um;
  res.wirelength_back_um = routes.wirelength_back_um;
  res.num_instances = nl.num_instances();

  // Both DEFs, then the merge (three calls, one layer).
  const auto merge = [&] {
    const io::Def front = span("io::build_def front", [&] {
      return io::build_def(nl, routes, tech::Side::Front);
    });
    const io::Def back = span("io::build_def back", [&] {
      return io::build_def(nl, routes, tech::Side::Back);
    });
    return span("io::merge_defs", [&] { return io::merge_defs(front, back); });
  };
  const io::Def merged = stage(layers, "io.def_merge", merge);
  extract::RcNetlist rc = stage(layers, "extract", [&] {
    return extract::extract_rc(merged, nl, ctx.tech(), threads);
  });
  res.resource.sampled = true;
  res.resource.rc_nodes = rc.tree_node_count();
  res.resource.netlist_cells = nl.num_instances();
  long long def_wires = 0;
  for (const io::DefNet& n : merged.nets) {
    def_wires += static_cast<long long>(n.wires.size());
  }

  sta::StaOptions so;
  so.clock_skew_ps = cts.skew_ps;
  so.pi_reference_latency_ps = cts.mean_latency_ps;
  so.threads = threads;
  sta::Sta sta(&nl, &rc, so);
  const sta::TimingReport timing = stage(layers, "sta.timing", [&] {
    return sta.analyze_timing(&cts.sink_latency_ps);
  });
  res.achieved_freq_ghz = timing.achieved_freq_ghz;
  res.critical_path_ps = timing.critical_path_ps;
  const sta::HoldReport hold = stage(layers, "sta.hold", [&] {
    return sta.analyze_hold(&cts.sink_latency_ps);
  });
  res.hold_slack_ps = hold.worst_slack_ps;
  res.hold_violations = hold.violations;
  const auto set_power = [&](const sta::PowerReport& power) {
    res.power_uw = power.total_uw();
    res.switching_uw = power.switching_uw;
    res.internal_uw = power.internal_uw;
    res.leakage_uw = power.leakage_uw;
    res.efficiency_ghz_per_mw = power.efficiency_ghz_per_mw();
    res.ir_drop_mv = pp.estimate_ir_drop_mv(res.power_uw);
  };
  set_power(stage(layers, "sta.power", [&] {
    return sta.analyze_power(res.achieved_freq_ghz, nullptr);
  }));

  if (config.eco_passes > 0 && res.valid()) {
    res.eco_pre_freq_ghz = res.achieved_freq_ghz;
    res.eco_pre_power_uw = res.power_uw;
    opt::EcoOptions eo;
    eo.passes = config.eco_passes;
    eo.threads = threads;
    eo.sta = so;
    eo.route = ro;
    const opt::EcoReport eco = stage(layers, "opt.eco", [&] {
      return opt::run_eco(nl, fp, pp, routes, rc, cts.sink_latency_ps, eo);
    });
    res.eco_passes_run = eco.passes_run;
    res.eco_attempted = eco.attempted;
    res.eco_accepted = eco.accepted;
    res.eco_reverted = eco.reverted;
    res.eco_upsized = eco.upsized;
    res.eco_downsized = eco.downsized;
    res.eco_buffers = eco.buffers;
    res.eco_pin_flips = eco.pin_flips;
    res.eco_sta_speedup = eco.sta_speedup();
    c["opt.eco.attempted"] += eco.attempted;
    c["opt.eco.accepted"] += eco.accepted;
    c["opt.eco.sta_updates"] += static_cast<double>(eco.sta_updates);
    c["opt.eco.sta_recomputed"] += static_cast<double>(eco.sta_recomputed);

    // Full re-signoff on the optimized design.
    stage(layers, "opt.eco_signoff", [&] {
      const io::Def eco_merged = span("io.def_merge", merge);
      rc = span("extract", [&] {
        return extract::extract_rc(eco_merged, nl, ctx.tech(), threads);
      });
      sta::Sta eco_sta(&nl, &rc, so);
      const sta::TimingReport t = span("sta.timing", [&] {
        return eco_sta.analyze_timing(&cts.sink_latency_ps);
      });
      res.achieved_freq_ghz = t.achieved_freq_ghz;
      res.critical_path_ps = t.critical_path_ps;
      const sta::HoldReport h = span("sta.hold", [&] {
        return eco_sta.analyze_hold(&cts.sink_latency_ps);
      });
      res.hold_slack_ps = h.worst_slack_ps;
      res.hold_violations = h.violations;
      set_power(span("sta.power", [&] {
        return eco_sta.analyze_power(res.achieved_freq_ghz, nullptr);
      }));
      res.eco_iso_power_uw = span("sta.power iso-frequency", [&] {
        return eco_sta.analyze_power(res.eco_pre_freq_ghz, nullptr);
      }).total_uw();
      res.route_valid = routes.valid;
      res.drv = routes.drv_estimate;
      res.drv_wire = routes.drv_wire;
      res.drv_pin_access = routes.drv_pin_access;
      res.wirelength_front_um = routes.wirelength_front_um;
      res.wirelength_back_um = routes.wirelength_back_um;
      res.hpwl_um = pnr::compute_hpwl_um(nl);
      res.num_instances = nl.num_instances();
      res.resource.rc_nodes = rc.tree_node_count();
      res.resource.netlist_cells = nl.num_instances();
      return 0;
    });
    res.eco_post_freq_ghz = res.achieved_freq_ghz;
    res.eco_post_power_uw = res.power_uw;
  }
  if (!res.placement_legal) {
    res.invalid_reason = "placement: " +
                         (pres.message.empty()
                              ? std::to_string(pres.violations) + " violations"
                              : pres.message);
  } else if (!res.route_valid) {
    std::ostringstream os;
    os << "route: drv=" << res.drv << " (wire=" << res.drv_wire
       << ", pin_access=" << res.drv_pin_access << ") after "
       << res.route_passes << " RRR passes";
    res.invalid_reason = os.str();
  }
  obs::record_span("point " + config.label(), point_start,
                   obs::trace_now_ns());

  c["pnr.place.disp_mean_um"] += pres.mean_displacement_um;
  c["synth.hold_fix.buffers"] += res.hold_buffers;
  c["pnr.route.passes"] += routes.rrr_passes;
  c["pnr.route.ripups"] += static_cast<double>(routes.ripups_total);
  c["pnr.route.region_ripups"] +=
      static_cast<double>(routes.region_ripups_total);
  c["pnr.route.settled_nodes"] += static_cast<double>(routes.settled_nodes);
  c["pnr.route.window_expansions"] +=
      static_cast<double>(routes.window_expansions);
  c["pnr.route.steiner_subnets"] += static_cast<double>(routes.steiner_subnets);
  c["pnr.route.fastpath"] += static_cast<double>(routes.fastpath_routes);
  c["pnr.route.overflow"] += routes.overflow_total;
  c["io.def_wires"] += static_cast<double>(def_wires);
  c["extract.rc_nodes"] += static_cast<double>(rc.tree_node_count());
  c["sta.endpoints"] += timing.endpoints;
  return res;
}

// ---- result record ----------------------------------------------------------

struct Outcome {
  double setup_s = 0.0;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> info;

  void metric(const std::string& name, double v) {
    metrics.emplace_back(name, v);
  }

  std::string json() const {
    std::string out;
    flow::JsonBuilder j(out);
    j.open_obj();
    j.field("setup_s", setup_s);
    j.field("attempted", attempted);
    j.field("failed", failed);
    j.open_nested("metrics");
    for (const auto& [k, v] : metrics) j.field(k.c_str(), v);
    j.close_obj();
    j.open_nested("info");
    for (const auto& [k, v] : info) j.field(k.c_str(), v);
    j.close_obj();
    j.close_obj();
    return out;
  }
};

/// QoR of a set of points, read from their flow-report records.
struct QorSummary {
  double freq_ghz = 0.0;  ///< geometric mean
  double power_mw = 0.0;  ///< geometric mean
  double wirelength_mm = 0.0;
  int valid = 0;
  int drv = 0;
  int cells = 0;        ///< netlist cells of the largest point
  int implausible = 0;  ///< points with non-positive or non-finite PPA
};

QorSummary summarize(const std::vector<report::FlowRecord>& records) {
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  QorSummary q;
  std::vector<double> freq, power_mw;
  for (const report::FlowRecord& r : records) {
    const double f = get(r.ppa, "achieved_freq_ghz");
    const double p = get(r.ppa, "power_uw") / 1000.0;
    const double w =
        get(r.ppa, "wirelength_front_um") + get(r.ppa, "wirelength_back_um");
    if (!(f > 0.0 && p > 0.0 && w > 0.0 && std::isfinite(f) &&
          std::isfinite(p) && std::isfinite(w))) {
      std::fprintf(stderr, "[flowbench] implausible result: %s\n",
                   r.label.c_str());
      ++q.implausible;
    }
    freq.push_back(f);
    power_mw.push_back(p);
    q.wirelength_mm += w / 1000.0;
    q.valid += r.valid ? 1 : 0;
    q.drv += static_cast<int>(get(r.diagnostics, "drv"));
    q.cells = std::max(q.cells,
                       static_cast<int>(get(r.resource, "netlist_cells")));
  }
  q.freq_ghz = geomean(freq);
  q.power_mw = geomean(power_mw);
  return q;
}

QorSummary summarize(const std::vector<flow::FlowResult>& results) {
  std::vector<std::string> lines;
  for (const flow::FlowResult& r : results) lines.push_back(report_line(r));
  return summarize(parse_lines(lines));
}

void qor_metrics(const QorSummary& q, Outcome& out) {
  out.metric("freq_ghz", q.freq_ghz);
  out.metric("power_mw", q.power_mw);
  out.metric("wirelength_mm", q.wirelength_mm);
  out.metric("valid_points", q.valid);
  out.info.emplace_back("drv", q.drv);
}

// ---- in-process workloads ---------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> point_s;
  std::vector<flow::FlowResult> results;
};

using Contexts = std::vector<std::unique_ptr<flow::DesignContext>>;

/// Repeat `once` (which returns the seconds it took) while another
/// repetition, as long as the last one, still fits in `seconds`; at least
/// once.
template <class F>
void repeat_within(double seconds, F&& once) {
  const auto t0 = Clock::now();
  double last = 0.0;
  do {
    last = once();
  } while (seconds_since(t0) + last <= seconds);
}

Pass untraced_pass(const Contexts& ctxs,
                   const std::vector<flow::FlowConfig>& points, int threads) {
  Pass p;
  const auto t0 = Clock::now();
  const double c0 = cpu_s();
  for (std::size_t i = 0; i < points.size(); ++i) {
    flow::FlowConfig cfg = points[i];
    cfg.threads = threads;
    const auto p0 = Clock::now();
    p.results.push_back(flow::run_physical(*ctxs[i], cfg));
    p.point_s.push_back(seconds_since(p0));
  }
  p.wall_s = seconds_since(t0);
  p.cpu_s = cpu_s() - c0;
  std::fprintf(stderr, "[flowbench] pass %.3f s:", p.wall_s);
  for (const double s : p.point_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  return p;
}

Outcome run_in_process(const Args& a,
                       const std::vector<flow::FlowConfig>& points) {
  Outcome out;
  const auto ctxs = prepare_contexts(a.workload, points);
  const long long rss_after_setup_kb = obs::sample_current_rss_kb();

  std::vector<Pass> passes;
  repeat_within(a.seconds, [&] {
    passes.push_back(untraced_pass(ctxs, points, kFlowThreads));
    out.attempted += static_cast<long long>(points.size());
    return passes.back().wall_s;
  });

  // Determinism across repetitions: every pass reproduces the first.
  for (std::size_t i = 1; i < passes.size(); ++i) {
    out.failed += result_mismatches(passes[0].results, passes[i].results,
                                    "repeat");
  }
  const QorSummary qor = summarize(passes[0].results);
  out.failed += qor.implausible;

  std::vector<double> wall, cpu;
  std::vector<std::vector<double>> point_s;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    point_s.push_back(p.point_s);
  }
  const long long peak_kb = obs::sample_resources().peak_rss_kb;
  out.metric("wall_s", fastest(wall));
  out.metric("point_s_p50", point_p50(point_s));
  out.metric("cpu_s", fastest(cpu));
  out.metric("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0);
  out.metric("rss_bytes_per_cell",
             static_cast<double>(peak_kb - rss_after_setup_kb) * 1024.0 /
                 qor.cells);
  qor_metrics(qor, out);
  out.info.emplace_back("passes", static_cast<double>(passes.size()));
  return out;
}

/// Per-layer metrics of traced passes: the median over passes of each
/// layer's per-pass totals, and the work counters of the first pass.
void layer_metrics(const std::vector<PassLayers>& per_pass, const Counters& c,
                   int points, Outcome& out) {
  const auto med = [&](const char* layer, double LayerTotals::*field) {
    std::vector<double> v;
    for (const auto& pass : per_pass) {
      const auto it = pass.find(layer);
      v.push_back(it == pass.end() ? 0.0 : it->second.*field);
    }
    return median(v);
  };
  const auto counter = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  using L = LayerTotals;
  out.metric("pnr.floorplan.wall_s", med("pnr.floorplan", &L::wall_s));
  out.metric("pnr.powerplan.wall_s", med("pnr.powerplan", &L::wall_s));
  out.metric("pnr.place.wall_s", med("pnr.place", &L::wall_s));
  out.metric("pnr.place.cpu_s", med("pnr.place", &L::cpu_s));
  out.metric("pnr.place.disp_mean_um",
             points ? counter("pnr.place.disp_mean_um") / points : 0.0);
  out.metric("pnr.place_drc.wall_s", med("pnr.place_drc", &L::wall_s));
  out.metric("pnr.cts.wall_s", med("pnr.cts", &L::wall_s));
  out.metric("synth.hold_fix.wall_s", med("synth.hold_fix", &L::wall_s));
  out.metric("synth.hold_fix.buffers", counter("synth.hold_fix.buffers"));
  out.metric("pnr.route.wall_s", med("pnr.route", &L::wall_s));
  out.metric("pnr.route.cpu_s", med("pnr.route", &L::cpu_s));
  out.metric("pnr.route.rss_delta_mb", med("pnr.route", &L::rss_delta_mb));
  for (const char* k : {"passes", "ripups", "region_ripups", "settled_nodes",
                        "window_expansions", "overflow"}) {
    out.metric(std::string("pnr.route.") + k,
               counter((std::string("pnr.route.") + k).c_str()));
  }
  const double subnets = counter("pnr.route.steiner_subnets");
  out.metric("pnr.route.fastpath_share",
             subnets > 0 ? counter("pnr.route.fastpath") / subnets : 0.0);
  out.metric("io.def_merge.wall_s", med("io.def_merge", &L::wall_s));
  out.metric("io.def_merge.rss_delta_mb",
             med("io.def_merge", &L::rss_delta_mb));
  out.metric("io.def_wires", counter("io.def_wires"));
  out.metric("extract.wall_s", med("extract", &L::wall_s));
  out.metric("extract.cpu_s", med("extract", &L::cpu_s));
  out.metric("extract.rss_delta_mb", med("extract", &L::rss_delta_mb));
  out.metric("extract.rc_nodes", counter("extract.rc_nodes"));
  out.metric("sta.timing.wall_s", med("sta.timing", &L::wall_s));
  out.metric("sta.hold.wall_s", med("sta.hold", &L::wall_s));
  out.metric("sta.power.wall_s", med("sta.power", &L::wall_s));
  out.metric("sta.endpoints", counter("sta.endpoints"));
  out.metric("opt.eco.wall_s", med("opt.eco", &L::wall_s));
  out.metric("opt.eco.attempted", counter("opt.eco.attempted"));
  const double attempted = counter("opt.eco.attempted");
  out.metric("opt.eco.accept_ratio",
             attempted > 0 ? counter("opt.eco.accepted") / attempted : 0.0);
  out.metric("opt.eco.sta_updates", counter("opt.eco.sta_updates"));
  out.metric("opt.eco.sta_recomputed", counter("opt.eco.sta_recomputed"));
  out.metric("opt.eco_signoff.wall_s", med("opt.eco_signoff", &L::wall_s));
}

/// Client- and daemon-side latencies of served requests (ms).  The
/// daemon's share comes from its per-point latency attribution.
struct ServeLatency {
  std::vector<double> ping;
  std::vector<double> warm_submit;
  std::vector<double> queue_wait;   ///< cold points
  std::vector<double> worker_run;   ///< cold points
  std::vector<double> cache_probe;  ///< every point
};

/// The serve layer's per-layer metrics: latencies from `lat`, counters
/// from the daemon's STATS snapshot.  Zero for workloads that run no
/// daemon (`snap` null).
void serve_metrics(const report::ServeStatsSnapshot* snap,
                   const ServeLatency& lat, Outcome& out) {
  const auto counter = [&](const char* name) {
    if (snap == nullptr) return 0.0;
    const auto it = snap->counters.find(name);
    return it == snap->counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  out.metric("serve.ping_ms_p50", median(lat.ping));
  out.metric("serve.queue_wait_ms_p50", median(lat.queue_wait));
  out.metric("serve.queue_wait_ms_p95", quantile(lat.queue_wait, 0.95));
  out.metric("serve.cache_probe_ms_p50", median(lat.cache_probe));
  out.metric("serve.worker_run_ms_p50", median(lat.worker_run));
  out.metric("serve.worker_run_ms_p95", quantile(lat.worker_run, 0.95));
  const double pts = counter("points");
  out.metric("serve.cache_hit_ratio",
             pts > 0 ? counter("cache_hits") / pts : 0.0);
  out.metric("serve.flow_runs", counter("flow_runs"));
  out.metric("serve.retries", counter("retries"));
  out.metric("serve.warm_submit_ms_p50", median(lat.warm_submit));
  out.metric("serve.warm_submit_ms_p95", quantile(lat.warm_submit, 0.95));
}

/// The traced run of in-process points: run_physical untraced (the
/// program), then pairs of one traced and one untraced pass while another
/// pair fits in `seconds` (at least one pair).  Every pass reproduces the
/// program's QoR and every traced pass the first one's work counters.
/// The tracing overhead compares the paired passes (the first untraced
/// pass is the process's cold one).  With `thread_check`, run_physical at
/// one intra-flow thread must reproduce the program too.  Returns the
/// program's results.
std::vector<flow::FlowResult> trace_points(
    const Contexts& ctxs,
    const std::vector<flow::FlowConfig>& points, double seconds,
    bool thread_check, Outcome& out) {
  const Pass program = untraced_pass(ctxs, points, kFlowThreads);
  out.attempted += static_cast<long long>(points.size());
  const QorSummary qor = summarize(program.results);
  out.failed += qor.implausible;

  std::vector<PassLayers> per_pass;
  std::vector<double> traced_wall, untraced_wall;
  Counters first_counters;
  repeat_within(seconds, [&] {
    PassLayers layers;
    Counters c;
    std::vector<flow::FlowResult> results;
    const auto p0 = Clock::now();
    const std::uint64_t pass_start = obs::trace_now_ns();
    for (std::size_t i = 0; i < points.size(); ++i) {
      results.push_back(traced_point(*ctxs[i], points[i], layers, c));
    }
    obs::record_span("pass " + std::to_string(per_pass.size()), pass_start,
                     obs::trace_now_ns());
    traced_wall.push_back(seconds_since(p0));
    out.attempted += static_cast<long long>(points.size());
    out.failed +=
        result_mismatches(program.results, results, "traced vs program");
    if (per_pass.empty()) {
      first_counters = c;
    } else if (c != first_counters) {
      std::fprintf(stderr, "[flowbench] traced repeat: work counters differ\n");
      ++out.failed;
    }
    per_pass.push_back(std::move(layers));

    const Pass untraced = untraced_pass(ctxs, points, kFlowThreads);
    untraced_wall.push_back(untraced.wall_s);
    out.attempted += static_cast<long long>(points.size());
    out.failed +=
        result_mismatches(program.results, untraced.results, "repeat");
    return traced_wall.back() + untraced.wall_s;
  });

  if (thread_check) {
    const Pass serial = untraced_pass(ctxs, points, 1);
    out.attempted += static_cast<long long>(points.size());
    out.failed += result_mismatches(program.results, serial.results,
                                    "threads 1 vs 2");
  }

  layer_metrics(per_pass, first_counters, static_cast<int>(points.size()), out);
  out.metric("trace.overhead_pct",
             (median(traced_wall) / median(untraced_wall) - 1.0) * 100.0);
  out.metric("flow.valid_points", qor.valid);
  out.metric("flow.drv", qor.drv);
  return program.results;
}

Outcome trace_in_process(const Args& a,
                         const std::vector<flow::FlowConfig>& points) {
  Outcome out;
  const auto ctxs = prepare_contexts(a.workload, points);
  trace_points(ctxs, points, a.seconds, true, out);
  serve_metrics(nullptr, {}, out);
  return out;
}

// ---- served workload --------------------------------------------------------

/// One daemon lifetime: start with an empty cache until the first ping is
/// answered, one cold submission, kWarmSubmits fully cached resubmissions.
struct Cycle {
  bool ok = false;
  double cold_s = 0.0;
  double cpu_s = 0.0;  ///< this process + the reaped workers
  ServeLatency lat;
  std::vector<std::string> cold_lines;
  long long warm_misses = 0;
  long long warm_mismatches = 0;  ///< warm answers unlike the cold ones
  long long worker_deaths = 0;
  std::string stats_json;
};

serve::ServeOptions serve_options(const Args& a, int cycle) {
  serve::ServeOptions o;
  o.socket_path = a.tmp + "/serve.sock";
  o.cache_dir = a.tmp + "/cache." + std::to_string(cycle);
  o.workers = kServeWorkers;
  return o;
}

Cycle served_cycle(const Args& a, int index,
                   const std::vector<flow::FlowConfig>& points, bool traced,
                   std::FILE* log) {
  Cycle cy;
  serve::ServeOptions opts = serve_options(a, index);
  opts.log = log;
  // The traced run reads the daemon's per-point phase latencies from the
  // attribution object it appends to each line (never compared as QoR).
  opts.attribution = traced;
  const double c0 = cpu_s() + cpu_s(RUSAGE_CHILDREN);
  const auto s0 = Clock::now();
  serve::Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "[flowbench] serve start: %s\n", error.c_str());
    return cy;
  }
  const auto ping_once = [&] {
    double rtt = 0.0;
    const auto body = [&] {
      return serve::ping(opts.socket_path, &error, &rtt);
    };
    const bool ok = traced ? span("serve::ping", body) : body();
    if (ok) cy.lat.ping.push_back(rtt);
    return ok;
  };
  while (!ping_once()) {
    if (seconds_since(s0) > 30.0) {
      std::fprintf(stderr, "[flowbench] daemon never answered: %s\n",
                   error.c_str());
      return cy;
    }
  }

  const auto submit = [&](const char* what, std::vector<std::string>* lines,
                          serve::SubmitStats* st) {
    std::vector<serve::ResultLine> results;
    const auto body = [&] {
      return serve::submit_sweep(opts.socket_path, points, &results, st,
                                 &error);
    };
    const bool ok =
        traced ? span(std::string("serve::submit_sweep ") + what, body)
               : body();
    if (!ok) {
      std::fprintf(stderr, "[flowbench] submit (%s): %s\n", what,
                   error.c_str());
      return false;
    }
    for (const serve::ResultLine& r : results) {
      lines->push_back(r.line);
      if (r.worker_died) ++cy.worker_deaths;
    }
    return true;
  };

  const auto attribute = [&](const std::vector<std::string>& lines) {
    if (!opts.attribution) return;
    for (const report::FlowRecord& r : parse_lines(lines)) {
      const auto ms = [&](const char* k) {
        const auto it = r.serve.find(k);
        return it == r.serve.end() ? 0.0 : it->second;
      };
      cy.lat.cache_probe.push_back(ms("cache_ms"));
      if (ms("cache_hit") == 0.0) {
        cy.lat.queue_wait.push_back(ms("queue_ms"));
        cy.lat.worker_run.push_back(ms("run_ms"));
      }
    }
  };

  const auto c0w = Clock::now();
  serve::SubmitStats cold{};
  if (!submit("cold", &cy.cold_lines, &cold)) return cy;
  cy.cold_s = seconds_since(c0w);
  attribute(cy.cold_lines);

  for (int i = 0; i < kWarmSubmits; ++i) {
    std::vector<std::string> lines;
    serve::SubmitStats warm{};
    const auto w0 = Clock::now();
    if (!submit("warm", &lines, &warm)) return cy;
    cy.lat.warm_submit.push_back(seconds_since(w0) * 1000.0);
    cy.warm_misses += warm.points - warm.cache_hits;
    attribute(lines);
    // Every warm answer repeats the cold one: byte for byte when the
    // daemon replays its cached lines untouched, QoR-identical when it
    // splices its latency attribution into them.
    if (opts.attribution) {
      cy.warm_mismatches += qor_mismatches(cy.cold_lines, lines, "served warm");
    } else if (lines != cy.cold_lines) {
      std::fprintf(stderr, "[flowbench] served warm: answer %d differs\n", i);
      cy.warm_mismatches += static_cast<long long>(points.size());
    }
  }
  if (traced) {
    for (int i = 0; i < kPings; ++i) ping_once();
    const auto body = [&] {
      return serve::query_stats(opts.socket_path, &cy.stats_json, &error);
    };
    if (!span("serve::query_stats", body)) {
      std::fprintf(stderr, "[flowbench] stats: %s\n", error.c_str());
      return cy;
    }
  }
  server.stop();
  cy.cpu_s = cpu_s() + cpu_s(RUSAGE_CHILDREN) - c0;
  cy.ok = true;
  return cy;
}

/// Served setup alone: daemon start (empty cache, fleet fork) until the
/// first ping is answered.  One start takes a few ms and falls into two
/// modes, so a setup process reports the mean of kSetupStarts starts.
double served_setup(const Args& a) {
  constexpr int kSetupStarts = 20;
  std::FILE* log = std::fopen((a.tmp + "/daemon.setup.log").c_str(), "w");
  double total = 0.0;
  for (int i = 0; i < kSetupStarts && total >= 0.0; ++i) {
    serve::ServeOptions opts = serve_options(a, 0);
    opts.cache_dir = a.tmp + "/cache.setup." + std::to_string(i);
    opts.log = log;
    const auto s0 = Clock::now();
    serve::Server server(opts);
    std::string error;
    if (!server.start(&error)) {
      total = -1.0;
      break;
    }
    while (!serve::ping(opts.socket_path, &error)) {
      if (seconds_since(s0) > 30.0) {
        total = -1.0;
        break;
      }
    }
    if (total >= 0.0) total += seconds_since(s0);
    server.stop();
  }
  if (log) std::fclose(log);
  return total < 0.0 ? -1.0 : total / kSetupStarts;
}

Outcome run_served(const Args& a, const std::vector<flow::FlowConfig>& points,
                   bool traced) {
  Outcome out;
  std::FILE* log = std::fopen((a.tmp + "/daemon.log").c_str(), "w");
  const long long rss_before_kb = obs::sample_current_rss_kb();
  std::vector<Cycle> cycles;
  // The traced run serves one cycle.
  repeat_within(traced ? 0.0 : a.seconds, [&] {
    const auto c0 = Clock::now();
    cycles.push_back(served_cycle(a, static_cast<int>(cycles.size()), points,
                                  traced, log));
    out.attempted += static_cast<long long>(points.size()) * (1 + kWarmSubmits);
    if (cycles.back().ok) return seconds_since(c0);
    out.failed += static_cast<long long>(points.size());
    return std::numeric_limits<double>::infinity();
  });
  if (log) std::fclose(log);
  const long long peak_kb =
      std::max(obs::sample_resources().peak_rss_kb, children_peak_rss_kb());

  // The same grid in process, after every fork.  The untraced run uses one
  // intra-flow thread (the served points ran with kFlowThreads), so it is
  // also the thread-count determinism check.  The traced run drives the
  // stages itself and checks them against run_physical.
  std::vector<std::string> reference;
  if (traced) {
    const auto ctxs = prepare_contexts(a.workload, points);
    for (const auto& r : trace_points(ctxs, points, 0.0, false, out)) {
      reference.push_back(report_line(r));
    }
  } else {
    std::vector<flow::FlowConfig> serial = points;
    for (flow::FlowConfig& c : serial) c.threads = 1;
    for (const flow::FlowResult& r : flow::run_sweep(serial, kServeWorkers)) {
      reference.push_back(report_line(r));
    }
    out.attempted += static_cast<long long>(points.size());
  }

  std::vector<double> wall, cpu;
  std::vector<std::vector<double>> point_s;
  ServeLatency lat;
  for (const Cycle& cy : cycles) {
    if (!cy.ok) continue;
    out.failed += qor_mismatches(reference, cy.cold_lines, "served cold");
    out.failed += cy.warm_mismatches + cy.warm_misses + cy.worker_deaths;
    wall.push_back(cy.cold_s);
    cpu.push_back(cy.cpu_s);
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(lat.ping, cy.lat.ping);
    append(lat.warm_submit, cy.lat.warm_submit);
    append(lat.queue_wait, cy.lat.queue_wait);
    append(lat.worker_run, cy.lat.worker_run);
    append(lat.cache_probe, cy.lat.cache_probe);
    point_s.emplace_back();
    for (const report::FlowRecord& r : parse_lines(cy.cold_lines)) {
      point_s.back().push_back(r.total_wall_ms() / 1000.0);
    }
  }
  if (traced) {
    std::string err;
    const auto snap = report::parse_serve_stats(cycles.back().stats_json, &err);
    if (!snap) {
      std::fprintf(stderr, "[flowbench] stats snapshot: %s\n", err.c_str());
      ++out.failed;
      return out;
    }
    serve_metrics(&*snap, lat, out);
    return out;
  }
  const QorSummary qor = summarize(parse_lines(cycles.front().cold_lines));
  out.failed += qor.implausible;
  out.metric("wall_s", fastest(wall));
  out.metric("point_s_p50", point_p50(point_s));
  out.metric("cpu_s", fastest(cpu));
  out.metric("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0);
  out.metric("rss_bytes_per_cell",
             static_cast<double>(children_peak_rss_kb() - rss_before_kb) *
                 1024.0 / qor.cells);
  qor_metrics(qor, out);
  out.info.emplace_back("cycles", static_cast<double>(cycles.size()));
  out.info.emplace_back("warm_submit_ms_p50", median(lat.warm_submit));
  out.info.emplace_back("warm_submit_ms_p95", quantile(lat.warm_submit, 0.95));
  return out;
}

// ---- main -------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed" || k == "--seconds") {
      std::size_t used = 0;
      try {
        if (k == "--seed") {
          a.seed = static_cast<unsigned>(std::stoul(v, &used));
        } else {
          a.seconds = std::stod(v, &used);
        }
      } catch (const std::exception&) {
        return false;
      }
      if (used != v.size()) return false;
    } else if (k == "--mode") {
      a.mode = v;
    } else if (k == "--tmp") {
      a.tmp = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.tmp.empty() &&
         (a.mode == "setup" || a.mode == "run" || a.mode == "trace");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: flowbench --workload W --seed N --seconds T "
                 "--mode setup|run|trace --tmp DIR [--trace-out FILE]\n");
    return 2;
  }
  const std::vector<flow::FlowConfig> points =
      workload_points(a.workload, a.seed);
  if (points.empty()) {
    std::fprintf(stderr, "flowbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const bool served = a.workload == "served_fig8";
  try {
    Outcome out;
    if (a.mode == "setup") {
      const auto s0 = Clock::now();
      if (served) {
        out.setup_s = served_setup(a);
        if (out.setup_s < 0) return 1;
      } else {
        prepare_contexts(a.workload, points);
        out.setup_s = seconds_since(s0);
      }
    } else if (a.mode == "run") {
      out = served ? run_served(a, points, false) : run_in_process(a, points);
    } else {
      out = served ? run_served(a, points, true)
                   : trace_in_process(a, points);
      if (!a.trace_out.empty() && !obs::dump_trace(a.trace_out)) {
        std::fprintf(stderr, "flowbench: cannot write %s\n",
                     a.trace_out.c_str());
        return 1;
      }
    }
    out.info.emplace_back("seed", a.seed);
    out.info.emplace_back("flow_threads", kFlowThreads);
    out.info.emplace_back("points", static_cast<double>(points.size()));
    std::printf("%s\n", out.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

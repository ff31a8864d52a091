// bench_router — microbenchmark of the dual-sided maze-routing kernel
// (not a paper experiment; the perf trajectory of src/pnr/router.cpp).
//
// Routes the RV32 core front+back at three gcell sizes with both
// negotiation loops — stage 1 (windowed A* on whole subnets, the full route
// reroute_nets() makes with nothing carried; JSON key "astar") and stage 2
// (route_design(), Steiner/region; key "astar2") — reporting routes/s,
// settled nodes per route, and negotiation pass counts, and cross-checking
// the QoR gate: stage 2 must be equal-or-better than stage 1 on hard
// overflow and total wirelength at every configuration.
//
// Two gcell_tracks=10 configurations run with a reduced capacity_factor:
// "congested" sits at the negotiation breakpoint (both loops absorb the
// congestion with windowed detours) and gates the >= 1.8x stage-2 speedup;
// "stress" sits beyond the breakpoint (both loops negotiate for many
// passes, neither converges to zero) and exercises the stage-2
// congestion-region machinery, gated on QoR only — hard overflow and
// wirelength equal or lower, never speed.
//
// Always writes BENCH_router.json (cwd).  The committed copy at the repo
// root is the baseline the CI quick-bench step diffs against
// (ffet_report diff --mode router): both loops' deterministic work
// counters (passes, ripups, region_ripups, window_expansions, drv_wire,
// steiner_subnets, fastpath) and their wirelength must match exactly;
// `astar_settled_per_route` and `astar2_settled_per_route` are
// machine-independent and gated at +20 %; `speedup2` (astar/astar2) is
// normalized against a loop measured in the same run: the two loops are
// timed in interleaved repetitions and each keeps its best, so a loaded
// host slows both.  It is gated at -20 % plus the 1.8x floor on congested
// configs.
//
//   --quick   3 interleaved timing reps per configuration instead of 5

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "liberty/characterize.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "riscv/rv32.h"

using namespace ffet;

namespace {

struct BenchConfig {
  int gcell_tracks = 15;
  double capacity_factor = 3.0;
  const char* label = "uncongested";
  bool congested = false;  ///< negotiation regime; speedup2 floor applies
};

struct EngineStat {
  double seconds = 0.0;  ///< best-of-reps wall time of one full route
  double routes_per_s = 0.0;
  double settled_per_route = 0.0;
  int passes = 0;
  long window_expansions = 0;
  double wirelength_um = 0.0;
  int drv_wire = 0;
  long ripups = 0;
  long region_ripups = 0;
  long steiner_subnets = 0;
  long fastpath = 0;
};

/// Stage 1 from nothing: a reroute with no routes carried.
pnr::RouteResult route_stage1(const netlist::Netlist& nl,
                              const pnr::Floorplan& fp,
                              const pnr::RouteOptions& ro) {
  return pnr::reroute_nets(nl, fp, {}, {}, ro);
}

using RouteFn = pnr::RouteResult (*)(const netlist::Netlist&,
                                     const pnr::Floorplan&,
                                     const pnr::RouteOptions&);

/// One timed route of `route`: keeps the fastest time in `st`, and on the
/// first repetition records the (deterministic) work counters.
void timed_route(const netlist::Netlist& nl, const pnr::Floorplan& fp,
                 RouteFn route, const pnr::RouteOptions& ro, bool first,
                 EngineStat& st) {
  const auto t0 = std::chrono::steady_clock::now();
  const pnr::RouteResult rr = route(nl, fp, ro);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (s < st.seconds) st.seconds = s;
  if (first) {
    const auto routes = static_cast<double>(rr.routes.size());
    st.settled_per_route =
        routes > 0.0 ? static_cast<double>(rr.settled_nodes) / routes : 0.0;
    st.passes = rr.rrr_passes;
    st.window_expansions = rr.window_expansions;
    st.wirelength_um = rr.total_wirelength_um();
    st.drv_wire = rr.drv_wire;
    st.ripups = rr.ripups_total;
    st.region_ripups = rr.region_ripups_total;
    st.steiner_subnets = rr.steiner_subnets;
    st.fastpath = rr.fastpath_routes;
    st.routes_per_s = routes;  // numerator; divided below
  }
}

/// Both loops on one configuration, timed in interleaved repetitions
/// (stage 1, stage 2, stage 1, ...) so that a slow stretch of a loaded
/// host slows both: each keeps its best-of-`reps` time, and speedup2 is
/// their ratio.
std::pair<EngineStat, EngineStat> run_engines(const netlist::Netlist& nl,
                                              const pnr::Floorplan& fp,
                                              const BenchConfig& cfg,
                                              int reps) {
  pnr::RouteOptions ro;
  ro.gcell_tracks = cfg.gcell_tracks;
  ro.capacity_factor = cfg.capacity_factor;
  EngineStat astar;
  EngineStat astar2;
  astar.seconds = astar2.seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    timed_route(nl, fp, route_stage1, ro, rep == 0, astar);
    timed_route(nl, fp, pnr::route_design, ro, rep == 0, astar2);
  }
  for (EngineStat* st : {&astar, &astar2}) {
    st->routes_per_s =
        st->seconds > 0.0 ? st->routes_per_s / st->seconds : 0.0;
  }
  return {astar, astar2};
}

void append_engine_json(flow::JsonBuilder& j, const char* key,
                        const EngineStat& st) {
  j.open_nested(key);
  j.field("seconds", st.seconds);
  j.field("routes_per_s", st.routes_per_s);
  j.field("settled_per_route", st.settled_per_route);
  j.field("passes", st.passes);
  j.field("window_expansions", st.window_expansions);
  j.field("wirelength_um", st.wirelength_um);
  j.field("drv_wire", st.drv_wire);
  j.field("ripups", st.ripups);
  j.field("region_ripups", st.region_ripups);
  j.field("steiner_subnets", st.steiner_subnets);
  j.field("fastpath", st.fastpath);
  j.close_obj();
}

void print_engine(const BenchConfig& cfg, const char* name,
                  const EngineStat& st, double speedup_vs_prev) {
  std::printf("  %-6d %-7s %10.1f %10.0f %14.1f %7d %7ld %10.1f %5d",
              cfg.gcell_tracks, name, st.seconds * 1e3, st.routes_per_s,
              st.settled_per_route, st.passes, st.ripups, st.wirelength_um,
              st.drv_wire);
  if (speedup_vs_prev > 0.0) std::printf("  (%.2fx)", speedup_vs_prev);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, "router");
  const int reps = args.quick ? 3 : 5;

  bench::print_title("bench_router",
                     "maze-routing kernel: stage-1 windowed A* vs. "
                     "Steiner/region stage 2");
  bench::print_note(
      "RV32 core (8 registers), FFET FP0.5BP0.5, dual-sided routing at "
      "70% utilization; best-of-" +
      std::to_string(reps) + " wall time per configuration.");

  // One placed design shared by every routing configuration (the gcell
  // size is a router parameter, not a placement one).
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::PinConfig pins;
  pins.backside_input_fraction = 0.5;
  stdcell::Library lib = stdcell::build_library(tech, pins);
  liberty::characterize_library(lib);
  riscv::Rv32Options ropt;
  ropt.num_registers = 8;
  netlist::Netlist nl = riscv::build_rv32_core(lib, ropt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib);
  pnr::place(nl, fp, pp);
  pnr::build_clock_tree(nl, fp);

  std::printf("\n  %-6s %-7s %10s %10s %14s %7s %7s %10s %5s\n", "gcell",
              "engine", "time_ms", "routes/s", "settled/route", "passes",
              "ripups", "wl_um", "drv");

  std::string json;
  json.reserve(4096);
  flow::JsonBuilder j(json);
  j.open_obj();
  j.field("bench", "bench_router");
  j.field("design", "rv32r8_ffet_dual0.5_util0.70");
  j.field("reps", reps);
  j.open_array("configs");

  // Four capacity regimes at fixed placement:
  //   congested   — capacity at the negotiation breakpoint: both loops
  //                 absorb the congestion with windowed detours / fast-path
  //                 rejections (~2.3x the uncongested search effort).  The
  //                 >= 1.8x stage-2 floor is gated here.
  //   stress      — deep infeasibility (Fig. 12 beyond-breakpoint): both
  //                 loops negotiate for many passes and neither reaches
  //                 zero overflow; gated on QoR only (hard overflow equal
  //                 or lower), not speed.
  //   uncongested — the initial route converges; measures raw kernel
  //                 throughput.
  const std::vector<BenchConfig> configs = {
      {10, 1.0, "congested", true},
      {10, 0.88, "stress", false},
      {15, 3.0, "uncongested", false},
      {22, 3.0, "uncongested", false},
  };

  bool qor_ok = true;
  double congested_speedup2 = 0.0;
  for (const BenchConfig& cfg : configs) {
    // Every config's speedup2 is gated, so every config takes its best of
    // interleaved repetitions (one-shot timings of 20-500 ms routes would
    // gate on the host's load, not on the code).
    const auto [astar, astar2] = run_engines(nl, fp, cfg, reps);
    const double speedup2 =
        astar2.seconds > 0.0 ? astar.seconds / astar2.seconds : 0.0;
    if (cfg.congested) congested_speedup2 = speedup2;
    std::printf("  -- gcell_tracks=%d capacity_factor=%.2f (%s) --\n",
                cfg.gcell_tracks, cfg.capacity_factor, cfg.label);
    print_engine(cfg, "astar", astar, 0.0);
    print_engine(cfg, "astar2", astar2, speedup2);
    std::printf(
        "  %-6s %-7s regions=%ld steiner_subnets=%ld fastpath=%ld "
        "wexp=%ld\n",
        "", "", astar2.region_ripups, astar2.steiner_subnets, astar2.fastpath,
        astar2.window_expansions);

    // QoR gate, lexicographic: stage 2 must never add DRVs; when DRVs
    // tie, its wirelength must be within 0.1 % (under congestion the loops
    // trade sub-0.1 % wirelength for orders of magnitude of speed — a
    // strictly lower DRV count wins regardless of wirelength).
    auto qor_pair_ok = [](const EngineStat& older, const EngineStat& newer) {
      if (newer.drv_wire > older.drv_wire) return false;
      if (newer.drv_wire < older.drv_wire) return true;
      return newer.wirelength_um <= older.wirelength_um * 1.001 + 1e-6;
    };
    if (!qor_pair_ok(astar, astar2)) {
      qor_ok = false;
      std::printf(
          "  ** QoR REGRESSION (astar2 vs astar) at gcell_tracks=%d **\n",
          cfg.gcell_tracks);
    }

    j.element();
    j.open_obj();
    j.field("gcell_tracks", cfg.gcell_tracks);
    j.field("capacity_factor", cfg.capacity_factor);
    j.field("label", std::string(cfg.label));
    j.field("congested", cfg.congested);
    append_engine_json(j, "astar", astar);
    append_engine_json(j, "astar2", astar2);
    j.field("speedup2", speedup2);
    j.field("astar_settled_per_route", astar.settled_per_route);
    j.field("astar2_settled_per_route", astar2.settled_per_route);
    j.close_obj();
  }
  j.close_array();
  j.field("qor_ok", qor_ok);
  j.close_obj();
  json += '\n';

  if (std::FILE* f = std::fopen("BENCH_router.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    bench::print_note("kernel timings written to BENCH_router.json");
  }

  std::printf(
      "\n  stage-2 speedup at the congested config (gcell_tracks=10): "
      "%.2fx %s\n",
      congested_speedup2,
      congested_speedup2 >= 1.8 ? "(target: >=1.8x ok)"
                                : "(target: >=1.8x MISSED)");
  if (congested_speedup2 < 1.8) qor_ok = false;
  if (!qor_ok) {
    std::printf("  gate FAILED: see regressions above\n");
    return 1;
  }
  return 0;
}

// bench_router — microbenchmark of the dual-sided maze-routing kernel
// (not a paper experiment; the perf trajectory of src/pnr/router.cpp).
//
// Routes the RV32 core front+back with route_design() (Steiner 2-pin
// subnets, congestion-region negotiation; JSON key "astar2") at three
// gcell sizes, reporting routes/s, settled nodes per route, and
// negotiation pass counts.
//
// Two gcell_tracks=10 configurations run with a reduced capacity_factor:
// "congested" sits at the negotiation breakpoint (windowed detours and
// fast-path rejections absorb the congestion); "stress" sits beyond it
// (the loop negotiates for many passes and does not converge to zero) and
// exercises the congestion-region machinery and the best-pass restore.
//
// Always writes BENCH_router.json (cwd).  The committed copy at the repo
// root is the baseline the CI quick-bench step diffs against
// (ffet_report diff --mode router): the deterministic work counters
// (passes, ripups, region_ripups, window_expansions, drv_wire,
// steiner_subnets, fastpath) and the wirelength must match exactly, and
// `astar2_settled_per_route` (machine independent) is gated at +20 %.
// Wall times are best-of-reps and reported, not gated.
//
//   --quick   3 timing reps per configuration instead of 5

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

/// One configuration routed `reps` times: the fastest wall time, and the
/// (deterministic) work counters of the first route.
EngineStat run_config(const netlist::Netlist& nl, const pnr::Floorplan& fp,
                      const BenchConfig& cfg, int reps) {
  pnr::RouteOptions ro;
  ro.gcell_tracks = cfg.gcell_tracks;
  ro.capacity_factor = cfg.capacity_factor;
  EngineStat st;
  st.seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const pnr::RouteResult rr = pnr::route_design(nl, fp, ro);
    st.seconds = std::min(
        st.seconds,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    if (rep > 0) continue;
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
  st.routes_per_s = st.seconds > 0.0 ? st.routes_per_s / st.seconds : 0.0;
  return st;
}

void append_engine_json(flow::JsonBuilder& j, const EngineStat& st) {
  j.open_nested("astar2");
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

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, "router");
  const int reps = args.quick ? 3 : 5;

  bench::print_title("bench_router",
                     "maze-routing kernel: Steiner 2-pin subnets with "
                     "congestion-region negotiation");
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

  std::printf("\n  %-6s %10s %10s %14s %7s %7s %10s %5s\n", "gcell",
              "time_ms", "routes/s", "settled/route", "passes", "ripups",
              "wl_um", "drv");

  std::string json;
  json.reserve(4096);
  flow::JsonBuilder j(json);
  j.open_obj();
  j.field("bench", "bench_router");
  j.field("design", "rv32r8_ffet_dual0.5_util0.70");
  j.field("reps", reps);
  j.open_array("configs");

  // Four capacity regimes at fixed placement:
  //   congested   — capacity at the negotiation breakpoint: windowed
  //                 detours and fast-path rejections absorb the congestion.
  //   stress      — deep infeasibility (Fig. 12 beyond-breakpoint): the
  //                 loop negotiates for many passes without reaching zero
  //                 overflow.
  //   uncongested — the initial route converges; measures raw kernel
  //                 throughput.
  const std::vector<BenchConfig> configs = {
      {10, 1.0, "congested"},
      {10, 0.88, "stress"},
      {15, 3.0, "uncongested"},
      {22, 3.0, "uncongested"},
  };

  for (const BenchConfig& cfg : configs) {
    const EngineStat st = run_config(nl, fp, cfg, reps);
    std::printf("  -- gcell_tracks=%d capacity_factor=%.2f (%s) --\n",
                cfg.gcell_tracks, cfg.capacity_factor, cfg.label);
    std::printf("  %-6d %10.1f %10.0f %14.1f %7d %7ld %10.1f %5d\n",
                cfg.gcell_tracks, st.seconds * 1e3, st.routes_per_s,
                st.settled_per_route, st.passes, st.ripups, st.wirelength_um,
                st.drv_wire);
    std::printf("  %-6s regions=%ld steiner_subnets=%ld fastpath=%ld "
                "wexp=%ld\n",
                "", st.region_ripups, st.steiner_subnets, st.fastpath,
                st.window_expansions);

    j.element();
    j.open_obj();
    j.field("gcell_tracks", cfg.gcell_tracks);
    j.field("capacity_factor", cfg.capacity_factor);
    j.field("label", std::string(cfg.label));
    append_engine_json(j, st);
    j.field("astar2_settled_per_route", st.settled_per_route);
    j.close_obj();
  }
  j.close_array();
  j.close_obj();
  json += '\n';

  if (std::FILE* f = std::fopen("BENCH_router.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    bench::print_note("kernel timings written to BENCH_router.json");
  }

  return 0;
}

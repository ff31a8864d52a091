// test_runtime — the work-stealing pool, parallel_for/parallel_invoke, and
// the determinism contract of the parallel flow stages: every parallel
// configuration must produce results bit-identical to the serial path.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "flow/flow.h"
#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "obs/env.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "runtime/thread_pool.h"
#include "stdcell/nldm.h"

namespace ffet {
namespace {

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(runtime::resolve_threads(3), 3);
  EXPECT_EQ(runtime::resolve_threads(1), 1);
}

/// The environment with FFET_THREADS = `value` (nullptr = unset).
obs::Env threads_env(const char* value) {
  return obs::parse_env([value](const char* name) {
    return std::string_view(name) == "FFET_THREADS" ? value : nullptr;
  });
}

TEST(ResolveThreads, EnvFallbackAndDefault) {
  const obs::Env five = threads_env("5");
  EXPECT_EQ(runtime::resolve_threads(0, five), 5);
  EXPECT_EQ(runtime::resolve_threads(2, five), 2);  // explicit still wins
  EXPECT_GE(runtime::resolve_threads(0, threads_env(nullptr)), 1);  // hw
}

TEST(ResolveThreads, EnvCountIsParsedAndBounded) {
  // Decoded by the parser alone: no pool is built, no thread started.
  const int hw = runtime::resolve_threads(0, threads_env(nullptr));
  struct Case {
    const char* value;
    int parsed;  ///< Env::threads; 0 = unset
  };
  for (const Case& c : {Case{"7", 7}, Case{"256", obs::kMaxEnvThreads},
                        Case{"257", obs::kMaxEnvThreads},
                        Case{"1000000", obs::kMaxEnvThreads},
                        Case{"99999999999999999999999", obs::kMaxEnvThreads},
                        Case{"0", 0}, Case{"-3", 0},
                        Case{"-99999999999999999999999", 0}, Case{"", 0},
                        Case{"garbage", 0}, Case{"5abc", 0}, Case{" 5", 0},
                        Case{"2.5", 0}}) {
    const obs::Env env = threads_env(c.value);
    EXPECT_EQ(env.threads, c.parsed) << "'" << c.value << "'";
    EXPECT_EQ(runtime::resolve_threads(0, env), c.parsed > 0 ? c.parsed : hw)
        << "'" << c.value << "'";
  }
}

TEST(ThreadPool, DrainsAllTasksOnDestruction) {
  std::atomic<int> count{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor joins only after the queues are empty
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  runtime::ThreadPool pool(0);
  ASSERT_EQ(pool.workers(), 0);
  int ran = 0;
  pool.submit([&ran] { ran = 1; });
  EXPECT_EQ(ran, 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::parallel_for(
      kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4, 7);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialAtOneThreadPreservesOrder) {
  std::vector<std::size_t> seen;
  runtime::parallel_for(
      64, [&](std::size_t i) { seen.push_back(i); }, 1);
  ASSERT_EQ(seen.size(), 64u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      runtime::parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsComplete) {
  std::atomic<int> sum{0};
  runtime::parallel_for(
      8,
      [&](std::size_t) {
        runtime::parallel_for(
            16, [&](std::size_t) { sum.fetch_add(1); }, 4);
      },
      4);
  EXPECT_EQ(sum.load(), 8 * 16);
}

TEST(ParallelInvoke, RunsAllBranches) {
  int a = 0, b = 0, c = 0;
  runtime::parallel_invoke(4, [&] { a = 1; }, [&] { b = 2; }, [&] { c = 3; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(c, 3);
}

/// The dual-sided accumulator from examples/dual_sided_routing.cpp: the
/// parity tree gives the nets sinks on both wafer sides, so the concurrent
/// per-side router actually has two non-trivial partitions to race.
netlist::Netlist build_accumulator(const stdcell::Library& lib) {
  netlist::Builder b("accumulator", &lib);
  const netlist::NetId clk = b.input("clk");
  b.netlist().mark_clock_net(clk);
  const netlist::NetId rst_n = b.input("rst_n");
  const netlist::Bus din = b.input_bus("din", 8);
  const netlist::Bus acc_d = b.wires(8, "acc_d");
  const netlist::Bus acc_q = b.dffr_bus(acc_d, clk, rst_n);
  const auto [sum, carry] = b.add(acc_q, din, b.zero());
  for (int i = 0; i < 8; ++i) {
    b.drive(acc_d[static_cast<std::size_t>(i)], "BUFD1",
            {sum[static_cast<std::size_t>(i)]});
  }
  b.output_bus("acc", acc_q);
  b.output("carry", carry);
  netlist::NetId parity = acc_q[0];
  for (int i = 1; i < 8; ++i) {
    parity = b.xor2(parity, acc_q[static_cast<std::size_t>(i)]);
  }
  b.output("parity", parity);
  return b.take();
}

TEST(Determinism, ConcurrentSideRoutingMatchesSerial) {
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::PinConfig pins;
  pins.backside_input_fraction = 0.5;
  stdcell::Library lib = stdcell::build_library(tech, pins);
  liberty::characterize_library(lib);
  netlist::Netlist nl = build_accumulator(lib);

  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.6;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib);
  pnr::place(nl, fp, pp);
  pnr::build_clock_tree(nl, fp);

  pnr::RouteOptions serial;
  serial.threads = 1;
  pnr::RouteOptions parallel;
  parallel.threads = 4;
  const pnr::RouteResult a = pnr::route_design(nl, fp, serial);
  const pnr::RouteResult b = pnr::route_design(nl, fp, parallel);

  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.routes[i].net, b.routes[i].net);
    EXPECT_EQ(a.routes[i].side, b.routes[i].side);
    EXPECT_EQ(a.routes[i].edges, b.routes[i].edges);
    EXPECT_EQ(a.routes[i].sink_gcells, b.routes[i].sink_gcells);
    EXPECT_EQ(a.routes[i].source_gcell, b.routes[i].source_gcell);
    EXPECT_DOUBLE_EQ(a.routes[i].wirelength_um, b.routes[i].wirelength_um);
  }
  EXPECT_DOUBLE_EQ(a.wirelength_front_um, b.wirelength_front_um);
  EXPECT_DOUBLE_EQ(a.wirelength_back_um, b.wirelength_back_um);
  EXPECT_EQ(a.overflow_total, b.overflow_total);
  EXPECT_EQ(a.drv_estimate, b.drv_estimate);
  EXPECT_EQ(a.valid, b.valid);
}

TEST(Determinism, RunSweepMatchesSerialRunPhysical) {
  flow::FlowConfig base;
  base.rv32_registers = 8;  // small core keeps the sweep affordable
  base.target_freq_ghz = 1.5;
  base.threads = 1;
  const auto ctx = flow::prepare_design(base);

  std::vector<flow::FlowConfig> configs;
  for (double u : {0.55, 0.65, 0.75}) {
    flow::FlowConfig cfg = base;
    cfg.utilization = u;
    configs.push_back(cfg);
  }

  std::vector<flow::FlowResult> serial;
  for (const flow::FlowConfig& cfg : configs) {
    serial.push_back(flow::run_physical(*ctx, cfg));
  }
  const std::vector<flow::FlowResult> parallel =
      flow::run_sweep(*ctx, configs, 4);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(parallel[i].achieved_freq_ghz,
                     serial[i].achieved_freq_ghz);
    EXPECT_DOUBLE_EQ(parallel[i].critical_path_ps,
                     serial[i].critical_path_ps);
    EXPECT_DOUBLE_EQ(parallel[i].power_uw, serial[i].power_uw);
    EXPECT_DOUBLE_EQ(parallel[i].hpwl_um, serial[i].hpwl_um);
    EXPECT_DOUBLE_EQ(parallel[i].hold_slack_ps, serial[i].hold_slack_ps);
    EXPECT_EQ(parallel[i].drv, serial[i].drv);
    EXPECT_EQ(parallel[i].placement_legal, serial[i].placement_legal);
    EXPECT_DOUBLE_EQ(parallel[i].wirelength_front_um,
                     serial[i].wirelength_front_um);
    EXPECT_DOUBLE_EQ(parallel[i].wirelength_back_um,
                     serial[i].wirelength_back_um);
  }
}

TEST(CharacterizationCache, SecondBuildHitsAndMatches) {
  liberty::clear_characterization_cache();
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::Library first = stdcell::build_library(tech);
  liberty::characterize_library(first);
  stdcell::Library second = stdcell::build_library(tech);
  liberty::characterize_library(second);

  const liberty::CharacterizeCacheStats stats =
      liberty::characterization_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);

  // The cached application must be indistinguishable from characterizing.
  for (const auto& cell : first.cells()) {
    const stdcell::CellType* other = second.find(cell->name());
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(cell->pins().size(), other->pins().size());
    for (std::size_t p = 0; p < cell->pins().size(); ++p) {
      EXPECT_DOUBLE_EQ(cell->pins()[p].cap_ff, other->pins()[p].cap_ff);
    }
    const stdcell::TimingModel* ma = cell->timing_model();
    const stdcell::TimingModel* mb = other->timing_model();
    ASSERT_EQ(ma == nullptr, mb == nullptr);
    if (!ma) continue;
    EXPECT_DOUBLE_EQ(ma->leakage_nw, mb->leakage_nw);
    EXPECT_DOUBLE_EQ(ma->setup_ps, mb->setup_ps);
    ASSERT_EQ(ma->arcs.size(), mb->arcs.size());
    for (std::size_t a = 0; a < ma->arcs.size(); ++a) {
      EXPECT_EQ(ma->arcs[a].delay_rise.values(),
                mb->arcs[a].delay_rise.values());
      EXPECT_EQ(ma->arcs[a].energy_fall.values(),
                mb->arcs[a].energy_fall.values());
    }
  }

  // Different axes must not hit the same entry.
  liberty::CharacterizeOptions other_axes;
  other_axes.slew_axis_ps = {4, 8, 30};
  other_axes.load_axis_ff = {1, 5, 20};
  stdcell::Library third = stdcell::build_library(tech);
  liberty::characterize_library(third, other_axes);
  EXPECT_EQ(liberty::characterization_cache_stats().misses, 2u);
}

}  // namespace
}  // namespace ffet

// Tests for the physical-implementation stack: floorplan, powerplan
// (Power Tap Cells / nTSV), placement + legalization, CTS, and the
// dual-sided router (Algorithm 1 invariants).

#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/placement_internal.h"
#include "pnr/powerplan.h"
#include "pnr/region.h"
#include "pnr/router.h"
#include "pnr/steiner.h"
#include "pnr/track_assign.h"
#include "riscv/rv32.h"
#include "place_digest.h"
#include "place_reference.h"
#include "route_digest.h"

namespace ffet::pnr {
namespace {

using netlist::Builder;
using netlist::Bus;
using netlist::NetId;

/// Shared fixture: a small RV32 core on each technology, characterized.
class PnrTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ffet_tech_ = new tech::Technology(tech::make_ffet_3p5t());
    cfet_tech_ = new tech::Technology(tech::make_cfet_4t());
    stdcell::PinConfig dual;
    dual.backside_input_fraction = 0.5;
    ffet_lib_ = new stdcell::Library(stdcell::build_library(*ffet_tech_, dual));
    cfet_lib_ = new stdcell::Library(stdcell::build_library(*cfet_tech_));
    liberty::characterize_library(*ffet_lib_);
    liberty::characterize_library(*cfet_lib_);
    riscv::Rv32Options opt;
    opt.num_registers = 8;
    ffet_core_ = new netlist::Netlist(riscv::build_rv32_core(*ffet_lib_, opt));
    cfet_core_ = new netlist::Netlist(riscv::build_rv32_core(*cfet_lib_, opt));
  }
  static void TearDownTestSuite() {
    delete ffet_core_;
    delete cfet_core_;
    delete ffet_lib_;
    delete cfet_lib_;
    delete ffet_tech_;
    delete cfet_tech_;
    ffet_core_ = cfet_core_ = nullptr;
    ffet_lib_ = cfet_lib_ = nullptr;
    ffet_tech_ = cfet_tech_ = nullptr;
  }

  static tech::Technology* ffet_tech_;
  static tech::Technology* cfet_tech_;
  static stdcell::Library* ffet_lib_;
  static stdcell::Library* cfet_lib_;
  static netlist::Netlist* ffet_core_;
  static netlist::Netlist* cfet_core_;
};

tech::Technology* PnrTest::ffet_tech_ = nullptr;
tech::Technology* PnrTest::cfet_tech_ = nullptr;
stdcell::Library* PnrTest::ffet_lib_ = nullptr;
stdcell::Library* PnrTest::cfet_lib_ = nullptr;
netlist::Netlist* PnrTest::ffet_core_ = nullptr;
netlist::Netlist* PnrTest::cfet_core_ = nullptr;

// --- floorplan ---------------------------------------------------------------

TEST_F(PnrTest, FloorplanMeetsTargetUtilization) {
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(*ffet_core_, *ffet_tech_, fo);
  EXPECT_GT(fp.num_rows(), 10);
  EXPECT_EQ(fp.row_height, ffet_tech_->cell_height());
  EXPECT_EQ(fp.site_width, ffet_tech_->cpp());
  // Snapping only lowers utilization (core grows to whole rows/stripes).
  EXPECT_LE(fp.achieved_utilization, 0.7 + 1e-9);
  EXPECT_GT(fp.achieved_utilization, 0.55);
  // Width snapped to the power-stripe pitch.
  const geom::Nm stripe =
      ffet_tech_->power_rules().stripe_pitch_cpp * ffet_tech_->cpp();
  EXPECT_EQ(fp.core.width() % stripe, 0);
}

TEST_F(PnrTest, FloorplanAspectRatio) {
  FloorplanOptions fo;
  fo.target_utilization = 0.6;
  fo.aspect_ratio = 2.0;
  const Floorplan fp = make_floorplan(*ffet_core_, *ffet_tech_, fo);
  const double ar = static_cast<double>(fp.core.width()) /
                    static_cast<double>(fp.core.height());
  // Width snaps to the 3.2 um power-stripe pitch, so small cores land on a
  // coarse AR grid; just require "clearly wider than tall, not extreme".
  EXPECT_GT(ar, 1.3);
  EXPECT_LT(ar, 3.0);
}

TEST_F(PnrTest, FloorplanRejectsBadOptions) {
  FloorplanOptions fo;
  fo.target_utilization = 0.0;
  EXPECT_THROW(make_floorplan(*ffet_core_, *ffet_tech_, fo),
               std::invalid_argument);
  fo.target_utilization = 1.2;
  EXPECT_THROW(make_floorplan(*ffet_core_, *ffet_tech_, fo),
               std::invalid_argument);
  fo.target_utilization = 0.5;
  fo.aspect_ratio = -1.0;
  EXPECT_THROW(make_floorplan(*ffet_core_, *ffet_tech_, fo),
               std::invalid_argument);
}

TEST_F(PnrTest, HigherUtilizationShrinksCore) {
  FloorplanOptions lo, hi;
  lo.target_utilization = 0.5;
  hi.target_utilization = 0.85;
  const double a_lo =
      make_floorplan(*ffet_core_, *ffet_tech_, lo).core_area_um2();
  const double a_hi =
      make_floorplan(*ffet_core_, *ffet_tech_, hi).core_area_um2();
  EXPECT_GT(a_lo, a_hi);
}

// --- powerplan ----------------------------------------------------------------

TEST_F(PnrTest, FfetPowerPlanPlacesTapCellsUnderVssStripes) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const int before = nl.num_instances();
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);

  // Interleaved stripes: |#VDD - #VSS| <= 1, same-type pitch 128 CPP.
  EXPECT_GE(pp.vdd_stripe_x.size(), 1u);
  EXPECT_GE(pp.vss_stripe_x.size(), 1u);
  EXPECT_LE(std::abs(static_cast<int>(pp.vdd_stripe_x.size()) -
                     static_cast<int>(pp.vss_stripe_x.size())),
            1);
  if (pp.vss_stripe_x.size() >= 2) {
    EXPECT_EQ(pp.vss_stripe_x[1] - pp.vss_stripe_x[0],
              128 * ffet_tech_->cpp());
  }

  // One tap per row per VSS stripe, all FIXED TAPCELLs.
  EXPECT_EQ(pp.tap_cells.size(),
            pp.vss_stripe_x.size() * static_cast<std::size_t>(fp.num_rows()));
  EXPECT_EQ(nl.num_instances(), before + static_cast<int>(pp.tap_cells.size()));
  for (netlist::InstId id : pp.tap_cells) {
    EXPECT_TRUE(nl.instance(id).fixed);
    EXPECT_EQ(nl.instance(id).type->name(), "TAPCELL");
    EXPECT_TRUE(fp.core.contains(nl.instance(id).bbox()));
  }
  EXPECT_GT(pp.blocked_site_fraction, 0.005);
  EXPECT_LT(pp.blocked_site_fraction, 0.05);
}

TEST_F(PnrTest, CfetPowerPlanUsesTsvBlockagesNotTaps) {
  netlist::Netlist nl = *cfet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *cfet_tech_, fo);
  const int before = nl.num_instances();
  const PowerPlan pp = build_power_plan(nl, fp, *cfet_lib_);
  EXPECT_TRUE(pp.tap_cells.empty());
  EXPECT_EQ(nl.num_instances(), before);  // nothing added
  EXPECT_FALSE(pp.blockages.empty());
  // nTSV fraction ~4% (tech rule), realized within rounding.
  EXPECT_NEAR(pp.blocked_site_fraction,
              cfet_tech_->power_rules().tsv_blockage_fraction, 0.01);
}

TEST_F(PnrTest, IrDropScalesWithPower) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
  const double low = pp.estimate_ir_drop_mv(1000.0);
  const double high = pp.estimate_ir_drop_mv(4000.0);
  EXPECT_GT(low, 0.0);
  EXPECT_NEAR(high / low, 4.0, 1e-6);
  // A few-mW block should see millivolt-class IR drop, not volts.
  EXPECT_LT(high, 70.0);
}

// --- placement -----------------------------------------------------------------

TEST_F(PnrTest, PlacementLegalizesWithoutOverlaps) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
  const PlacementResult res = place(nl, fp, pp);
  ASSERT_TRUE(res.legal) << res.message;
  EXPECT_EQ(res.violations, 0);
  EXPECT_GT(res.hpwl_um, 0.0);

  // No interior overlaps between any two instances (incl. taps), cells in
  // rows, inside the core.
  std::vector<geom::Rect> boxes;
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    const geom::Rect b = nl.instance(i).bbox();
    EXPECT_TRUE(fp.core.contains(b)) << nl.instance_name(i);
    EXPECT_EQ(b.lo.y % fp.row_height, 0) << nl.instance_name(i);
    EXPECT_EQ(b.lo.x % fp.site_width, 0) << nl.instance_name(i);
    boxes.push_back(b);
  }
  // Overlap scan via row bucketing (O(n^2) within rows is fine here).
  std::map<geom::Nm, std::vector<geom::Rect>> by_row;
  for (const auto& b : boxes) by_row[b.lo.y].push_back(b);
  for (auto& [y, v] : by_row) {
    std::sort(v.begin(), v.end(),
              [](const geom::Rect& a, const geom::Rect& b) {
                return a.lo.x < b.lo.x;
              });
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      EXPECT_LE(v[i].hi.x, v[i + 1].lo.x)
          << "overlap in row y=" << y << " near x=" << v[i].hi.x;
    }
  }
}

TEST_F(PnrTest, PlacementRefusesOverMaxDensity) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.93;  // above the closable ceiling
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
  const PlacementResult res = place(nl, fp, pp);
  EXPECT_FALSE(res.legal);
  EXPECT_GT(res.violations, 0);
}

TEST_F(PnrTest, PlacementDeterministicForSameSeed) {
  auto run = [&](unsigned seed) {
    netlist::Netlist nl = *ffet_core_;
    FloorplanOptions fo;
    fo.target_utilization = 0.65;
    const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
    const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
    PlacementOptions po;
    po.seed = seed;
    place(nl, fp, pp, po);
    std::vector<geom::Point> pos;
    for (const auto& inst : nl.instances()) pos.push_back(inst.pos);
    return pos;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST_F(PnrTest, PlacementBeatsRandomOnWirelength) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.65;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);

  // Baseline: seeded-random scatter (what global placement starts from).
  {
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (int i = 0; i < nl.num_instances(); ++i) {
      auto& inst = nl.instance(i);
      inst.pos = {static_cast<geom::Nm>(u(rng) * (fp.core.width() -
                                                  inst.type->width())),
                  static_cast<geom::Nm>(u(rng) * (fp.core.height() -
                                                  inst.type->height()))};
    }
  }
  const double random_hpwl = compute_hpwl_um(nl);
  const PlacementResult res = place(nl, fp, pp);
  ASSERT_TRUE(res.legal);
  // Global placement must recover substantial locality over random.
  EXPECT_LT(res.hpwl_um, 0.75 * random_hpwl);
}

/// The centroid pass's pull on one cell, pin by pin (O(Σ fanout²)): every
/// pin on each of the cell's non-clock nets except the cell's own, plus the
/// port once per visit.
detail::Pull pairwise_pull(const netlist::Netlist& nl, netlist::InstId id) {
  detail::Pull pull;
  for (const NetId net_id : nl.pin_nets(id)) {
    if (net_id == netlist::kNoNet) continue;
    const netlist::Net& net = nl.net(net_id);
    if (net.is_clock) continue;
    auto absorb = [&](const netlist::PinRef& ref) {
      if (ref.inst == id || ref.inst == netlist::kNoInst) return;
      const geom::Point q = nl.pin_position(ref);
      pull.x += q.x;
      pull.y += q.y;
      ++pull.count;
    };
    absorb(net.driver);
    for (const netlist::PinRef& s : net.sinks) absorb(s);
    if (net.port >= 0) {
      pull.x += nl.port(net.port).pos.x;
      pull.y += nl.port(net.port).pos.y;
      ++pull.count;
    }
  }
  return pull;
}

TEST_F(PnrTest, CellPullMatchesPairwiseReference) {
  Builder b("pull", ffet_lib_);
  const NetId clk = b.input("clk");
  const NetId a = b.input("a");  // driverless PI net with a port
  const NetId fanout = b.inv(a);
  NetId chain = b.nand2(a, a);  // one cell, two pins on one net
  for (int i = 0; i < 40; ++i) {
    chain = b.dff(b.nand2(fanout, chain), clk);
  }
  b.output("q", chain);
  netlist::Netlist nl = b.take();
  nl.mark_clock_net(clk);

  // The netlist has every case the pull must get right.
  EXPECT_EQ(nl.net(a).driver.inst, netlist::kNoInst);
  EXPECT_GE(nl.net(a).port, 0);
  EXPECT_GE(nl.net(fanout).sinks.size(), 40u);
  EXPECT_EQ(nl.net(a).sinks.size(), 3u);
  EXPECT_TRUE(nl.net(clk).is_clock);

  // One fixed cell: its pins pull through the nets' constant terms.
  const netlist::InstId fixed = nl.net(fanout).driver.inst;
  nl.instance(fixed).fixed = true;

  std::mt19937 rng(5);
  std::uniform_int_distribution<geom::Nm> coord(0, 50'000);
  for (int i = 0; i < nl.num_instances(); ++i) {
    nl.instance(i).pos = {coord(rng), coord(rng)};
  }
  for (int p = 0; p < nl.num_ports(); ++p) {
    nl.port(p).pos = {coord(rng), coord(rng)};
  }

  const detail::Snapshot snap = detail::take_snapshot(nl);
  ASSERT_EQ(snap.id.size(), static_cast<std::size_t>(nl.num_instances() - 1));
  const detail::PullModel model = detail::build_pull_model(nl, snap);
  std::vector<geom::Point> sums;
  detail::sum_net_pins(model, snap.pos, sums, 1);
  std::vector<geom::Point> threaded;
  detail::sum_net_pins(model, snap.pos, threaded, 4);
  EXPECT_EQ(threaded, sums);
  for (std::size_t c = 0; c < snap.id.size(); ++c) {
    const netlist::InstId id = snap.id[c];
    const detail::Pull want = pairwise_pull(nl, id);
    const detail::Pull got = detail::cell_pull(model, sums, c, snap.pos[c]);
    EXPECT_EQ(got.x, want.x) << nl.instance_name(id);
    EXPECT_EQ(got.y, want.y) << nl.instance_name(id);
    EXPECT_EQ(got.count, want.count) << nl.instance_name(id);
  }
}

// Ties are where a presorted bisection could diverge from one that
// re-sorts every span: thousands of cells of mixed widths on a few
// identical coordinates, spread for three passes by the snapshot pass and
// by the old pass kept in place_reference.h, at 1 and 4 threads.  Later
// passes start from leaf scatters, which tie every cell of a leaf on one
// axis.
TEST_F(PnrTest, SpreadPassMatchesReferenceOnTies) {
  Builder b("ties", ffet_lib_);
  const NetId clk = b.input("clk");
  NetId chain = b.input("a");
  for (int i = 0; i < 1000; ++i) {
    chain = b.dff(b.xor2(b.nand2(chain, chain), b.inv(chain)), clk);
  }
  b.output("q", chain);
  netlist::Netlist nl = b.take();
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);

  std::set<geom::Nm> widths;
  for (const auto& inst : nl.instances()) widths.insert(inst.type->width());
  EXPECT_GE(widths.size(), 3u);

  std::mt19937 rng(3);
  std::uniform_int_distribution<int> pick(0, 2);
  const geom::Nm w = fp.core.width();
  const geom::Nm h = fp.core.height();
  const geom::Nm xs[] = {0, w / 2, w / 2 + 1};
  const geom::Nm ys[] = {h / 3, h / 3, h - 1};
  for (int i = 0; i < nl.num_instances(); ++i) {
    nl.instance(i).pos = {xs[pick(rng)], ys[pick(rng)]};
  }

  for (const int threads : {1, 4}) {
    netlist::Netlist ref = nl;
    std::vector<reference::KeyedCell> cells(
        static_cast<std::size_t>(ref.num_instances()));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cells[i].id = static_cast<netlist::InstId>(i);
    }
    detail::Snapshot snap = detail::take_snapshot(nl);
    ASSERT_EQ(snap.id.size(), cells.size());
    detail::SpreadScratch scratch;
    for (int pass = 0; pass < 3; ++pass) {
      reference::spread_region(ref, fp, cells, fp.core, threads);
      detail::spread_pass(snap, scratch, fp, threads);
      for (std::size_t c = 0; c < snap.id.size(); ++c) {
        ASSERT_EQ(snap.pos[c], ref.instance(snap.id[c]).pos)
            << "cell " << c << ", pass " << pass << ", " << threads
            << " threads";
      }
    }
  }
}

TEST_F(PnrTest, PlacementIdenticalAcrossThreadCounts) {
  // Per-net sums, per-cell targets and the bisection halves run in
  // parallel; every thread count must place every cell on the same spot.
  auto run = [&](int threads) {
    netlist::Netlist nl = *ffet_core_;
    FloorplanOptions fo;
    fo.target_utilization = 0.7;
    const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
    const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
    PlacementOptions po;
    po.threads = threads;
    const PlacementResult res = place(nl, fp, pp, po);
    std::vector<geom::Point> pos;
    for (const auto& inst : nl.instances()) pos.push_back(inst.pos);
    return std::make_tuple(pos, res.hpwl_um, res.mean_displacement_um);
  };
  const auto serial = run(1);
  EXPECT_TRUE(serial == run(2));
  EXPECT_TRUE(serial == run(4));
}

// The reduced core's placement against the recorded fingerprint
// (place_digest.h), at 1 and 4 threads: the centroid passes, the spreading
// bisections and the legalizer's order all enter it.
TEST_F(PnrTest, GoldenPlacementAtAnyThreadCount) {
  for (const int threads : {1, 4}) {
    netlist::Netlist nl = *ffet_core_;
    FloorplanOptions fo;
    fo.target_utilization = 0.7;
    const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
    const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
    PlacementOptions po;
    po.threads = threads;
    const PlacementResult res = place(nl, fp, pp, po);
    EXPECT_EQ(place_digest(nl, res), 0xa458b19ffb048f5bull) << threads << " threads";
  }
}

// --- CTS ------------------------------------------------------------------------

TEST_F(PnrTest, ClockTreeCoversEverySequentialSink) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
  place(nl, fp, pp);

  int num_ff = 0;
  for (const auto& inst : nl.instances()) {
    if (inst.type->sequential()) ++num_ff;
  }
  const CtsResult cts = build_clock_tree(nl, fp);
  EXPECT_GT(cts.num_buffers, 0);
  EXPECT_GT(cts.depth, 1);
  EXPECT_EQ(static_cast<int>(cts.sink_latency_ps.size()), num_ff);
  for (const auto& [inst, lat] : cts.sink_latency_ps) {
    EXPECT_GT(lat, 0.0);
    EXPECT_LT(lat, 500.0);
  }
  EXPECT_GE(cts.skew_ps, 0.0);
  EXPECT_LT(cts.skew_ps, cts.mean_latency_ps);
  // Netlist still structurally sound after the surgery.
  EXPECT_TRUE(nl.validate().empty());
  // Root clock net now drives exactly one sink: the root buffer.
  const auto clk = nl.find_net("clk");
  ASSERT_TRUE(clk.has_value());
  EXPECT_EQ(nl.net(*clk).sinks.size(), 1u);
  // All CTS nets are clock-marked.
  int clock_nets = 0;
  for (const auto& net : nl.nets()) {
    if (net.is_clock) ++clock_nets;
  }
  EXPECT_EQ(clock_nets, 1 + cts.num_buffers);
}

TEST_F(PnrTest, ClockTreeSinkMovesMatchOneAtATime) {
  // Replay the clock tree's sink moves one reconnect_sink() at a time on
  // the pre-CTS netlist: a leaf net's flops, in its sink order, were
  // moved when the leaf was built, and leaves are built in net-id order.
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.7;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  place(nl, fp, build_power_plan(nl, fp, *ffet_lib_));
  netlist::Netlist ref = nl;
  const int nets0 = nl.num_nets();
  const int insts0 = nl.num_instances();
  build_clock_tree(nl, fp);
  ASSERT_GT(nl.num_nets(), nets0);
  for (NetId n = nets0; n < nl.num_nets(); ++n) {
    ASSERT_EQ(ref.add_net(nl.net_name(n)), n);
  }
  for (NetId n = nets0; n < nl.num_nets(); ++n) {
    for (const netlist::PinRef& s : nl.net(n).sinks) {
      if (s.inst >= insts0) continue;
      ref.reconnect_sink(
          s.inst,
          nl.instance(s.inst).type->pins()[static_cast<std::size_t>(s.pin)]
              .name,
          n);
    }
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    std::vector<netlist::PinRef> sinks;
    for (const netlist::PinRef& s : nl.net(n).sinks) {
      if (s.inst < insts0) sinks.push_back(s);
    }
    EXPECT_EQ(sinks, ref.net(n).sinks) << nl.net_name(n);
  }
  for (netlist::InstId i = 0; i < insts0; ++i) {
    const auto got = nl.pin_nets(i);
    const auto want = ref.pin_nets(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << nl.instance_name(i);
  }
  // FNV-1a over every net's sink list and every pin binding, recorded
  // before the moves were batched: it pins each leaf's sink order too.
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= u & 0xffu;
      h *= 1099511628211ull;
      u >>= 8;
    }
  };
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    mix(static_cast<std::int64_t>(nl.net(n).sinks.size()));
    for (const netlist::PinRef& s : nl.net(n).sinks) {
      mix(s.inst);
      mix(s.pin);
    }
  }
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    for (const NetId n : nl.pin_nets(i)) mix(n);
  }
  EXPECT_EQ(h, 0x8bdcc9f78636d976ull);
}

TEST_F(PnrTest, CtsNoSinksIsNoop) {
  Builder b("comb", ffet_lib_);
  b.output("z", b.inv(b.input("a")));
  netlist::Netlist nl = b.take();
  FloorplanOptions fo;
  fo.target_utilization = 0.5;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const CtsResult cts = build_clock_tree(nl, fp);
  EXPECT_EQ(cts.num_buffers, 0);
}

// --- routing: Algorithm 1 ---------------------------------------------------------

struct RoutedDesign {
  netlist::Netlist nl;
  Floorplan fp;
  RouteResult rr;
};

RoutedDesign route_core(const netlist::Netlist& core,
                        const tech::Technology& tech,
                        const stdcell::Library& lib, double util,
                        const RouteOptions& ro = {}) {
  RoutedDesign rd{core, {}, {}};
  FloorplanOptions fo;
  fo.target_utilization = util;
  rd.fp = make_floorplan(rd.nl, tech, fo);
  const PowerPlan pp = build_power_plan(rd.nl, rd.fp, lib);
  place(rd.nl, rd.fp, pp);
  build_clock_tree(rd.nl, rd.fp);
  rd.rr = route_design(rd.nl, rd.fp, ro);
  return rd;
}

/// Union-find connectivity over every route: source and all sinks in one
/// component (the invariant the negotiation loop must preserve).
void expect_all_sinks_connected(const netlist::Netlist& nl,
                                const RouteResult& rr) {
  for (const NetRoute& r : rr.routes) {
    if (r.edges.empty()) continue;
    std::map<int, int> parent;
    std::function<int(int)> find = [&](int x) {
      parent.try_emplace(x, x);
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (const GEdge& e : r.edges) parent[find(e.a)] = find(e.b);
    const int root = find(r.source_gcell);
    for (int s : r.sink_gcells) {
      EXPECT_EQ(find(s), root)
          << "disconnected sink in net " << nl.net_name(r.net);
    }
  }
}

/// The per-pass search-effort counters must sum to the result's totals.
void expect_pass_stats_sum_to_totals(const RouteResult& rr) {
  long settled = 0, wexp = 0;
  for (const RoutePassStat& ps : rr.pass_stats) {
    settled += ps.settled_front + ps.settled_back;
    wexp += ps.window_expansions_front + ps.window_expansions_back;
  }
  EXPECT_EQ(settled, rr.settled_nodes);
  EXPECT_EQ(wexp, rr.window_expansions);
}

/// Two route results are the same route for route (net, side, edges,
/// layers, terminals, wirelength) and every other field bit for bit, pass
/// records included.
void expect_same_routing(const RouteResult& a, const RouteResult& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    const NetRoute& x = a.routes[i];
    const NetRoute& y = b.routes[i];
    EXPECT_EQ(x.net, y.net) << "route " << i;
    EXPECT_EQ(x.side, y.side) << "route " << i;
    EXPECT_EQ(x.edges, y.edges) << "route " << i << " differs";
    EXPECT_EQ(x.h_layer_index, y.h_layer_index) << "route " << i;
    EXPECT_EQ(x.v_layer_index, y.v_layer_index) << "route " << i;
    EXPECT_EQ(x.sink_gcells, y.sink_gcells) << "route " << i;
    EXPECT_EQ(x.source_gcell, y.source_gcell) << "route " << i;
    EXPECT_EQ(x.wirelength_um, y.wirelength_um) << "route " << i;
  }
  EXPECT_EQ(std::tie(a.gcols, a.grows, a.gcell_w, a.gcell_h),
            std::tie(b.gcols, b.grows, b.gcell_w, b.gcell_h));
  EXPECT_EQ(a.wirelength_front_um, b.wirelength_front_um);
  EXPECT_EQ(a.wirelength_back_um, b.wirelength_back_um);
  EXPECT_EQ(std::tie(a.nets_front, a.nets_back, a.overflow_total, a.drv_wire,
                     a.drv_pin_access, a.drv_estimate, a.valid),
            std::tie(b.nets_front, b.nets_back, b.overflow_total, b.drv_wire,
                     b.drv_pin_access, b.drv_estimate, b.valid));
  EXPECT_EQ(a.capacity_units, b.capacity_units);
  EXPECT_EQ(a.wire_demand_units, b.wire_demand_units);
  EXPECT_EQ(a.pin_demand_units, b.pin_demand_units);
  EXPECT_EQ(std::tie(a.rrr_passes, a.ripups_total, a.region_ripups_total,
                     a.steiner_subnets, a.fastpath_routes, a.settled_nodes,
                     a.window_expansions),
            std::tie(b.rrr_passes, b.ripups_total, b.region_ripups_total,
                     b.steiner_subnets, b.fastpath_routes, b.settled_nodes,
                     b.window_expansions));
  ASSERT_EQ(a.pass_stats.size(), b.pass_stats.size());
  for (std::size_t p = 0; p < a.pass_stats.size(); ++p) {
    const RoutePassStat& x = a.pass_stats[p];
    const RoutePassStat& y = b.pass_stats[p];
    EXPECT_EQ(std::tie(x.pass, x.ripped_front, x.ripped_back, x.overflow_front,
                       x.overflow_back, x.hard_overflow, x.settled_front,
                       x.settled_back, x.window_expansions_front,
                       x.window_expansions_back, x.regions_front,
                       x.regions_back),
              std::tie(y.pass, y.ripped_front, y.ripped_back, y.overflow_front,
                       y.overflow_back, y.hard_overflow, y.settled_front,
                       y.settled_back, y.window_expansions_front,
                       y.window_expansions_back, y.regions_front,
                       y.regions_back))
        << "pass " << p;
  }
}

/// A deliberately congested design: the 8-register core on a 2+2-layer
/// FFET stack at 80 % utilization, placed with its clock tree.  Route it
/// with options() — the capacity fudge squeezed to 2.4, since the small
/// core does not congest otherwise.
struct CongestedDesign {
  tech::Technology tech;
  stdcell::Library lib;
  netlist::Netlist nl;
  Floorplan fp;

  explicit CongestedDesign(const tech::Technology& ffet)
      : tech(ffet.with_routing_limit(2, 2)),
        lib(dual_sided_library(tech)),
        nl(riscv::build_rv32_core(lib, eight_registers())) {
    FloorplanOptions fo;
    fo.target_utilization = 0.8;
    fp = make_floorplan(nl, tech, fo);
    const PowerPlan pp = build_power_plan(nl, fp, lib);
    place(nl, fp, pp);
    build_clock_tree(nl, fp);
  }
  CongestedDesign(const CongestedDesign&) = delete;
  CongestedDesign& operator=(const CongestedDesign&) = delete;

  static RouteOptions options() {
    RouteOptions ro;
    ro.capacity_factor = 2.4;
    return ro;
  }

 private:
  static stdcell::Library dual_sided_library(const tech::Technology& t) {
    stdcell::PinConfig dual;
    dual.backside_input_fraction = 0.5;
    stdcell::Library l = stdcell::build_library(t, dual);
    liberty::characterize_library(l);
    return l;
  }
  static riscv::Rv32Options eight_registers() {
    riscv::Rv32Options opt;
    opt.num_registers = 8;
    return opt;
  }
};

TEST_F(PnrTest, Algorithm1DecomposesNetsBySinkSide) {
  const RoutedDesign rd = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  const auto& nl = rd.nl;

  // Index routes by (net, side).
  std::set<std::pair<netlist::NetId, Side>> routed;
  for (const NetRoute& r : rd.rr.routes) {
    routed.insert({r.net, r.side});
  }

  int dual_sided_nets = 0;
  for (int n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver.inst == netlist::kNoInst && net.port < 0) continue;
    // Output ports are frontside sinks when the net has a driver.
    bool want_front =
        net.port >= 0 && !nl.port(net.port).is_input &&
        net.driver.inst != netlist::kNoInst;
    bool want_back = false;
    for (const netlist::PinRef& s : net.sinks) {
      if (nl.pin_side(s) == stdcell::PinSide::Back) {
        want_back = true;
      } else {
        want_front = true;
      }
    }
    // Every sink side demanded must have a routed subnet, and no side
    // without sinks may carry one (Algorithm 1 lines 2-8).
    EXPECT_EQ(routed.contains({n, Side::Front}), want_front)
        << nl.net_name(n);
    EXPECT_EQ(routed.contains({n, Side::Back}), want_back) << nl.net_name(n);
    if (want_front && want_back) ++dual_sided_nets;
  }
  // The 50/50 library must actually produce dual-sided nets.
  EXPECT_GT(dual_sided_nets, 100);
  EXPECT_GT(rd.rr.wirelength_back_um, 0.0);
  EXPECT_GT(rd.rr.wirelength_front_um, 0.0);
}

TEST_F(PnrTest, CfetRoutesFrontOnly) {
  const RoutedDesign rd = route_core(*cfet_core_, *cfet_tech_, *cfet_lib_, 0.6);
  EXPECT_EQ(rd.rr.nets_back, 0);
  EXPECT_DOUBLE_EQ(rd.rr.wirelength_back_um, 0.0);
  for (const NetRoute& r : rd.rr.routes) {
    EXPECT_EQ(r.side, Side::Front);
  }
}

TEST_F(PnrTest, RoutesFormConnectedTrees) {
  const RoutedDesign rd = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  for (const NetRoute& r : rd.rr.routes) {
    if (r.edges.empty()) continue;
    // Union-find connectivity: all edges + source + sinks in one component.
    std::map<int, int> parent;
    std::function<int(int)> find = [&](int x) {
      parent.try_emplace(x, x);
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    auto unite = [&](int a, int b) { parent[find(a)] = find(b); };
    for (const GEdge& e : r.edges) unite(e.a, e.b);
    const int root = find(r.source_gcell);
    for (int s : r.sink_gcells) {
      EXPECT_EQ(find(s), root)
          << "disconnected sink in net " << rd.nl.net_name(r.net);
    }
  }
}

TEST_F(PnrTest, BacksideSinksWithoutBacksideLayersThrow) {
  // FFET library with backside pins, but the routing stack stripped of all
  // backside layers: Algorithm 1 cannot place the backside subnet and the
  // flow (which forbids bridging cells) must refuse.
  tech::Technology limited = ffet_tech_->with_routing_limit(12, 0);
  const RoutedDesign* ignored = nullptr;
  (void)ignored;
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.6;
  // Rebuild floorplan/placement against the limited tech but the library
  // still exposes backside pins.
  stdcell::PinConfig dual;
  dual.backside_input_fraction = 0.5;
  stdcell::Library lib2 = stdcell::build_library(limited, dual);
  liberty::characterize_library(lib2);
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  netlist::Netlist nl2 = riscv::build_rv32_core(lib2, opt);
  const Floorplan fp = make_floorplan(nl2, limited, fo);
  const PowerPlan pp = build_power_plan(nl2, fp, lib2);
  place(nl2, fp, pp);
  EXPECT_THROW(route_design(nl2, fp), std::runtime_error);
}

TEST_F(PnrTest, DualSidedRoutingRelievesFrontside) {
  // Same design, FFET with all-front pins vs 50/50 pins: the dual-sided
  // library must shift a large share of wirelength to the backside.
  stdcell::Library front_lib = stdcell::build_library(*ffet_tech_, {});
  liberty::characterize_library(front_lib);
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  netlist::Netlist front_core = riscv::build_rv32_core(front_lib, opt);

  const RoutedDesign all_front =
      route_core(front_core, *ffet_tech_, front_lib, 0.6);
  const RoutedDesign split = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  EXPECT_DOUBLE_EQ(all_front.rr.wirelength_back_um, 0.0);
  EXPECT_GT(split.rr.wirelength_back_um,
            0.2 * split.rr.total_wirelength_um());
  EXPECT_LT(split.rr.wirelength_front_um, all_front.rr.wirelength_front_um);
}

TEST_F(PnrTest, FewerLayersMeansMoreCongestion) {
  netlist::Netlist nl = *ffet_core_;
  FloorplanOptions fo;
  fo.target_utilization = 0.8;
  const Floorplan fp = make_floorplan(nl, *ffet_tech_, fo);
  const PowerPlan pp = build_power_plan(nl, fp, *ffet_lib_);
  place(nl, fp, pp);
  build_clock_tree(nl, fp);
  const RouteResult full = route_design(nl, fp);

  // Re-route the same placement against a 3+3-layer stack.
  tech::Technology limited = ffet_tech_->with_routing_limit(3, 3);
  stdcell::PinConfig dual;
  dual.backside_input_fraction = 0.5;
  stdcell::Library lib2 = stdcell::build_library(limited, dual);
  liberty::characterize_library(lib2);
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  netlist::Netlist nl2 = riscv::build_rv32_core(lib2, opt);
  const Floorplan fp2 = make_floorplan(nl2, limited, fo);
  const PowerPlan pp2 = build_power_plan(nl2, fp2, lib2);
  place(nl2, fp2, pp2);
  build_clock_tree(nl2, fp2);
  const RouteResult thin = route_design(nl2, fp2);

  EXPECT_GE(thin.drv_estimate, full.drv_estimate);
}

TEST_F(PnrTest, TrackAssignmentUniquePerEdge) {
  const RoutedDesign rd = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  const int tracks = 64;  // generous bound: no overflow expected at 60%
  const TrackAssignment ta = assign_tracks(rd.rr, tracks);
  ASSERT_EQ(ta.track_of.size(), rd.rr.routes.size());
  EXPECT_EQ(ta.overflow_crossings, 0);
  EXPECT_GT(ta.max_tracks_seen, 1);
  EXPECT_LE(ta.max_tracks_seen, tracks);

  // Invariant: within one (side, edge), every crossing has a distinct
  // track.
  std::map<std::tuple<int, int, int>, std::set<int>> seen;
  for (std::size_t r = 0; r < rd.rr.routes.size(); ++r) {
    const NetRoute& route = rd.rr.routes[r];
    for (std::size_t e = 0; e < route.edges.size(); ++e) {
      const int a = std::min(route.edges[e].a, route.edges[e].b);
      const int b = std::max(route.edges[e].a, route.edges[e].b);
      const auto key = std::make_tuple(
          route.side == Side::Front ? 0 : 1, a, b);
      EXPECT_TRUE(seen[key].insert(ta.track_of[r][e]).second)
          << "track collision on edge " << a << "-" << b;
    }
  }
}

TEST_F(PnrTest, TrackOffsetsCenteredAndBounded) {
  const geom::Nm span = 450;
  for (int n : {2, 8, 32}) {
    geom::Nm lo = span, hi = -span, sum = 0;
    for (int t = 0; t < n; ++t) {
      const geom::Nm off = track_offset_nm(t, n, span);
      lo = std::min(lo, off);
      hi = std::max(hi, off);
      sum += off;
      EXPECT_LT(std::abs(off), span / 2) << "track " << t << "/" << n;
    }
    EXPECT_LT(std::abs(sum), n) << "offsets should be centered";
    EXPECT_LT(lo, 0);
    EXPECT_GT(hi, 0);
  }
  EXPECT_EQ(track_offset_nm(0, 1, span), 0);
}

TEST_F(PnrTest, TrackAssignmentReportsOverflowWhenBound) {
  const RoutedDesign rd = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  const TrackAssignment tight = assign_tracks(rd.rr, 2);
  EXPECT_GT(tight.overflow_crossings, 0)
      << "a 2-track bound must overflow somewhere";
  EXPECT_LE(tight.max_tracks_seen, 2);
}

TEST_F(PnrTest, RouterDeterministic) {
  const RoutedDesign a = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  const RoutedDesign b = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  EXPECT_EQ(a.rr.drv_estimate, b.rr.drv_estimate);
  EXPECT_DOUBLE_EQ(a.rr.total_wirelength_um(), b.rr.total_wirelength_um());
  ASSERT_EQ(a.rr.routes.size(), b.rr.routes.size());
}

// --- routing: the negotiation loop ------------------------------------------

TEST_F(PnrTest, AstarWindowExpandsUnderCongestion) {
  // Windowed attempts admit only hard-overflow-free paths, so on the
  // congested fixture saturated edges force the A* fallback's window
  // expansions (x2, then full grid); the full-grid fallback still connects
  // every sink.
  const CongestedDesign cd(*ffet_tech_);
  const RouteResult a = route_design(cd.nl, cd.fp, cd.options());
  EXPECT_GT(a.window_expansions, 0)
      << "a saturated 2+2 stack must trigger window expansion";
  expect_all_sinks_connected(cd.nl, a);
  expect_pass_stats_sum_to_totals(a);
}

TEST_F(PnrTest, RouterDeterministicAcrossThreadCounts) {
  // Algorithm 1 routes the two wafer sides independently, so threaded
  // passes (front/back concurrent) must be bit-identical to serial ones.
  RouteOptions ro;
  ro.threads = 1;
  const RoutedDesign serial =
      route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6, ro);
  ro.threads = 4;
  const RoutedDesign threaded =
      route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6, ro);

  EXPECT_DOUBLE_EQ(serial.rr.total_wirelength_um(),
                   threaded.rr.total_wirelength_um());
  EXPECT_EQ(serial.rr.drv_estimate, threaded.rr.drv_estimate);
  EXPECT_EQ(serial.rr.settled_nodes, threaded.rr.settled_nodes);
  EXPECT_EQ(serial.rr.window_expansions, threaded.rr.window_expansions);
  EXPECT_EQ(serial.rr.region_ripups_total, threaded.rr.region_ripups_total);
  EXPECT_EQ(serial.rr.steiner_subnets, threaded.rr.steiner_subnets);
  ASSERT_EQ(serial.rr.routes.size(), threaded.rr.routes.size());
  for (std::size_t i = 0; i < serial.rr.routes.size(); ++i) {
    const NetRoute& s = serial.rr.routes[i];
    const NetRoute& t = threaded.rr.routes[i];
    EXPECT_EQ(s.net, t.net);
    EXPECT_EQ(s.side, t.side);
    EXPECT_EQ(s.edges, t.edges) << "route " << i << " differs";
  }
}

TEST_F(PnrTest, RouteDesignIsStage2) {
  // route_design decomposes every subnet over a Steiner topology: each
  // subnet that spans more than one gcell contributes at least one 2-pin
  // subnet.
  const RoutedDesign d = route_core(*cfet_core_, *cfet_tech_, *cfet_lib_, 0.6);
  long multi_gcell = 0;
  for (const NetRoute& r : d.rr.routes) {
    if (!r.edges.empty()) ++multi_gcell;
  }
  EXPECT_GT(multi_gcell, 0);
  EXPECT_GE(d.rr.steiner_subnets, multi_gcell);
}

// --- routing: Steiner decomposition / congestion regions --------------------

/// Manhattan distance helper for Steiner checks.
int manhattan(const SteinerPoint& a, const SteinerPoint& b) {
  return std::abs(a.c - b.c) + std::abs(a.r - b.r);
}

/// Sum of |terminal - terminal 0| — the star topology every tree must beat
/// or match.
long star_length(const std::vector<SteinerPoint>& terms) {
  long len = 0;
  for (const SteinerPoint& t : terms) len += manhattan(terms[0], t);
  return len;
}

/// Union-find over tree points: every terminal reachable through segs.
void expect_tree_connects_terminals(const SteinerTree& tree) {
  ASSERT_FALSE(tree.points.empty());
  ASSERT_EQ(tree.segs.size(), tree.points.size() - 1);
  std::vector<int> parent(tree.points.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = int(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const SteinerSeg& s : tree.segs) parent[find(s.a)] = find(s.b);
  const int root = find(0);
  for (int t = 0; t < tree.num_terminals; ++t) {
    EXPECT_EQ(find(t), root) << "terminal " << t << " disconnected";
  }
}

TEST(SteinerTest, TreeConnectsTerminalsAndBeatsStar) {
  // Deterministic pseudo-random terminal sets across all three topology
  // tiers (exact <=3, iterated 1-Steiner <=9, spanning fallback above).
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> coord(0, 40);
  for (const int n : {1, 2, 3, 5, 7, 9, 12, 20}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<SteinerPoint> terms;
      terms.reserve(n);
      for (int i = 0; i < n; ++i) terms.push_back({coord(rng), coord(rng)});
      const SteinerTree tree = build_steiner_tree(terms);
      ASSERT_EQ(tree.num_terminals, n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(tree.points[i], terms[i]) << "terminal order not preserved";
      }
      expect_tree_connects_terminals(tree);
      // The tree must never be longer than the star topology (source to
      // every sink directly), the bound a tree grown sink by sink from
      // the source trivially meets.
      EXPECT_LE(tree.length(), star_length(terms)) << n << " terminals";
    }
  }
}

TEST(SteinerTest, ThreeTerminalMedianIsOptimal) {
  // For <=3 terminals the rectilinear Steiner minimum is the half-perimeter
  // of the bounding box (median-point construction); the builder must hit
  // it exactly.
  const std::vector<std::vector<SteinerPoint>> cases = {
      {{0, 0}, {10, 0}, {5, 8}},
      {{3, 7}, {3, 7}, {3, 7}},  // duplicates collapse
      {{0, 0}, {0, 9}, {9, 0}},
      {{2, 5}, {11, 1}, {7, 13}},
  };
  for (const auto& terms : cases) {
    int c_lo = terms[0].c, c_hi = terms[0].c;
    int r_lo = terms[0].r, r_hi = terms[0].r;
    for (const SteinerPoint& t : terms) {
      c_lo = std::min(c_lo, t.c);
      c_hi = std::max(c_hi, t.c);
      r_lo = std::min(r_lo, t.r);
      r_hi = std::max(r_hi, t.r);
    }
    const SteinerTree tree = build_steiner_tree(terms);
    expect_tree_connects_terminals(tree);
    EXPECT_EQ(tree.length(), (c_hi - c_lo) + (r_hi - r_lo));
  }
}

TEST(SteinerTest, DeterministicForSameTerminals) {
  std::mt19937 rng(19);
  std::uniform_int_distribution<int> coord(0, 30);
  std::vector<SteinerPoint> terms;
  for (int i = 0; i < 8; ++i) terms.push_back({coord(rng), coord(rng)});
  const SteinerTree a = build_steiner_tree(terms);
  const SteinerTree b = build_steiner_tree(terms);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i], b.points[i]);
  }
  ASSERT_EQ(a.segs.size(), b.segs.size());
  for (std::size_t i = 0; i < a.segs.size(); ++i) {
    EXPECT_EQ(a.segs[i].a, b.segs[i].a);
    EXPECT_EQ(a.segs[i].b, b.segs[i].b);
  }
}

TEST(RegionTest, ClustersDisjointHotSpotsSeparately) {
  // Two hot spots far apart on a 30x30 grid: two disjoint regions, each
  // expanded by the margin and holding its seed cells.
  const int cols = 30, rows = 30;
  auto node = [&](int c, int r) { return r * cols + c; };
  const std::vector<int> hot = {node(5, 5), node(6, 5), node(25, 24),
                                node(25, 25)};
  const auto regions = cluster_congestion_regions(hot, cols, rows,
                                                  /*merge_dist=*/2,
                                                  /*margin=*/3);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_TRUE(regions[0].contains(5, 5));
  EXPECT_TRUE(regions[0].contains(6, 5));
  EXPECT_TRUE(regions[1].contains(25, 24));
  EXPECT_EQ(regions[0].cells, 2);
  EXPECT_EQ(regions[1].cells, 2);
  EXPECT_FALSE(regions_overlap(regions[0], regions[1]));
  // Margin expansion: 3 gcells beyond the seed bounding box.
  EXPECT_EQ(regions[0].c_lo, 2);
  EXPECT_EQ(regions[0].c_hi, 9);
  EXPECT_EQ(regions[0].r_lo, 2);
  EXPECT_EQ(regions[0].r_hi, 8);
  // Sorted by (r_lo, c_lo, ...).
  EXPECT_LT(regions[0].r_lo, regions[1].r_lo);
}

TEST(RegionTest, MarginClampsToGridAndNearbyCellsMerge) {
  const int cols = 12, rows = 12;
  auto node = [&](int c, int r) { return r * cols + c; };
  // A corner cell plus one within Chebyshev distance 2: one cluster, with
  // the margin clamped at the grid edge.
  const auto one = cluster_congestion_regions({node(0, 0), node(2, 1)}, cols,
                                              rows, 2, 3);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].c_lo, 0);
  EXPECT_EQ(one[0].r_lo, 0);
  EXPECT_EQ(one[0].c_hi, 5);
  EXPECT_EQ(one[0].r_hi, 4);
  EXPECT_EQ(one[0].cells, 2);

  // Two clusters beyond merge_dist but whose margin boxes overlap must
  // merge transitively into one region (regions stay pairwise disjoint).
  const auto merged = cluster_congestion_regions({node(1, 6), node(8, 6)},
                                                 cols, rows, 2, 4);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(merged[0].contains(1, 6));
  EXPECT_TRUE(merged[0].contains(8, 6));
  EXPECT_EQ(merged[0].cells, 2);
}

TEST(RegionTest, DeterministicUnderInputOrderAndDuplicates) {
  const int cols = 40, rows = 20;
  auto node = [&](int c, int r) { return r * cols + c; };
  const std::vector<int> a = {node(3, 3),  node(4, 4),  node(30, 10),
                              node(31, 10), node(18, 2)};
  std::vector<int> b = {node(31, 10), node(18, 2), node(4, 4),
                        node(3, 3),  node(30, 10), node(3, 3)};
  const auto ra = cluster_congestion_regions(a, cols, rows);
  const auto rb = cluster_congestion_regions(b, cols, rows);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i], rb[i]) << "region " << i;
  }
  // Sorted output, pairwise disjoint.
  for (std::size_t i = 1; i < ra.size(); ++i) {
    EXPECT_FALSE(regions_overlap(ra[i - 1], ra[i]));
    EXPECT_LE(std::tie(ra[i - 1].r_lo, ra[i - 1].c_lo),
              std::tie(ra[i].r_lo, ra[i].c_lo));
  }
}

TEST_F(PnrTest, FullRerouteIsRouteDesign) {
  // One negotiation loop: a reroute with nothing carried routes every
  // subnet through the loop route_design runs, so it returns route_design's
  // result route for route (edges, layer pair, sinks, source) and counter
  // for counter — on both seed designs and on the congested fixture, whose
  // negotiation runs rip-up passes and ends on the best-pass restore.  On
  // each, the grids' wire usage is the routes' edge count.
  auto expect_one_loop = [](const netlist::Netlist& nl, const Floorplan& fp,
                            const RouteOptions& ro,
                            const RouteResult& design) {
    expect_same_routing(design, reroute_nets(nl, fp, {}, {}, ro));
    expect_all_sinks_connected(nl, design);
    // The per-parent refcounts put one unit of usage on each edge of each
    // route's deduplicated edge set, and nothing else.
    double edges = 0.0;
    for (const NetRoute& r : design.routes) {
      edges += static_cast<double>(r.edges.size());
    }
    EXPECT_EQ(design.wire_demand_units, edges);
    EXPECT_GT(design.fastpath_routes, 0)
        << "uncongested 2-pin subnets should take the monotone fast path";
  };
  for (const RoutedDesign& rd :
       {route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6),
        route_core(*cfet_core_, *cfet_tech_, *cfet_lib_, 0.6)}) {
    expect_one_loop(rd.nl, rd.fp, {}, rd.rr);
  }
  const CongestedDesign cd(*ffet_tech_);
  const RouteResult congested = route_design(cd.nl, cd.fp, cd.options());
  EXPECT_GT(congested.rrr_passes, 0) << "the fixture must negotiate";
  expect_one_loop(cd.nl, cd.fp, cd.options(), congested);
}

TEST_F(PnrTest, Astar2DeterministicUnderCongestion) {
  // The region rip-up machinery batches disjoint regions across the thread
  // pool; on the congested 2+2-layer fixture (capacity squeezed to 2.4)
  // the threaded schedule must still be bit-identical to the serial one —
  // frozen-snapshot searches plus the serial commit barrier make the result
  // a pure function of the overflow picture.
  const CongestedDesign cd(*ffet_tech_);
  RouteOptions ro = cd.options();
  ro.threads = 1;
  const RouteResult serial = route_design(cd.nl, cd.fp, ro);
  ro.threads = 4;
  const RouteResult threaded = route_design(cd.nl, cd.fp, ro);

  expect_all_sinks_connected(cd.nl, serial);
  EXPECT_GT(serial.steiner_subnets, 0);
  EXPECT_DOUBLE_EQ(serial.total_wirelength_um(),
                   threaded.total_wirelength_um());
  EXPECT_EQ(serial.drv_wire, threaded.drv_wire);
  EXPECT_EQ(serial.settled_nodes, threaded.settled_nodes);
  EXPECT_EQ(serial.ripups_total, threaded.ripups_total);
  EXPECT_EQ(serial.region_ripups_total, threaded.region_ripups_total);
  EXPECT_EQ(serial.rrr_passes, threaded.rrr_passes);
  ASSERT_EQ(serial.routes.size(), threaded.routes.size());
  for (std::size_t i = 0; i < serial.routes.size(); ++i) {
    EXPECT_EQ(serial.routes[i].edges, threaded.routes[i].edges)
        << "route " << i << " differs between threads=1 and threads=4";
  }
}

TEST_F(PnrTest, Astar2RestoresTheBestPass) {
  // On the congested fixture the negotiation ends on a pass worse than an
  // earlier one, so route_design must put the best pass's routes back.
  // The same route with the pass budget cut right after the best pass ends
  // there with nothing to restore: both must agree on every route, the
  // overflow, the DRVs and the wirelength.
  const CongestedDesign cd(*ffet_tech_);
  const RouteOptions ro = cd.options();
  const RouteResult full = route_design(cd.nl, cd.fp, ro);
  ASSERT_GE(full.pass_stats.size(), 2u);
  // The loop's criterion: lowest hard overflow, then lowest soft overflow;
  // a later pass must be strictly better to replace the best.
  std::size_t best = 0;
  for (std::size_t p = 1; p < full.pass_stats.size(); ++p) {
    const RoutePassStat& x = full.pass_stats[p];
    const RoutePassStat& b = full.pass_stats[best];
    const double soft = x.overflow_front + x.overflow_back;
    const double best_soft = b.overflow_front + b.overflow_back;
    if (x.hard_overflow < b.hard_overflow ||
        (x.hard_overflow == b.hard_overflow && soft < best_soft)) {
      best = p;
    }
  }
  ASSERT_LT(best + 1, full.pass_stats.size())
      << "the fixture's last pass is its best; the restore goes untested";

  RouteOptions cut = ro;
  cut.rrr_passes = full.pass_stats[best].pass + 1;
  const RouteResult at_best = route_design(cd.nl, cd.fp, cut);
  ASSERT_EQ(at_best.pass_stats.back().pass, full.pass_stats[best].pass);
  EXPECT_EQ(full.overflow_total, at_best.overflow_total);
  EXPECT_EQ(full.drv_wire, at_best.drv_wire);
  EXPECT_EQ(full.total_wirelength_um(), at_best.total_wirelength_um());
  ASSERT_EQ(full.routes.size(), at_best.routes.size());
  for (std::size_t i = 0; i < full.routes.size(); ++i) {
    EXPECT_EQ(full.routes[i].edges, at_best.routes[i].edges) << "route " << i;
  }
}

TEST_F(PnrTest, Astar2GoldenRoutesUnderCongestion) {
  // The congested fixture runs negotiation passes and ends on the
  // best-pass restore (Astar2RestoresTheBestPass), so this fingerprint of
  // every route and the router counters pins the pass machinery, the
  // restore and the edge emit against the recorded output.
  const CongestedDesign cd(*ffet_tech_);
  const RouteResult rr = route_design(cd.nl, cd.fp, cd.options());
  ASSERT_GE(rr.pass_stats.size(), 2u);
  EXPECT_EQ(route_digest(rr), 0x72aa3200c319729full);
}

// --- routing: incremental reroute (the ECO primitive) ------------------------

TEST_F(PnrTest, RerouteWithNothingDirtyCarriesEveryRoute) {
  // With an empty dirty list on the unchanged placed design, every subnet
  // is carried: edges and layer indices come back exactly as in `prev`,
  // and nothing is routed.
  const RoutedDesign rd = route_core(*ffet_core_, *ffet_tech_, *ffet_lib_, 0.6);
  const RouteResult rr = reroute_nets(rd.nl, rd.fp, rd.rr, {});
  ASSERT_EQ(rr.routes.size(), rd.rr.routes.size());
  for (std::size_t i = 0; i < rr.routes.size(); ++i) {
    const NetRoute& carried = rr.routes[i];
    const NetRoute& prev = rd.rr.routes[i];
    EXPECT_EQ(carried.net, prev.net);
    EXPECT_EQ(carried.side, prev.side);
    EXPECT_EQ(carried.edges, prev.edges) << "route " << i << " differs";
    EXPECT_EQ(carried.h_layer_index, prev.h_layer_index) << "route " << i;
    EXPECT_EQ(carried.v_layer_index, prev.v_layer_index) << "route " << i;
  }
  EXPECT_DOUBLE_EQ(rr.total_wirelength_um(), rd.rr.total_wirelength_um());
  EXPECT_EQ(rr.settled_nodes, 0);
  EXPECT_EQ(rr.rrr_passes, 0);
  ASSERT_EQ(rr.pass_stats.size(), 1u);
  EXPECT_EQ(rr.pass_stats[0].ripped_front + rr.pass_stats[0].ripped_back, 0);
}

TEST_F(PnrTest, RerouteKeepsCarriedRoutesUnderCongestion) {
  // Reroute a few nets of the congested design: every other subnet keeps
  // its route and layers, the dirty ones negotiate with per-pass records
  // that sum to the totals, and threads 1 and 4 are bit-identical.
  const CongestedDesign cd(*ffet_tech_);
  const RouteOptions base = cd.options();
  const RouteResult prev = route_design(cd.nl, cd.fp, base);
  std::vector<NetId> dirty;
  std::set<NetId> dirty_set;
  for (const NetRoute& r : prev.routes) {
    if (r.edges.size() < 8 || dirty_set.count(r.net)) continue;
    dirty.push_back(r.net);
    dirty_set.insert(r.net);
    if (dirty.size() == 12) break;
  }
  ASSERT_EQ(dirty.size(), 12u);

  RouteOptions ro = base;
  ro.threads = 1;
  const RouteResult serial = reroute_nets(cd.nl, cd.fp, prev, dirty, ro);
  ro.threads = 4;
  const RouteResult threaded = reroute_nets(cd.nl, cd.fp, prev, dirty, ro);

  ASSERT_EQ(serial.routes.size(), prev.routes.size());
  int rerouted = 0;
  for (std::size_t i = 0; i < serial.routes.size(); ++i) {
    const NetRoute& r = serial.routes[i];
    EXPECT_EQ(r.net, prev.routes[i].net);
    if (dirty_set.count(r.net)) {
      ++rerouted;
      continue;
    }
    EXPECT_EQ(r.edges, prev.routes[i].edges) << "carried route " << i;
    EXPECT_EQ(r.h_layer_index, prev.routes[i].h_layer_index);
    EXPECT_EQ(r.v_layer_index, prev.routes[i].v_layer_index);
  }
  // Pass 0 routes the 2-pin pieces of the rerouted subnets, and only those.
  ASSERT_FALSE(serial.pass_stats.empty());
  EXPECT_GT(rerouted, 0);
  EXPECT_EQ(serial.pass_stats[0].ripped_front +
                serial.pass_stats[0].ripped_back,
            serial.steiner_subnets);
  EXPECT_GE(serial.steiner_subnets, rerouted);
  EXPECT_GT(serial.settled_nodes, 0);
  EXPECT_GT(serial.rrr_passes, 0) << "the dirty nets must negotiate";
  expect_pass_stats_sum_to_totals(serial);
  expect_all_sinks_connected(cd.nl, serial);
  expect_same_routing(serial, threaded);
}

TEST_F(PnrTest, RerouteRestoresPassZeroWhenItStaysBest) {
  // A reroute of three long nets on the congested fixture: the carried
  // routes hold hard overflow that no rip-up of the dirty pieces removes,
  // so no pass after the initial route beats it, the loop ends on the
  // stale-pass stop, and the restore must put back exactly the pass-0
  // routes — those a reroute whose pass budget stops after pass 0 keeps.
  // Pass 1 moves a piece (its soft overflow differs from pass 0's), so a
  // snapshot taken any later than the start of pass 1 restores other
  // routes.
  const CongestedDesign cd(*ffet_tech_);
  const RouteOptions ro = cd.options();
  const RouteResult prev = route_design(cd.nl, cd.fp, ro);
  std::vector<NetId> long_nets;
  for (const NetRoute& r : prev.routes) {
    if (r.edges.size() >= 4 &&
        (long_nets.empty() || long_nets.back() != r.net)) {
      long_nets.push_back(r.net);
    }
  }
  ASSERT_GT(long_nets.size(), 30u);
  const std::vector<NetId> dirty(long_nets.begin() + 28,
                                 long_nets.begin() + 31);

  RouteState state(cd.nl, cd.fp, prev, ro);
  state.reroute(cd.nl, dirty, {});
  const RouteResult full = state.result();
  ASSERT_GE(full.pass_stats.size(), 3u) << "the dirty nets must negotiate";
  const RoutePassStat& p0 = full.pass_stats[0];
  const RoutePassStat& p1 = full.pass_stats[1];
  ASSERT_NE(p0.overflow_front + p0.overflow_back,
            p1.overflow_front + p1.overflow_back)
      << "pass 1 leaves the pass-0 routes in place";
  for (std::size_t p = 1; p < full.pass_stats.size(); ++p) {
    const RoutePassStat& x = full.pass_stats[p];
    ASSERT_FALSE(x.hard_overflow < p0.hard_overflow ||
                 (x.hard_overflow == p0.hard_overflow &&
                  x.overflow_front + x.overflow_back <
                      p0.overflow_front + p0.overflow_back))
        << "pass " << x.pass << " beats pass 0; the pass-0 restore goes "
        << "untested";
  }

  RouteOptions cut = ro;
  cut.rrr_passes = 1;
  const RouteResult pass0 = reroute_nets(cd.nl, cd.fp, prev, dirty, cut);
  ASSERT_EQ(pass0.pass_stats.size(), 1u);
  ASSERT_EQ(full.routes.size(), pass0.routes.size());
  for (std::size_t i = 0; i < full.routes.size(); ++i) {
    EXPECT_EQ(full.routes[i].edges, pass0.routes[i].edges) << "route " << i;
    EXPECT_EQ(full.routes[i].h_layer_index, pass0.routes[i].h_layer_index);
    EXPECT_EQ(full.routes[i].v_layer_index, pass0.routes[i].v_layer_index);
  }
  EXPECT_EQ(full.overflow_total, pass0.overflow_total);
  EXPECT_EQ(full.drv_wire, pass0.drv_wire);
  EXPECT_EQ(full.total_wirelength_um(), pass0.total_wirelength_um());
}

TEST_F(PnrTest, RouteStateMatchesFreshRerouteUnderCongestion) {
  // The persistent routing state against reroute_nets() from scratch, on
  // the congested design: pin-access bases sit at the capacity, so the
  // grids' running overflow totals are non-zero and order-sensitive, and
  // the dirty nets negotiate through rip-up passes that write history.
  // Moves, pin flips and plain dirty lists, each accepted or undone; after
  // every trial the state is bitwise what a fresh reroute (or, after an
  // undo, the pre-trial state) is, and so are its pin-access bases.
  CongestedDesign cd(*ffet_tech_);
  const RouteOptions ro = cd.options();
  RouteState state(cd.nl, cd.fp, route_design(cd.nl, cd.fp, ro), ro);

  int negotiated = 0;
  auto trial = [&](const std::vector<NetId>& dirty,
                   const std::vector<netlist::InstId>& touched, bool accept,
                   const std::function<void()>& undo_edit) {
    const RouteResult before = state.result();
    state.reroute(cd.nl, dirty, touched);
    const RouteResult fresh = reroute_nets(cd.nl, cd.fp, before, dirty, ro);
    expect_same_routing(state.result(), fresh);
    if (fresh.rrr_passes > 0) ++negotiated;
    if (!accept) {
      undo_edit();
      state.undo_reroute();
      expect_same_routing(state.result(), before);
    }
    for (const Side s : {Side::Front, Side::Back}) {
      EXPECT_EQ(state.pin_demand(s), pin_demand_bases(cd.nl, cd.fp, ro, s));
    }
    // The running totals against a state that only commits the current
    // routes one after another (same sum, another order: near, not equal).
    const RouteState committed(cd.nl, cd.fp, state.result(), ro);
    const auto [soft, hard] = state.overflow_totals();
    EXPECT_NEAR(soft, committed.overflow_totals().first, 1e-9 * (1.0 + soft));
    EXPECT_NEAR(hard, committed.overflow_totals().second, 1e-9 * (1.0 + hard));
  };

  // Long nets, dirty: accepted.
  const RouteResult start = state.result();
  EXPECT_GT(start.drv_wire, 0) << "the fixture must carry hard overflow";
  std::vector<NetId> long_nets;
  for (const NetRoute& r : start.routes) {
    if (r.edges.size() >= 8 &&
        (long_nets.empty() || long_nets.back() != r.net)) {
      long_nets.push_back(r.net);
    }
    if (long_nets.size() == 12) break;
  }
  trial(long_nets, {}, true, [] {});
  // The same nets again: they negotiate over the edges the last reroute's
  // history marked, which a fresh reroute starts without.
  trial(long_nets, {}, true, [] {});

  // A cell moved three gcells with none of its nets listed dirty (they are
  // re-routed because their terminals moved), undone then accepted.
  netlist::InstId mover = netlist::kNoInst;
  for (netlist::InstId i = 0; i < cd.nl.num_instances(); ++i) {
    const netlist::Instance& inst = cd.nl.instance(i);
    if (!inst.fixed && !inst.type->physical_only() &&
        inst.pos.x + 3 * start.gcell_w < cd.fp.core.hi.x) {
      mover = i;
      break;
    }
  }
  ASSERT_NE(mover, netlist::kNoInst);
  const geom::Point home = cd.nl.instance(mover).pos;
  for (const bool accept : {false, true}) {
    cd.nl.instance(mover).pos.x = home.x + 3 * start.gcell_w;
    trial({}, {mover}, accept, [&] { cd.nl.instance(mover).pos = home; });
  }

  // Sink pins flipped to the other side (subnets appear and vanish).
  int flips = 0;
  for (NetId n = 0; n < cd.nl.num_nets() && flips < 4; ++n) {
    const netlist::Net& net = cd.nl.net(n);
    if (net.driver.inst == netlist::kNoInst || net.sinks.empty() ||
        cd.nl.pin_side(net.driver) != stdcell::PinSide::Both) {
      continue;
    }
    const netlist::PinRef pin = net.sinks.front();
    const stdcell::PinSide old_side = cd.nl.pin_side(pin);
    cd.nl.set_pin_side(pin, old_side == stdcell::PinSide::Back
                                ? stdcell::PinSide::Front
                                : stdcell::PinSide::Back);
    trial({n}, {pin.inst}, flips % 2 == 1,
          [&] { cd.nl.set_pin_side(pin, old_side); });
    ++flips;
  }
  EXPECT_EQ(flips, 4);
  EXPECT_GT(negotiated, 0) << "some trial must run rip-up passes";
}

}  // namespace
}  // namespace ffet::pnr

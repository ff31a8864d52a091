// Tests for the signoff-lite modules: placement DRC checking, the BEOL
// cost model, and corner-derated STA.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "pnr/drc.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "riscv/rv32.h"
#include "sta/sta.h"
#include "tech/cost.h"

namespace ffet {
namespace {

// --- DRC ---------------------------------------------------------------------

class DrcTest : public ::testing::Test {
 protected:
  DrcTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
  }
  tech::Technology tech_;
  stdcell::Library lib_;
};

TEST_F(DrcTest, LegalPlacementIsClean) {
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.65;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_TRUE(pnr::place(nl, fp, pp).legal);
  const pnr::DrcReport rep = pnr::check_placement(nl, fp, pp);
  EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST_F(DrcTest, DetectsInjectedViolations) {
  netlist::Builder b("drc", &lib_);
  const netlist::NetId a = b.input("a");
  b.output("z", b.inv(b.inv(a)));
  netlist::Netlist nl = b.take();
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.3;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_TRUE(pnr::place(nl, fp, pp).legal);

  // Inject: off-grid x, off-row y, overlap, outside core.
  netlist::Netlist bad = nl;
  bad.instance(0).pos.x += 7;  // off site grid
  pnr::DrcReport rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::OffSiteGrid), 0);

  bad = nl;
  bad.instance(0).pos.y += 13;
  rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::OffRowGrid), 0);

  bad = nl;
  bad.instance(0).pos = bad.instance(1).pos;  // exact overlap
  rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::CellOverlap), 0);

  bad = nl;
  bad.instance(0).pos = {fp.core.hi.x + 100, 0};
  rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::OutsideCore), 0);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(rep.summary().find("violation"), std::string::npos);
}

TEST_F(DrcTest, DetectsCellOnTapBlockage) {
  // Needs a core wide enough to contain a backside VSS stripe (128 CPP);
  // a small RV32 core suffices.
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.5;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_FALSE(pp.blockages.empty());
  // Drop the movable cell exactly onto a tap blockage.
  nl.instance(0).pos = pp.blockages.front().lo;
  const pnr::DrcReport rep = pnr::check_placement(nl, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::BlockageOverlap) +
                rep.count(pnr::DrcViolation::Kind::CellOverlap),
            0);
}

// --- DRC against a brute-force reference -------------------------------------

/// check_placement as it was before the row-band blockage index: every
/// movable cell tested against every blockage, in index order.
pnr::DrcReport brute_force_check_placement(const netlist::Netlist& nl,
                                           const pnr::Floorplan& fp,
                                           const pnr::PowerPlan& pp) {
  using pnr::DrcViolation;
  pnr::DrcReport rep;
  std::map<geom::Nm, std::vector<std::pair<geom::Rect, netlist::InstId>>>
      by_row;
  for (netlist::InstId id = 0; id < nl.num_instances(); ++id) {
    const netlist::Instance& inst = nl.instance(id);
    const geom::Rect box = inst.bbox();
    if (!fp.core.contains(box)) {
      rep.violations.push_back(
          {DrcViolation::Kind::OutsideCore, nl.instance_name(id), "", box});
    }
    if (box.lo.x % fp.site_width != 0) {
      rep.violations.push_back(
          {DrcViolation::Kind::OffSiteGrid, nl.instance_name(id), "", box});
    }
    if (box.lo.y % fp.row_height != 0) {
      rep.violations.push_back(
          {DrcViolation::Kind::OffRowGrid, nl.instance_name(id), "", box});
    }
    if (!inst.fixed) {
      for (const geom::Rect& b : pp.blockages) {
        if (box.overlaps_interior(b)) {
          rep.violations.push_back(
              {DrcViolation::Kind::BlockageOverlap, nl.instance_name(id), "",
               box.intersected(b)});
          break;
        }
      }
    }
    by_row[box.lo.y].push_back({box, id});
  }
  for (auto& [y, v] : by_row) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.first.lo.x < b.first.lo.x;
    });
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      if (v[i].first.hi.x > v[i + 1].first.lo.x) {
        rep.violations.push_back({DrcViolation::Kind::CellOverlap,
                                  nl.instance_name(v[i].second),
                                  nl.instance_name(v[i + 1].second),
                                  v[i].first.intersected(v[i + 1].first)});
      }
    }
  }
  return rep;
}

/// The rect from `lo` to (hi_x, hi_y), inverted spans included.
geom::Rect corners(geom::Point lo, geom::Nm hi_x, geom::Nm hi_y) {
  return {lo, {hi_x, hi_y}};
}

/// Kinds, order, names and rects of two reports, exactly.
void expect_same_report(const pnr::DrcReport& got,
                        const pnr::DrcReport& want) {
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    const pnr::DrcViolation& g = got.violations[i];
    const pnr::DrcViolation& w = want.violations[i];
    EXPECT_EQ(g.kind, w.kind) << "violation " << i;
    EXPECT_EQ(g.a, w.a) << "violation " << i;
    EXPECT_EQ(g.b, w.b) << "violation " << i;
    EXPECT_EQ(g.where, w.where) << "violation " << i;
  }
}

/// A placed reduced RV32 core on FFET, whose tap cells are the blockages.
class DrcReferenceTest : public DrcTest {
 protected:
  DrcReferenceTest()
      : nl_(riscv::build_rv32_core(lib_, [] {
          riscv::Rv32Options opt;
          opt.num_registers = 4;
          return opt;
        }())),
        fp_(pnr::make_floorplan(nl_, tech_, [] {
          pnr::FloorplanOptions fo;
          fo.target_utilization = 0.5;
          return fo;
        }())),
        pp_(pnr::build_power_plan(nl_, fp_, lib_)) {
    placed_ = pnr::place(nl_, fp_, pp_).legal;
  }

  /// The first movable instance at or after `from`.
  netlist::InstId movable(netlist::InstId from) const {
    while (nl_.instance(from).fixed) ++from;
    return from;
  }

  netlist::Netlist nl_;
  pnr::Floorplan fp_;
  pnr::PowerPlan pp_;
  bool placed_ = false;
};

// Every violation kind, including a cell that straddles two row bands over
// blockages, a cell over two blockages of one band whose lower index comes
// second in space, and cells outside the core on both sides.
TEST_F(DrcReferenceTest, EveryKindMatchesBruteForce) {
  ASSERT_TRUE(placed_);
  ASSERT_FALSE(pp_.blockages.empty());
  const pnr::DrcReport clean = pnr::check_placement(nl_, fp_, pp_);
  EXPECT_TRUE(clean.clean()) << clean.summary();
  expect_same_report(clean, brute_force_check_placement(nl_, fp_, pp_));

  netlist::Netlist bad = nl_;
  pnr::PowerPlan pp = pp_;
  const geom::Nm h = fp_.row_height;
  const geom::Rect tap = pp.blockages.front();
  const netlist::InstId a = movable(0);
  const netlist::InstId b = movable(a + 1);
  const netlist::InstId c = movable(b + 1);
  const netlist::InstId d = movable(c + 1);
  const netlist::InstId e = movable(d + 1);
  const netlist::InstId f = movable(e + 1);
  const netlist::InstId g = movable(f + 1);
  bad.instance(a).pos.x += 7;                           // off site grid
  bad.instance(b).pos = {tap.lo.x, tap.lo.y + h / 2};   // straddles 2 bands
  bad.instance(c).pos = bad.instance(d).pos;            // cell overlap
  bad.instance(e).pos = {fp_.core.hi.x + 100, 0};       // right of the core
  bad.instance(f).pos = {tap.lo.x, -3 * h - 5};         // below the core
  bad.instance(g).pos = tap.lo;                         // on a tap blockage
  // Two blockages in g's band: the one further right has the lower index,
  // so the index order, not the scan position, decides.
  const geom::Rect g_box = bad.instance(g).bbox();
  pp.blockages.insert(pp.blockages.begin(),
                      corners({g_box.hi.x - 1, g_box.lo.y},
                                      g_box.hi.x + 10, g_box.hi.y));
  // b straddles the tap's band and the one above it; a copy of the tap one
  // row up takes the lowest index, so the report must be the minimum over
  // both bands, not the first band's hit.
  pp.blockages.insert(pp.blockages.begin(), tap.translated({0, h}));
  // A blockage below the core (negative bands), under f, and a tall one
  // spanning three rows above it.
  pp.blockages.push_back(corners({tap.lo.x, -4 * h}, tap.lo.x + 50,
                                         -3 * h));
  pp.blockages.push_back(corners({tap.lo.x, -3 * h}, tap.lo.x + 50,
                                         0));
  // A zero-height blockage strictly inside a's box.
  const geom::Rect a_box = bad.instance(a).bbox();
  pp.blockages.push_back(corners(
      {a_box.lo.x + 1, a_box.lo.y + 1}, a_box.lo.x + 2, a_box.lo.y + 1));

  const pnr::DrcReport rep = pnr::check_placement(bad, fp_, pp);
  for (const auto k :
       {pnr::DrcViolation::Kind::OutsideCore,
        pnr::DrcViolation::Kind::OffSiteGrid,
        pnr::DrcViolation::Kind::OffRowGrid,
        pnr::DrcViolation::Kind::CellOverlap,
        pnr::DrcViolation::Kind::BlockageOverlap}) {
    EXPECT_GT(rep.count(k), 0) << pnr::to_string(k);
  }
  expect_same_report(rep, brute_force_check_placement(bad, fp_, pp));
}

// Scattered cells (some fixed) over random blockages — tall, flat,
// zero-height and outside the core, in random order — at several seeds.
TEST_F(DrcReferenceTest, RandomScatterMatchesBruteForce) {
  ASSERT_TRUE(placed_);
  const geom::Nm h = fp_.row_height;
  const geom::Nm w = fp_.core.width();
  const geom::Nm ht = fp_.core.height();
  for (unsigned seed = 1; seed <= 5; ++seed) {
    std::mt19937 rng(seed);
    auto uniform = [&](geom::Nm lo, geom::Nm hi) {
      return std::uniform_int_distribution<geom::Nm>(lo, hi)(rng);
    };
    netlist::Netlist bad = nl_;
    pnr::PowerPlan pp = pp_;
    for (netlist::InstId id = 0; id < bad.num_instances(); ++id) {
      if (uniform(0, 3) != 0) continue;
      bad.instance(id).pos = {uniform(-w / 10, w + w / 10),
                              uniform(-2 * h, ht + 2 * h)};
      if (uniform(0, 9) == 0) bad.instance(id).fixed = true;
    }
    for (int i = 0; i < 200; ++i) {
      const geom::Point lo{uniform(-w / 10, w + w / 10),
                           uniform(-3 * h, ht + 3 * h)};
      pp.blockages.push_back(corners(lo, lo.x + uniform(0, 4 * h),
                                             lo.y + uniform(0, 4 * h)));
    }
    std::shuffle(pp.blockages.begin(), pp.blockages.end(), rng);
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const pnr::DrcReport rep = pnr::check_placement(bad, fp_, pp);
    EXPECT_GT(rep.count(pnr::DrcViolation::Kind::BlockageOverlap), 0);
    expect_same_report(rep, brute_force_check_placement(bad, fp_, pp));
  }
}

// The index's two queries against a scan of every blockage.
TEST(BlockageRowsTest, QueriesMatchFullScan) {
  std::mt19937 rng(7);
  auto uniform = [&](geom::Nm lo, geom::Nm hi) {
    return std::uniform_int_distribution<geom::Nm>(lo, hi)(rng);
  };
  const geom::Nm h = 280;
  std::vector<geom::Rect> blockages;
  for (int i = 0; i < 300; ++i) {
    const geom::Point lo{uniform(0, 20000), uniform(-2000, 20000)};
    // Some inverted spans (hi below lo) too: the tests are pure
    // comparisons, so the index must agree on them as well.
    blockages.push_back(corners(lo, lo.x + uniform(-200, 2000),
                                        lo.y + uniform(-300, 1500)));
  }
  const pnr::BlockageRows index(blockages, 0, h);
  for (int q = 0; q < 2000; ++q) {
    const geom::Point lo{uniform(-1000, 21000), uniform(-3000, 21000)};
    const geom::Rect box =
        corners(lo, lo.x + uniform(-300, 1500),
                        lo.y + uniform(-300, 1500));
    int first = -1;
    std::vector<int> in_rows;
    for (std::size_t i = 0; i < blockages.size(); ++i) {
      const geom::Rect& b = blockages[i];
      if (first < 0 && box.overlaps_interior(b)) first = static_cast<int>(i);
      if (b.lo.y < box.hi.y && box.lo.y < b.hi.y) {
        in_rows.push_back(static_cast<int>(i));
      }
    }
    EXPECT_EQ(index.first_overlap(box), first) << "query " << q;
    EXPECT_EQ(index.overlapping_y(box.lo.y, box.hi.y), in_rows)
        << "query " << q;
  }
}

// --- cost model -----------------------------------------------------------------

TEST(CostModel, FfetCostsMoreThanCfetAtFullStack) {
  // Full dual-sided FFET carries 24 patterned layers vs CFET's 12 + PDN.
  const auto ffet = tech::relative_process_cost(tech::make_ffet_3p5t());
  const auto cfet = tech::relative_process_cost(tech::make_cfet_4t());
  EXPECT_GT(ffet.total, cfet.total);
  EXPECT_GT(ffet.backside_layers, cfet.backside_layers);
  EXPECT_GT(cfet.modules, 0.0);  // nTSV + BPR + backside PDN module
}

TEST(CostModel, LayerReductionCutsCost) {
  const tech::Technology full = tech::make_ffet_3p5t();
  const tech::Technology slim = full.with_routing_limit(6, 6);
  const tech::Technology slimmer = full.with_routing_limit(3, 3);
  const double c_full = tech::relative_process_cost(full).total;
  const double c_slim = tech::relative_process_cost(slim).total;
  const double c_slimmer = tech::relative_process_cost(slimmer).total;
  EXPECT_GT(c_full, c_slim);
  EXPECT_GT(c_slim, c_slimmer);
  // FM6BM6 should undercut even the CFET's full stack cost eventually.
  const double c_cfet = tech::relative_process_cost(tech::make_cfet_4t()).total;
  EXPECT_LT(c_slimmer, c_cfet);
}

TEST(CostModel, FinePitchLayersCostMore) {
  tech::CostModel m;
  const auto b = tech::relative_process_cost(tech::make_ffet_3p5t(), m);
  // 24 signal+cell layers between fine/mid/fat plus modules: sane range.
  EXPECT_GT(b.total, 1.5);
  EXPECT_LT(b.total, 4.0);
  EXPECT_EQ(b.num_layers, 26);  // FM0-12 + BM0-12
}

// --- corners ----------------------------------------------------------------------

class CornerTest : public ::testing::Test {
 protected:
  CornerTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
    netlist::Builder b("c", &lib_);
    const netlist::NetId clk = b.input("clk");
    b.netlist().mark_clock_net(clk);
    const netlist::NetId q0 = b.dff(b.input("d"), clk);
    netlist::NetId x = q0;
    for (int i = 0; i < 4; ++i) x = b.inv(x);
    b.output("q", b.dff(x, clk));
    nl_ = std::make_unique<netlist::Netlist>(b.take());
  }
  tech::Technology tech_;
  stdcell::Library lib_;
  std::unique_ptr<netlist::Netlist> nl_;
};

TEST_F(CornerTest, SlowCornerStretchesSetupPath) {
  sta::StaOptions typ;
  sta::StaOptions slow;
  slow.derate_late = 1.15;
  sta::Sta t(nl_.get(), nullptr, typ);
  sta::Sta s(nl_.get(), nullptr, slow);
  const double d_typ = t.analyze_timing().critical_path_ps;
  const double d_slow = s.analyze_timing().critical_path_ps;
  EXPECT_GT(d_slow, d_typ * 1.05);
  EXPECT_LT(d_slow, d_typ * 1.16);
}

TEST_F(CornerTest, FastCornerTightensHold) {
  sta::StaOptions typ;
  sta::StaOptions fast;
  fast.derate_early = 0.85;
  sta::Sta t(nl_.get(), nullptr, typ);
  t.analyze_timing();
  sta::Sta f(nl_.get(), nullptr, fast);
  f.analyze_timing();
  const double slack_typ = t.analyze_hold().worst_slack_ps;
  const double slack_fast = f.analyze_hold().worst_slack_ps;
  EXPECT_LT(slack_fast, slack_typ);
}

}  // namespace
}  // namespace ffet

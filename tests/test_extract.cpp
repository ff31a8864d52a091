// Tests for dual-sided RC extraction: tree structure, Elmore properties,
// the Drain-Merge front/back junction, consistency with the merged DEF, and
// the route-driven extractor's bit identity with the paper's
// merge-then-extract path on real flow points.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "extract/extract.h"
#include "flow/flow.h"
#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "rc_compare.h"
#include "rc_reference.h"
#include "riscv/rv32.h"

namespace ffet::extract {
namespace {

class ExtractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new tech::Technology(tech::make_ffet_3p5t());
    stdcell::PinConfig dual;
    dual.backside_input_fraction = 0.5;
    lib_ = new stdcell::Library(stdcell::build_library(*tech_, dual));
    liberty::characterize_library(*lib_);
    riscv::Rv32Options opt;
    opt.num_registers = 4;
    nl_ = new netlist::Netlist(riscv::build_rv32_core(*lib_, opt));
    pnr::FloorplanOptions fo;
    fo.target_utilization = 0.6;
    const pnr::Floorplan fp = pnr::make_floorplan(*nl_, *tech_, fo);
    const pnr::PowerPlan pp = pnr::build_power_plan(*nl_, fp, *lib_);
    pnr::place(*nl_, fp, pp);
    pnr::build_clock_tree(*nl_, fp);
    const pnr::RouteResult rr = pnr::route_design(*nl_, fp);
    merged_ = new io::Def(
        io::merge_defs(io::build_def(*nl_, rr, tech::Side::Front),
                       io::build_def(*nl_, rr, tech::Side::Back)));
    rc_ = new RcNetlist(extract_rc(*merged_, *nl_, *tech_));
  }
  static void TearDownTestSuite() {
    delete rc_;
    delete merged_;
    delete nl_;
    delete lib_;
    delete tech_;
    rc_ = nullptr;
    merged_ = nullptr;
    nl_ = nullptr;
    lib_ = nullptr;
    tech_ = nullptr;
  }

  static tech::Technology* tech_;
  static stdcell::Library* lib_;
  static netlist::Netlist* nl_;
  static io::Def* merged_;
  static RcNetlist* rc_;
};

tech::Technology* ExtractTest::tech_ = nullptr;
stdcell::Library* ExtractTest::lib_ = nullptr;
netlist::Netlist* ExtractTest::nl_ = nullptr;
io::Def* ExtractTest::merged_ = nullptr;
RcNetlist* ExtractTest::rc_ = nullptr;

TEST_F(ExtractTest, OneTreePerNet) {
  ASSERT_EQ(rc_->num_trees(), static_cast<std::size_t>(nl_->num_nets()));
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const RcTreeView t = rc_->tree(n);
    EXPECT_EQ(t.sink_nodes.size(), nl_->net(n).sinks.size());
  }
}

TEST_F(ExtractTest, TreesAreWellFormed) {
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const RcTreeView t = rc_->tree(n);
    ASSERT_FALSE(t.nodes.empty());
    EXPECT_EQ(t.nodes[0].parent, -1);  // driver root
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      // Parents exist; resistances positive.
      if (t.nodes[i].parent >= 0) {
        EXPECT_LT(t.nodes[i].parent, static_cast<int>(t.nodes.size()));
        EXPECT_GT(t.nodes[i].r_ohm, 0.0) << nl_->net_name(n);
      }
      EXPECT_GE(t.nodes[i].cap_ff, 0.0);
    }
    EXPECT_GE(t.total_cap_ff, t.wire_cap_ff - 1e-9);
  }
}

TEST_F(ExtractTest, ElmoreNonNegativeAndMonotoneAlongPaths) {
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const RcTreeView t = rc_->tree(n);
    ASSERT_EQ(t.elmore_ps.size(), t.nodes.size());
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      const int p = t.nodes[i].parent;
      if (p < 0) continue;
      // Elmore is non-decreasing from driver to leaves.
      EXPECT_GE(t.elmore_ps[i] + 1e-12, t.elmore_ps[static_cast<std::size_t>(p)])
          << nl_->net_name(n);
    }
  }
}

TEST_F(ExtractTest, TotalCapIncludesSinkPins) {
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const netlist::Net& net = nl_->net(n);
    const RcTreeView t = rc_->tree(n);
    double pins = 0.0;
    for (const netlist::PinRef& s : net.sinks) pins += nl_->pin_cap_ff(s);
    EXPECT_GE(t.total_cap_ff + 1e-9, pins) << nl_->net_name(n);
    EXPECT_NEAR(t.total_cap_ff - t.wire_cap_ff, pins, 1e-6) << nl_->net_name(n);
  }
}

TEST_F(ExtractTest, DualSidedNetsJoinThroughDrainMerge) {
  // Find a net with both front and back wires in the merged DEF; its tree
  // must contain nodes on both sides, with the backside subtree reached
  // through a link whose resistance includes the Drain Merge.
  int checked = 0;
  for (const io::DefNet& dn : merged_->nets) {
    bool has_f = false, has_b = false;
    for (const io::DefWire& w : dn.wires) {
      (w.layer[0] == 'B' ? has_b : has_f) = true;
    }
    if (!has_f || !has_b) continue;
    const auto id = nl_->find_net(dn.name);
    ASSERT_TRUE(id.has_value());
    const RcTreeView t = rc_->tree(*id);
    bool node_f = false, node_b = false;
    for (const RcNode& nd : t.nodes) {
      (nd.side == tech::Side::Back ? node_b : node_f) = true;
    }
    EXPECT_TRUE(node_f && node_b) << dn.name;
    // Some node's resistance to parent carries the Drain Merge value.
    bool merge_seen = false;
    for (const RcNode& nd : t.nodes) {
      if (nd.r_ohm >= tech_->device().np_link_r_ohm) merge_seen = true;
    }
    EXPECT_TRUE(merge_seen) << dn.name;
    if (++checked > 20) break;
  }
  EXPECT_GT(checked, 5) << "expected plenty of dual-sided nets";
}

TEST_F(ExtractTest, LongerWiresMoreCapacitance) {
  // Across nets, wire cap correlates with DEF wirelength; spot-check the
  // extremes.
  double best_len = -1, worst_len = 1e18;
  double best_cap = 0, worst_cap = 0;
  for (const io::DefNet& dn : merged_->nets) {
    double len = 0;
    for (const io::DefWire& w : dn.wires) {
      len += geom::to_um(geom::manhattan(w.from, w.to));
    }
    const auto id = nl_->find_net(dn.name);
    if (!id) continue;
    const RcTreeView t = rc_->tree(*id);
    if (len > best_len) {
      best_len = len;
      best_cap = t.wire_cap_ff;
    }
    if (len < worst_len) {
      worst_len = len;
      worst_cap = t.wire_cap_ff;
    }
  }
  EXPECT_GT(best_len, worst_len);
  EXPECT_GT(best_cap, worst_cap);
}

TEST_F(ExtractTest, UnknownLayerRejected) {
  io::Def bad = *merged_;
  for (auto& n : bad.nets) {
    if (!n.wires.empty()) {
      n.wires[0].layer = "XM3";
      break;
    }
  }
  EXPECT_THROW(extract_rc(bad, *nl_, *tech_), std::runtime_error);
}

TEST_F(ExtractTest, AggregateStatisticsPositive) {
  EXPECT_GT(rc_->total_wire_cap_ff, 0.0);
  EXPECT_GT(rc_->total_wire_res_kohm, 0.0);
}

// Synthetic micro-check of Elmore numbers: a driver, one wire, one sink.
TEST(ExtractMicro, SingleWireElmoreMatchesHandComputation) {
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::Library lib = stdcell::build_library(tech);
  liberty::characterize_library(lib);
  netlist::Builder b("micro", &lib);
  const netlist::NetId in = b.input("a");
  const netlist::NetId mid = b.inv(in);
  b.output("z", b.inv(mid));
  netlist::Netlist nl = b.take();
  // Manual placement: driver at origin, sink 9 gcells to the right.
  nl.instance(0).pos = {0, 0};
  nl.instance(1).pos = {4500, 0};

  // Hand-build a DEF with one FM2 wire of 4.5 um on the mid net.
  io::Def def;
  def.design = nl.name();
  io::DefNet dn;
  dn.name = nl.net_name(mid);
  dn.wires.push_back({"FM2", {0, 0}, {4500, 0}});
  def.nets.push_back(dn);

  const RcNetlist rc = extract_rc(def, nl, tech);
  const RcTreeView t = rc.tree(mid);
  const tech::MetalLayer* fm2 = tech.find_layer("FM2");
  const double len_um = 4.5;
  const double wire_c = len_um * fm2->c_ff_per_um;
  // Coupling adds a tiny amount even for a lone wire (its own length
  // registers in the density grid); base cap is a floor.
  EXPECT_GE(t.wire_cap_ff, wire_c - 1e-9);
  EXPECT_NEAR(t.wire_cap_ff, wire_c, 0.02 * wire_c);
  // Sink Elmore must exceed the pure wire RC floor and include hookups.
  ASSERT_EQ(t.sink_nodes.size(), 1u);
  EXPECT_GT(t.elmore_to_sink(0), 0.0);
}

// --- the tree kernel against its reference (rc_reference.h) ---------------

// A hand-placed net that pins the kernel's observable conventions, each
// checked directly and then against the reference kernel:
//   * node numbering is first-seen over the wires, `from` before `to`;
//   * a wire component the driver join does not reach keeps parent -1 and
//     Elmore 0;
//   * a later sink's nearest-node candidates include the pin nodes of the
//     sinks before it.
TEST(ExtractMicro, KernelConventionsMatchReference) {
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::Library lib = stdcell::build_library(tech);
  liberty::characterize_library(lib);
  netlist::Builder b("micro", &lib);
  const netlist::NetId in = b.input("a");
  const netlist::NetId mid = b.inv(in);
  b.output("z1", b.inv(mid));
  b.output("z2", b.inv(mid));
  netlist::Netlist nl = b.take();
  // The driver at the origin, both sinks on one spot past the wire's end.
  nl.instance(0).pos = {0, 0};
  nl.instance(1).pos = {9000, 0};
  nl.instance(2).pos = {9000, 0};

  io::Def def;
  def.design = nl.name();
  io::DefNet dn;
  dn.name = nl.net_name(mid);
  dn.wires.push_back({"FM2", {0, 0}, {4500, 0}});
  dn.wires.push_back({"FM2", {25000, 5000}, {20000, 5000}});  // stranded
  dn.wires.push_back({"FM3", {4500, 4500}, {4500, 0}});
  def.nets.push_back(dn);

  const RcNetlist rc = extract_rc(def, nl, tech);
  const RcTreeView t = rc.tree(mid);
  ASSERT_EQ(t.nodes.size(), 8u);  // root, 5 wire endpoints, 2 pins
  const std::vector<geom::Point> first_seen = {
      {0, 0}, {4500, 0}, {25000, 5000}, {20000, 5000}, {4500, 4500}};
  for (std::size_t i = 0; i < first_seen.size(); ++i) {
    EXPECT_EQ(t.nodes[i + 1].pos, first_seen[i]) << "node " << i + 1;
  }
  for (const std::size_t stranded : {3u, 4u}) {
    EXPECT_EQ(t.nodes[stranded].parent, -1) << "node " << stranded;
    EXPECT_EQ(t.elmore_ps[stranded], 0.0) << "node " << stranded;
  }
  ASSERT_EQ(t.sink_nodes.size(), 2u);
  EXPECT_EQ(t.nodes[static_cast<std::size_t>(t.sink_nodes[0])].parent, 2);
  EXPECT_EQ(t.nodes[static_cast<std::size_t>(t.sink_nodes[1])].parent,
            t.sink_nodes[0]);

  expect_same_rc(rc, reference::extract_rc(def, nl, tech));
}

// --- route-driven extraction == the paper's merge-then-extract path -------

/// One flow configuration of the reduced RV32 core, extracted at one thread
/// count.
struct RouteSourceCase {
  const char* name;
  tech::TechKind kind;
  int back_layers;
  double backside_input_fraction;
  int eco_passes;
  int threads;
};

void PrintTo(const RouteSourceCase& c, std::ostream* os) {
  *os << c.name << "_t" << c.threads;
}

class RouteSourceTest : public ::testing::TestWithParam<RouteSourceCase> {
 protected:
  /// A finished flow point and the design it kept.
  struct Point {
    std::unique_ptr<flow::DesignContext> ctx;
    flow::PhysicalState st;  ///< destroyed first: its netlist uses ctx
  };

  /// The reduced-core flow of a case's configuration, run once and shared
  /// by its thread counts.
  static const Point& point(const RouteSourceCase& c) {
    static std::map<std::string, std::unique_ptr<Point>> points;
    std::unique_ptr<Point>& p = points[c.name];
    if (!p) {
      flow::FlowConfig cfg;
      cfg.tech_kind = c.kind;
      cfg.front_layers = 12;
      cfg.back_layers = c.back_layers;
      cfg.backside_input_fraction = c.backside_input_fraction;
      cfg.eco_passes = c.eco_passes;
      cfg.rv32_registers = 8;
      cfg.utilization = 0.65;
      cfg.threads = 1;
      p = std::make_unique<Point>();
      p->ctx = flow::prepare_design(cfg);
      flow::run_physical(*p->ctx, cfg, &p->st);
    }
    return *p;
  }
};

// Every RC node field, Elmore delay, sink hookup and per-tree and global
// total of extract_rc(routes) equals extract_rc of the merged front/back
// DEFs, the paper's StarRC input — on the signed-off design (post-ECO
// where the ECO ran), at every thread count.
TEST_P(RouteSourceTest, RoutesExtractLikeTheirMergedDef) {
  const RouteSourceCase& c = GetParam();
  const Point& p = point(c);
  const netlist::Netlist& nl = p.st.nl;
  const pnr::RouteResult& routes = p.st.routes;
  ASSERT_FALSE(routes.routes.empty());
  const io::Def merged =
      io::merge_defs(io::build_def(nl, routes, tech::Side::Front),
                     io::build_def(nl, routes, tech::Side::Back));
  const RcNetlist from_def = extract_rc(merged, nl, p.ctx->tech(), c.threads);
  const RcNetlist from_routes =
      extract_rc(routes, nl, p.ctx->tech(), c.threads);
  expect_same_rc(from_routes, from_def);
  EXPECT_GT(from_routes.total_wire_cap_ff, 0.0);
}

// The scratch kernel builds every tree of both wire sources, at every
// thread count, exactly as the reference kernel builds it from the merged
// DEF.
TEST_P(RouteSourceTest, KernelMatchesReference) {
  const RouteSourceCase& c = GetParam();
  const Point& p = point(c);
  const netlist::Netlist& nl = p.st.nl;
  const io::Def merged =
      io::merge_defs(io::build_def(nl, p.st.routes, tech::Side::Front),
                     io::build_def(nl, p.st.routes, tech::Side::Back));
  const RcNetlist ref = reference::extract_rc(merged, nl, p.ctx->tech());
  expect_same_rc(extract_rc(merged, nl, p.ctx->tech(), c.threads), ref);
  expect_same_rc(extract_rc(p.st.routes, nl, p.ctx->tech(), c.threads), ref);
}

// RouteExtractor::reextract rebuilds dirty nets with the same kernel: after
// a reroute of every fifth net, each rebuilt tree equals the reference
// kernel's tree from the merged DEF of the new routes, and every other tree
// is untouched.
TEST_P(RouteSourceTest, ReextractMatchesReference) {
  const RouteSourceCase& c = GetParam();
  const Point& p = point(c);
  const netlist::Netlist& nl = p.st.nl;
  const tech::Technology& tech = p.ctx->tech();
  pnr::RouteState routing(nl, p.st.fp, p.st.routes);
  RcNetlist rc = extract_rc(routing.result(), nl, tech, c.threads);
  const RcNetlist before = rc;
  RouteExtractor extractor(routing, nl, tech);
  std::vector<netlist::NetId> dirty;
  for (netlist::NetId n = 0; n < nl.num_nets(); n += 5) dirty.push_back(n);
  routing.reroute(nl, dirty, {});
  extractor.reextract(rc, nl, routing, dirty);

  const pnr::RouteResult now = routing.result();
  const RcNetlist ref = reference::extract_rc(
      io::merge_defs(io::build_def(nl, now, tech::Side::Front),
                     io::build_def(nl, now, tech::Side::Back)),
      nl, tech);
  ASSERT_EQ(rc.num_trees(), ref.num_trees());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    if (n % 5 == 0) {
      expect_same_tree(rc.tree(n), ref.tree(n), n);
    } else {
      expect_same_tree(rc.tree(n), before.tree(n), n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReducedRv32, RouteSourceTest,
    ::testing::Values(
        RouteSourceCase{"ffet_fp05bp05_eco2", tech::TechKind::Ffet3p5T, 12,
                        0.5, 2, 1},
        RouteSourceCase{"ffet_fp05bp05_eco2", tech::TechKind::Ffet3p5T, 12,
                        0.5, 2, 4},
        RouteSourceCase{"ffet_fm12", tech::TechKind::Ffet3p5T, 0, 0.0, 0, 1},
        RouteSourceCase{"ffet_fm12", tech::TechKind::Ffet3p5T, 0, 0.0, 0, 4},
        RouteSourceCase{"cfet_fm12", tech::TechKind::Cfet4T, 0, 0.0, 0, 1},
        RouteSourceCase{"cfet_fm12", tech::TechKind::Cfet4T, 0, 0.0, 0, 4}),
    [](const ::testing::TestParamInfo<RouteSourceCase>& info) {
      return std::string(info.param.name) + "_t" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace ffet::extract

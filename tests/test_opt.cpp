// Tests for the post-route ECO engine (src/opt) and its supporting
// incremental primitives: the IncrementalLegalizer claim/release model and
// the run_eco accept/revert loop on a routed, extracted design.  The ECO
// loop is serial and all its primitives are thread-invariant, so the same
// inputs must produce bit-identical results at any thread count — checked
// here and run under TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "extract/extract.h"
#include "io/def.h"
#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "opt/eco.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "rc_compare.h"
#include "sta/sta.h"

namespace ffet::opt {
namespace {

using netlist::Builder;
using netlist::Bus;
using netlist::InstId;
using netlist::NetId;

/// Routed + extracted accumulator on the dual-sided library — everything
/// run_eco needs, built once per construction so two Fixtures are
/// bit-identical inputs.
struct Fixture {
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::Library lib;
  netlist::Netlist nl;
  pnr::Floorplan fp;
  pnr::PowerPlan pp;
  pnr::CtsResult cts;
  pnr::RouteResult routes;
  extract::RcNetlist rc;

  static stdcell::Library make_lib(const tech::Technology& tech) {
    stdcell::PinConfig pins;
    pins.backside_input_fraction = 0.5;
    stdcell::Library lib = stdcell::build_library(tech, pins);
    liberty::characterize_library(lib);
    return lib;
  }

  static pnr::FloorplanOptions fopts() {
    pnr::FloorplanOptions fo;
    fo.target_utilization = 0.6;
    return fo;
  }

  static netlist::Netlist build_nl(const stdcell::Library& lib) {
    Builder b("acc", &lib);
    const NetId clk = b.input("clk");
    b.netlist().mark_clock_net(clk);
    const NetId rst_n = b.input("rst_n");
    const Bus din = b.input_bus("din", 8);
    const Bus acc_d = b.wires(8, "acc_d");
    const Bus acc_q = b.dffr_bus(acc_d, clk, rst_n);
    const auto [sum, carry] = b.add(acc_q, din, b.zero());
    for (int i = 0; i < 8; ++i) {
      b.drive(acc_d[static_cast<std::size_t>(i)], "BUFD1",
              {sum[static_cast<std::size_t>(i)]});
    }
    b.output_bus("acc", acc_q);
    b.output("carry", carry);
    NetId parity = acc_q[0];
    for (int i = 1; i < 8; ++i) {
      parity = b.xor2(parity, acc_q[static_cast<std::size_t>(i)]);
    }
    b.output("parity", parity);
    return b.take();
  }

  Fixture()
      : lib(make_lib(tech)), nl(build_nl(lib)),
        fp(pnr::make_floorplan(nl, tech, fopts())),
        pp(pnr::build_power_plan(nl, fp, lib)) {
    pnr::place(nl, fp, pp);
    cts = pnr::build_clock_tree(nl, fp);
    routes = pnr::route_design(nl, fp);
    const io::Def merged =
        io::merge_defs(io::build_def(nl, routes, tech::Side::Front),
                       io::build_def(nl, routes, tech::Side::Back));
    rc = extract::extract_rc(merged, nl, tech);
  }
};

/// Two route results are the same routes (net, side, edges, terminals,
/// layers, wirelength) with the same totals and DRV verdict, bitwise.
void expect_same_routes(const pnr::RouteResult& a, const pnr::RouteResult& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    const pnr::NetRoute& x = a.routes[i];
    const pnr::NetRoute& y = b.routes[i];
    EXPECT_EQ(x.net, y.net) << "route " << i;
    EXPECT_EQ(x.side, y.side) << "route " << i;
    EXPECT_EQ(x.edges, y.edges) << "route " << i;
    EXPECT_EQ(x.sink_gcells, y.sink_gcells) << "route " << i;
    EXPECT_EQ(x.source_gcell, y.source_gcell) << "route " << i;
    EXPECT_EQ(x.h_layer_index, y.h_layer_index) << "route " << i;
    EXPECT_EQ(x.v_layer_index, y.v_layer_index) << "route " << i;
    EXPECT_EQ(x.wirelength_um, y.wirelength_um) << "route " << i;
  }
  EXPECT_EQ(a.wirelength_front_um, b.wirelength_front_um);
  EXPECT_EQ(a.wirelength_back_um, b.wirelength_back_um);
  EXPECT_EQ(a.nets_front, b.nets_front);
  EXPECT_EQ(a.nets_back, b.nets_back);
  EXPECT_EQ(a.overflow_total, b.overflow_total);
  EXPECT_EQ(a.drv_wire, b.drv_wire);
  EXPECT_EQ(a.drv_pin_access, b.drv_pin_access);
  EXPECT_EQ(a.drv_estimate, b.drv_estimate);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.rrr_passes, b.rrr_passes);
  EXPECT_EQ(a.ripups_total, b.ripups_total);
  EXPECT_EQ(a.settled_nodes, b.settled_nodes);
  EXPECT_EQ(a.pass_stats.size(), b.pass_stats.size());
  EXPECT_EQ(a.pin_demand_units, b.pin_demand_units);
  EXPECT_EQ(a.wire_demand_units, b.wire_demand_units);
}

/// The accepted-or-reverted trial sequence of the equivalence test: the
/// ECO loop's three edits, applied to the fixture and undone exactly the
/// way run_eco undoes them.
struct TrialEdits {
  netlist::Netlist& nl;
  const stdcell::Library& lib;

  /// A combinational, movable cell with a larger drive in the library.
  std::pair<InstId, const stdcell::CellType*> upsizable(int skip) const {
    for (InstId i = 0; i < nl.num_instances(); ++i) {
      const netlist::Instance& inst = nl.instance(i);
      if (inst.fixed || inst.type->physical_only() ||
          inst.type->sequential()) {
        continue;
      }
      const std::string up =
          std::string(stdcell::to_string(inst.type->function())) + "D" +
          std::to_string(2 * inst.type->structure().drive);
      if (const stdcell::CellType* t = lib.find(up); t && skip-- == 0) {
        return {i, t};
      }
    }
    return {netlist::kNoInst, nullptr};
  }

  NetId output_net(InstId id) const {
    const auto& pins = nl.instance(id).type->pins();
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (pins[p].dir == stdcell::PinDir::Output) return nl.pin_net(id, p);
    }
    return netlist::kNoNet;
  }

  /// A sink pin on a net driven by a dual-sided output (flippable).
  std::pair<NetId, netlist::PinRef> flippable(int skip) const {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const netlist::Net& net = nl.net(n);
      if (net.is_clock || net.driver.inst == netlist::kNoInst ||
          net.sinks.size() < 2 ||
          nl.pin_side(net.driver) != stdcell::PinSide::Both) {
        continue;
      }
      if (skip-- == 0) return {n, net.sinks.front()};
    }
    return {netlist::kNoNet, {}};
  }

  void flip(const netlist::PinRef& p) {
    nl.set_pin_side(p, nl.pin_side(p) == stdcell::PinSide::Back
                           ? stdcell::PinSide::Front
                           : stdcell::PinSide::Back);
  }

  const std::string& pin_name(const netlist::PinRef& p) const {
    return nl.instance(p.inst).type->pins()[static_cast<std::size_t>(p.pin)]
        .name;
  }

  /// Repeater on `net` driving all but its first sink; returns the buffer.
  InstId insert_buffer(NetId net, NetId& leaf) {
    const std::vector<netlist::PinRef> moved(nl.net(net).sinks.begin() + 1,
                                             nl.net(net).sinks.end());
    leaf = nl.add_net("test_rep_net");
    const InstId buf = nl.add_instance("test_rep_buf", &lib.at("BUFD4"));
    nl.instance(buf).pos = nl.instance(moved.front().inst).pos;
    nl.connect(buf, "Z", leaf);
    for (const netlist::PinRef& s : moved) {
      nl.reconnect_sink(s.inst, pin_name(s), leaf);
    }
    nl.connect(buf, "I", net);
    return buf;
  }

  /// run_eco's exact structural revert of insert_buffer.
  void remove_buffer(NetId net, InstId buf,
                     const std::vector<netlist::PinRef>& orig_sinks) {
    for (const netlist::PinRef& s : orig_sinks) {
      if (s == orig_sinks.front()) continue;
      nl.reconnect_sink(s.inst, pin_name(s), net);
    }
    nl.disconnect_pin(buf, "I");
    nl.disconnect_pin(buf, "Z");
    nl.pop_instance();
    nl.pop_net();
    for (const netlist::PinRef& s : orig_sinks) {
      nl.disconnect_pin(s.inst, pin_name(s));
    }
    for (const netlist::PinRef& s : orig_sinks) {
      nl.connect(s.inst, pin_name(s), net);
    }
  }
};

TEST(EcoStateTest, IncrementalStateMatchesRebuildTrialByTrial) {
  // run_eco keeps one routing state and one extractor across its trials.
  // Drive the ECO loop's three edits through them — resizes (one moving
  // the cell), a repeater and pin flips, some accepted and some reverted —
  // and after every trial compare the maintained state bitwise with one
  // rebuilt from scratch: the routes against reroute_nets() from the
  // pre-trial routes (or, after a revert, the pre-trial routes
  // themselves), the dirty nets' RC trees against a full extraction of the
  // merged DEF (or, after a revert, every tree against the pre-trial
  // ones), and the density and pin-demand grids against rebuilt grids.
  Fixture f;
  const pnr::RouteOptions ro;
  pnr::RouteState routing(f.nl, f.fp, f.routes, ro);
  extract::RouteExtractor extractor(routing, f.nl, f.tech);
  TrialEdits edit{f.nl, f.lib};

  int accepted = 0;
  int reverted = 0;
  auto trial = [&](const std::vector<NetId>& dirty,
                   const std::vector<InstId>& touched, bool accept,
                   auto&& undo_edit) {
    SCOPED_TRACE(testing::Message() << "trial " << accepted + reverted);
    const pnr::RouteResult before = routing.result();
    const extract::RcNetlist rc_before = f.rc;
    routing.reroute(f.nl, dirty, touched);
    extractor.reextract(f.rc, f.nl, routing, dirty);
    if (accept) {
      ++accepted;
      expect_same_routes(routing.result(),
                         pnr::reroute_nets(f.nl, f.fp, before, dirty, ro));
    } else {
      ++reverted;
      undo_edit();
      extractor.undo(f.rc, routing);
      routing.undo_reroute();
      expect_same_routes(routing.result(), before);
    }
    const pnr::RouteResult now = routing.result();
    const io::Def merged =
        io::merge_defs(io::build_def(f.nl, now, tech::Side::Front),
                       io::build_def(f.nl, now, tech::Side::Back));
    ASSERT_EQ(f.rc.num_trees(), static_cast<std::size_t>(f.nl.num_nets()));
    if (accept) {
      const extract::RcNetlist full = extract::extract_rc(merged, f.nl, f.tech);
      for (const NetId n : dirty) {
        extract::expect_same_tree(f.rc.tree(n), full.tree(n), n);
      }
    } else {
      for (NetId n = 0; n < f.nl.num_nets(); ++n) {
        extract::expect_same_tree(f.rc.tree(n), rc_before.tree(n), n);
      }
    }
    for (const tech::Side s : {tech::Side::Front, tech::Side::Back}) {
      EXPECT_EQ(extractor.density_loads(s),
                extract::density_loads(merged, f.tech, s));
      EXPECT_EQ(routing.pin_demand(s),
                pnr::pin_demand_bases(f.nl, f.fp, ro, s));
    }
  };

  // Upsize in place, every incident net dirty: accepted.
  {
    const auto [id, up] = edit.upsizable(0);
    ASSERT_NE(id, netlist::kNoInst);
    f.nl.resize_instance(id, up);
    std::vector<NetId> nets;
    for (const NetId n : f.nl.pin_nets(id)) {
      if (n != netlist::kNoNet) nets.push_back(n);
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    trial(nets, {id}, true, [] {});
  }
  // Upsize and move two gcells, only the output net dirty (the input nets
  // must be re-routed because their terminals moved): reverted, then the
  // same edit accepted.
  for (const bool accept : {false, true}) {
    const auto [id, up] = edit.upsizable(1);
    ASSERT_NE(id, netlist::kNoInst);
    const stdcell::CellType* old_type = f.nl.instance(id).type;
    const geom::Point old_pos = f.nl.instance(id).pos;
    f.nl.resize_instance(id, up);
    f.nl.instance(id).pos.x += 2 * f.routes.gcell_w;
    trial({edit.output_net(id)}, {id}, accept, [&] {
      f.nl.instance(id).pos = old_pos;
      f.nl.resize_instance(id, old_type);
    });
  }
  // Pin flips: one reverted, two accepted.
  for (int k = 0; k < 3; ++k) {
    const auto [net, pin] = edit.flippable(k);
    ASSERT_NE(net, netlist::kNoNet);
    const stdcell::PinSide old_side = f.nl.pin_side(pin);
    edit.flip(pin);
    trial({net}, {pin.inst}, k != 0,
          [&, pin = pin] { f.nl.set_pin_side(pin, old_side); });
  }
  // Repeaters: one reverted, one accepted.
  for (int k = 0; k < 2; ++k) {
    const auto [net, unused] = edit.flippable(3 + k);
    ASSERT_NE(net, netlist::kNoNet);
    const std::vector<netlist::PinRef> orig = f.nl.net(net).sinks;
    NetId leaf = netlist::kNoNet;
    const InstId buf = edit.insert_buffer(net, leaf);
    trial({net, leaf}, {buf}, k == 1,
          [&, net = net] { edit.remove_buffer(net, buf, orig); });
  }
  EXPECT_EQ(accepted, 5);
  EXPECT_EQ(reverted, 3);
}

TEST(IncrementalLegalizerTest, ReleaseClaimOccupyRoundTrip) {
  Fixture f;
  pnr::IncrementalLegalizer leg(f.nl, f.fp, f.pp);

  // Pick a placed movable cell; free its slot, then ask for the nearest
  // legal slot at the same spot — the just-freed span must come back.
  InstId victim = netlist::kNoInst;
  for (InstId i = 0; i < f.nl.num_instances(); ++i) {
    const netlist::Instance& inst = f.nl.instance(i);
    if (!inst.fixed && !inst.type->physical_only()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, netlist::kNoInst);
  const netlist::Instance& inst = f.nl.instance(victim);
  const geom::Point home = inst.pos;
  const geom::Nm w = inst.type->width();

  leg.release(home, w);
  const auto back = leg.claim(w, home);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->x, home.x);
  EXPECT_EQ(back->y, home.y);

  // Occupied again now: the next claim at the same spot must land
  // somewhere else (or fail), never on the taken span.
  const auto other = leg.claim(w, home);
  if (other.has_value()) {
    EXPECT_FALSE(other->x == home.x && other->y == home.y);
    // Exact revert: release what we claimed, re-occupying leaves the model
    // consistent for a final claim round-trip.
    leg.release(*other, w);
    leg.occupy(*other, w);
  }
}

TEST(EcoTest, ImprovesTimingWithinPowerBudget) {
  Fixture f;
  EcoOptions eo;
  eo.passes = 2;
  EcoReport rep =
      run_eco(f.nl, f.fp, f.pp, f.routes, f.rc, f.cts.sink_latency_ps, eo);

  EXPECT_EQ(rep.passes_run, 2);
  EXPECT_EQ(rep.attempted, rep.accepted + rep.reverted);
  EXPECT_EQ(rep.accepted,
            rep.upsized + rep.downsized + rep.buffers + rep.pin_flips);
  // The accept rule forbids WNS regressions, so post <= pre always holds.
  EXPECT_LE(rep.post_wns_ps, rep.pre_wns_ps);
  EXPECT_GE(rep.post_freq_ghz, rep.pre_freq_ghz);
  // Every trial runs exactly one incremental update (+1 on revert).
  EXPECT_GE(rep.sta_updates, rep.attempted);
  EXPECT_GT(rep.full_sta_runs, 0);

  // The updated design must still be structurally sound and analyzable.
  EXPECT_TRUE(f.nl.validate().empty());
  sta::Sta check(&f.nl, &f.rc);
  const sta::TimingReport t = check.analyze_timing(&f.cts.sink_latency_ps);
  EXPECT_GT(t.achieved_freq_ghz, 0.0);
}

TEST(EcoTest, PostTimingIsAFreshAnalysisOfTheResult) {
  // The post-ECO numbers come from the loop's incrementally updated timing,
  // not from a closing full analysis: they must equal a fresh timer's on
  // the returned netlist and parasitics, bit for bit.
  Fixture f;
  EcoOptions eo;
  eo.passes = 2;
  const EcoReport rep =
      run_eco(f.nl, f.fp, f.pp, f.routes, f.rc, f.cts.sink_latency_ps, eo);
  ASSERT_GT(rep.accepted, 0);
  ASSERT_GT(rep.reverted, 0);
  EXPECT_EQ(rep.full_sta_runs, 1);
  sta::Sta fresh(&f.nl, &f.rc, eo.sta);
  const sta::TimingReport t = fresh.analyze_timing(&f.cts.sink_latency_ps);
  EXPECT_EQ(rep.post_wns_ps, t.critical_path_ps);
  EXPECT_EQ(rep.post_freq_ghz, t.achieved_freq_ghz);
}

TEST(EcoTest, DeterministicAcrossThreadCounts) {
  Fixture a, b;
  EcoOptions e1, e4;
  e1.passes = 2;
  e1.threads = 1;
  e4.passes = 2;
  e4.threads = 4;
  const EcoReport r1 =
      run_eco(a.nl, a.fp, a.pp, a.routes, a.rc, a.cts.sink_latency_ps, e1);
  const EcoReport r4 =
      run_eco(b.nl, b.fp, b.pp, b.routes, b.rc, b.cts.sink_latency_ps, e4);

  EXPECT_EQ(r1.attempted, r4.attempted);
  EXPECT_EQ(r1.accepted, r4.accepted);
  EXPECT_EQ(r1.upsized, r4.upsized);
  EXPECT_EQ(r1.downsized, r4.downsized);
  EXPECT_EQ(r1.buffers, r4.buffers);
  EXPECT_EQ(r1.pin_flips, r4.pin_flips);
  EXPECT_EQ(r1.post_wns_ps, r4.post_wns_ps);  // bitwise
  EXPECT_EQ(r1.est_power_delta_uw, r4.est_power_delta_uw);

  // The optimized designs themselves must match, not just the reports.
  ASSERT_EQ(a.nl.num_instances(), b.nl.num_instances());
  for (InstId i = 0; i < a.nl.num_instances(); ++i) {
    EXPECT_EQ(a.nl.instance(i).type->name(), b.nl.instance(i).type->name());
    EXPECT_EQ(a.nl.instance(i).pos.x, b.nl.instance(i).pos.x);
    EXPECT_EQ(a.nl.instance(i).pos.y, b.nl.instance(i).pos.y);
  }
  EXPECT_EQ(a.routes.wirelength_front_um, b.routes.wirelength_front_um);
  EXPECT_EQ(a.routes.wirelength_back_um, b.routes.wirelength_back_um);
  EXPECT_EQ(a.routes.drv_estimate, b.routes.drv_estimate);
  ASSERT_EQ(a.rc.num_trees(), b.rc.num_trees());
  for (std::size_t n = 0; n < a.rc.num_trees(); ++n) {
    const netlist::NetId id = static_cast<netlist::NetId>(n);
    EXPECT_EQ(a.rc.tree(id).total_cap_ff, b.rc.tree(id).total_cap_ff) << n;
  }
}

TEST(EcoTest, AllRevertedTrialsRestoreStateBitExactly) {
  Fixture f;
  const Fixture pristine;  // identical construction = identical state

  EcoOptions eo;
  eo.passes = 2;
  eo.min_gain_ps = 1e9;          // no speed trial can ever be accepted
  eo.downsize_margin_ps = 1e9;   // and no downsize candidates exist
  const EcoReport rep =
      run_eco(f.nl, f.fp, f.pp, f.routes, f.rc, f.cts.sink_latency_ps, eo);

  EXPECT_EQ(rep.accepted, 0);
  EXPECT_GT(rep.attempted, 0);
  EXPECT_EQ(rep.reverted, rep.attempted);
  EXPECT_EQ(rep.post_wns_ps, rep.pre_wns_ps);  // bitwise

  // Every trial reverted, so the design must be byte-for-byte the
  // pristine one: netlist shape, placement, routes, and parasitics.
  ASSERT_EQ(f.nl.num_instances(), pristine.nl.num_instances());
  ASSERT_EQ(f.nl.num_nets(), pristine.nl.num_nets());
  for (InstId i = 0; i < f.nl.num_instances(); ++i) {
    EXPECT_EQ(f.nl.instance(i).type->name(), pristine.nl.instance(i).type->name())
        << i;
    EXPECT_EQ(f.nl.instance(i).pos.x, pristine.nl.instance(i).pos.x) << i;
    EXPECT_EQ(f.nl.instance(i).pos.y, pristine.nl.instance(i).pos.y) << i;
  }
  for (NetId n = 0; n < f.nl.num_nets(); ++n) {
    EXPECT_EQ(f.nl.net(n).sinks, pristine.nl.net(n).sinks) << n;
  }
  // Every route (edges, terminals, layers) and every RC node field and
  // Elmore delay: a partial undo cannot hide behind unchanged totals.
  expect_same_routes(f.routes, pristine.routes);
  extract::expect_same_rc(f.rc, pristine.rc);
}

TEST(EcoTest, ZeroBudgetDoesNothing) {
  Fixture f;
  const double wl_front = f.routes.wirelength_front_um;
  const int insts = f.nl.num_instances();
  EcoOptions eo;
  eo.passes = 1;
  eo.max_transforms = 0;  // budget exhausted before the first trial
  const EcoReport rep =
      run_eco(f.nl, f.fp, f.pp, f.routes, f.rc, f.cts.sink_latency_ps, eo);
  EXPECT_EQ(rep.attempted, 0);
  EXPECT_EQ(rep.accepted, 0);
  EXPECT_EQ(f.nl.num_instances(), insts);
  EXPECT_EQ(f.routes.wirelength_front_um, wl_front);
  EXPECT_EQ(rep.post_wns_ps, rep.pre_wns_ps);
}

}  // namespace
}  // namespace ffet::opt

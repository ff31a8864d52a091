// Tests for incremental STA (Sta::update_timing): after arbitrary dirtied
// pin/net sets — with and without real netlist mutations — the incremental
// re-propagation must be *bit-identical* to a fresh full analyze_timing on
// the same netlist state, while recomputing only the affected cone.  This
// binary also runs under TSan in CI at threads = 4.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "sta/sta.h"

namespace ffet::sta {
namespace {

using netlist::Builder;
using netlist::Bus;
using netlist::InstId;
using netlist::NetId;

class StaIncrementalTest : public ::testing::Test {
 protected:
  StaIncrementalTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
  }

  /// A register-bounded arithmetic block with reconvergence: wide enough
  /// that dirty cones are a strict subset of the design.
  netlist::Netlist make_design(int bits) {
    Builder b("incr", &lib_);
    const NetId clk = b.input("clk");
    b.netlist().mark_clock_net(clk);
    const Bus a = b.input_bus("a", bits);
    const Bus c = b.input_bus("b", bits);
    const Bus aq = b.dff_bus(a, clk);
    const Bus bq = b.dff_bus(c, clk);
    const auto [sum, carry] = b.add(aq, bq, b.zero());
    const Bus sq = b.dff_bus(sum, clk);
    NetId parity = sq[0];
    for (int i = 1; i < bits; ++i) {
      parity = b.xor2(parity, sq[static_cast<std::size_t>(i)]);
    }
    b.output("parity", parity);
    b.output("carry", b.dff(carry, clk));
    return b.take();
  }

  /// Bitwise equality of everything an analysis exposes: the report, the
  /// per-endpoint path delays, and the worst-path ordering.
  static void expect_bit_identical(const TimingReport& got,
                                   const TimingReport& want, Sta& got_sta,
                                   Sta& want_sta) {
    EXPECT_EQ(got.critical_path_ps, want.critical_path_ps);
    EXPECT_EQ(got.achieved_freq_ghz, want.achieved_freq_ghz);
    EXPECT_EQ(got.max_slew_ps, want.max_slew_ps);
    EXPECT_EQ(got.endpoints, want.endpoints);
    EXPECT_EQ(got.critical_path, want.critical_path);
    const auto gp = got_sta.worst_paths(got.endpoints);
    const auto wp = want_sta.worst_paths(want.endpoints);
    ASSERT_EQ(gp.size(), wp.size());
    for (std::size_t i = 0; i < gp.size(); ++i) {
      EXPECT_EQ(gp[i].endpoint, wp[i].endpoint) << "rank " << i;
      EXPECT_EQ(gp[i].is_port, wp[i].is_port) << "rank " << i;
      EXPECT_EQ(gp[i].path_ps, wp[i].path_ps) << "rank " << i;
    }
  }

  /// One buffer splice: `moved` sinks of `net` moved onto `leaf` behind
  /// `buf`, with the net's sink order before the edit.
  struct Splice {
    NetId net = netlist::kNoNet;
    NetId leaf = netlist::kNoNet;
    InstId buf = netlist::kNoInst;
    std::vector<netlist::PinRef> moved;
    std::vector<netlist::PinRef> orig_sinks;
  };

  static const std::string& pin_name(const netlist::Netlist& nl,
                                     const netlist::PinRef& p) {
    return nl.instance(p.inst)
        .type->pins()[static_cast<std::size_t>(p.pin)]
        .name;
  }

  /// Splice a BUFD2 in front of `moved` (sinks of `net`), as the ECO's
  /// repeater transform does; returns the dirty set to time it with.
  DirtySet splice(netlist::Netlist& nl, Splice& sp) {
    sp.orig_sinks = nl.net(sp.net).sinks;
    sp.leaf = nl.add_net("splice_leaf_" + std::to_string(nl.num_nets()));
    sp.buf = nl.add_instance("splice_buf_" + std::to_string(nl.num_instances()),
                             lib_.find("BUFD2"));
    nl.connect(sp.buf, "Z", sp.leaf);
    for (const netlist::PinRef& s : sp.moved) {
      nl.reconnect_sink(s.inst, pin_name(nl, s), sp.leaf);
    }
    nl.connect(sp.buf, "I", sp.net);
    DirtySet d;
    d.nets = {sp.net, sp.leaf};
    d.insts = {sp.buf};
    d.structure_changed = true;
    return d;
  }

  /// Undo the latest splice exactly, as an ECO revert does: the buffer
  /// and its leaf are popped and the net's sink order is restored.
  static DirtySet unsplice(netlist::Netlist& nl, const Splice& sp) {
    for (const netlist::PinRef& s : sp.moved) {
      nl.reconnect_sink(s.inst, pin_name(nl, s), sp.net);
    }
    nl.disconnect_pin(sp.buf, "I");
    nl.disconnect_pin(sp.buf, "Z");
    nl.pop_instance();
    nl.pop_net();
    for (const netlist::PinRef& s : sp.orig_sinks) {
      nl.disconnect_pin(s.inst, pin_name(nl, s));
    }
    for (const netlist::PinRef& s : sp.orig_sinks) {
      nl.connect(s.inst, pin_name(nl, s), sp.net);
    }
    DirtySet d;
    d.nets = {sp.net};
    d.structure_changed = true;
    return d;
  }

  static void expect_same_power(const PowerReport& got,
                                const PowerReport& want) {
    EXPECT_EQ(got.switching_uw, want.switching_uw);
    EXPECT_EQ(got.internal_uw, want.internal_uw);
    EXPECT_EQ(got.leakage_uw, want.leakage_uw);
    EXPECT_EQ(got.freq_ghz, want.freq_ghz);
  }

  tech::Technology tech_;
  stdcell::Library lib_;
};

TEST_F(StaIncrementalTest, RandomDirtySetsWithoutMutationAreNoOps) {
  netlist::Netlist nl = make_design(8);
  StaOptions so;
  so.threads = 4;  // exercised under TSan in CI
  Sta sta(&nl, nullptr, so);
  const TimingReport full = sta.analyze_timing();

  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    DirtySet dirty;
    const int k = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < k; ++i) {
      dirty.nets.push_back(static_cast<NetId>(rng() % nl.num_nets()));
      dirty.insts.push_back(static_cast<InstId>(rng() % nl.num_instances()));
    }
    const TimingReport upd = sta.update_timing(dirty);
    Sta fresh(&nl, nullptr, so);
    TimingReport ref = fresh.analyze_timing();
    expect_bit_identical(upd, ref, sta, fresh);
    EXPECT_EQ(upd.critical_path_ps, full.critical_path_ps);
    // Nothing actually changed: propagation must stop early, not sweep
    // the whole design.
    EXPECT_LT(sta.last_update_recomputed(), nl.num_instances());
  }
}

TEST_F(StaIncrementalTest, ResizeMutationsMatchFullAnalysis) {
  netlist::Netlist nl = make_design(8);
  StaOptions so;
  so.threads = 4;
  Sta sta(&nl, nullptr, so);
  sta.analyze_timing();

  std::mt19937 rng(11);
  int mutated = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto id = static_cast<InstId>(rng() % nl.num_instances());
    const netlist::Instance& inst = nl.instance(id);
    if (inst.type->sequential() || inst.type->physical_only()) continue;
    // Swap drive strength: D1 <-> D2 where the library has both.
    const std::string base(stdcell::to_string(inst.type->function()));
    const stdcell::CellType* other =
        lib_.find(base + (inst.type->structure().drive == 1 ? "D2" : "D1"));
    if (!other || other == inst.type) continue;
    nl.resize_instance(id, other);
    ++mutated;

    DirtySet dirty;
    dirty.insts.push_back(id);
    for (const NetId n : nl.pin_nets(id)) {
      if (n != netlist::kNoNet) dirty.nets.push_back(n);
    }
    const TimingReport upd = sta.update_timing(dirty);
    Sta fresh(&nl, nullptr, so);
    TimingReport ref = fresh.analyze_timing();
    expect_bit_identical(upd, ref, sta, fresh);
  }
  EXPECT_GT(mutated, 5);
}

TEST_F(StaIncrementalTest, StructuralBufferInsertMatchesFullAnalysis) {
  netlist::Netlist nl = make_design(6);
  Sta sta(&nl, nullptr);
  sta.analyze_timing();

  // Splice a buffer into the first multi-sink combinational net.
  const stdcell::CellType* buf = lib_.find("BUFD2");
  ASSERT_NE(buf, nullptr);
  NetId victim = netlist::kNoNet;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.is_clock || net.driver.inst == netlist::kNoInst) continue;
    if (net.sinks.size() >= 2) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, netlist::kNoNet);

  const NetId leaf = nl.add_net("eco_test_leaf");
  const InstId bid = nl.add_instance("eco_test_buf", buf);
  // Move every sink of the victim onto the new leaf, then drive the leaf
  // through the buffer.
  const std::vector<netlist::PinRef> sinks = nl.net(victim).sinks;
  for (const netlist::PinRef& s : sinks) {
    nl.reconnect_sink(s.inst, nl.instance(s.inst).type->pins()
                                  [static_cast<std::size_t>(s.pin)]
                                      .name,
                      leaf);
  }
  nl.connect(bid, "I", victim);
  nl.connect(bid, "Z", leaf);

  DirtySet dirty;
  dirty.nets = {victim, leaf};
  dirty.insts = {bid};
  dirty.structure_changed = true;
  const TimingReport upd = sta.update_timing(dirty);
  Sta fresh(&nl, nullptr);
  TimingReport ref = fresh.analyze_timing();
  expect_bit_identical(upd, ref, sta, fresh);

  // Revert as the ECO does: pop the buffer and its leaf, restore the
  // victim's sink order, and update on the same timer.
  Splice sp;
  sp.net = victim;
  sp.leaf = leaf;
  sp.buf = bid;
  sp.moved = sinks;
  sp.orig_sinks = sinks;
  const DirtySet undo = unsplice(nl, sp);
  ASSERT_TRUE(nl.validate().empty());
  const TimingReport reverted = sta.update_timing(undo);
  Sta fresh2(&nl, nullptr);
  const TimingReport ref2 = fresh2.analyze_timing();
  expect_bit_identical(reverted, ref2, sta, fresh2);
}

TEST_F(StaIncrementalTest, PowerAfterUpdatesMatchesFreshAnalysis) {
  // Random resizes, buffer splices and LIFO undos on one timer; after
  // every update its power must equal a fresh timer's, field for field.
  // Most calls repeat the frequency and toggles (the incremental path);
  // some switch either, which must fall back to a full pass.  The
  // characterized output transitions depend on the load only; adding an
  // input-slew term makes slews move through whole cones, so internal
  // power terms change away from the edited nets too.
  for (const auto& cell : lib_.cells()) {
    stdcell::TimingModel* model = cell->timing_model();
    if (!model) continue;
    for (stdcell::TimingArc& arc : model->arcs) {
      for (stdcell::NldmTable* t : {&arc.trans_rise, &arc.trans_fall}) {
        std::vector<double> v = t->values();
        for (std::size_t i = 0; i < t->slew_axis().size(); ++i) {
          for (std::size_t j = 0; j < t->load_axis().size(); ++j) {
            v[i * t->load_axis().size() + j] += 0.3 * t->slew_axis()[i];
          }
        }
        *t = stdcell::NldmTable(t->slew_axis(), t->load_axis(), v);
      }
    }
  }
  netlist::Netlist nl = make_design(8);
  StaOptions so;
  so.threads = 4;
  Sta sta(&nl, nullptr, so);
  sta.analyze_timing();
  sta.analyze_power(1.2);

  std::mt19937 rng(5);
  std::vector<Splice> stack;
  int resizes = 0, splices = 0, undos = 0;
  for (int step = 0; step < 60; ++step) {
    DirtySet dirty;
    const unsigned op = rng() % 3;
    if (op == 2 && !stack.empty()) {
      dirty = unsplice(nl, stack.back());
      stack.pop_back();
      ++undos;
    } else if (op == 1) {
      // A multi-sink data net; move a random non-empty subset of sinks.
      Splice sp;
      for (int tries = 0; tries < 50 && sp.net == netlist::kNoNet; ++tries) {
        const auto n = static_cast<NetId>(rng() % nl.num_nets());
        const netlist::Net& net = nl.net(n);
        if (net.is_clock || net.driver.inst == netlist::kNoInst) continue;
        if (net.sinks.size() < 2) continue;
        sp.net = n;
      }
      if (sp.net == netlist::kNoNet) continue;
      for (const netlist::PinRef& s : nl.net(sp.net).sinks) {
        if (rng() % 2) sp.moved.push_back(s);
      }
      if (sp.moved.empty()) sp.moved.push_back(nl.net(sp.net).sinks.back());
      dirty = splice(nl, sp);
      stack.push_back(sp);
      ++splices;
    } else {
      const auto id = static_cast<InstId>(rng() % nl.num_instances());
      const netlist::Instance& inst = nl.instance(id);
      if (inst.type->physical_only()) continue;
      const std::string base(stdcell::to_string(inst.type->function()));
      const stdcell::CellType* other = lib_.find(
          base + (inst.type->structure().drive == 1 ? "D2" : "D1"));
      if (!other || other == inst.type) continue;
      nl.resize_instance(id, other);
      dirty.insts.push_back(id);
      ++resizes;
    }
    ASSERT_TRUE(nl.validate().empty()) << "step " << step;
    const TimingReport upd = sta.update_timing(dirty);
    Sta fresh(&nl, nullptr, so);
    const TimingReport ref = fresh.analyze_timing();
    expect_bit_identical(upd, ref, sta, fresh);

    const double freq = step % 7 == 3 ? 0.9 : 1.2;
    std::vector<double> toggles;
    if (step % 5 == 4) {
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        toggles.push_back(0.05 + 0.01 * static_cast<double>(n % 17));
      }
    }
    const std::vector<double>* tr = toggles.empty() ? nullptr : &toggles;
    SCOPED_TRACE("step " + std::to_string(step));
    expect_same_power(sta.analyze_power(freq, tr),
                      fresh.analyze_power(freq, tr));
  }
  EXPECT_GT(resizes, 5);
  EXPECT_GT(splices, 5);
  EXPECT_GT(undos, 3);
}

TEST_F(StaIncrementalTest, WorstPathsOrderingAndEndpointQueries) {
  netlist::Netlist nl = make_design(8);
  Sta sta(&nl, nullptr);
  const TimingReport rep = sta.analyze_timing();

  const auto paths = sta.worst_paths(rep.endpoints);
  ASSERT_EQ(static_cast<int>(paths.size()), rep.endpoints);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i - 1].path_ps, paths[i].path_ps) << "rank " << i;
  }
  // The head of the list carries the critical path's delay, and the
  // per-endpoint query agrees with the stored ranking.
  EXPECT_EQ(paths[0].path_ps + 0.0, paths[0].path_ps);
  for (const PathEnd& e : paths) {
    EXPECT_EQ(sta.endpoint_path_ps(e.endpoint, e.is_port), e.path_ps);
    const auto insts = sta.path_instances(e);
    ASSERT_FALSE(insts.empty());
    EXPECT_EQ(insts.back(), e.endpoint);
  }
  // worst_paths(k) is a prefix of worst_paths(all).
  const auto top3 = sta.worst_paths(3);
  ASSERT_EQ(top3.size(), 3u);
  for (std::size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i].endpoint, paths[i].endpoint);
    EXPECT_EQ(top3[i].path_ps, paths[i].path_ps);
  }
}

TEST_F(StaIncrementalTest, ThreadCountDoesNotChangeResults) {
  netlist::Netlist nl = make_design(8);
  StaOptions s1, s4;
  s1.threads = 1;
  s4.threads = 4;
  Sta a(&nl, nullptr, s1), b(&nl, nullptr, s4);
  const TimingReport r1 = a.analyze_timing();
  const TimingReport r4 = b.analyze_timing();
  EXPECT_EQ(r1.critical_path_ps, r4.critical_path_ps);
  EXPECT_EQ(r1.max_slew_ps, r4.max_slew_ps);
  EXPECT_EQ(r1.critical_path, r4.critical_path);

  DirtySet dirty;
  dirty.nets = {0, 1, 2};
  const TimingReport u1 = a.update_timing(dirty);
  const TimingReport u4 = b.update_timing(dirty);
  EXPECT_EQ(u1.critical_path_ps, u4.critical_path_ps);
  EXPECT_EQ(u1.critical_path, u4.critical_path);
}

}  // namespace
}  // namespace ffet::sta

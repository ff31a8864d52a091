// Tests for virtual synthesis: fanout buffering and target-frequency gate
// sizing.

#include <gtest/gtest.h>

#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "netlist/sim.h"
#include "riscv/encode.h"
#include "riscv/harness.h"
#include "riscv/rv32.h"
#include "sta/sta.h"
#include "synth/synth.h"

namespace ffet::synth {
namespace {

using netlist::Builder;
using netlist::NetId;

class SynthTest : public ::testing::Test {
 protected:
  SynthTest() : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
  }
  tech::Technology tech_;
  stdcell::Library lib_;
};

TEST_F(SynthTest, BuffersHighFanoutNets) {
  Builder b("fo", &lib_);
  const NetId a = b.input("a");
  const NetId x = b.inv(a);
  std::vector<NetId> leaves;
  for (int i = 0; i < 64; ++i) leaves.push_back(b.inv(x));
  b.output("z", b.or_tree(leaves));
  netlist::Netlist nl = b.take();

  SynthOptions so;
  so.target_freq_ghz = 0.1;  // trivially met: only buffering applies
  so.max_fanout = 12;
  const SynthReport rep = size_for_frequency(nl, so);
  EXPECT_GT(rep.buffers_added, 0);
  EXPECT_TRUE(rep.met);
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.is_clock) continue;
    EXPECT_LE(net.sinks.size(), 12u) << nl.net_name(n);
  }
  EXPECT_TRUE(nl.validate().empty());
}

TEST_F(SynthTest, BufferingPreservesFunction) {
  Builder b("fn", &lib_);
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  const NetId x = b.and2(a, c);
  std::vector<NetId> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(b.buf(x));
  b.output("z", b.and_tree(xs));
  netlist::Netlist nl = b.take();
  SynthOptions so;
  so.max_fanout = 8;
  size_for_frequency(nl, so);

  netlist::Simulator sim(&nl);
  for (int mask = 0; mask < 4; ++mask) {
    sim.set_input("a", mask & 1);
    sim.set_input("b", mask & 2);
    sim.evaluate();
    EXPECT_EQ(sim.output("z"), mask == 3);
  }
}

TEST_F(SynthTest, TighterTargetMeansMoreAreaAndHigherFreq) {
  riscv::Rv32Options opt;
  opt.num_registers = 8;

  netlist::Netlist slow = riscv::build_rv32_core(lib_, opt);
  SynthOptions so_slow;
  so_slow.target_freq_ghz = 0.3;
  const SynthReport rep_slow = size_for_frequency(slow, so_slow);

  netlist::Netlist fast = riscv::build_rv32_core(lib_, opt);
  SynthOptions so_fast;
  so_fast.target_freq_ghz = 3.0;
  const SynthReport rep_fast = size_for_frequency(fast, so_fast);

  EXPECT_GT(rep_fast.upsized, rep_slow.upsized);
  EXPECT_GT(fast.stats().total_cell_area_um2, slow.stats().total_cell_area_um2);
  EXPECT_GT(rep_fast.est_freq_ghz, rep_slow.est_freq_ghz * 1.05);
}

TEST_F(SynthTest, SizingPreservesRiscvFunction) {
  namespace e = riscv::enc;
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  SynthOptions so;
  so.target_freq_ghz = 2.0;
  size_for_frequency(nl, so);
  EXPECT_TRUE(nl.validate().empty());

  riscv::Rv32Harness h(&nl);
  h.load_program({
      e::addi(1, 0, 21),
      e::add(1, 1, 1),
      e::sw(1, 0, 0x100),
  });
  h.reset();
  h.step(3);
  EXPECT_EQ(h.read_mem(0x100), 42u);
}

TEST_F(SynthTest, ReportsHonestWhenTargetUnreachable) {
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  SynthOptions so;
  so.target_freq_ghz = 50.0;  // impossible
  const SynthReport rep = size_for_frequency(nl, so);
  EXPECT_FALSE(rep.met);
  EXPECT_GT(rep.est_freq_ghz, 0.0);
  EXPECT_LT(rep.est_freq_ghz, 50.0);
}

TEST_F(SynthTest, SizingIsIdempotentOnceMet) {
  Builder b("idem", &lib_);
  const NetId a = b.input("a");
  b.output("z", b.inv(b.inv(a)));
  netlist::Netlist nl = b.take();
  SynthOptions so;
  so.target_freq_ghz = 1.0;
  const SynthReport r1 = size_for_frequency(nl, so);
  EXPECT_TRUE(r1.met);
  const int n_before = nl.num_instances();
  const SynthReport r2 = size_for_frequency(nl, so);
  EXPECT_TRUE(r2.met);
  EXPECT_EQ(r2.upsized, 0);
  EXPECT_EQ(nl.num_instances(), n_before);
}

TEST_F(SynthTest, LongNetRepeatersSplitFarSinks) {
  Builder b("long", &lib_);
  const NetId a = b.input("a");
  const NetId x = b.inv(a);
  std::vector<NetId> sinks;
  for (int i = 0; i < 4; ++i) sinks.push_back(b.inv(x));
  b.output("z", b.or_tree(sinks));
  netlist::Netlist nl = b.take();
  // Hand placement: driver at origin, two sinks near, two sinks 30 um away.
  const auto driver = nl.net(x).driver.inst;
  nl.instance(driver).pos = {0, 0};
  int k = 0;
  for (const netlist::PinRef& s : nl.net(x).sinks) {
    nl.instance(s.inst).pos =
        (k++ < 2) ? geom::Point{1000, 0} : geom::Point{30000, 0};
  }
  // Downstream or-tree nets are also long under this hand placement, so
  // more than one repeater may appear; net x must get exactly one.
  const int inserted = buffer_long_nets(nl, 12.0);
  EXPECT_GE(inserted, 1);
  EXPECT_TRUE(nl.validate().empty());
  // The original net keeps the near sinks plus the repeater input.
  EXPECT_EQ(nl.net(x).sinks.size(), 3u);
  // No far sink remains more than the threshold from its (new) driver.
  for (int n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver.inst == netlist::kNoInst || net.is_clock) continue;
    const geom::Point d = nl.pin_position(net.driver);
    for (const netlist::PinRef& s : net.sinks) {
      EXPECT_LE(geom::manhattan(d, nl.pin_position(s)), 2 * 15000)
          << nl.net_name(n);
    }
  }
}

TEST_F(SynthTest, HoldFixInsertsBuffersOnlyWhenViolating) {
  Builder b("hold", &lib_);
  const NetId clk = b.input("clk");
  b.netlist().mark_clock_net(clk);
  const NetId q0 = b.dff(b.input("d"), clk);
  const NetId q1 = b.dff(q0, clk);
  b.output("q", q1);
  netlist::Netlist nl = b.take();
  const auto launch = nl.net(q0).driver.inst;
  const auto capture = nl.net(q1).driver.inst;

  // No skew: nothing to fix.
  std::unordered_map<netlist::InstId, double> flat{{launch, 10.0},
                                                   {capture, 10.0}};
  netlist::Netlist a = nl;
  EXPECT_EQ(fix_hold(a, flat), 0);

  // Heavy capture skew: buffers inserted and the violation resolved.
  std::unordered_map<netlist::InstId, double> skewed{{launch, 0.0},
                                                     {capture, 60.0}};
  netlist::Netlist c = nl;
  const int added = fix_hold(c, skewed);
  EXPECT_GT(added, 0);
  EXPECT_TRUE(c.validate().empty());
  sta::StaOptions so;
  so.derate_early = 0.85;
  so.pi_reference_latency_ps = 30.0;
  sta::Sta sta(&c, nullptr, so);
  sta.analyze_timing(&skewed);
  EXPECT_EQ(sta.analyze_hold(&skewed).violations, 0);
}

TEST_F(SynthTest, HoldReportNeedsNoTimingPass) {
  // fix_hold runs analyze_hold alone; its report must be bit for bit the
  // one that follows a full analyze_timing.  The reduced RV32 core with a
  // clock latency that grows with the flop's id makes some flops violate.
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  const netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  std::unordered_map<netlist::InstId, double> latency;
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    if (nl.instance(i).type->sequential()) latency[i] = 3.0 * (i % 61);
  }
  sta::StaOptions so;
  so.derate_early = 0.85;
  sta::Sta timed(&nl, nullptr, so);
  timed.analyze_timing(&latency);
  const sta::HoldReport want = timed.analyze_hold(&latency);
  sta::Sta alone(&nl, nullptr, so);
  const sta::HoldReport got = alone.analyze_hold(&latency);
  EXPECT_GT(want.violations, 0);
  EXPECT_EQ(got.worst_slack_ps, want.worst_slack_ps);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.worst_endpoint, want.worst_endpoint);
  EXPECT_EQ(got.violating_endpoints, want.violating_endpoints);
}

}  // namespace
}  // namespace ffet::synth

// Tests for virtual synthesis: fanout buffering and target-frequency gate
// sizing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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

/// Sizing with a fresh wireload timer per pass and one more after the
/// loop: the reference the shared-timer size_for_frequency must match.
/// The fanout buffering comes from size_for_frequency with no passes.
SynthReport size_with_fresh_timers(netlist::Netlist& nl,
                                   const SynthOptions& options) {
  SynthOptions buffer_only = options;
  buffer_only.max_passes = 0;
  SynthReport rep = size_for_frequency(nl, buffer_only);
  rep.passes = 0;
  rep.met = false;
  const double target_ps = 1000.0 / options.target_freq_ghz;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    rep.passes = pass + 1;
    sta::Sta sta(&nl, nullptr);
    const sta::TimingReport t = sta.analyze_timing();
    rep.est_freq_ghz = t.achieved_freq_ghz;
    if (t.critical_path_ps <= target_ps) {
      rep.met = true;
      return rep;
    }
    int changed = 0;
    for (const netlist::InstId id : sta.critical_instances()) {
      const netlist::Instance& inst = nl.instance(id);
      if (inst.type->physical_only() || inst.fixed) continue;
      const int d = inst.type->structure().drive;
      const std::string base(stdcell::to_string(inst.type->function()));
      const stdcell::CellType* up = nullptr;
      for (int nd : {d * 2, d * 4}) {
        up = nl.library().find(base + "D" + std::to_string(nd));
        if (up) break;
      }
      if (!up) continue;
      nl.resize_instance(id, up);
      ++changed;
    }
    rep.upsized += changed;
    if (changed == 0) break;
  }
  sta::Sta sta(&nl, nullptr);
  rep.est_freq_ghz = sta.analyze_timing().achieved_freq_ghz;
  rep.met = 1000.0 / rep.est_freq_ghz <= target_ps;
  return rep;
}

/// Hold fixing with a fresh timer per pass: the reference the shared-timer
/// fix_hold must match.  Returns the buffers inserted; `passes` counts the
/// passes that inserted any.
int fix_hold_with_fresh_timers(
    netlist::Netlist& nl,
    const std::unordered_map<netlist::InstId, double>& latency, int& passes,
    double margin_ps = 4.0) {
  const stdcell::CellType& buf = nl.library().at("BUFD1");
  const stdcell::TimingArc& arc = buf.timing_model()->arcs.front();
  const double buf_delay =
      0.9 * std::min(arc.delay_rise.lookup(10.0, 1.5),
                     arc.delay_fall.lookup(10.0, 1.5));
  sta::StaOptions so;
  so.derate_early = 0.85;
  double mean_lat = 0.0;
  for (const auto& [id, lat] : latency) mean_lat += lat;
  if (!latency.empty()) mean_lat /= static_cast<double>(latency.size());
  so.pi_reference_latency_ps = mean_lat;
  int inserted = 0;
  int serial = 0;
  passes = 0;
  for (int pass = 0; pass < 4; ++pass) {
    sta::Sta sta(&nl, nullptr, so);
    const sta::HoldReport rep = sta.analyze_hold(&latency);
    if (rep.violating_endpoints.empty()) break;
    ++passes;
    for (const auto& [ff, slack] : rep.violating_endpoints) {
      const int need = std::max(
          1, static_cast<int>((margin_ps - slack) / buf_delay + 0.999));
      const int d_pin = nl.instance(ff).type->pin_index("D");
      netlist::NetId src = nl.pin_net(ff, d_pin);
      for (int k = 0; k < need; ++k) {
        const netlist::NetId mid =
            nl.add_net("hold_net_" + std::to_string(serial));
        const netlist::InstId b =
            nl.add_instance("hold_buf_" + std::to_string(serial), &buf);
        ++serial;
        nl.instance(b).pos = nl.instance(ff).pos;
        nl.connect(b, "I", src);
        nl.connect(b, "Z", mid);
        src = mid;
        ++inserted;
      }
      nl.reconnect_sink(ff, "D", src);
    }
  }
  return inserted;
}

/// FNV-1a over the instances' cell names in id order.
std::uint64_t cell_type_digest(const netlist::Netlist& nl) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    for (const char c : nl.instance(i).type->name()) {
      mix(static_cast<unsigned char>(c));
    }
    mix('\n');
  }
  return h;
}

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

TEST_F(SynthTest, OneTimerSizingMatchesPerPassRebuild) {
  // RV32 at 1.5 GHz misses its target, so every one of the 16 passes runs
  // and re-times the previous pass's upsized cells on the shared timer.
  // The digests are the cell types the per-pass-rebuild loop produced.
  const std::pair<int, std::uint64_t> cores[] = {
      {8, 0x2a956f419273125bull}, {32, 0xeaca43bb3c8087a9ull}};
  for (const auto& [registers, digest] : cores) {
    riscv::Rv32Options opt;
    opt.num_registers = registers;
    SynthOptions so;
    so.target_freq_ghz = 1.5;
    netlist::Netlist got_nl = riscv::build_rv32_core(lib_, opt);
    netlist::Netlist want_nl = riscv::build_rv32_core(lib_, opt);
    const SynthReport got = size_for_frequency(got_nl, so);
    const SynthReport want = size_with_fresh_timers(want_nl, so);
    EXPECT_EQ(got.passes, so.max_passes) << registers;
    EXPECT_EQ(got.est_freq_ghz, want.est_freq_ghz) << registers;
    EXPECT_EQ(got.met, want.met) << registers;
    EXPECT_EQ(got.upsized, want.upsized) << registers;
    EXPECT_EQ(got.buffers_added, want.buffers_added) << registers;
    EXPECT_EQ(got.passes, want.passes) << registers;
    ASSERT_EQ(got_nl.num_instances(), want_nl.num_instances());
    for (netlist::InstId i = 0; i < got_nl.num_instances(); ++i) {
      ASSERT_EQ(got_nl.instance(i).type, want_nl.instance(i).type)
          << registers << " regs, " << got_nl.instance_name(i);
    }
    EXPECT_EQ(cell_type_digest(got_nl), digest) << registers;
  }
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

TEST_F(SynthTest, OneTimerHoldFixMatchesFreshTimerReplay) {
  // A negative margin makes each pass add one buffer per violating flop,
  // so flops that violate by more than one buffer's delay need later
  // passes, which analyze hold on the shared timer after update_caches.
  // Every instance, pin binding and sink order must equal the
  // per-pass-rebuild replay.
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  const netlist::Netlist core = riscv::build_rv32_core(lib_, opt);
  std::unordered_map<netlist::InstId, double> latency;
  for (netlist::InstId i = 0; i < core.num_instances(); ++i) {
    if (core.instance(i).type->sequential()) latency[i] = 9.0 * (i % 23);
  }
  netlist::Netlist got = core;
  netlist::Netlist want = core;
  int passes = 0;
  const double margin_ps = -1000.0;
  const int got_added = fix_hold(got, latency, margin_ps);
  const int want_added =
      fix_hold_with_fresh_timers(want, latency, passes, margin_ps);
  EXPECT_GE(passes, 2);
  EXPECT_GT(got_added, 0);
  EXPECT_EQ(got_added, want_added);
  ASSERT_EQ(got.num_instances(), want.num_instances());
  ASSERT_EQ(got.num_nets(), want.num_nets());
  for (netlist::InstId i = 0; i < got.num_instances(); ++i) {
    ASSERT_EQ(got.instance_name(i), want.instance_name(i));
    ASSERT_EQ(got.instance(i).type, want.instance(i).type);
    const auto gp = got.pin_nets(i);
    const auto wp = want.pin_nets(i);
    ASSERT_TRUE(std::equal(gp.begin(), gp.end(), wp.begin(), wp.end()))
        << got.instance_name(i);
  }
  for (netlist::NetId n = 0; n < got.num_nets(); ++n) {
    ASSERT_EQ(got.net(n).sinks, want.net(n).sinks) << got.net_name(n);
  }
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

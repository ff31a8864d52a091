// Unit tests for the netlist database, builder DSL, and gate-level
// simulator.

#include <random>

#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "netlist/netlist.h"
#include "netlist/sim.h"
#include "tech/tech.h"

namespace ffet::netlist {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  tech::Technology tech_ = tech::make_ffet_3p5t();
  stdcell::Library lib_ = stdcell::build_library(tech_);
};

TEST_F(NetlistTest, ConnectTracksDriversAndSinks) {
  Netlist nl("t", &lib_);
  const NetId a = nl.add_net("a");
  const NetId z = nl.add_net("z");
  const InstId inv = nl.add_instance("u1", "INVD1");
  nl.connect(inv, "I", a);
  nl.connect(inv, "ZN", z);
  EXPECT_EQ(nl.net(z).driver.inst, inv);
  ASSERT_EQ(nl.net(a).sinks.size(), 1u);
  EXPECT_EQ(nl.net(a).sinks[0].inst, inv);
}

TEST_F(NetlistTest, RejectsDoubleDriverAndDoubleConnect) {
  Netlist nl("t", &lib_);
  const NetId z = nl.add_net("z");
  const InstId u1 = nl.add_instance("u1", "INVD1");
  const InstId u2 = nl.add_instance("u2", "INVD1");
  nl.connect(u1, "ZN", z);
  EXPECT_THROW(nl.connect(u2, "ZN", z), std::invalid_argument);
  EXPECT_THROW(nl.connect(u1, "ZN", z), std::invalid_argument);
  EXPECT_THROW(nl.connect(u1, "NOPE", z), std::invalid_argument);
}

TEST_F(NetlistTest, RejectsDuplicateNames) {
  Netlist nl("t", &lib_);
  nl.add_net("n");
  EXPECT_THROW(nl.add_net("n"), std::invalid_argument);
  nl.add_instance("u", "INVD1");
  EXPECT_THROW(nl.add_instance("u", "BUFD1"), std::invalid_argument);
}

TEST_F(NetlistTest, ReconnectSinkMovesPin) {
  Netlist nl("t", &lib_);
  const NetId a = nl.add_net("a");
  const NetId bn = nl.add_net("b");
  const InstId inv = nl.add_instance("u1", "INVD1");
  nl.connect(inv, "I", a);
  nl.reconnect_sink(inv, "I", bn);
  EXPECT_TRUE(nl.net(a).sinks.empty());
  ASSERT_EQ(nl.net(bn).sinks.size(), 1u);
  EXPECT_EQ(nl.pin_net(inv, 0), bn);
}

TEST_F(NetlistTest, BatchedSinkMovesMatchOneAtATime) {
  // Ten inverters alternating between nets a and b; the moves interleave
  // old nets, move pins onto a net that also loses pins, and move one pin
  // onto the net it is already on.
  Netlist nl("t", &lib_);
  const NetId a = nl.add_net("a");
  const NetId bn = nl.add_net("b");
  const NetId c = nl.add_net("c");
  const NetId d = nl.add_net("d");
  std::vector<InstId> u;
  for (int i = 0; i < 10; ++i) {
    u.push_back(
        nl.add_instance(std::string("u") + std::to_string(i), "INVD1"));
    nl.connect(u.back(), "I", i % 2 == 0 ? a : bn);
  }
  const std::vector<Netlist::SinkMove> moves = {
      {u[1], 0, c}, {u[4], 0, d}, {u[2], 0, c}, {u[7], 0, a},
      {u[6], 0, bn}, {u[5], 0, bn}, {u[8], 0, a}, {u[3], 0, d}};
  Netlist one = nl;
  for (const Netlist::SinkMove& m : moves) {
    one.reconnect_sink(m.inst, "I", m.net);
  }
  nl.reconnect_sinks(moves);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_EQ(nl.net(n).sinks, one.net(n).sinks) << nl.net_name(n);
  }
  for (const InstId i : u) EXPECT_EQ(nl.pin_net(i, 0), one.pin_net(i, 0));

  // A driver pin is refused before any move is applied.
  const Netlist before = nl;
  const std::vector<Netlist::SinkMove> bad = {{u[0], 0, c}, {u[5], 1, c}};
  EXPECT_THROW(nl.reconnect_sinks(bad), std::invalid_argument);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_EQ(nl.net(n).sinks, before.net(n).sinks) << nl.net_name(n);
  }
}

TEST_F(NetlistTest, ResizeKeepsConnectivity) {
  Netlist nl("t", &lib_);
  const NetId a = nl.add_net("a");
  const NetId z = nl.add_net("z");
  const InstId inv = nl.add_instance("u1", "INVD1");
  nl.connect(inv, "I", a);
  nl.connect(inv, "ZN", z);
  nl.resize_instance(inv, &lib_.at("INVD4"));
  EXPECT_EQ(nl.instance(inv).type->name(), "INVD4");
  EXPECT_EQ(nl.net(z).driver.inst, inv);
  EXPECT_THROW(nl.resize_instance(inv, &lib_.at("BUFD1")),
               std::invalid_argument);
}

TEST_F(NetlistTest, ValidateFindsOpensAndUndriven) {
  Netlist nl("t", &lib_);
  const InstId inv = nl.add_instance("u1", "INVD1");
  const NetId z = nl.add_net("z");
  nl.connect(inv, "ZN", z);
  auto problems = nl.validate();  // input I open
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("open pin"), std::string::npos);

  Netlist nl2("t2", &lib_);
  const NetId u = nl2.add_net("u");
  const InstId inv2 = nl2.add_instance("u1", "INVD1");
  nl2.connect(inv2, "I", u);
  const NetId z2 = nl2.add_net("z2");
  nl2.connect(inv2, "ZN", z2);
  auto p2 = nl2.validate();
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_NE(p2[0].find("undriven"), std::string::npos);
}

TEST_F(NetlistTest, StatsCountSequential) {
  Builder b("t", &lib_);
  const NetId clk = b.input("clk");
  const NetId d = b.input("d");
  const NetId q = b.dff(d, clk);
  b.output("q", b.inv(q));
  const Netlist nl = b.take();
  const NetlistStats s = nl.stats();
  EXPECT_EQ(s.num_instances, 2);
  EXPECT_EQ(s.num_sequential, 1);
  EXPECT_GT(s.total_cell_area_um2, 0.0);
}

TEST_F(NetlistTest, TopoOrderRespectsDependencies) {
  Builder b("t", &lib_);
  const NetId a = b.input("a");
  const NetId x = b.inv(a);
  const NetId y = b.inv(x);
  const NetId z = b.and2(x, y);
  b.output("z", z);
  const Netlist nl = b.take();
  const auto order = nl.topo_order();
  ASSERT_EQ(order.size(), 3u);
  std::vector<int> position(nl.num_instances(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  // Driver of z's inputs must precede the AND gate.
  const InstId and_inst = nl.net(z).driver.inst;
  const InstId x_inst = nl.net(x).driver.inst;
  const InstId y_inst = nl.net(y).driver.inst;
  EXPECT_LT(position[static_cast<std::size_t>(x_inst)],
            position[static_cast<std::size_t>(y_inst)]);
  EXPECT_LT(position[static_cast<std::size_t>(y_inst)],
            position[static_cast<std::size_t>(and_inst)]);
}

TEST_F(NetlistTest, TopoOrderDetectsCombinationalCycle) {
  Netlist nl("loop", &lib_);
  const NetId a = nl.add_net("a");
  const NetId bn = nl.add_net("b");
  const InstId u1 = nl.add_instance("u1", "INVD1");
  const InstId u2 = nl.add_instance("u2", "INVD1");
  nl.connect(u1, "I", a);
  nl.connect(u1, "ZN", bn);
  nl.connect(u2, "I", bn);
  nl.connect(u2, "ZN", a);
  EXPECT_THROW(nl.topo_order(), std::runtime_error);
}

TEST_F(NetlistTest, DffFeedbackIsNotACycle) {
  Builder b("t", &lib_);
  const NetId clk = b.input("clk");
  // Toggle flop: q = dff(!q).
  const NetId d = b.wire("d");
  const NetId q = b.dff(d, clk);
  b.drive(d, "INVD1", {q});
  b.output("q", q);
  const Netlist nl = b.take();
  EXPECT_NO_THROW(nl.topo_order());
}

TEST_F(NetlistTest, TopoOrderListsFlopsFirstOnALogicFirstNetlist) {
  // Built logic-first: the inverter (id 0) reads the Q of a flop with a
  // higher id.  The flop must come first, both in the order and in the
  // simulator walking it, which otherwise reads the previous Q.
  Netlist nl("logic_first", &lib_);
  const PortId d = nl.add_input("d");
  const PortId clk = nl.add_input("clk");
  const PortId z = nl.add_output("z");
  const NetId q = nl.add_net("q");
  const InstId inv = nl.add_instance("u_inv", "INVD1");
  const InstId ff = nl.add_instance("u_ff", "DFFD1");
  nl.connect(inv, "I", q);
  nl.connect(inv, "ZN", nl.port(z).net);
  nl.connect(ff, "D", nl.port(d).net);
  nl.connect(ff, "CP", nl.port(clk).net);
  nl.connect(ff, "Q", q);
  ASSERT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.topo_order(), (std::vector<InstId>{ff, inv}));

  Simulator sim(&nl);
  sim.set_input("d", true);
  sim.tick();  // captures d = 1
  EXPECT_TRUE(sim.net_value(q));
  EXPECT_FALSE(sim.output("z"));
  sim.set_input("d", false);
  sim.tick();  // captures d = 0
  EXPECT_FALSE(sim.net_value(q));
  EXPECT_TRUE(sim.output("z"));
}

// --- simulator ------------------------------------------------------------

TEST_F(NetlistTest, SimulatorCombinational) {
  Builder b("t", &lib_);
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  b.output("and", b.and2(a, c));
  b.output("xor", b.xor2(a, c));
  b.output("aoi", b.aoi21(a, c, b.zero()));
  const Netlist nl = b.take();
  Simulator sim(&nl);
  for (int mask = 0; mask < 4; ++mask) {
    sim.set_input("a", mask & 1);
    sim.set_input("b", mask & 2);
    sim.evaluate();
    EXPECT_EQ(sim.output("and"), bool(mask == 3));
    EXPECT_EQ(sim.output("xor"), bool(mask == 1 || mask == 2));
    EXPECT_EQ(sim.output("aoi"), !bool(mask == 3));
  }
}

TEST_F(NetlistTest, SimulatorToggleFlop) {
  Builder b("t", &lib_);
  const NetId clk = b.input("clk");
  const NetId d = b.wire("d");
  const NetId q = b.dff(d, clk);
  b.drive(d, "INVD1", {q});
  b.output("q", q);
  const Netlist nl = b.take();
  Simulator sim(&nl);
  sim.evaluate();
  bool prev = sim.output("q");
  for (int i = 0; i < 5; ++i) {
    sim.tick();
    EXPECT_NE(sim.output("q"), prev);
    prev = sim.output("q");
  }
}

TEST_F(NetlistTest, SimulatorDffrReset) {
  Builder b("t", &lib_);
  const NetId clk = b.input("clk");
  const NetId rn = b.input("rn");
  const NetId q = b.dffr(b.one(), clk, rn);
  b.output("q", q);
  const Netlist nl = b.take();
  Simulator sim(&nl);
  sim.set_input("rn", true);
  sim.tick();
  EXPECT_TRUE(sim.output("q"));
  sim.set_input("rn", false);
  sim.evaluate();
  EXPECT_FALSE(sim.output("q"));  // async clear
  sim.tick();
  EXPECT_FALSE(sim.output("q"));
}

TEST_F(NetlistTest, SimulatorBusHelpersAndAdder) {
  Builder b("t", &lib_);
  const Bus a = b.input_bus("a", 8);
  const Bus c = b.input_bus("b", 8);
  const auto [sum, cout] = b.add(a, c, b.zero());
  b.output_bus("s", sum);
  b.output("cout", cout);
  const Netlist nl = b.take();
  Simulator sim(&nl);
  for (unsigned x : {0u, 1u, 37u, 200u, 255u}) {
    for (unsigned y : {0u, 5u, 100u, 255u}) {
      sim.set_bus("a", 8, x);
      sim.set_bus("b", 8, y);
      sim.evaluate();
      EXPECT_EQ(sim.read_bus("s", 8), (x + y) & 0xff) << x << "+" << y;
      EXPECT_EQ(sim.output("cout"), (x + y) > 255) << x << "+" << y;
    }
  }
}

TEST_F(NetlistTest, SimulatorSubAndShift) {
  Builder b("t", &lib_);
  const Bus a = b.input_bus("a", 8);
  const Bus c = b.input_bus("b", 8);
  const auto [diff, nb] = b.sub(a, c);
  b.output_bus("d", diff);
  b.output("noborrow", nb);
  const Bus amt = b.input_bus("amt", 3);
  b.output_bus("sl", b.shift_left(a, amt));
  b.output_bus("srl", b.shift_right(a, amt, b.zero()));
  b.output_bus("sra", b.shift_right(a, amt, b.one()));
  const Netlist nl = b.take();
  Simulator sim(&nl);
  for (unsigned x : {0u, 7u, 130u, 255u}) {
    for (unsigned y : {0u, 7u, 129u}) {
      sim.set_bus("a", 8, x);
      sim.set_bus("b", 8, y);
      for (unsigned s : {0u, 1u, 3u, 7u}) {
        sim.set_bus("amt", 3, s);
        sim.evaluate();
        EXPECT_EQ(sim.read_bus("d", 8), (x - y) & 0xff);
        EXPECT_EQ(sim.output("noborrow"), x >= y);
        EXPECT_EQ(sim.read_bus("sl", 8), (x << s) & 0xff);
        EXPECT_EQ(sim.read_bus("srl", 8), x >> s);
        const auto sx = static_cast<int8_t>(x);
        EXPECT_EQ(sim.read_bus("sra", 8),
                  static_cast<unsigned>(static_cast<int8_t>(sx >> s)) & 0xff);
      }
    }
  }
}

TEST_F(NetlistTest, FastAdderMatchesRippleAdder) {
  // Property: the Sklansky prefix adder is bit-exact with the ripple adder
  // over randomized operands and both carry-in values.
  Builder b("addcmp", &lib_);
  const Bus a = b.input_bus("a", 16);
  const Bus c = b.input_bus("b", 16);
  const NetId cin = b.input("cin");
  const auto [s1, co1] = b.add(a, c, cin);
  const auto [s2, co2] = b.add_fast(a, c, cin);
  b.output_bus("r1_", s1);
  b.output_bus("r2_", s2);
  b.output("co1", co1);
  b.output("co2", co2);
  const Netlist nl = b.take();
  Simulator sim(&nl);
  std::mt19937 rng(5);
  std::uniform_int_distribution<unsigned> v(0, 0xffff);
  for (int i = 0; i < 200; ++i) {
    const unsigned x = v(rng), y = v(rng);
    const bool carry = i % 2;
    sim.set_bus("a", 16, x);
    sim.set_bus("b", 16, y);
    sim.set_input("cin", carry);
    sim.evaluate();
    EXPECT_EQ(sim.read_bus("r1_", 16), sim.read_bus("r2_", 16))
        << x << "+" << y << "+" << carry;
    EXPECT_EQ(sim.output("co1"), sim.output("co2"));
    EXPECT_EQ(sim.read_bus("r2_", 16), (x + y + carry) & 0xffffu);
  }
}

TEST_F(NetlistTest, FastAdderIsShallower) {
  // The point of the prefix adder: logarithmic logic depth.
  auto depth_of = [&](bool fast) {
    Builder b("d", &lib_);
    const Bus a = b.input_bus("a", 32);
    const Bus c = b.input_bus("b", 32);
    const auto r = fast ? b.add_fast(a, c, b.zero()) : b.add(a, c, b.zero());
    b.output("co", r.second);
    Netlist nl = b.take();
    // Depth via longest path in topo order (unit gate delay).
    std::vector<int> depth(static_cast<std::size_t>(nl.num_instances()), 0);
    int max_depth = 0;
    for (InstId id : nl.topo_order()) {
      const Instance& inst = nl.instance(id);
      int d = 0;
      const auto pin_nets = nl.pin_nets(id);
      for (std::size_t p = 0; p < pin_nets.size(); ++p) {
        if (inst.type->pins()[p].dir != stdcell::PinDir::Input) continue;
        const NetId n = pin_nets[p];
        if (n == kNoNet) continue;
        const PinRef drv = nl.net(n).driver;
        if (drv.inst == kNoInst) continue;
        d = std::max(d, depth[static_cast<std::size_t>(drv.inst)]);
      }
      depth[static_cast<std::size_t>(id)] = d + 1;
      max_depth = std::max(max_depth, d + 1);
    }
    return max_depth;
  };
  const int ripple = depth_of(false);
  const int fast = depth_of(true);
  EXPECT_LT(fast, ripple / 3) << "prefix adder must be much shallower";
}

TEST_F(NetlistTest, WallaceMultiplierMatchesReference) {
  Builder b("mul", &lib_);
  const Bus a = b.input_bus("a", 12);
  const Bus c = b.input_bus("b", 12);
  b.output_bus("p", b.multiply(a, c));
  const Netlist nl = b.take();
  Simulator sim(&nl);
  std::mt19937 rng(11);
  std::uniform_int_distribution<unsigned> v(0, 0xfff);
  for (int i = 0; i < 100; ++i) {
    const unsigned x = v(rng), y = v(rng);
    sim.set_bus("a", 12, x);
    sim.set_bus("b", 12, y);
    sim.evaluate();
    EXPECT_EQ(sim.read_bus("p", 24),
              static_cast<std::uint64_t>(x) * y)
        << x << "*" << y;
  }
  // Corner cases.
  for (auto [x, y] : {std::pair{0u, 0u}, {0xfffu, 0xfffu}, {1u, 0xfffu}}) {
    sim.set_bus("a", 12, x);
    sim.set_bus("b", 12, y);
    sim.evaluate();
    EXPECT_EQ(sim.read_bus("p", 24), static_cast<std::uint64_t>(x) * y);
  }
}

TEST_F(NetlistTest, SimulatorTracksActivity) {
  Builder b("t", &lib_);
  const NetId clk = b.input("clk");
  const NetId d = b.wire("d");
  const NetId q = b.dff(d, clk);
  b.drive(d, "INVD1", {q});
  b.output("q", q);
  const Netlist nl = b.take();
  Simulator sim(&nl);
  sim.reset_activity();
  for (int i = 0; i < 10; ++i) sim.tick();
  EXPECT_EQ(sim.cycles(), 10u);
  const NetId qn = *nl.find_net(nl.net_name(q));
  EXPECT_NEAR(sim.toggle_rate(qn), 1.0, 0.01);  // toggles every cycle
}

}  // namespace
}  // namespace ffet::netlist

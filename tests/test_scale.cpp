// Tests for the million-cell data plane: CSR pin-table consistency on the
// seed design, synthesized-name round-trips in anonymous mode, and the
// streaming DEF/SPEF writers on a large generated mesh design.

#include <gtest/gtest.h>

#include "extract/extract.h"
#include "extract/spef.h"
#include "io/def.h"
#include "liberty/characterize.h"
#include "netlist/workload.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "place_digest.h"
#include "rc_compare.h"
#include "rc_reference.h"
#include "riscv/rv32.h"
#include "route_digest.h"
#include "stdcell/stdcell.h"
#include "tech/tech.h"

namespace ffet {
namespace {

using netlist::InstId;
using netlist::NetId;

// --- CSR pin table ---------------------------------------------------------

class PinTableTest : public ::testing::Test {
 protected:
  PinTableTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
  }
  tech::Technology tech_;
  stdcell::Library lib_;
};

// The CSR pin table must agree with the net-side connectivity on the seed
// design: every net's driver and sinks point back at pin slots whose
// pin_net is that net, and every connected pin slot is accounted for by
// exactly one net reference.
TEST_F(PinTableTest, CsrTableMatchesNetConnectivityOnSeedDesign) {
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  const netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  ASSERT_TRUE(nl.validate().empty());

  std::int64_t connected_slots = 0;
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    const auto pins = nl.pin_nets(i);
    ASSERT_EQ(pins.size(), nl.instance(i).type->pins().size())
        << nl.instance_name(i);
    ASSERT_EQ(pins.size(), nl.pin_count(i));
    for (std::size_t p = 0; p < pins.size(); ++p) {
      EXPECT_EQ(pins[p], nl.pin_net(i, p));
      if (pins[p] != netlist::kNoNet) ++connected_slots;
    }
  }

  std::int64_t net_refs = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver.inst != netlist::kNoInst) {
      EXPECT_EQ(nl.pin_net(net.driver.inst,
                           static_cast<std::size_t>(net.driver.pin)),
                n)
          << nl.net_name(n);
      ++net_refs;
    }
    for (const netlist::PinRef& s : net.sinks) {
      EXPECT_EQ(nl.pin_net(s.inst, static_cast<std::size_t>(s.pin)), n)
          << nl.net_name(n);
      ++net_refs;
    }
  }
  EXPECT_EQ(net_refs, connected_slots);
  EXPECT_EQ(nl.stats().num_pins, connected_slots);
}

// The pin table survives a netlist copy (the copy re-interns names and
// rebuilds the lookup maps over its own arena).
TEST_F(PinTableTest, CopyPreservesPinTableAndNames) {
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  const netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  const netlist::Netlist copy = nl;  // NOLINT(performance-unnecessary-copy)

  ASSERT_EQ(copy.num_instances(), nl.num_instances());
  ASSERT_EQ(copy.num_nets(), nl.num_nets());
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    EXPECT_EQ(copy.instance_name(i), nl.instance_name(i));
    const auto a = nl.pin_nets(i);
    const auto b = copy.pin_nets(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) EXPECT_EQ(a[p], b[p]);
    // The copy's name map indexes its own arena.
    const auto found = copy.find_instance(nl.instance_name(i));
    ASSERT_TRUE(found.has_value()) << nl.instance_name(i);
    EXPECT_EQ(*found, i);
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_EQ(copy.net_name(n), nl.net_name(n));
  }
}

// Anonymous instances/nets answer to their synthesized `_i<N>` / `_n<N>`
// spellings through the same lookup API named objects use, without
// storing any name bytes.
TEST_F(PinTableTest, SynthesizedNamesRoundTripInAnonymousMode) {
  netlist::WorkloadOptions opt;
  opt.num_gates = 500;
  opt.num_flops = 50;
  opt.anonymous = true;
  const netlist::Netlist nl = netlist::generate_workload(lib_, opt);
  ASSERT_TRUE(nl.validate().empty());

  int anonymous_seen = 0;
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    const std::string name = nl.instance_name(i);
    const auto found = nl.find_instance(name);
    ASSERT_TRUE(found.has_value()) << name;
    EXPECT_EQ(*found, i) << name;
    if (!nl.instance_has_explicit_name(i)) {
      EXPECT_EQ(name, "_i" + std::to_string(i));
      ++anonymous_seen;
    }
  }
  EXPECT_GT(anonymous_seen, 500);

  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const std::string name = nl.net_name(n);
    const auto found = nl.find_net(name);
    ASSERT_TRUE(found.has_value()) << name;
    EXPECT_EQ(*found, n) << name;
  }
  // Ports keep their explicit names even in anonymous mode.
  EXPECT_TRUE(nl.find_net("clk").has_value());
}

// --- streaming writers at scale --------------------------------------------

// One placed+routed mesh workload, shared by the streaming round-trip
// tests (route_design dominates the fixture cost).
class ScaleIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new tech::Technology(tech::make_ffet_3p5t());
    stdcell::PinConfig dual;
    dual.backside_input_fraction = 0.5;
    lib_ = new stdcell::Library(stdcell::build_library(*tech_, dual));
    liberty::characterize_library(*lib_);

    netlist::WorkloadOptions opt;
    opt.num_gates = 2000;
    opt.num_flops = 200;
    opt.tile_cols = 2;
    opt.tile_rows = 2;
    opt.anonymous = true;
    nl_ = new netlist::Netlist(netlist::generate_workload(*lib_, opt));

    pnr::FloorplanOptions fo;
    fo.target_utilization = 0.6;
    const pnr::Floorplan fp = pnr::make_floorplan(*nl_, *tech_, fo);
    const pnr::PowerPlan pp = pnr::build_power_plan(*nl_, fp, *lib_);
    place_digest_ = pnr::place_digest(*nl_, pnr::place(*nl_, fp, pp));
    pnr::build_clock_tree(*nl_, fp);
    fp_ = new pnr::Floorplan(fp);
    routes_ = new pnr::RouteResult(pnr::route_design(*nl_, fp));
    merged_ = new io::Def(
        io::merge_defs(io::build_def(*nl_, *routes_, tech::Side::Front),
                       io::build_def(*nl_, *routes_, tech::Side::Back)));
  }
  static void TearDownTestSuite() {
    delete merged_;
    delete routes_;
    delete fp_;
    delete nl_;
    delete lib_;
    delete tech_;
    merged_ = nullptr;
    routes_ = nullptr;
    fp_ = nullptr;
    nl_ = nullptr;
    lib_ = nullptr;
    tech_ = nullptr;
  }

  static tech::Technology* tech_;
  static stdcell::Library* lib_;
  static netlist::Netlist* nl_;
  static pnr::Floorplan* fp_;
  static pnr::RouteResult* routes_;
  static io::Def* merged_;
  static std::uint64_t place_digest_;  ///< taken before CTS adds buffers
};

tech::Technology* ScaleIoTest::tech_ = nullptr;
stdcell::Library* ScaleIoTest::lib_ = nullptr;
netlist::Netlist* ScaleIoTest::nl_ = nullptr;
pnr::Floorplan* ScaleIoTest::fp_ = nullptr;
pnr::RouteResult* ScaleIoTest::routes_ = nullptr;
io::Def* ScaleIoTest::merged_ = nullptr;
std::uint64_t ScaleIoTest::place_digest_ = 0;

// The mesh's placement against the recorded fingerprint (place_digest.h).
TEST_F(ScaleIoTest, GoldenPlacement) {
  EXPECT_EQ(place_digest_, 0xf5b26ae542fa2eb9ull);
}

// The buffered/to_chars DEF writer must round-trip through its own reader
// bit-identically (write -> read -> re-write) on a ~9k-cell mesh design
// whose instances and nets all carry synthesized names.
TEST_F(ScaleIoTest, DefStreamingRoundTripIsBitIdentical) {
  const std::string first = io::to_def_string(*merged_);
  EXPECT_GT(first.size(), 100000u);  // genuinely large
  const io::Def parsed = io::read_def_string(first);
  EXPECT_EQ(parsed.nets.size(), merged_->nets.size());
  const std::string second = io::to_def_string(parsed);
  ASSERT_EQ(second.size(), first.size());
  EXPECT_TRUE(second == first);
}

// Same bar for the SPEF path: the writer streams the arena-backed trees,
// the reader packs them back into an arena, and a re-emit of the parsed
// parasitics is byte-identical.
TEST_F(ScaleIoTest, SpefStreamingRoundTripIsBitIdentical) {
  const extract::RcNetlist rc = extract::extract_rc(*merged_, *nl_, *tech_);
  ASSERT_EQ(rc.num_trees(), static_cast<std::size_t>(nl_->num_nets()));

  const std::string first = extract::to_spef_string(rc, *nl_);
  EXPECT_GT(first.size(), 100000u);
  const extract::RcNetlist again = extract::read_spef_string(first, *nl_);
  ASSERT_EQ(again.num_trees(), rc.num_trees());
  const std::string second = extract::to_spef_string(again, *nl_);
  ASSERT_EQ(second.size(), first.size());
  EXPECT_TRUE(second == first);
}

// The flow's route-driven extraction reads the same wires as the merged
// DEF on the mesh too: every tree and both totals are bit-identical.
TEST_F(ScaleIoTest, RouteExtractionMatchesMergedDef) {
  extract::expect_same_rc(extract::extract_rc(*routes_, *nl_, *tech_),
                          extract::extract_rc(*merged_, *nl_, *tech_));
}

// The scratch kernel equals the reference kernel (rc_reference.h) on the
// mesh, from both wire sources and at two threads.
TEST_F(ScaleIoTest, KernelMatchesReference) {
  const extract::RcNetlist ref =
      extract::reference::extract_rc(*merged_, *nl_, *tech_);
  extract::expect_same_rc(extract::extract_rc(*merged_, *nl_, *tech_, 2), ref);
  extract::expect_same_rc(extract::extract_rc(*routes_, *nl_, *tech_, 2), ref);
}

// The mesh's routes against the recorded fingerprint (route_digest.h), and
// the same routes at 4 threads: the parallel Steiner decomposition, both
// sides' concurrent initial routes and the parallel edge emit at scale.
TEST_F(ScaleIoTest, GoldenRoutesAtAnyThreadCount) {
  EXPECT_EQ(pnr::route_digest(*routes_), 0x08356d837b5bb914ull);
  pnr::RouteOptions ro;
  ro.threads = 4;
  const pnr::RouteResult threaded = pnr::route_design(*nl_, *fp_, ro);
  EXPECT_EQ(pnr::route_digest(threaded), pnr::route_digest(*routes_));
  ASSERT_EQ(threaded.routes.size(), routes_->routes.size());
  for (std::size_t i = 0; i < threaded.routes.size(); ++i) {
    EXPECT_EQ(threaded.routes[i].edges, routes_->routes[i].edges)
        << "route " << i;
  }
}

}  // namespace
}  // namespace ffet

// End-to-end flow integration tests: the full Fig. 7 pipeline on a reduced
// RV32 core, checking cross-stage invariants and the paper's headline
// qualitative relationships at small scale.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "flow/report_json.h"

namespace ffet::flow {
namespace {

FlowConfig small_config() {
  FlowConfig cfg;
  cfg.rv32_registers = 8;  // reduced core: fast but structurally complete
  cfg.utilization = 0.65;
  cfg.target_freq_ghz = 1.5;
  return cfg;
}

class FlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FlowConfig f = small_config();
    f.tech_kind = tech::TechKind::Ffet3p5T;
    f.backside_input_fraction = 0.5;
    ffet_ctx_ = prepare_design(f).release();

    FlowConfig c = small_config();
    c.tech_kind = tech::TechKind::Cfet4T;
    cfet_ctx_ = prepare_design(c).release();
  }
  static void TearDownTestSuite() {
    delete ffet_ctx_;
    delete cfet_ctx_;
    ffet_ctx_ = nullptr;
    cfet_ctx_ = nullptr;
  }

  static DesignContext* ffet_ctx_;
  static DesignContext* cfet_ctx_;
};

DesignContext* FlowTest::ffet_ctx_ = nullptr;
DesignContext* FlowTest::cfet_ctx_ = nullptr;

TEST_F(FlowTest, FfetFlowCompletesAndIsValid) {
  const FlowResult r = run_physical(*ffet_ctx_, ffet_ctx_->config);
  EXPECT_TRUE(r.placement_legal) << r.placement_violations;
  EXPECT_TRUE(r.route_valid) << "drv=" << r.drv;
  EXPECT_TRUE(r.valid());
  EXPECT_GT(r.core_area_um2, 1.0);
  EXPECT_GT(r.achieved_freq_ghz, 0.1);
  EXPECT_LT(r.achieved_freq_ghz, 20.0);
  EXPECT_GT(r.power_uw, 10.0);
  EXPECT_GT(r.num_tap_cells, 0);
  EXPECT_GT(r.clock_buffers, 0);
  EXPECT_GT(r.wirelength_back_um, 0.0) << "50/50 pins must route backside";
  EXPECT_GT(r.ir_drop_mv, 0.0);
  EXPECT_LT(r.ir_drop_mv, 70.0) << "IR drop should be a small fraction of VDD";
  EXPECT_EQ(r.placement_drc, 0) << "placer output must pass independent DRC";
  EXPECT_EQ(r.hold_violations, 0) << "hold slack " << r.hold_slack_ps;
  EXPECT_GT(r.hold_slack_ps, 0.0);
}

TEST_F(FlowTest, CfetFlowCompletesFrontsideOnly) {
  const FlowResult r = run_physical(*cfet_ctx_, cfet_ctx_->config);
  EXPECT_TRUE(r.valid());
  EXPECT_DOUBLE_EQ(r.wirelength_back_um, 0.0);
  EXPECT_EQ(r.num_tap_cells, 0);  // CFET: nTSV, not tap cells
}

TEST_F(FlowTest, FfetCoreSmallerThanCfetAtSameUtilization) {
  const FlowResult f = run_physical(*ffet_ctx_, ffet_ctx_->config);
  const FlowResult c = run_physical(*cfet_ctx_, cfet_ctx_->config);
  // Fig. 8: FFET post-P&R core area reduction at the same utilization.
  EXPECT_LT(f.core_area_um2, c.core_area_um2);
  const double reduction = 1.0 - f.core_area_um2 / c.core_area_um2;
  EXPECT_GT(reduction, 0.08);
  EXPECT_LT(reduction, 0.35);
}

TEST_F(FlowTest, DeterministicForSameConfig) {
  const FlowResult a = run_physical(*ffet_ctx_, ffet_ctx_->config);
  const FlowResult b = run_physical(*ffet_ctx_, ffet_ctx_->config);
  EXPECT_DOUBLE_EQ(a.achieved_freq_ghz, b.achieved_freq_ghz);
  EXPECT_DOUBLE_EQ(a.power_uw, b.power_uw);
  EXPECT_EQ(a.drv, b.drv);
  EXPECT_DOUBLE_EQ(a.hpwl_um, b.hpwl_um);
}

TEST_F(FlowTest, UtilizationSweepShrinksArea) {
  FlowConfig cfg = ffet_ctx_->config;
  cfg.utilization = 0.50;
  const FlowResult lo = run_physical(*ffet_ctx_, cfg);
  cfg.utilization = 0.80;
  const FlowResult hi = run_physical(*ffet_ctx_, cfg);
  EXPECT_GT(lo.core_area_um2, hi.core_area_um2);
}

TEST_F(FlowTest, ExcessUtilizationIsInvalid) {
  FlowConfig cfg = ffet_ctx_->config;
  cfg.utilization = 0.95;
  const FlowResult r = run_physical(*ffet_ctx_, cfg);
  EXPECT_FALSE(r.placement_legal);
  EXPECT_FALSE(r.valid());
}

TEST_F(FlowTest, FindMaxUtilizationBrackets) {
  const auto max_util = find_max_utilization(*ffet_ctx_, ffet_ctx_->config,
                                             0.45, 0.95, 0.02);
  ASSERT_TRUE(max_util.has_value());
  EXPECT_GT(*max_util, 0.5);
  EXPECT_LT(*max_util, 0.95);
  // Validity at the reported point.
  FlowConfig at = ffet_ctx_->config;
  at.utilization = *max_util;
  EXPECT_TRUE(run_physical(*ffet_ctx_, at).valid());
}

TEST_F(FlowTest, SimulatedActivityPowerDiffersFromDefault) {
  FlowConfig cfg = ffet_ctx_->config;
  const FlowResult base = run_physical(*ffet_ctx_, cfg);
  cfg.simulate_activity = true;
  cfg.activity_cycles = 48;
  const FlowResult sim = run_physical(*ffet_ctx_, cfg);
  EXPECT_GT(sim.power_uw, 0.0);
  EXPECT_NE(sim.power_uw, base.power_uw);
  // Frequencies identical: activity affects power only.
  EXPECT_DOUBLE_EQ(sim.achieved_freq_ghz, base.achieved_freq_ghz);
}

/// One stage-sequence case: optional stages switched on and the exact
/// stage_times names they must produce (the flow report's "stages" array
/// and bench_scale key on these names).
struct StageCase {
  const char* name;
  bool simulate_activity;
  int eco_passes;
  std::vector<std::string> stages;
};

// Print the case by name: gtest's default byte dump includes pointer values,
// which ASLR changes from run to run, and the dump becomes part of the test
// name that test discovery records.
void PrintTo(const StageCase& c, std::ostream* os) { *os << c.name; }

class StageSequenceTest : public FlowTest,
                          public ::testing::WithParamInterface<StageCase> {};

TEST_P(StageSequenceTest, StageTimesNameTheExactSequence) {
  FlowConfig cfg = ffet_ctx_->config;
  cfg.simulate_activity = GetParam().simulate_activity;
  cfg.eco_passes = GetParam().eco_passes;
  const FlowResult r = run_physical(*ffet_ctx_, cfg);
  ASSERT_TRUE(r.valid());
  std::vector<std::string> names;
  for (const StageTiming& st : r.stage_times) names.push_back(st.stage);
  EXPECT_EQ(names, GetParam().stages);
}

const std::vector<std::string> kPhysicalStages = {
    "floorplan", "powerplan", "placement",  "placement_drc",
    "cts",       "hold_fix",  "route",      "extract",
    "sta_timing", "sta_hold"};

std::vector<std::string> with(std::vector<std::string> names,
                              const std::vector<std::string>& tail) {
  names.insert(names.end(), tail.begin(), tail.end());
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StageSequenceTest,
    ::testing::Values(
        StageCase{"default", false, 0, with(kPhysicalStages, {"power"})},
        StageCase{"activity", true, 0,
                  with(kPhysicalStages, {"activity_sim", "power"})},
        StageCase{"eco", false, 2,
                  with(kPhysicalStages, {"power", "eco", "eco_signoff"})}),
    [](const ::testing::TestParamInfo<StageCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(FlowTest, LabelsAreInformative) {
  FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  cfg.front_layers = 6;
  cfg.back_layers = 6;
  cfg.backside_input_fraction = 0.5;
  EXPECT_NE(cfg.label().find("FFET FM6BM6"), std::string::npos);
  EXPECT_NE(cfg.label().find("FP0.5BP0.5"), std::string::npos);
  FlowConfig c;
  c.tech_kind = tech::TechKind::Cfet4T;
  EXPECT_NE(c.label().find("CFET FM12"), std::string::npos);
  EXPECT_EQ(c.label().find("BM"), std::string::npos);
}

TEST_F(FlowTest, LabelEncodesEveryPpaChangingField) {
  FlowConfig base;
  const std::string ref = base.label();
  // Defaults stay byte-identical to the historical label (it keys the
  // characterization cache and the committed bench baselines).
  EXPECT_EQ(ref.find(" ar="), std::string::npos);
  EXPECT_EQ(ref.find(" regs="), std::string::npos);
  EXPECT_EQ(ref.find(" seed="), std::string::npos);
  EXPECT_EQ(ref.find(" act="), std::string::npos);
  EXPECT_EQ(ref.find(" eco="), std::string::npos);

  // Every PPA-changing knob must move the label, so two configs that can
  // produce different results never share a cache key.
  auto differs = [&](auto&& tweak) {
    FlowConfig c;
    tweak(c);
    return c.label() != ref;
  };
  EXPECT_TRUE(differs([](FlowConfig& c) { c.aspect_ratio = 2.0; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.rv32_registers = 8; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.seed = 3; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.simulate_activity = true; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.eco_passes = 1; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.utilization = 0.55; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.target_freq_ghz = 2.0; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.front_layers = 6; }));
  EXPECT_TRUE(differs([](FlowConfig& c) { c.back_layers = 6; }));
  EXPECT_TRUE(
      differs([](FlowConfig& c) { c.backside_input_fraction = 0.5; }));
  EXPECT_TRUE(
      differs([](FlowConfig& c) { c.tech_kind = tech::TechKind::Cfet4T; }));

  FlowConfig eco;
  eco.eco_passes = 2;
  EXPECT_NE(eco.label().find("eco=2"), std::string::npos);
}

TEST_F(FlowTest, PreparedContextReflectsPinConfig) {
  EXPECT_NEAR(ffet_ctx_->realized_backside_pin_fraction, 0.5, 0.05);
  EXPECT_DOUBLE_EQ(cfet_ctx_->realized_backside_pin_fraction, 0.0);
  EXPECT_GT(ffet_ctx_->synth.est_freq_ghz, 0.0);
}

TEST_F(FlowTest, JsonReportWellFormed) {
  const FlowResult r = run_physical(*ffet_ctx_, ffet_ctx_->config);
  const std::string j = to_json(r);
  // Shape checks: one object, balanced braces, key fields present.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), 1);
  EXPECT_EQ(std::count(j.begin(), j.end(), '}'), 1);
  for (const char* key :
       {"\"achieved_freq_ghz\"", "\"power_uw\"", "\"core_area_um2\"",
        "\"valid\"", "\"drv\"", "\"label\"", "\"hold_slack_ps\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace ffet::flow

// Signoff reporting subsystem tests: the JSON value parser, the
// flow-report JSONL reader (round-trip against src/flow's emitter,
// malformed-line and unknown-field tolerance), the QoR diff engine's
// pairing/threshold semantics, and — over a real reduced flow — the
// multi-path timing report's bit-identity with the STA's critical path
// plus the per-net attribution invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <cstdio>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "flow/flow.h"
#include "flow/report_json.h"
#include "io/def.h"
#include "obs/obs.h"
#include "report/json.h"
#include "report/ledger.h"
#include "report/net_report.h"
#include "report/qor.h"
#include "report/serve_stats.h"
#include "report/timing_report.h"
#include "sta/sta.h"

namespace ffet::report {
namespace {

// ---------------------------------------------------------------- parser

TEST(JsonParser, ScalarsNestingAndOrder) {
  std::string err;
  const std::optional<json::Value> doc = json::parse(
      R"({"a":1.5,"b":-2,"c":true,"d":"x\ny","e":[1,2,3],"f":{"g":3}})", &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const json::Value& v = *doc;
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 6u);
  EXPECT_EQ(v.members[0].first, "a");  // emission order preserved
  EXPECT_EQ(v.members[5].first, "f");
  EXPECT_DOUBLE_EQ(v.member_number("a"), 1.5);
  EXPECT_DOUBLE_EQ(v.member_number("b"), -2.0);
  EXPECT_TRUE(v.find("c")->bool_or(false));
  EXPECT_EQ(v.find("d")->str, "x\ny");
  ASSERT_EQ(v.find("e")->items.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("e")->items[2].number, 3.0);
  EXPECT_DOUBLE_EQ(v.find("f")->member_number("g"), 3.0);
}

TEST(JsonParser, UnicodeEscape) {
  std::string err;
  const std::optional<json::Value> doc =
      json::parse(R"({"k":"A\u00e9"})", &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("k")->str, "A\xc3\xa9");  // UTF-8 re-encoding
}

TEST(JsonParser, RejectsMalformed) {
  std::string err;
  EXPECT_FALSE(json::parse(R"({"a":)", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(json::parse(R"({"a":1} trailing)", &err).has_value())
      << "trailing bytes must be rejected";
  EXPECT_FALSE(json::parse("", &err).has_value());
}

// ------------------------------------------------------ flow-report reader

/// A FlowResult with distinctive values in every section the reader maps.
flow::FlowResult make_result(double freq_ghz, double power_uw, int drv,
                             int eco_passes) {
  flow::FlowResult r;
  r.config.rv32_registers = 8;
  r.config.utilization = 0.65;
  r.config.eco_passes = eco_passes;
  r.placement_legal = true;
  r.route_valid = true;
  r.achieved_freq_ghz = freq_ghz;
  r.critical_path_ps = 1000.0 / freq_ghz;
  r.power_uw = power_uw;
  r.efficiency_ghz_per_mw = freq_ghz / (power_uw / 1000.0);
  r.drv = drv;
  r.drv_wire = drv;
  r.wirelength_front_um = 123.25;
  r.wirelength_back_um = 67.5;
  r.utilization = 0.645;
  r.core_area_um2 = 480.0;
  r.clock_skew_ps = 3.75;
  r.ir_drop_mv = 21.5;
  r.route_passes = 2;
  r.place_mean_displacement_um = 0.4;
  if (eco_passes > 0) {
    r.eco_passes_run = eco_passes;
    r.eco_attempted = 12;
    r.eco_accepted = 5;
    r.eco_reverted = 7;
    r.eco_buffers = 3;
    r.eco_pre_freq_ghz = freq_ghz * 0.97;
    r.eco_post_freq_ghz = freq_ghz;
    r.eco_pre_power_uw = power_uw * 0.98;
    r.eco_post_power_uw = power_uw;
    r.eco_iso_power_uw = power_uw * 0.99;
    r.eco_sta_speedup = 2.5;
  }
  r.stage_times = {{"floorplan", 1.5, 1.25}, {"route", 40.0, 38.5}};
  return r;
}

FlowRecord record_of(const flow::FlowResult& r) {
  std::istringstream is(flow::flow_report_json(r) + "\n");
  ReadStats stats;
  const std::vector<FlowRecord> recs = read_flow_reports(is, &stats);
  EXPECT_EQ(stats.parsed, 1);
  EXPECT_EQ(stats.malformed, 0);
  return recs.empty() ? FlowRecord{} : recs.front();
}

TEST(FlowReportReader, RoundTripsEveryMappedSection) {
  const flow::FlowResult r = make_result(1.25, 4000.0, 0, 2);
  const FlowRecord rec = record_of(r);

  EXPECT_EQ(rec.schema, "ffet.flow_report.v1");
  EXPECT_EQ(rec.label, r.config.label());
  EXPECT_TRUE(rec.valid);
  EXPECT_TRUE(rec.invalid_reason.empty());

  EXPECT_DOUBLE_EQ(rec.config.at("target_utilization"), 0.65);
  EXPECT_DOUBLE_EQ(rec.diagnostics.at("drv"), 0.0);
  EXPECT_DOUBLE_EQ(rec.diagnostics.at("clock_skew_ps"), 3.75);
  EXPECT_DOUBLE_EQ(rec.ppa.at("achieved_freq_ghz"), 1.25);
  EXPECT_DOUBLE_EQ(rec.ppa.at("power_uw"), 4000.0);
  EXPECT_DOUBLE_EQ(rec.ppa.at("wirelength_front_um"), 123.25);
  EXPECT_DOUBLE_EQ(rec.ppa.at("wirelength_back_um"), 67.5);

  ASSERT_TRUE(rec.has_eco);
  EXPECT_DOUBLE_EQ(rec.eco.at("passes_run"), 2.0);
  EXPECT_DOUBLE_EQ(rec.eco.at("sta_speedup"), 2.5);
  EXPECT_DOUBLE_EQ(rec.eco.at("post_freq_ghz"), 1.25);

  ASSERT_EQ(rec.stages.size(), 2u);
  EXPECT_EQ(rec.stages[0].stage, "floorplan");
  EXPECT_DOUBLE_EQ(rec.stages[1].wall_ms, 40.0);
  EXPECT_DOUBLE_EQ(rec.total_wall_ms(), 41.5);
  EXPECT_DOUBLE_EQ(rec.total_cpu_ms(), 39.75);
}

TEST(FlowReportReader, EcoSectionAbsentWhenEcoOff) {
  const FlowRecord rec = record_of(make_result(1.25, 4000.0, 0, 0));
  EXPECT_FALSE(rec.has_eco);
  EXPECT_TRUE(rec.eco.empty());
}

TEST(FlowReportReader, SkipsMalformedLinesAndKeepsTheRest) {
  const std::string good = flow::flow_report_json(make_result(1.0, 1000.0, 0, 0));
  std::istringstream is(good + "\nnot json at all\n" +
                        good.substr(0, good.size() / 2) + "\n\n" + good + "\n");
  ReadStats stats;
  const std::vector<FlowRecord> recs = read_flow_reports(is, &stats);
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_EQ(stats.parsed, 2);
  EXPECT_EQ(stats.malformed, 2);
  EXPECT_EQ(stats.lines, 4);  // the blank line is not counted
}

TEST(FlowReportReader, ToleratesUnknownFields) {
  std::string line = flow::flow_report_json(make_result(1.0, 1000.0, 0, 0));
  // A future schema adds a numeric and a string field at top level.
  line.insert(line.size() - 1, R"(,"future_num":123,"future_str":"abc")");
  std::istringstream is(line + "\n");
  ReadStats stats;
  const std::vector<FlowRecord> recs = read_flow_reports(is, &stats);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_DOUBLE_EQ(recs[0].extra.at("future_num"), 123.0);
  EXPECT_EQ(stats.unknown_fields, 1);  // the string, counted but not fatal
  EXPECT_DOUBLE_EQ(recs[0].ppa.at("achieved_freq_ghz"), 1.0);
}

// ------------------------------------------------------------ diff engine

TEST(QorDiff, SelfDiffIsEmptyAndPasses) {
  const std::vector<FlowRecord> recs = {record_of(make_result(1.2, 4000.0, 0, 0)),
                                        record_of(make_result(0.9, 5000.0, 2, 2))};
  const DiffReport rep = diff_flow_reports(recs, recs);
  EXPECT_EQ(rep.pairs, 2);
  EXPECT_TRUE(rep.deltas.empty());
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_TRUE(rep.ok());
}

TEST(QorDiff, EcoRunSurfacesFrequencyDeltaWithoutRegression) {
  const std::vector<FlowRecord> base = {record_of(make_result(1.00, 4000.0, 0, 0))};
  const std::vector<FlowRecord> now = {record_of(make_result(1.05, 4010.0, 0, 2))};
  const DiffReport rep = diff_flow_reports(base, now);
  const Delta* freq = nullptr;
  for (const Delta& d : rep.deltas) {
    if (d.metric == "ppa.achieved_freq_ghz") freq = &d;
  }
  ASSERT_NE(freq, nullptr) << "eco=2 vs eco=0 must flag the frequency delta";
  EXPECT_DOUBLE_EQ(freq->base, 1.00);
  EXPECT_DOUBLE_EQ(freq->now, 1.05);
  EXPECT_FALSE(freq->regression) << "a frequency gain is not a regression";
  EXPECT_TRUE(rep.ok());
}

TEST(QorDiff, FrequencyDropBeyondThresholdFails) {
  const std::vector<FlowRecord> base = {record_of(make_result(1.05, 4000.0, 0, 0))};
  const std::vector<FlowRecord> now = {record_of(make_result(1.00, 4000.0, 0, 0))};
  const DiffReport rep = diff_flow_reports(base, now);  // default: -1 % gate
  EXPECT_FALSE(rep.ok());
  // Loosening the threshold past the drop turns the same delta into a pass.
  DiffOptions loose;
  loose.freq_drop_pct = 10.0;
  EXPECT_TRUE(diff_flow_reports(base, now, loose).ok());
}

TEST(QorDiff, DrvIncreaseIsARegression) {
  const std::vector<FlowRecord> base = {record_of(make_result(1.0, 4000.0, 0, 0))};
  const std::vector<FlowRecord> now = {record_of(make_result(1.0, 4000.0, 3, 0))};
  const DiffReport rep = diff_flow_reports(base, now);
  EXPECT_FALSE(rep.ok());
  DiffOptions no_drv;
  no_drv.gate_drv = false;
  EXPECT_TRUE(diff_flow_reports(base, now, no_drv).ok());
}

TEST(QorDiff, ValidToInvalidIsARegression) {
  flow::FlowResult bad = make_result(1.0, 4000.0, 0, 0);
  bad.route_valid = false;
  bad.invalid_reason = "routing failed";
  const std::vector<FlowRecord> base = {record_of(make_result(1.0, 4000.0, 0, 0))};
  const std::vector<FlowRecord> now = {record_of(bad)};
  EXPECT_FALSE(diff_flow_reports(base, now).ok());
}

TEST(QorDiff, EcoPostBelowPreIsARegression) {
  flow::FlowResult broken = make_result(1.0, 4000.0, 0, 2);
  broken.eco_pre_freq_ghz = 1.10;  // revert path failed: ended slower
  broken.eco_post_freq_ghz = 1.00;
  const std::vector<FlowRecord> base = {record_of(make_result(1.0, 4000.0, 0, 0))};
  const DiffReport rep =
      diff_flow_reports(base, {record_of(broken)});
  EXPECT_FALSE(rep.ok());
  bool found = false;
  for (const Delta& d : rep.deltas) {
    if (d.metric == "eco.post_vs_pre_freq_ghz") found = d.regression;
  }
  EXPECT_TRUE(found);
}

TEST(QorDiff, FormatNamesRegressionsAndVerdict) {
  const std::vector<FlowRecord> base = {record_of(make_result(1.0, 4000.0, 0, 0))};
  const std::vector<FlowRecord> now = {record_of(make_result(1.0, 4200.0, 0, 0))};
  const DiffReport rep = diff_flow_reports(base, now);  // +5 % power, gate 2 %
  const std::string text = format_diff(rep);
  EXPECT_NE(text.find("ppa.power_uw"), std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  const std::string ok_text = format_diff(diff_flow_reports(base, base));
  EXPECT_NE(ok_text.find("no differences"), std::string::npos);
  EXPECT_NE(ok_text.find("OK"), std::string::npos);
}

// ------------------------------------------------------ resource fields

/// make_result plus a populated resource section and per-stage deltas.
flow::FlowResult make_resourceful_result() {
  flow::FlowResult r = make_result(1.25, 4000.0, 0, 0);
  r.resource.sampled = true;
  r.resource.peak_rss_kb = 123456;
  r.resource.current_rss_kb = 120000;
  r.resource.minor_faults = 7890;
  r.resource.major_faults = 3;
  r.resource.netlist_cells = 3660;
  r.resource.netlist_nets = 3506;
  r.resource.rc_nodes = 47988;
  r.resource.route_grid_nodes = 936;
  r.resource.def_components = 3660;
  r.resource.def_wires = 32760;
  r.stage_times = {{"floorplan", 1.5, 1.25, 128}, {"route", 40.0, 38.5, 4096}};
  return r;
}

TEST(FlowReportReader, RoundTripsResourceSectionByteStably) {
  const flow::FlowResult r = make_resourceful_result();
  EXPECT_EQ(flow::flow_report_json(r), flow::flow_report_json(r))
      << "the emitter must be byte-deterministic";

  const FlowRecord rec = record_of(r);
  EXPECT_DOUBLE_EQ(rec.resource.at("peak_rss_kb"), 123456.0);
  EXPECT_DOUBLE_EQ(rec.resource.at("current_rss_kb"), 120000.0);
  EXPECT_DOUBLE_EQ(rec.resource.at("minor_faults"), 7890.0);
  EXPECT_DOUBLE_EQ(rec.resource.at("major_faults"), 3.0);
  EXPECT_DOUBLE_EQ(rec.resource.at("rc_nodes"), 47988.0);
  EXPECT_DOUBLE_EQ(rec.resource.at("route_grid_nodes"), 936.0);
  ASSERT_EQ(rec.stages.size(), 2u);
  EXPECT_DOUBLE_EQ(rec.stages[0].rss_delta_kb, 128.0);
  EXPECT_DOUBLE_EQ(rec.stages[1].rss_delta_kb, 4096.0);
}

TEST(FlowReportReader, ResourceFieldsAbsentWhenProbeOff) {
  // A probe-off run must serialize byte-identically to a pre-probe build:
  // no "resource" section and no per-stage rss_delta_kb at all.
  const std::string off = flow::flow_report_json(make_result(1.25, 4000.0, 0, 0));
  EXPECT_EQ(off.find("resource"), std::string::npos);
  EXPECT_EQ(off.find("rss_delta_kb"), std::string::npos);
  EXPECT_EQ(off.find("peak_rss_kb"), std::string::npos);
  const FlowRecord rec = record_of(make_result(1.25, 4000.0, 0, 0));
  EXPECT_TRUE(rec.resource.empty());

  // And the probe-on emission differs from probe-off ONLY by resource
  // fields: stripping the resource object and the per-stage deltas from
  // the sampled line recovers the probe-off bytes exactly.
  std::string on = flow::flow_report_json(make_resourceful_result());
  const std::size_t rb = on.find(",\"resource\":{");
  ASSERT_NE(rb, std::string::npos);
  on.erase(rb, on.find("}", rb) - rb + 1);
  for (std::size_t p = on.find(",\"rss_delta_kb\":");
       p != std::string::npos; p = on.find(",\"rss_delta_kb\":")) {
    on.erase(p, on.find_first_of(",}", p + 1) - p);
  }
  EXPECT_EQ(on, off);
}

TEST(QorDiff, ResourceDeltasAreReportedButNeverGated) {
  flow::FlowResult base = make_resourceful_result();
  flow::FlowResult now = make_resourceful_result();
  now.resource.peak_rss_kb = base.resource.peak_rss_kb * 3;  // huge rise
  const DiffReport rep =
      diff_flow_reports({record_of(base)}, {record_of(now)});
  EXPECT_TRUE(rep.ok()) << "RSS is machine-dependent; diff must not gate it";
  bool saw = false;
  for (const Delta& d : rep.deltas) saw |= d.metric == "resource.peak_rss_kb";
  EXPECT_TRUE(saw) << "the delta itself must still be surfaced";
}

// ----------------------------------------------- serve attribution section

TEST(FlowReportReader, ServeSectionRoundTripsAndPlainLinesHaveNone) {
  const flow::FlowResult r = make_result(1.25, 4000.0, 0, 0);
  std::string line = flow::flow_report_json(r);
  ASSERT_EQ(line.find("\"serve\""), std::string::npos)
      << "attribution is daemon-injected, never emitted by the flow";

  flow::ServeAttribution attr;
  attr.queue_ms = 1.5;
  attr.cache_ms = 0.25;
  attr.run_ms = 104.0;
  attr.retries = 1;
  attr.worker_pid = 4242;
  attr.cache_hit = false;
  ASSERT_TRUE(flow::append_serve_report(line, attr));

  std::istringstream is(line + "\n");
  ReadStats stats;
  const std::vector<FlowRecord> recs = read_flow_reports(is, &stats);
  ASSERT_EQ(stats.parsed, 1);
  ASSERT_EQ(recs.size(), 1u);
  const FlowRecord& rec = recs[0];
  EXPECT_DOUBLE_EQ(rec.serve.at("queue_ms"), 1.5);
  EXPECT_DOUBLE_EQ(rec.serve.at("cache_ms"), 0.25);
  EXPECT_DOUBLE_EQ(rec.serve.at("run_ms"), 104.0);
  EXPECT_DOUBLE_EQ(rec.serve.at("retries"), 1.0);
  EXPECT_DOUBLE_EQ(rec.serve.at("worker_pid"), 4242.0);
  EXPECT_DOUBLE_EQ(rec.serve.at("cache_hit"), 0.0);
  // The annotation must not perturb any mapped QoR section.
  EXPECT_DOUBLE_EQ(rec.ppa.at("achieved_freq_ghz"), 1.25);

  // Non-object input is refused untouched.
  std::string not_json = "[1,2,3]";
  EXPECT_FALSE(flow::append_serve_report(not_json, attr));
  EXPECT_EQ(not_json, "[1,2,3]");
}

TEST(QorDiff, ServeDeltasAreReportedButNeverGatedAndSkippedInQorOnly) {
  const flow::FlowResult r = make_result(1.25, 4000.0, 0, 0);
  std::string base_line = flow::flow_report_json(r);
  std::string now_line = base_line;
  flow::ServeAttribution slow;
  slow.queue_ms = 0.5;
  slow.run_ms = 100.0;
  flow::ServeAttribution fast;
  fast.run_ms = 0.0;
  fast.cache_hit = true;
  ASSERT_TRUE(flow::append_serve_report(base_line, slow));
  ASSERT_TRUE(flow::append_serve_report(now_line, fast));

  std::istringstream bs(base_line + "\n"), ns(now_line + "\n");
  const auto base = read_flow_reports(bs);
  const auto now = read_flow_reports(ns);

  // Default diff: the serve.* drift is surfaced but can never regress —
  // service latency is machine- and load-dependent, like resource.*.
  const DiffReport rep = diff_flow_reports(base, now);
  EXPECT_TRUE(rep.ok());
  bool saw_run = false;
  for (const Delta& d : rep.deltas) saw_run |= d.metric == "serve.run_ms";
  EXPECT_TRUE(saw_run);

  // qor_only (the service-identity gate): serve.* is invisible, so a
  // cached replay diffs clean against the run that populated the cache.
  DiffOptions qopts;
  qopts.qor_only = true;
  const DiffReport qrep = diff_flow_reports(base, now, qopts);
  EXPECT_TRUE(qrep.ok());
  EXPECT_EQ(qrep.deltas.size(), 0u) << format_diff(qrep);
}

// ----------------------------------------------------------- serve stats

TEST(ServeStats, ParsesSnapshotAndFormatsTables) {
  const std::string json =
      "{\"schema\":\"ffet.serve_stats.v1\",\"pid\":777,\"uptime_ms\":2500.0,"
      "\"workers\":2,\"queue_depth\":1,\"in_flight\":3,\"cache_entries\":18,"
      "\"counters\":{\"requests\":4,\"points\":36,\"cache_hits\":18,"
      "\"cache_misses\":18,\"single_flight_joins\":0,\"flow_runs\":18,"
      "\"retries\":1,\"worker_deaths\":1,\"worker_restarts\":1},"
      "\"latency_ms\":{\"queue_wait\":{\"count\":18,\"sum\":90.0,"
      "\"min\":1.0,\"max\":20.0,\"mean\":5.0,\"p50\":4.0,\"p95\":18.0,"
      "\"p99\":19.5,\"buckets\":[[1,10],[2,6],[16,2]]},"
      "\"worker_run\":{\"count\":18,\"sum\":1800.0,\"min\":90.0,"
      "\"max\":130.0,\"mean\":100.0,\"p50\":99.0,\"p95\":120.0,"
      "\"p99\":128.0,\"buckets\":[[64,18]]}},"
      "\"worker_slots\":[{\"slot\":0,\"pid\":1001,\"state\":\"running\","
      "\"point\":\"rv32_u0.50\",\"jobs\":9,\"deaths\":0,\"uptime_ms\":2400.0},"
      "{\"slot\":1,\"pid\":1002,\"state\":\"idle\",\"point\":\"\",\"jobs\":9,"
      "\"deaths\":1,\"uptime_ms\":800.0}]}";
  std::string err;
  const auto snap = parse_serve_stats(json, &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->pid, 777);
  EXPECT_EQ(snap->workers, 2);
  EXPECT_EQ(snap->queue_depth, 1);
  EXPECT_EQ(snap->in_flight, 3);
  EXPECT_EQ(snap->cache_entries, 18);
  EXPECT_EQ(snap->counters.at("flow_runs"), 18);
  ASSERT_EQ(snap->phase_order.size(), 2u);
  EXPECT_EQ(snap->phase_order[0], "queue_wait");  // document order kept
  const ServeStatsPhase& qw = snap->phases.at("queue_wait");
  EXPECT_EQ(qw.count, 18);
  EXPECT_DOUBLE_EQ(qw.p95, 18.0);
  ASSERT_EQ(qw.buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(qw.buckets[2].first, 16.0);
  EXPECT_EQ(qw.buckets[2].second, 2);
  ASSERT_EQ(snap->slots.size(), 2u);
  EXPECT_EQ(snap->slots[0].state, "running");
  EXPECT_EQ(snap->slots[0].point, "rv32_u0.50");
  EXPECT_EQ(snap->slots[1].deaths, 1);

  const std::string pretty = format_serve_stats(*snap);
  EXPECT_NE(pretty.find("ffet_serve pid 777"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("cache_hits=18"), std::string::npos);
  EXPECT_NE(pretty.find("queue_wait"), std::string::npos);
  EXPECT_NE(pretty.find("worker slot 0"), std::string::npos);
  EXPECT_NE(pretty.find("rv32_u0.50"), std::string::npos);
  EXPECT_NE(pretty.find("deaths=1"), std::string::npos);
}

TEST(ServeStats, RejectsMalformedAndForeignSchemas) {
  std::string err;
  EXPECT_FALSE(parse_serve_stats("{not json", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_serve_stats("[1,2]", &err).has_value());
  EXPECT_FALSE(
      parse_serve_stats("{\"schema\":\"ffet.flow_report.v1\"}", &err)
          .has_value());
  EXPECT_NE(err.find("ffet.serve_stats.v1"), std::string::npos);
  EXPECT_FALSE(parse_serve_stats("{}", &err).has_value())
      << "schema field is mandatory";
}

// --------------------------------------------------------------- ledger

LedgerEntry make_entry(double freq, double power, double wl, double drv,
                       long long ts, bool valid = true) {
  LedgerEntry e;
  e.kind = "flow";
  e.label = "unit";
  e.host = "testhost";
  e.timestamp_s = ts;
  e.threads = 2;
  e.valid = valid;
  e.metrics = {{"achieved_freq_ghz", freq}, {"power_uw", power},
               {"wirelength_um", wl},       {"drv", drv},
               {"runtime_ms", 50.0},        {"peak_rss_kb", 20000.0}};
  return e;
}

std::vector<LedgerEntry> reparse(const std::vector<LedgerEntry>& in,
                                 ReadStats* stats = nullptr) {
  std::string text;
  for (const LedgerEntry& e : in) text += ledger_entry_json(e) + "\n";
  std::istringstream is(text);
  return read_ledger(is, stats);
}

TEST(Ledger, JsonRoundTripsAndIsByteStable) {
  const LedgerEntry e = make_entry(1.25, 4000.5, 15000.25, 0, 1700000000);
  EXPECT_EQ(ledger_entry_json(e), ledger_entry_json(e));

  ReadStats stats;
  const std::vector<LedgerEntry> back = reparse({e}, &stats);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(stats.parsed, 1);
  EXPECT_EQ(back[0].schema, "ffet.ledger.v1");
  EXPECT_EQ(back[0].kind, "flow");
  EXPECT_EQ(back[0].label, "unit");
  EXPECT_EQ(back[0].host, "testhost");
  EXPECT_EQ(back[0].timestamp_s, 1700000000);
  EXPECT_EQ(back[0].threads, 2);
  EXPECT_TRUE(back[0].valid);
  EXPECT_DOUBLE_EQ(back[0].metrics.at("achieved_freq_ghz"), 1.25);
  EXPECT_DOUBLE_EQ(back[0].metrics.at("power_uw"), 4000.5);
  EXPECT_DOUBLE_EQ(back[0].metrics.at("wirelength_um"), 15000.25);
  // Emit -> parse -> emit is a fixed point (doubles via to_chars/from_chars).
  EXPECT_EQ(ledger_entry_json(back[0]), ledger_entry_json(e));
}

TEST(Ledger, ReaderSkipsMalformedLinesAndCountsThem) {
  const std::string good =
      ledger_entry_json(make_entry(1.0, 1000.0, 500.0, 0, 1));
  std::istringstream is(good + "\n" +
                        "{\"schema\":\"ffet.ledger.v1\",\"torn\n" +  // torn
                        "not json at all\n" +
                        "{\"schema\":\"other.v1\"}\n" +  // wrong schema
                        good + "\r\n");                  // CRLF tolerated
  ReadStats stats;
  const std::vector<LedgerEntry> entries = read_ledger(is, &stats);
  EXPECT_EQ(stats.lines, 5);
  EXPECT_EQ(stats.parsed, 2);
  EXPECT_EQ(stats.malformed, 3);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].label, entries[1].label);
}

TEST(Ledger, ReaderPreservesUnknownFields) {
  std::string line = ledger_entry_json(make_entry(1.0, 1000.0, 500.0, 0, 1));
  // Splice in a top-level numeric, an unknown metric, and a non-numeric.
  line.insert(line.size() - 1, ",\"future_number\":42,\"future_text\":\"x\"");
  const std::size_t m = line.find("\"metrics\":{") + 11;
  line.insert(m, "\"future_metric\":7,");
  std::istringstream is(line + "\n");
  ReadStats stats;
  const std::vector<LedgerEntry> entries = read_ledger(is, &stats);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].extra.at("future_number"), 42.0);
  EXPECT_DOUBLE_EQ(entries[0].metrics.at("future_metric"), 7.0);
  EXPECT_EQ(stats.unknown_fields, 1) << "only the non-numeric is uncounted";
}

TEST(Ledger, AppendCreatesParentDirectoryAndAppends) {
  const std::string dir = ::testing::TempDir() + "ffet_ledger_test";
  const std::string path = dir + "/ledger.jsonl";
  std::remove(path.c_str());
  std::string err;
  ASSERT_TRUE(append_ledger_line(path, "{\"schema\":\"ffet.ledger.v1\"}", &err))
      << err;
  ASSERT_TRUE(append_ledger_line(
      path, ledger_entry_json(make_entry(1.0, 1.0, 1.0, 0, 1)), &err))
      << err;
  ReadStats stats;
  const std::vector<LedgerEntry> entries = read_ledger_file(path, &stats, &err);
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(stats.lines, 2);
  ASSERT_EQ(entries.size(), 2u);  // bare-schema line still parses
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- trend

TEST(Trend, SingleRunIsANoteNotARegression) {
  const TrendReport rep =
      analyze_trend({make_entry(1.0, 1000.0, 500.0, 0, 1)});
  EXPECT_TRUE(rep.ok()) << "a label's first run must never fail CI";
  ASSERT_EQ(rep.notes.size(), 1u);
  EXPECT_NE(rep.notes[0].find("only 1 run"), std::string::npos);
}

TEST(Trend, IdenticalRunsAreClean) {
  // The CI self-check: N identical runs of a deterministic flow trend flat.
  std::vector<LedgerEntry> runs;
  for (int i = 0; i < 4; ++i) {
    runs.push_back(make_entry(1.25, 4000.0, 15000.0, 0, 100 + i));
  }
  const TrendReport rep = analyze_trend(runs);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.regressions, 0);
  ASSERT_EQ(rep.series.size(), 1u);
  EXPECT_EQ(rep.series[0].runs, 4);
  const std::string text = format_trend(rep);
  EXPECT_NE(text.find("TREND OK"), std::string::npos);
  EXPECT_EQ(text.find("REGRESSION"), std::string::npos);
}

TEST(Trend, FrequencyDropBeyondThresholdRegresses) {
  std::vector<LedgerEntry> runs = {make_entry(1.00, 4000.0, 15000.0, 0, 1),
                                   make_entry(1.00, 4000.0, 15000.0, 0, 2),
                                   make_entry(0.97, 4000.0, 15000.0, 0, 3)};
  const TrendReport rep = analyze_trend(runs);  // default gate: 1 % drop
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.regressions, 1);
  EXPECT_NE(format_trend(rep).find("REGRESSION"), std::string::npos);

  // Within threshold: a 0.5 % drop passes.
  runs.back().metrics["achieved_freq_ghz"] = 0.995;
  EXPECT_TRUE(analyze_trend(runs).ok());
}

TEST(Trend, DrvRiseAndValidityLossRegress) {
  std::vector<LedgerEntry> runs = {make_entry(1.0, 4000.0, 15000.0, 0, 1),
                                   make_entry(1.0, 4000.0, 15000.0, 0, 2),
                                   make_entry(1.0, 4000.0, 15000.0, 2, 3)};
  EXPECT_FALSE(analyze_trend(runs).ok()) << "any DRV rise regresses";

  runs[2].metrics["drv"] = 0;
  runs[2].valid = false;
  const TrendReport rep = analyze_trend(runs);
  EXPECT_FALSE(rep.ok()) << "valid -> invalid regresses";
  EXPECT_TRUE(rep.series[0].validity_regression);

  TrendOptions lax;
  lax.gate_validity = false;
  EXPECT_TRUE(analyze_trend(runs, lax).ok());
}

TEST(Trend, MedianWindowIgnoresOlderRuns) {
  // Power history 9000,9000,4000,4000,4100: with window=2 the baseline is
  // the recent 4000s and +2.5 % regresses; a full-history median would
  // hide it behind the old 9000s.
  std::vector<LedgerEntry> runs = {make_entry(1.0, 9000.0, 1.0, 0, 1),
                                   make_entry(1.0, 9000.0, 1.0, 0, 2),
                                   make_entry(1.0, 4000.0, 1.0, 0, 3),
                                   make_entry(1.0, 4000.0, 1.0, 0, 4),
                                   make_entry(1.0, 4100.0, 1.0, 0, 5)};
  TrendOptions o;
  o.window = 2;
  EXPECT_FALSE(analyze_trend(runs, o).ok());
  o.window = 4;
  EXPECT_TRUE(analyze_trend(runs, o).ok())
      << "median of {9000,9000,4000,4000} = 6500; 4100 is below it";
}

TEST(Trend, RssAndRuntimeAreUngatedByDefault) {
  std::vector<LedgerEntry> runs = {make_entry(1.0, 4000.0, 1.0, 0, 1),
                                   make_entry(1.0, 4000.0, 1.0, 0, 2)};
  runs[1].metrics["peak_rss_kb"] = 80000.0;  // 4x the baseline
  runs[1].metrics["runtime_ms"] = 500.0;     // 10x
  EXPECT_TRUE(analyze_trend(runs).ok())
      << "machine-dependent metrics must not gate by default";

  TrendOptions strict;
  strict.rss_rise_pct = 5.0;
  const TrendReport rep = analyze_trend(runs, strict);
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.series.size(), 1u);
  bool rss_flagged = false;
  for (const TrendMetric& m : rep.series[0].metrics) {
    if (m.metric == "peak_rss_kb") rss_flagged = m.regression;
  }
  EXPECT_TRUE(rss_flagged);
}

TEST(Trend, GroupsByKindAndLabelWithFilters) {
  LedgerEntry bench = make_entry(0.0, 0.0, 0.0, 0, 1);
  bench.kind = "bench";
  bench.label = "bench_x";
  bench.metrics = {{"runtime_ms", 100.0}};
  const std::vector<LedgerEntry> runs = {
      make_entry(1.0, 4000.0, 1.0, 0, 1), bench,
      make_entry(1.0, 4000.0, 1.0, 0, 2)};
  EXPECT_EQ(analyze_trend(runs).series.size(), 2u);
  TrendOptions only_flow;
  only_flow.kind = "flow";
  const TrendReport rep = analyze_trend(runs, only_flow);
  ASSERT_EQ(rep.series.size(), 1u);
  EXPECT_EQ(rep.series[0].kind, "flow");
  TrendOptions none;
  none.label = "no-such-label";
  EXPECT_EQ(analyze_trend(runs, none).series.size(), 0u);
}

TEST(Trend, HistoryListsChronologicallyAndFilters) {
  const std::vector<LedgerEntry> runs = {make_entry(1.0, 4000.0, 1.0, 0, 11),
                                         make_entry(1.0, 4000.0, 1.0, 0, 22)};
  const std::string text = format_history(runs, "unit");
  EXPECT_LT(text.find("[11]"), text.find("[22]"));
  EXPECT_NE(text.find("achieved_freq_ghz=1"), std::string::npos);
  EXPECT_NE(format_history(runs, "absent").find("no ledger entries"),
            std::string::npos);
}

// ----------------------------------------- ledger emission from the flow

TEST(LedgerFlow, EmissionNeverPerturbsFlowResults) {
  // With the resource probe pinned off, the flow report is a pure function
  // of the config — running with the ledger enabled must produce the very
  // same bytes as running without it, plus exactly one ledger line.
#if defined(__unix__) || defined(__APPLE__)
  ::unsetenv("FFET_LEDGER");  // the "plain" run must really be ledger-free
#endif
  obs::set_resource(false);
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  cfg.rv32_registers = 4;
  cfg.utilization = 0.65;
  cfg.front_layers = 4;
  cfg.back_layers = 4;

  const std::string ledger =
      ::testing::TempDir() + "ffet_test_flow_ledger.jsonl";
  std::remove(ledger.c_str());

  const auto ctx = flow::prepare_design(cfg);
  const flow::FlowResult plain = flow::run_physical(*ctx, cfg);

  flow::FlowConfig with_ledger = cfg;
  with_ledger.ledger_path = ledger;
  const auto ctx2 = flow::prepare_design(with_ledger);
  const flow::FlowResult recorded = flow::run_physical(*ctx2, with_ledger);
  obs::set_resource(true);

  // Wall-clock stage timings are noisy run to run regardless of the
  // ledger; everything else in the report must be byte-identical.
  flow::FlowResult plain_qor = plain;
  flow::FlowResult recorded_qor = recorded;
  plain_qor.stage_times.clear();
  recorded_qor.stage_times.clear();
  recorded_qor.config.ledger_path.clear();
  EXPECT_EQ(flow::flow_report_json(plain_qor),
            flow::flow_report_json(recorded_qor))
      << "ledger writes must not perturb the flow";

  ReadStats stats;
  std::string err;
  const std::vector<LedgerEntry> entries =
      read_ledger_file(ledger, &stats, &err);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, "flow");
  EXPECT_EQ(entries[0].label, cfg.label());
  EXPECT_TRUE(entries[0].valid == recorded.valid());
  EXPECT_DOUBLE_EQ(entries[0].metrics.at("achieved_freq_ghz"),
                   recorded.achieved_freq_ghz);
  EXPECT_DOUBLE_EQ(entries[0].metrics.at("power_uw"), recorded.power_uw);
  EXPECT_DOUBLE_EQ(
      entries[0].metrics.at("wirelength_um"),
      recorded.wirelength_front_um + recorded.wirelength_back_um);
  EXPECT_EQ(entries[0].metrics.count("peak_rss_kb"), 0u)
      << "probe off: no resource metrics in the ledger either";
  std::remove(ledger.c_str());
}

TEST(LedgerFlow, ResolveLedgerPathSemantics) {
  // Explicit path wins; FFET_LEDGER=0/empty disables; =1 -> default path.
  EXPECT_EQ(flow::resolve_ledger_path("x/y.jsonl"), "x/y.jsonl");
#if defined(__unix__) || defined(__APPLE__)
  ::setenv("FFET_LEDGER", "0", 1);
  EXPECT_EQ(flow::resolve_ledger_path(), "");
  ::setenv("FFET_LEDGER", "", 1);
  EXPECT_EQ(flow::resolve_ledger_path(), "");
  ::setenv("FFET_LEDGER", "1", 1);
  EXPECT_EQ(flow::resolve_ledger_path(), flow::kDefaultLedgerPath);
  ::setenv("FFET_LEDGER", "custom/path.jsonl", 1);
  EXPECT_EQ(flow::resolve_ledger_path(), "custom/path.jsonl");
  ::unsetenv("FFET_LEDGER");
  EXPECT_EQ(flow::resolve_ledger_path(), "");
#endif
}

// ------------------------------------------- reports over a real flow

class ReportFlowTest : public ::testing::Test {
 protected:
  /// One flow run and the physical state it kept.
  struct KeptRun {
    flow::FlowResult result;
    flow::PhysicalState state;
  };

  static void SetUpTestSuite() {
    flow::FlowConfig cfg;
    cfg.tech_kind = tech::TechKind::Ffet3p5T;
    cfg.backside_input_fraction = 0.5;
    cfg.rv32_registers = 8;  // reduced core, same as test_flow
    cfg.utilization = 0.65;
    ctx_ = flow::prepare_design(cfg).release();
    run_ = new KeptRun;
    run_->result = flow::run_physical(*ctx_, cfg, &run_->state);
    // The same point through every optional signoff step: activity
    // simulation, the ECO and its re-signoff.
    cfg.eco_passes = 2;
    cfg.simulate_activity = true;
    eco_run_ = new KeptRun;
    eco_run_->result = flow::run_physical(*ctx_, cfg, &eco_run_->state);
  }
  static void TearDownTestSuite() {
    delete run_;
    delete eco_run_;
    delete ctx_;  // after the states: their netlists use its library
    run_ = eco_run_ = nullptr;
    ctx_ = nullptr;
  }
  static flow::DesignContext* ctx_;
  static KeptRun* run_;      ///< the default reduced point
  static KeptRun* eco_run_;  ///< eco_passes = 2, simulate_activity
};

flow::DesignContext* ReportFlowTest::ctx_ = nullptr;
ReportFlowTest::KeptRun* ReportFlowTest::run_ = nullptr;
ReportFlowTest::KeptRun* ReportFlowTest::eco_run_ = nullptr;

TEST_F(ReportFlowTest, KeptStateIsTheSignedOffDesign) {
  // The artifacts a caller keeps must be the design whose PPA the run
  // reported: a fresh timer on them reproduces signoff bit for bit, and
  // the netlist and merged DEF carry every hold and ECO buffer.
  for (const KeptRun* run : {run_, eco_run_}) {
    const flow::FlowResult& r = run->result;
    const flow::PhysicalState& st = run->state;
    SCOPED_TRACE(r.config.label());
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(st.eco_ran, r.config.eco_passes > 0);

    sta::Sta sta(&st.nl, &st.rc, st.sta_options);
    const sta::TimingReport timing =
        sta.analyze_timing(&st.cts.sink_latency_ps);
    EXPECT_EQ(timing.achieved_freq_ghz, r.achieved_freq_ghz);
    EXPECT_EQ(timing.critical_path_ps, r.critical_path_ps);
    const sta::HoldReport hold = sta.analyze_hold(&st.cts.sink_latency_ps);
    EXPECT_EQ(hold.worst_slack_ps, r.hold_slack_ps);
    EXPECT_EQ(hold.violations, r.hold_violations);

    EXPECT_EQ(st.nl.num_instances(), r.num_instances);
    EXPECT_EQ(st.merged.components.size(),
              static_cast<std::size_t>(r.num_instances));
    if (r.resource.sampled) {
      EXPECT_EQ(static_cast<long long>(st.merged.components.size()),
                r.resource.def_components);
    }
  }
}

TEST_F(ReportFlowTest, WorstPathIsBitIdenticalToStaCriticalPath) {
  const flow::PhysicalState& st = run_->state;
  sta::Sta sta(&st.nl, &st.rc, st.sta_options);
  const sta::TimingReport timing =
      sta.analyze_timing(&st.cts.sink_latency_ps);

  TimingReportOptions opts;
  opts.top_k = 10;
  const std::vector<TimingPath> paths = build_timing_paths(
      sta, st.nl, &st.rc, &st.cts.sink_latency_ps, opts);

  ASSERT_GE(paths.size(), 10u) << "the reduced core has >= 10 endpoints";
  EXPECT_EQ(paths[0].path_names, timing.critical_path)
      << "worst path must render bit-identically to the STA's string";

  const std::vector<sta::PathEnd> ends =
      sta.worst_paths(static_cast<int>(paths.size()),
                      &st.cts.sink_latency_ps);
  std::vector<std::string> endpoints;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].endpoint, sta.endpoint_name(ends[i]));
    EXPECT_EQ(paths[i].side_crossings, sta.path_side_crossings(ends[i]));
    EXPECT_FALSE(paths[i].stages.empty());
    // The stage-level crossing markers must sum to the path's count.
    int marked = 0;
    for (const PathStage& s : paths[i].stages) marked += s.crossing ? 1 : 0;
    EXPECT_EQ(marked, paths[i].side_crossings) << "path " << i;
    endpoints.push_back(paths[i].endpoint);
  }
  std::sort(endpoints.begin(), endpoints.end());
  EXPECT_EQ(std::unique(endpoints.begin(), endpoints.end()), endpoints.end())
      << "top-K endpoints are distinct by construction";

  // Slack convention: with no explicit period the worst endpoint sits at
  // exactly zero slack, everything else at >= 0.
  EXPECT_DOUBLE_EQ(paths[0].slack_ps, 0.0);
  for (const TimingPath& p : paths) EXPECT_GE(p.slack_ps, -1e-9);

  const std::string text = format_timing_report(paths, 0.0);
  EXPECT_NE(text.find("side-crossings"), std::string::npos);
  EXPECT_NE(text.find(paths[0].endpoint), std::string::npos);
}

TEST_F(ReportFlowTest, TimingReportIsDeterministic) {
  const flow::PhysicalState& st = run_->state;
  sta::Sta sta(&st.nl, &st.rc, st.sta_options);
  sta.analyze_timing(&st.cts.sink_latency_ps);
  TimingReportOptions opts;
  opts.top_k = 5;
  const auto a = build_timing_paths(sta, st.nl, &st.rc,
                                    &st.cts.sink_latency_ps, opts);
  const auto b = build_timing_paths(sta, st.nl, &st.rc,
                                    &st.cts.sink_latency_ps, opts);
  EXPECT_EQ(format_timing_report(a, 0.0), format_timing_report(b, 0.0));
}

TEST_F(ReportFlowTest, NetAttributionCoversRoutedDesign) {
  const flow::PhysicalState& st = run_->state;
  const std::string def_before = io::to_def_string(st.merged);
  const NetReport rep = build_net_report(st.nl, st.merged, st.rc);
  EXPECT_EQ(io::to_def_string(st.merged), def_before)
      << "building a report must not mutate the design";

  ASSERT_EQ(rep.nets.size(),
            static_cast<std::size_t>(st.nl.num_nets()));
  EXPECT_GT(rep.total_length_um, 0.0);
  EXPECT_GT(rep.total_elmore_ps, 0.0);
  EXPECT_GT(rep.total_vias, 0);

  // At 50/50 dual-sided pins, both sides carry wire and at least one net
  // is routed on both (its driver's Drain Merge feeds front and back).
  double front = 0.0, back = 0.0;
  bool any_dual = false;
  for (const NetAttribution& n : rep.nets) {
    front += n.length_front_um;
    back += n.length_back_um;
    any_dual = any_dual || n.dual_sided;
    // Per-layer split must reconcile with the side totals.
    double layer_sum = 0.0;
    for (const auto& [layer, um] : n.layer_um) layer_sum += um;
    EXPECT_NEAR(layer_sum, n.length_um(), 1e-6) << n.name;
  }
  EXPECT_GT(front, 0.0);
  EXPECT_GT(back, 0.0);
  EXPECT_TRUE(any_dual);

  EXPECT_GT(rep.length_hist.count, 0u);
  EXPECT_GT(rep.cap_hist.count, 0u);
  EXPECT_GT(rep.elmore_hist.count, 0u);

  const std::string summary = format_net_report(rep, 10);
  EXPECT_NE(summary.find("Net attribution"), std::string::npos);
  EXPECT_NE(summary.find("Top 10 nets by worst sink Elmore"),
            std::string::npos);
  const std::string detail =
      format_net_detail(rep, rep.nets.front().name);
  EXPECT_NE(detail.find(rep.nets.front().name), std::string::npos);
  EXPECT_NE(format_net_detail(rep, "no_such_net").find("not found"),
            std::string::npos);
}

// ------------------------------------------------- qor_only diff mode

TEST(QorDiff, QorOnlyIgnoresTimingsButGatesQorExactly) {
  // Two runs of the same point: identical QoR, different stage timings (a
  // rerun never reproduces wall clocks).  The default diff surfaces the
  // timing deltas; qor_only must report a clean pass — this is the mode
  // the serve smoke uses to compare a daemon run against an in-process
  // run.
  flow::FlowResult a = make_result(1.2, 4000.0, 0, 0);
  flow::FlowResult b = make_result(1.2, 4000.0, 0, 0);
  b.stage_times = {{"floorplan", 2.5, 2.0}, {"route", 55.0, 50.0}};
  const std::vector<FlowRecord> base = {record_of(a)};
  const std::vector<FlowRecord> now = {record_of(b)};

  EXPECT_FALSE(diff_flow_reports(base, now).deltas.empty());
  DiffOptions qor;
  qor.qor_only = true;
  const DiffReport rep = diff_flow_reports(base, now, qor);
  EXPECT_TRUE(rep.deltas.empty()) << format_diff(rep);
  EXPECT_TRUE(rep.ok());

  // A QoR drift far below the percent thresholds passes the default diff
  // but fails qor_only: identity mode gates on exact equality.
  flow::FlowResult c = make_result(1.2, 4002.0, 0, 0);  // +0.05 % power
  const std::vector<FlowRecord> drifted = {record_of(c)};
  EXPECT_TRUE(diff_flow_reports(base, drifted).ok());
  EXPECT_FALSE(diff_flow_reports(base, drifted, qor).ok());
}

// ------------------------------------------- multi-process ledger appends

TEST(Ledger, ForkedWritersInterleaveWithoutTearing) {
  // The serve daemon's forked workers all append to one ledger file; each
  // append must be one atomic O_APPEND write or concurrent lines shear
  // into fragments.  Fork real processes (threads share the file table
  // and would not exercise cross-process interleaving) and hammer one
  // path.
  const std::string dir = ::testing::TempDir() + "ffet_ledger_fork_test";
  const std::string path = dir + "/ledger.jsonl";
  std::remove(path.c_str());

  constexpr int kWriters = 6;
  constexpr int kLinesPerWriter = 40;
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (int i = 0; i < kLinesPerWriter; ++i) {
        LedgerEntry e = make_entry(1.0 + w, 1000.0 + i, 500.0, 0, 1);
        e.label = "writer-" + std::to_string(w);
        // Pad the line through real metrics so a torn write could not
        // accidentally still parse.
        for (int m = 0; m < 8; ++m) {
          e.metrics["padding_metric_" + std::to_string(m)] = m * 1.25;
        }
        if (!append_ledger_line(path, ledger_entry_json(e))) _exit(2);
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  ReadStats stats;
  std::string err;
  const std::vector<LedgerEntry> entries = read_ledger_file(path, &stats, &err);
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(stats.malformed, 0) << "a torn line means appends interleaved";
  ASSERT_EQ(entries.size(),
            static_cast<std::size_t>(kWriters * kLinesPerWriter));
  std::map<std::string, int> per_writer;
  for (const LedgerEntry& e : entries) ++per_writer[e.label];
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(per_writer["writer-" + std::to_string(w)], kLinesPerWriter);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ffet::report

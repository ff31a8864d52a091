// test_serve.cpp — the sweep-service subsystem.
//
// Covers, in rough dependency order:
//   * FlowConfig JSON round-trip (the wire format both binaries speak) and
//     its coupling to label(), the service cache key;
//   * the framed protocol over a real socketpair;
//   * the persistent result cache: persistence across daemon generations,
//     corruption tolerance, collision safety;
//   * the daemon end to end: QoR identity with in-process run_sweep,
//     all-cached resubmission, single-flight dedup of identical points;
//   * crash isolation: workers SIGKILLed externally and via the
//     deterministic FFET_SERVE_TEST_CRASH* hooks — retry-once semantics,
//     worker_died reporting, daemon survival;
//   * which environment sinks a forked worker keeps.
//
// Every flow config here uses rv32_registers = 8: the service mechanics
// under test are register-count-independent and the small core keeps each
// flow run ~100 ms.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "flow/config_json.h"
#include "flow/flow.h"
#include "flow/report_json.h"
#include "obs/obs.h"
#include "report/json.h"
#include "report/ledger.h"
#include "report/qor.h"
#include "report/serve_stats.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/config_codec.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace ffet;

namespace {

flow::FlowConfig small_config(double util = 0.5) {
  flow::FlowConfig cfg;
  cfg.rv32_registers = 8;
  cfg.utilization = util;
  return cfg;
}

/// A config with every field moved off its default — the round-trip test
/// must prove each one survives the wire.
flow::FlowConfig exotic_config() {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Cfet4T;
  cfg.front_layers = 10;
  cfg.back_layers = 7;
  cfg.backside_input_fraction = 0.375;
  cfg.target_freq_ghz = 2.25;
  cfg.utilization = 0.63;
  cfg.aspect_ratio = 1.5;
  cfg.rv32_registers = 12;
  cfg.seed = 77;
  cfg.simulate_activity = true;
  cfg.activity_cycles = 123;
  cfg.eco_passes = 2;
  cfg.threads = 3;
  cfg.trace_path = "t.json";
  cfg.flow_report_path = "r.jsonl";
  cfg.ledger_path = "l.jsonl";
  return cfg;
}

std::string run_sweep_jsonl(const std::vector<flow::FlowConfig>& sweep) {
  std::string jsonl;
  for (const flow::FlowResult& r : flow::run_sweep(sweep)) {
    jsonl += flow::flow_report_json(r);
    jsonl += '\n';
  }
  return jsonl;
}

std::string lines_jsonl(const std::vector<serve::ResultLine>& results) {
  std::string jsonl;
  for (const serve::ResultLine& r : results) {
    jsonl += r.line;
    jsonl += '\n';
  }
  return jsonl;
}

/// QoR-identity assertion between two flow-report JSONL blobs (the service
/// contract: per-point bit-identical config/validity/diagnostics/ppa/eco).
void expect_qor_identical(const std::string& base_jsonl,
                          const std::string& cand_jsonl) {
  std::istringstream bs(base_jsonl), cs(cand_jsonl);
  const auto base = report::read_flow_reports(bs);
  const auto cand = report::read_flow_reports(cs);
  ASSERT_EQ(base.size(), cand.size());
  report::DiffOptions opts;
  opts.qor_only = true;
  const report::DiffReport d = report::diff_flow_reports(base, cand, opts);
  EXPECT_EQ(d.deltas.size(), 0u) << report::format_diff(d);
  EXPECT_EQ(d.regressions, 0);
}

/// Unique-per-test scratch paths so parallel ctest shards don't collide.
std::string scratch(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return "serve_scratch_" + std::string(info->test_suite_name()) + "_" +
         std::string(info->name()) + "_" + stem;
}

void rm_rf(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) { /* best effort */ }
}

/// Sets one obs::env() field for a test's scope; workers forked meanwhile
/// inherit it.
template <class T>
struct EnvFieldGuard {
  T& field;
  T saved;
  EnvFieldGuard(T& f, T value) : field(f), saved(std::exchange(f, value)) {}
  ~EnvFieldGuard() { field = saved; }
};

}  // namespace

// ---------------------------------------------------------------------------
// FlowConfig JSON round-trip
// ---------------------------------------------------------------------------

TEST(ConfigJson, RoundTripsEveryField) {
  const flow::FlowConfig cfg = exotic_config();
  const std::string json = flow::config_to_json(cfg);
  std::string error;
  const auto back = serve::configs_from_json_text("[" + json + "]", &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), 1u);
  const flow::FlowConfig& b = (*back)[0];
  EXPECT_EQ(b.tech_kind, cfg.tech_kind);
  EXPECT_EQ(b.front_layers, cfg.front_layers);
  EXPECT_EQ(b.back_layers, cfg.back_layers);
  EXPECT_EQ(b.backside_input_fraction, cfg.backside_input_fraction);
  EXPECT_EQ(b.target_freq_ghz, cfg.target_freq_ghz);
  EXPECT_EQ(b.utilization, cfg.utilization);
  EXPECT_EQ(b.aspect_ratio, cfg.aspect_ratio);
  EXPECT_EQ(b.rv32_registers, cfg.rv32_registers);
  EXPECT_EQ(b.seed, cfg.seed);
  EXPECT_EQ(b.simulate_activity, cfg.simulate_activity);
  EXPECT_EQ(b.activity_cycles, cfg.activity_cycles);
  EXPECT_EQ(b.eco_passes, cfg.eco_passes);
  EXPECT_EQ(b.threads, cfg.threads);
  EXPECT_EQ(b.trace_path, cfg.trace_path);
  EXPECT_EQ(b.flow_report_path, cfg.flow_report_path);
  EXPECT_EQ(b.ledger_path, cfg.ledger_path);
  // The service cache key must survive the wire byte-exactly.
  EXPECT_EQ(b.label(), cfg.label());
  // And a second serialization must be byte-stable (cache keys, dedup).
  EXPECT_EQ(flow::config_to_json(b), json);
}

TEST(ConfigJson, EveryLabelKnobSurvivesTheWire) {
  // label() is the cache key: for each config knob encoded in it, perturb
  // the knob and check (a) the label really changes — the knob is not
  // silently aliased — and (b) the perturbed config round-trips to the
  // same label.  The compile-time member census in config_json.cpp forces
  // this list to be revisited when FlowConfig grows a field.
  using Mut = void (*)(flow::FlowConfig&);
  const Mut mutations[] = {
      [](flow::FlowConfig& c) { c.tech_kind = tech::TechKind::Cfet4T; },
      [](flow::FlowConfig& c) { c.front_layers = 9; },
      [](flow::FlowConfig& c) { c.back_layers = 3; },
      [](flow::FlowConfig& c) { c.backside_input_fraction = 0.75; },
      [](flow::FlowConfig& c) { c.target_freq_ghz = 3.5; },
      [](flow::FlowConfig& c) { c.utilization = 0.81; },
      [](flow::FlowConfig& c) { c.rv32_registers = 24; },
      [](flow::FlowConfig& c) { c.seed = 99; },
      [](flow::FlowConfig& c) { c.eco_passes = 4; },
  };
  const flow::FlowConfig base;
  for (const Mut mutate : mutations) {
    flow::FlowConfig cfg;
    mutate(cfg);
    EXPECT_NE(cfg.label(), base.label());
    std::string error;
    const auto back = serve::configs_from_json_text(
        std::string("[") + flow::config_to_json(cfg) + "]", &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ((*back)[0].label(), cfg.label());
  }
}

TEST(ConfigJson, UnknownFieldIsRejected) {
  std::string error;
  EXPECT_FALSE(serve::configs_from_json_text(
                   R"([{"utilization":0.5,"utilisation":0.6}])", &error)
                   .has_value());
  EXPECT_NE(error.find("utilisation"), std::string::npos);
}

TEST(ConfigJson, TypeMismatchIsRejected) {
  std::string error;
  EXPECT_FALSE(
      serve::configs_from_json_text(R"([{"utilization":"high"}])", &error)
          .has_value());
  EXPECT_FALSE(
      serve::configs_from_json_text(R"([{"tech":3.5}])", &error).has_value());
  EXPECT_FALSE(serve::configs_from_json_text(R"({"tech":"ffet"})", &error)
                   .has_value());  // object, not array
}

TEST(ConfigJson, AbsentFieldsKeepDefaults) {
  std::string error;
  const auto back = serve::configs_from_json_text(R"([{}])", &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ((*back)[0].label(), flow::FlowConfig{}.label());
}

// ---------------------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------------------

TEST(Protocol, FrameRoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload(100000, 'x');  // bigger than one pipe buffer
  ASSERT_TRUE(serve::write_frame(sv[0], serve::FrameType::kSubmit, payload));
  ASSERT_TRUE(serve::write_frame(sv[0], serve::FrameType::kPing, ""));
  const auto f1 = serve::read_frame(sv[1]);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, serve::FrameType::kSubmit);
  EXPECT_EQ(f1->payload, payload);
  const auto f2 = serve::read_frame(sv[1]);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, serve::FrameType::kPing);
  EXPECT_TRUE(f2->payload.empty());
  ::close(sv[0]);
  // Peer closed: EOF, not a hang or a garbage frame.
  EXPECT_FALSE(serve::read_frame(sv[1]).has_value());
  ::close(sv[1]);
}

TEST(Protocol, ResultAndJobPayloadsRoundTrip) {
  const std::string packed = serve::pack_result(
      42, serve::kFlagCached | serve::kFlagRetried, "{\"a\":1}");
  std::uint32_t index = 0, flags = 0;
  std::string line;
  ASSERT_TRUE(serve::unpack_result(packed, index, flags, line));
  EXPECT_EQ(index, 42u);
  EXPECT_EQ(flags, serve::kFlagCached | serve::kFlagRetried);
  EXPECT_EQ(line, "{\"a\":1}");
  EXPECT_FALSE(serve::unpack_result("short", index, flags, line));

  const std::string job = serve::pack_job(1, "{\"seed\":2}");
  std::uint32_t attempt = 0;
  std::uint64_t epoch = 99;
  std::string cfg, span_path;
  ASSERT_TRUE(serve::unpack_job(job, attempt, cfg, epoch, span_path));
  EXPECT_EQ(attempt, 1u);
  EXPECT_EQ(cfg, "{\"seed\":2}");
  EXPECT_EQ(epoch, 0u);
  EXPECT_TRUE(span_path.empty());

  // Traced job: the shared epoch and the span file path ride along.
  const std::string traced =
      serve::pack_job(0, "{\"seed\":3}", 123456789ull, "/tmp/span.7.json");
  ASSERT_TRUE(serve::unpack_job(traced, attempt, cfg, epoch, span_path));
  EXPECT_EQ(attempt, 0u);
  EXPECT_EQ(cfg, "{\"seed\":3}");
  EXPECT_EQ(epoch, 123456789ull);
  EXPECT_EQ(span_path, "/tmp/span.7.json");
  EXPECT_FALSE(serve::unpack_job("short", attempt, cfg, epoch, span_path));
}

TEST(Protocol, OversizedHeaderIsRejectedNotAllocated) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Hand-craft a header announcing a 1 GiB payload.
  unsigned char hdr[8] = {1, 0, 0, 0, 0, 0, 0, 0x40};
  ASSERT_EQ(::write(sv[0], hdr, sizeof(hdr)),
            static_cast<ssize_t>(sizeof(hdr)));
  EXPECT_FALSE(serve::read_frame(sv[1]).has_value());
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(ResultCache, StoreLookupAndPersistAcrossGenerations) {
  const std::string dir = scratch("cache");
  rm_rf(dir);
  const std::string label = "FFET test label";
  const std::string line = "{\"label\":\"FFET test label\",\"x\":1}";
  {
    serve::ResultCache cache(dir);
    EXPECT_EQ(cache.load_index(), 0);
    std::string got;
    EXPECT_FALSE(cache.lookup(label, &got));
    EXPECT_TRUE(cache.store(label, line));
    EXPECT_TRUE(cache.lookup(label, &got));
    EXPECT_EQ(got, line);
    EXPECT_EQ(cache.entries(), 1);
  }
  {
    // A new daemon generation scans the same directory.
    serve::ResultCache cache(dir);
    EXPECT_EQ(cache.load_index(), 1);
    std::string got;
    EXPECT_TRUE(cache.lookup(label, &got));
    EXPECT_EQ(got, line);
  }
  rm_rf(dir);
}

TEST(ResultCache, CorruptAndForeignFilesAreSkippedNotServed) {
  const std::string dir = scratch("cache");
  rm_rf(dir);
  serve::ResultCache cache(dir);
  ASSERT_TRUE(cache.store("good", "{\"label\":\"good\"}"));
  // Torn write: not JSON at all.
  {
    std::ofstream f(dir + "/zz_torn.json");  // stray top-level file: ignored
    f << "{\"label\":\"good";
  }
  const std::string sub = dir + "/de";
  ASSERT_EQ(std::system(("mkdir -p '" + sub + "'").c_str()), 0);
  {
    std::ofstream f(sub + "/deadbeefdeadbeef.json");
    f << "{\"label\":\"good";  // truncated mid-string
  }
  {
    std::ofstream f(sub + "/deadbeefdeadbee0.json");
    f << "[1,2,3]";  // parseable but no label
  }
  serve::ResultCache fresh(dir);
  EXPECT_EQ(fresh.load_index(), 1);  // only the good entry
  EXPECT_GE(fresh.skipped_files(), 2);
  std::string got;
  EXPECT_TRUE(fresh.lookup("good", &got));
  rm_rf(dir);
}

TEST(ResultCache, HashCollisionDoesNotClobberOtherLabel) {
  const std::string dir = scratch("cache");
  rm_rf(dir);
  // Simulate an FNV-64 filename collision: plant label "other"'s entry at
  // exactly the file store("victim") hashes to.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(serve::fnv1a64("victim")));
  const std::string sub = dir + "/" + std::string(hex, 2);
  ASSERT_EQ(std::system(("mkdir -p '" + sub + "'").c_str()), 0);
  const std::string other_line = "{\"label\":\"other\",\"x\":1}";
  {
    std::ofstream f(sub + "/" + hex + ".json");
    f << other_line << "\n";
  }
  serve::ResultCache cache(dir);
  EXPECT_EQ(cache.load_index(), 1);
  const std::string victim_line = "{\"label\":\"victim\",\"x\":2}";
  ASSERT_TRUE(cache.store("victim", victim_line));
  // Both labels survive a daemon restart: the colliding store diverted to
  // a suffixed sibling file instead of overwriting the other label.
  serve::ResultCache fresh(dir);
  EXPECT_EQ(fresh.load_index(), 2);
  std::string got;
  EXPECT_TRUE(fresh.lookup("other", &got));
  EXPECT_EQ(got, other_line);
  EXPECT_TRUE(fresh.lookup("victim", &got));
  EXPECT_EQ(got, victim_line);
  // Re-storing an already-diverted label updates its own file in place
  // rather than growing a new suffix each time.
  ASSERT_TRUE(fresh.store("victim", victim_line));
  serve::ResultCache again(dir);
  EXPECT_EQ(again.load_index(), 2);
  rm_rf(dir);
}

TEST(ResultCache, DisabledCacheNeverHits) {
  serve::ResultCache cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.store("l", "{}"));
  std::string got;
  EXPECT_FALSE(cache.lookup("l", &got));
}

// ---------------------------------------------------------------------------
// End-to-end service
// ---------------------------------------------------------------------------

TEST(Serve, ShardedSweepIsQoRIdenticalToInProcessAndResubmitIsAllCached) {
  const std::string sock = scratch("sock");
  const std::string cache_dir = scratch("cache");
  rm_rf(cache_dir);
  std::remove(sock.c_str());

  std::vector<flow::FlowConfig> sweep;
  for (int i = 0; i < 4; ++i) sweep.push_back(small_config(0.46 + 0.08 * i));
  const std::string baseline = run_sweep_jsonl(sweep);

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir = cache_dir;
  opts.workers = 2;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.workers(), 2);
  EXPECT_EQ(server.worker_pids().size(), 2u);

  std::vector<serve::ResultLine> results;
  serve::SubmitStats stats;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &stats, &error))
      << error;
  ASSERT_EQ(results.size(), sweep.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);  // streamed in point order
    EXPECT_FALSE(results[i].cached);
    EXPECT_FALSE(results[i].worker_died);
  }
  expect_qor_identical(baseline, lines_jsonl(results));
  EXPECT_EQ(stats.ran, static_cast<long long>(sweep.size()));

  // Identical resubmission: served entirely from cache, zero flow runs.
  std::vector<serve::ResultLine> again;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &again, &stats, &error))
      << error;
  EXPECT_EQ(stats.cache_hits, static_cast<long long>(sweep.size()));
  EXPECT_EQ(stats.ran, 0);
  for (const serve::ResultLine& r : again) EXPECT_TRUE(r.cached);
  // Cached lines are byte-identical to the first pass, not just QoR-equal.
  EXPECT_EQ(lines_jsonl(again), lines_jsonl(results));

  const serve::ServeStats ss = server.stats();
  EXPECT_EQ(ss.flow_runs, static_cast<long long>(sweep.size()));
  EXPECT_EQ(ss.cache_hits, static_cast<long long>(sweep.size()));
  EXPECT_EQ(ss.worker_deaths, 0);

  server.stop();
  rm_rf(cache_dir);
}

TEST(Serve, CachePersistsAcrossDaemonRestart) {
  const std::string sock = scratch("sock");
  const std::string cache_dir = scratch("cache");
  rm_rf(cache_dir);
  const std::vector<flow::FlowConfig> sweep = {small_config()};

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir = cache_dir;
  opts.workers = 1;
  std::string error;
  std::string first_line;
  {
    serve::Server server(opts);
    ASSERT_TRUE(server.start(&error)) << error;
    std::vector<serve::ResultLine> results;
    ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, nullptr, &error))
        << error;
    first_line = results[0].line;
    server.stop();
  }
  {
    serve::Server server(opts);
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(server.cache_entries(), 1);
    std::vector<serve::ResultLine> results;
    serve::SubmitStats stats;
    ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &stats, &error))
        << error;
    EXPECT_EQ(stats.cache_hits, 1);
    EXPECT_EQ(results[0].line, first_line);
    EXPECT_EQ(server.stats().flow_runs, 0);
    server.stop();
  }
  rm_rf(cache_dir);
}

TEST(Serve, IdenticalPointsInOneSweepSingleFlight) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());
  // Three copies of one point; resolve() runs for all of them before any
  // completes (1 worker), so exactly one schedules and two join.
  const std::vector<flow::FlowConfig> sweep = {small_config(), small_config(),
                                               small_config()};

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();  // no cache: dedup must come from single-flight
  opts.workers = 1;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<serve::ResultLine> results;
  serve::SubmitStats stats;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &stats, &error))
      << error;
  EXPECT_EQ(server.stats().flow_runs, 1);
  EXPECT_EQ(server.stats().single_flight_joins, 2);
  EXPECT_EQ(stats.joined, 2);
  // Joined points return the one run's exact line.
  EXPECT_EQ(results[1].line, results[0].line);
  EXPECT_EQ(results[2].line, results[0].line);
  EXPECT_TRUE(results[1].joined);
  server.stop();
}

// ---------------------------------------------------------------------------
// Crash isolation
// ---------------------------------------------------------------------------

TEST(Serve, SigkilledWorkerIsReapedPointRetriedDaemonSurvives) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());

  // One worker, killed externally, makes the sequence deterministic: the
  // single monitor discovers the death on the first point, reaps, forks a
  // replacement and retries; the second point runs normally on the fresh
  // worker.
  const std::vector<flow::FlowConfig> sweep = {small_config(0.5),
                                               small_config(0.58)};
  const std::string baseline = run_sweep_jsonl(sweep);

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 1;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::vector<pid_t> pids = server.worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  std::vector<serve::ResultLine> results;
  serve::SubmitStats stats;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &stats, &error))
      << error;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].retried);
  EXPECT_FALSE(results[0].worker_died);
  EXPECT_FALSE(results[1].retried);
  EXPECT_FALSE(results[1].worker_died);
  expect_qor_identical(baseline, lines_jsonl(results));

  const serve::ServeStats ss = server.stats();
  EXPECT_EQ(ss.worker_deaths, 1);
  EXPECT_EQ(ss.worker_restarts, 1);
  EXPECT_EQ(ss.retries, 1);
  // The daemon is fully alive: a fresh live worker, and the replacement is
  // a different process than the one we killed.
  const std::vector<pid_t> fresh = server.worker_pids();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_NE(fresh[0], pids[0]);
  EXPECT_EQ(::kill(fresh[0], 0), 0);
  server.stop();
}

TEST(Serve, CrashOncePointIsRetriedOnFreshWorker) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());
  // Poison the 0.58 point: its first attempt SIGKILLs the worker mid-run
  // (after the job was accepted — a real mid-flow crash, not a dead fd).
  EnvFieldGuard crash(obs::env().serve_test_crash, std::string("util=0.58"));

  const std::vector<flow::FlowConfig> sweep = {small_config(0.5),
                                               small_config(0.58)};

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 2;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<serve::ResultLine> results;
  serve::SubmitStats stats;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &stats, &error))
      << error;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].retried);
  EXPECT_TRUE(results[1].retried);
  EXPECT_FALSE(results[1].worker_died);
  EXPECT_EQ(stats.retried, 1);
  EXPECT_EQ(stats.worker_died, 0);
  EXPECT_GE(server.stats().worker_deaths, 1);

  // The retried point's QoR matches an in-process run exactly — a crash
  // plus retry must not perturb determinism.
  expect_qor_identical(run_sweep_jsonl(sweep), lines_jsonl(results));
  server.stop();
}

TEST(Serve, CrashAlwaysPointIsReportedWorkerDiedOthersUnaffected) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());
  EnvFieldGuard crash(obs::env().serve_test_crash_always,
                      std::string("util=0.58"));

  const std::vector<flow::FlowConfig> sweep = {small_config(0.5),
                                               small_config(0.58),
                                               small_config(0.66)};

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir = scratch("cache");
  rm_rf(opts.cache_dir);
  opts.workers = 2;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<serve::ResultLine> results;
  serve::SubmitStats stats;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &stats, &error))
      << error;
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].worker_died);
  EXPECT_TRUE(results[1].worker_died);
  EXPECT_FALSE(results[2].worker_died);
  EXPECT_EQ(stats.worker_died, 1);

  // The synthetic line is a well-formed invalid record naming worker_died.
  std::istringstream is(results[1].line);
  const auto recs = report::read_flow_reports(is);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_FALSE(recs[0].valid);
  EXPECT_NE(recs[0].invalid_reason.find("worker_died"), std::string::npos);
  // And it carries the point's own config label.
  EXPECT_EQ(recs[0].label, sweep[1].label());

  // A worker_died line is never cached: the poisoned point misses again.
  serve::SubmitStats again;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, &again, &error))
      << error;
  EXPECT_EQ(again.cache_hits, 2);
  EXPECT_EQ(again.worker_died, 1);

  server.stop();
  rm_rf(opts.cache_dir);
}

TEST(Serve, PingAndShutdownRoundTrip) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());
  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 1;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_TRUE(serve::ping(sock, &error)) << error;
  EXPECT_TRUE(serve::request_shutdown(sock, &error)) << error;
  server.wait();  // returns because of the shutdown request
  server.stop();
  // Socket is unlinked; a fresh ping now fails to connect.
  EXPECT_FALSE(serve::ping(sock, &error));
}

TEST(Serve, BadSubmissionGetsErrorNotHang) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());
  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 1;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = serve::connect_unix(sock, &error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_TRUE(serve::write_frame(fd, serve::FrameType::kSubmit,
                                 "[{\"bogus_knob\":1}]"));
  const auto reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, serve::FrameType::kError);
  EXPECT_NE(reply->payload.find("bogus_knob"), std::string::npos);
  ::close(fd);
  server.stop();
}

// ---------------------------------------------------------------------------
// Observability plane: STATS verb, cross-process tracing, attribution
// ---------------------------------------------------------------------------

TEST(ServeObs, StatsVerbReturnsParseableSnapshot) {
  const std::string sock = scratch("sock");
  const std::string cache_dir = scratch("cache");
  rm_rf(cache_dir);
  std::remove(sock.c_str());

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir = cache_dir;
  opts.workers = 1;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::vector<flow::FlowConfig> sweep = {small_config(0.48),
                                               small_config(0.56)};
  std::vector<serve::ResultLine> results;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, nullptr, &error))
      << error;

  // Over the wire: the kStats verb answers with the same JSON the in-process
  // accessor returns.
  std::string wire_json;
  ASSERT_TRUE(serve::query_stats(sock, &wire_json, &error)) << error;
  std::string perr;
  const auto snap = report::parse_serve_stats(wire_json, &perr);
  ASSERT_TRUE(snap.has_value()) << perr;

  EXPECT_EQ(snap->schema, "ffet.serve_stats.v1");
  EXPECT_EQ(snap->pid, static_cast<long long>(::getpid()));
  EXPECT_EQ(snap->workers, 1);
  EXPECT_GT(snap->uptime_ms, 0.0);
  EXPECT_EQ(snap->queue_depth, 0);
  EXPECT_EQ(snap->in_flight, 0);
  EXPECT_EQ(snap->cache_entries, 2);
  EXPECT_EQ(snap->counters.at("requests"), 1);
  EXPECT_EQ(snap->counters.at("points"), 2);
  EXPECT_EQ(snap->counters.at("cache_misses"), 2);
  EXPECT_EQ(snap->counters.at("flow_runs"), 2);
  EXPECT_EQ(snap->counters.at("worker_deaths"), 0);

  // All three phase histograms saw both points.
  ASSERT_EQ(snap->phase_order.size(), 3u);
  for (const char* phase : {"queue_wait", "cache_probe", "worker_run"}) {
    ASSERT_TRUE(snap->phases.count(phase)) << phase;
    const report::ServeStatsPhase& p = snap->phases.at(phase);
    EXPECT_EQ(p.count, 2) << phase;
    EXPECT_GE(p.max, p.min) << phase;
    EXPECT_GE(p.p95, p.p50) << phase;
    EXPECT_FALSE(p.buckets.empty()) << phase;
  }
  // worker_run of a real flow is not instantaneous.
  EXPECT_GT(snap->phases.at("worker_run").sum, 0.0);

  ASSERT_EQ(snap->slots.size(), 1u);
  EXPECT_GT(snap->slots[0].pid, 0);
  EXPECT_EQ(snap->slots[0].state, "idle");
  EXPECT_EQ(snap->slots[0].jobs, 2);
  EXPECT_EQ(snap->slots[0].deaths, 0);

  // Resubmission moves the cache counters, not the run counters.
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, nullptr, &error))
      << error;
  ASSERT_TRUE(serve::query_stats(sock, &wire_json, &error)) << error;
  const auto snap2 = report::parse_serve_stats(wire_json, &perr);
  ASSERT_TRUE(snap2.has_value()) << perr;
  EXPECT_EQ(snap2->counters.at("cache_hits"), 2);
  EXPECT_EQ(snap2->counters.at("flow_runs"), 2);
  // The human rendering carries the headline numbers.
  const std::string pretty = report::format_serve_stats(*snap2);
  EXPECT_NE(pretty.find("cache_hits=2"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("worker_run"), std::string::npos) << pretty;

  server.stop();
  rm_rf(cache_dir);
}

TEST(ServeObs, StatsUnderConcurrentLoad) {
  const std::string sock = scratch("sock");
  std::remove(sock.c_str());
  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 2;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Three clients submit disjoint 3-point sweeps while a fourth thread
  // hammers the STATS verb: every snapshot must parse and the cumulative
  // counters must be monotone.
  constexpr int kClients = 3, kPointsEach = 3;
  std::atomic<int> done{0};
  std::atomic<bool> submit_ok{true};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<flow::FlowConfig> sweep;
      for (int i = 0; i < kPointsEach; ++i) {
        sweep.push_back(small_config(0.40 + 0.02 * (t * kPointsEach + i)));
      }
      std::vector<serve::ResultLine> results;
      std::string err;
      if (!serve::submit_sweep(sock, sweep, &results, nullptr, &err) ||
          results.size() != sweep.size()) {
        submit_ok = false;
      }
      ++done;
    });
  }

  long long prev_points = 0, prev_runs = 0;
  int polls = 0, parse_failures = 0, monotone_violations = 0;
  while (done.load() < kClients) {
    std::string json, err, perr;
    if (!serve::query_stats(sock, &json, &err)) {
      ++parse_failures;
      continue;
    }
    const auto snap = report::parse_serve_stats(json, &perr);
    if (!snap) {
      ++parse_failures;
      continue;
    }
    ++polls;
    const long long points = snap->counters.at("points");
    const long long runs = snap->counters.at("flow_runs");
    if (points < prev_points || runs < prev_runs) ++monotone_violations;
    prev_points = points;
    prev_runs = runs;
    EXPECT_EQ(snap->slots.size(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(submit_ok.load());
  EXPECT_EQ(parse_failures, 0);
  EXPECT_EQ(monotone_violations, 0);
  EXPECT_GT(polls, 0);

  // Quiescent accounting: every point resolved exactly one way, and with
  // disjoint sweeps and no cache that way was a flow run.
  std::string json, perr;
  ASSERT_TRUE(serve::query_stats(sock, &json, &error)) << error;
  const auto fin = report::parse_serve_stats(json, &perr);
  ASSERT_TRUE(fin.has_value()) << perr;
  const long long total = kClients * kPointsEach;
  EXPECT_EQ(fin->counters.at("points"), total);
  EXPECT_EQ(fin->counters.at("cache_hits") +
                fin->counters.at("single_flight_joins") +
                fin->counters.at("cache_misses"),
            total);
  EXPECT_EQ(fin->counters.at("flow_runs"), total);
  EXPECT_EQ(fin->queue_depth, 0);
  EXPECT_EQ(fin->in_flight, 0);
  long long slot_jobs = 0;
  for (const report::ServeStatsSlot& s : fin->slots) slot_jobs += s.jobs;
  EXPECT_EQ(slot_jobs, total);

  server.stop();
}

TEST(ServeObs, CrossProcessTraceMergesWorkerSpans) {
  const std::string sock = scratch("sock");
  const std::string trace_path = scratch("trace.json");
  std::remove(sock.c_str());
  std::remove(trace_path.c_str());

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 2;
  opts.trace_path = trace_path;
  std::string error;
  {
    serve::Server server(opts);
    ASSERT_TRUE(server.start(&error)) << error;
    // Enough distinct points to keep both workers busy.
    std::vector<flow::FlowConfig> sweep;
    for (int i = 0; i < 4; ++i) sweep.push_back(small_config(0.46 + 0.08 * i));
    std::vector<serve::ResultLine> results;
    ASSERT_TRUE(serve::submit_sweep(sock, sweep, &results, nullptr, &error,
                                    "trace-test-1"))
        << error;
    server.stop();  // merge happens at stop()
  }

  std::ifstream f(trace_path);
  ASSERT_TRUE(f.is_open()) << trace_path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();

  std::string perr;
  const auto doc = report::json::parse(text, &perr);
  ASSERT_TRUE(doc.has_value()) << perr;
  const report::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // ONE file, real pids: the daemon plus at least two worker processes.
  std::set<long long> span_pids;
  std::set<std::string> names;
  for (const report::json::Value& ev : events->items) {
    if (!ev.is_object()) continue;
    const report::json::Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    if (const report::json::Value* name = ev.find("name");
        name != nullptr && name->is_string() && ph->str == "X") {
      names.insert(name->str);
      span_pids.insert(static_cast<long long>(ev.member_number("pid")));
      EXPECT_GE(ev.member_number("dur"), 0.0);
    }
  }
  EXPECT_TRUE(span_pids.count(static_cast<long long>(::getpid())));
  EXPECT_GE(span_pids.size(), 3u) << "daemon + 2 workers expected";

  // Daemon-side phase spans are labeled per point; the submit span carries
  // the client's trace id; worker spans include the flow stages themselves.
  bool has_queue_wait = false, has_cache_probe = false, has_worker_run = false,
       has_submit = false, has_flow_point = false;
  for (const std::string& n : names) {
    has_queue_wait = has_queue_wait || n.rfind("serve.queue_wait", 0) == 0;
    has_cache_probe = has_cache_probe || n.rfind("serve.cache_probe", 0) == 0;
    has_worker_run = has_worker_run || n.rfind("serve.worker_run", 0) == 0;
    has_submit = has_submit || n == "serve.submit trace-test-1";
    has_flow_point = has_flow_point || n == "flow.point";
  }
  EXPECT_TRUE(has_queue_wait);
  EXPECT_TRUE(has_cache_probe);
  EXPECT_TRUE(has_worker_run);
  EXPECT_TRUE(has_submit);
  EXPECT_TRUE(has_flow_point);
  EXPECT_NE(text.find("\"worker."), std::string::npos);

  std::remove(trace_path.c_str());
}

TEST(ServeObs, ServeAttributionInjectedWhenEnabled) {
  const std::string sock = scratch("sock");
  const std::string cache_dir = scratch("cache");
  const std::string ledger = scratch("ledger.jsonl");
  rm_rf(cache_dir);
  std::remove(sock.c_str());
  std::remove(ledger.c_str());

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir = cache_dir;
  opts.workers = 1;
  opts.attribution = true;
  opts.ledger_path = ledger;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::vector<flow::FlowConfig> sweep = {small_config(0.5)};
  std::vector<serve::ResultLine> first, second;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &first, nullptr, &error))
      << error;
  ASSERT_TRUE(serve::submit_sweep(sock, sweep, &second, nullptr, &error))
      << error;
  server.stop();

  // Both lines carry the gated "serve" object and still parse as
  // flow_report.v1; the run/cache split matches how each was served.
  const std::string jsonl = first[0].line + "\n" + second[0].line + "\n";
  std::istringstream is(jsonl);
  const auto recs = report::read_flow_reports(is);
  ASSERT_EQ(recs.size(), 2u);
  ASSERT_TRUE(recs[0].serve.count("run_ms"));
  EXPECT_GT(recs[0].serve.at("run_ms"), 0.0);
  EXPECT_EQ(recs[0].serve.at("cache_hit"), 0.0);
  EXPECT_GT(recs[0].serve.at("worker_pid"), 0.0);
  EXPECT_EQ(recs[0].serve.at("retries"), 0.0);
  EXPECT_EQ(recs[1].serve.at("cache_hit"), 1.0);
  EXPECT_EQ(recs[1].serve.at("run_ms"), 0.0);

  // Attribution is reported, never gated: the annotated lines remain
  // QoR-identical to an in-process run of the same point.
  expect_qor_identical(run_sweep_jsonl(sweep), jsonl.substr(0, jsonl.find('\n') + 1));

  // The serve ledger got one kind="serve" line per served point.
  std::ifstream lf(ledger);
  ASSERT_TRUE(lf.is_open());
  std::string line;
  int serve_lines = 0;
  while (std::getline(lf, line)) {
    if (line.find("\"kind\":\"serve\"") != std::string::npos) {
      ++serve_lines;
      EXPECT_NE(line.find("\"queue_ms\""), std::string::npos);
      EXPECT_NE(line.find("\"cache_hit\""), std::string::npos);
    }
  }
  EXPECT_EQ(serve_lines, 2);

  // Control: with the plane off (defaults), no "serve" key appears at all.
  const std::string sock2 = scratch("sock2");
  std::remove(sock2.c_str());
  serve::ServeOptions plain;
  plain.socket_path = sock2;
  plain.cache_dir.clear();
  plain.workers = 1;
  serve::Server server2(plain);
  ASSERT_TRUE(server2.start(&error)) << error;
  std::vector<serve::ResultLine> bare;
  ASSERT_TRUE(serve::submit_sweep(sock2, sweep, &bare, nullptr, &error))
      << error;
  EXPECT_EQ(bare[0].line.find("\"serve\""), std::string::npos);
  server2.stop();

  rm_rf(cache_dir);
  std::remove(ledger.c_str());
}

TEST(ServeObs, WorkerDropsReportAndTraceSinksButKeepsLedger) {
  // Workers inherit the daemon's environment, but the daemon streams every
  // result line itself: a worker appending to FFET_FLOW_REPORT (or tracing
  // to FFET_TRACE) would duplicate it.  FFET_LEDGER stays on — one ledger
  // line per flow run is exactly what a worker does.
  const std::string sock = scratch("sock");
  const std::string report_path = scratch("report.jsonl");
  const std::string trace_path = scratch("trace.json");
  const std::string ledger_path = scratch("ledger.jsonl");
  for (const std::string& p : {sock, report_path, trace_path, ledger_path}) {
    std::remove(p.c_str());
  }
  obs::init_from_env();  // settle this process's own tracing first
  EnvFieldGuard report_sink(obs::env().flow_report,
                            obs::EnvSink{obs::EnvSink::kPath, report_path});
  EnvFieldGuard trace_sink(obs::env().trace,
                           obs::EnvSink{obs::EnvSink::kPath, trace_path});
  EnvFieldGuard ledger_sink(obs::env().ledger,
                            obs::EnvSink{obs::EnvSink::kPath, ledger_path});

  serve::ServeOptions opts;
  opts.socket_path = sock;
  opts.cache_dir.clear();
  opts.workers = 1;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::vector<serve::ResultLine> results;
  ASSERT_TRUE(serve::submit_sweep(sock, {small_config(0.5)}, &results,
                                  nullptr, &error))
      << error;
  server.stop();
  ASSERT_EQ(results.size(), 1u);

  EXPECT_FALSE(std::ifstream(report_path).is_open())
      << "a worker appended to the flow-report sink";
  EXPECT_FALSE(std::ifstream(trace_path).is_open())
      << "a worker wrote the trace sink";
  report::ReadStats stats;
  const std::vector<report::LedgerEntry> entries =
      report::read_ledger_file(ledger_path, &stats, &error);
  ASSERT_EQ(entries.size(), 1u) << error;
  EXPECT_EQ(entries[0].kind, "flow");
  EXPECT_EQ(entries[0].label, small_config(0.5).label());
  for (const std::string& p : {report_path, trace_path, ledger_path}) {
    std::remove(p.c_str());
  }
}

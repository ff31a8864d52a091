// test_obs — the instrumentation layer: span tracer, metrics registry,
// deterministic serialization, and the zero-overhead disabled path.
//
// The obs state is process-global, so every test that enables tracing or
// metrics restores the disabled default before returning (ObsGuard).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/env.h"
#include "obs/numfmt.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace ffet {
namespace {

/// Enable tracing/metrics for one test and restore the disabled default
/// (with cleared buffers) on scope exit.
class ObsGuard {
 public:
  ObsGuard(bool tracing, bool metrics) {
    obs::set_tracing(tracing);
    obs::set_metrics(metrics);
    obs::clear_trace();
    obs::reset_metrics();
  }
  ~ObsGuard() {
    obs::set_tracing(false);
    obs::set_metrics(false);
    obs::clear_trace();
    obs::reset_metrics();
  }
};

// --- spans ------------------------------------------------------------------

TEST(Trace, RecordsNestedSpansOnOneThread) {
  ObsGuard g(true, false);
  {
    FFET_TRACE_SCOPE("outer");
    FFET_TRACE_SCOPE("inner.", 42);
  }
  const auto events = obs::snapshot_trace();
  ASSERT_EQ(events.size(), 2u);
  // Same lane, sorted by start: outer begins first and contains inner.
  const auto& outer = events[0].name == "outer" ? events[0] : events[1];
  const auto& inner = events[0].name == "outer" ? events[1] : events[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner.42");
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
}

TEST(Trace, PoolWorkersGetNamedLanes) {
  ObsGuard g(true, false);
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([] { FFET_TRACE_SCOPE("work"); });
    }
  }  // pool destructor drains every queued task and joins

  const auto events = obs::snapshot_trace();
  int worker_spans = 0;
  int task_spans = 0;
  for (const auto& e : events) {
    if (e.thread.rfind("pool.worker.", 0) == 0) {
      ++worker_spans;
      if (e.name == "pool.task") ++task_spans;
    }
  }
  // Every task span and every user span sits on a named worker lane.
  EXPECT_GE(task_spans, 8);
  EXPECT_GE(worker_spans, 16);
}

TEST(Trace, SpanNestsInsidePoolTaskSpan) {
  ObsGuard g(true, false);
  {
    runtime::ThreadPool pool(1);
    pool.submit([] { FFET_TRACE_SCOPE("user.work"); });
  }  // joined: both spans are recorded

  const auto events = obs::snapshot_trace();
  const obs::TraceEventView* task = nullptr;
  const obs::TraceEventView* user = nullptr;
  for (const auto& e : events) {
    if (e.name == "pool.task") task = &e;
    if (e.name == "user.work") user = &e;
  }
  ASSERT_NE(task, nullptr);
  ASSERT_NE(user, nullptr);
  EXPECT_EQ(task->tid, user->tid);
  EXPECT_LE(task->start_ns, user->start_ns);
  EXPECT_GE(task->start_ns + task->dur_ns, user->start_ns + user->dur_ns);
}

TEST(Trace, DisabledRecordsNothing) {
  ObsGuard g(false, false);
  {
    FFET_TRACE_SCOPE("invisible");
    FFET_TRACE_SCOPE("also.", 1, ".invisible");
  }
  EXPECT_TRUE(obs::snapshot_trace().empty());
}

TEST(Trace, JsonIsValidAndByteStable) {
  ObsGuard g(true, false);
  obs::set_thread_name("main");
  {
    FFET_TRACE_SCOPE("stage.a");
    FFET_TRACE_SCOPE("stage.b");
  }
  obs::set_tracing(false);  // freeze the buffers

  const std::string a = obs::trace_to_json();
  const std::string b = obs::trace_to_json();
  EXPECT_EQ(a, b) << "same trace must serialize to identical bytes";

  // Structural checks of the Chrome trace-event format.
  EXPECT_EQ(a.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(a.substr(a.size() - 3), "]}\n");
  EXPECT_NE(a.find("\"ph\":\"M\""), std::string::npos);  // lane metadata
  EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);  // complete events
  EXPECT_NE(a.find("\"stage.a\""), std::string::npos);
  EXPECT_NE(a.find("\"main\""), std::string::npos);

  // Balanced braces/brackets outside strings => parseable structure.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char c = a[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Trace, DumpWritesFile) {
  ObsGuard g(true, false);
  { FFET_TRACE_SCOPE("dumped"); }
  const std::string path = ::testing::TempDir() + "ffet_test_trace.json";
  ASSERT_TRUE(obs::dump_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(n, 0u);
  EXPECT_EQ(std::string(buf).rfind("{\"traceEvents\":[", 0), 0u);
}

// --- metrics ----------------------------------------------------------------

TEST(Metrics, HistogramBucketMath) {
  using H = obs::Histogram;
  // Bucket i spans [2^(i-9), 2^(i-8)); bucket 9 is [1, 2).
  EXPECT_EQ(H::bucket_index(1.0), 9);
  EXPECT_EQ(H::bucket_index(1.5), 9);
  EXPECT_EQ(H::bucket_index(2.0), 10);
  EXPECT_EQ(H::bucket_index(0.5), 8);
  EXPECT_EQ(H::bucket_index(1024.0), 19);
  // Clamping: zero/negatives below, huge values above.
  EXPECT_EQ(H::bucket_index(0.0), 0);
  EXPECT_EQ(H::bucket_index(-3.0), 0);
  EXPECT_EQ(H::bucket_index(1e300), H::kBuckets - 1);
  // Lower bounds are consistent with the index mapping.
  EXPECT_EQ(H::bucket_lower_bound(0), 0.0);
  EXPECT_EQ(H::bucket_lower_bound(9), 1.0);
  EXPECT_EQ(H::bucket_lower_bound(10), 2.0);
  for (int i = 1; i < H::kBuckets - 1; ++i) {
    const double lo = H::bucket_lower_bound(i);
    EXPECT_EQ(H::bucket_index(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(H::bucket_index(std::nextafter(lo, 0.0)), i - 1);
  }
}

TEST(Metrics, HistogramObserveTracksExactStats) {
  ObsGuard g(false, true);
  obs::Histogram& h = obs::histogram("test.hist");
  h.observe(1.0);
  h.observe(3.0);
  h.observe(0.25);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.25);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.25 / 3.0);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_index(1.0)), 1u);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_index(3.0)), 1u);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_index(0.25)), 1u);
}

TEST(Metrics, HistogramSnapshotQuantiles) {
  obs::Histogram h;  // standalone: records regardless of the enable flags
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);

  // A single observation is every quantile (the clamp to [min, max] makes
  // the in-bucket interpolation exact here).
  h.observe(5.0);
  {
    const obs::HistSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  }

  // A spread of values: quantiles are bucket estimates, so assert order
  // statistics and bounds rather than exact ranks.
  h.reset();
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  {
    const obs::HistSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    const double p25 = s.quantile(0.25), p50 = s.quantile(0.5),
                 p95 = s.quantile(0.95);
    EXPECT_LE(p25, p50);
    EXPECT_LE(p50, p95);
    EXPECT_GE(p25, s.min);
    EXPECT_LE(p95, s.max);
    // p50 of 1..100 lands in the [32, 64) bucket.
    EXPECT_GE(p50, 32.0);
    EXPECT_LT(p50, 64.0);
  }

  // Open-ended top bucket is capped at the observed max, not infinity.
  h.reset();
  h.observe(1e300);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(1.0), 1e300);
}

TEST(Trace, EpochOverridePinsACrossProcessTimeline) {
  // The service forks workers and ships the daemon's raw epoch in the job
  // frame; set_trace_epoch_raw_ns() must take effect exactly and restore
  // cleanly (steady_clock is machine-wide, so sharing the raw value aligns
  // both processes' span timestamps).
  const std::uint64_t saved = obs::trace_epoch_raw_ns();
  EXPECT_NE(saved, 0u);  // reading pins it
  obs::set_trace_epoch_raw_ns(saved > 1000000 ? saved - 1000000 : saved + 1);
  EXPECT_EQ(obs::trace_epoch_raw_ns(),
            saved > 1000000 ? saved - 1000000 : saved + 1);
  // trace_now_ns is relative to the (new) epoch and monotone.
  const std::uint64_t a = obs::trace_now_ns();
  const std::uint64_t b = obs::trace_now_ns();
  EXPECT_GE(b, a);
  // 0 is the "unpinned" sentinel on the wire; setting it must not leave the
  // epoch genuinely unpinned (a later lazy pin would tear the timeline).
  obs::set_trace_epoch_raw_ns(0);
  EXPECT_NE(obs::trace_epoch_raw_ns(), 0u);
  obs::set_trace_epoch_raw_ns(saved);
  EXPECT_EQ(obs::trace_epoch_raw_ns(), saved);
}

TEST(Metrics, ConcurrentRecordingIsExact) {
  ObsGuard g(false, true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  obs::Counter& c = obs::counter("test.concurrent.counter");
  obs::Histogram& h = obs::histogram("test.concurrent.hist");
  obs::Gauge& gmax = obs::gauge("test.concurrent.max");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(1.0);
        gmax.set_max(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(gmax.value(),
                   static_cast<double>(kThreads * kPerThread - 1));
}

TEST(Metrics, DisabledMacrosTouchNothing) {
  ObsGuard g(false, false);
  FFET_METRIC_ADD("test.disabled.counter", 7);
  FFET_METRIC_OBSERVE("test.disabled.hist", 3.5);
  FFET_METRIC_GAUGE_MAX("test.disabled.gauge", 9.0);
  const auto snap = obs::metrics_snapshot();
  for (const auto& [name, v] : snap.counters) {
    EXPECT_NE(name.rfind("test.disabled.", 0), 0u) << name;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(h.name.rfind("test.disabled.", 0), 0u) << h.name;
  }
}

TEST(Metrics, JsonIsDeterministic) {
  ObsGuard g(false, true);
  obs::counter("test.json.b").add(2);
  obs::counter("test.json.a").add(1);
  obs::histogram("test.json.h").observe(1.25);
  const std::string a = obs::metrics_to_json();
  const std::string b = obs::metrics_to_json();
  EXPECT_EQ(a, b);
  // Name-sorted: a before b.
  EXPECT_LT(a.find("test.json.a"), a.find("test.json.b"));
  EXPECT_NE(a.find("\"test.json.h\""), std::string::npos);
}

// --- numfmt -----------------------------------------------------------------

TEST(NumFmt, ToCharsRoundTripAndNonFinite) {
  EXPECT_EQ(obs::format_double(0.25), "0.25");
  EXPECT_EQ(obs::format_double(1.0), "1");
  EXPECT_EQ(obs::format_double(-3.5), "-3.5");
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::format_double(std::nan("")), "null");
  // Shortest-round-trip: the classic float-drift case stays compact.
  EXPECT_EQ(obs::format_double(0.1), "0.1");
}

TEST(NumFmt, EscapesJsonStrings) {
  std::string out;
  obs::append_escaped(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te");
  out.clear();
  obs::append_escaped(out, std::string("\x01", 1));
  EXPECT_EQ(out, "\\u0001");
}

// --- resource probe ---------------------------------------------------------

/// Pin the resource probe for one test and restore the enabled default
/// (the probe, unlike tracing/metrics, defaults ON) on scope exit.
class ResourceGuard {
 public:
  explicit ResourceGuard(bool on) { obs::set_resource(on); }
  ~ResourceGuard() { obs::set_resource(true); }
};

TEST(Resource, SampleReportsPositiveRssWhenEnabled) {
  ResourceGuard g(true);
  const obs::ResourceSample s = obs::sample_resources();
#if defined(__linux__)
  EXPECT_GT(s.peak_rss_kb, 0);
  EXPECT_GT(s.current_rss_kb, 0);
  EXPECT_GE(s.peak_rss_kb, s.current_rss_kb) << "HWM is a high-water mark";
  EXPECT_GT(s.minor_faults, 0) << "any live process has reclaimed pages";
  EXPECT_GT(obs::sample_current_rss_kb(), 0);
#else
  // Non-Linux: the sources may be absent, but the call must not crash and
  // must never report negative values.
  EXPECT_GE(s.peak_rss_kb, 0);
  EXPECT_GE(s.current_rss_kb, 0);
#endif
}

TEST(Resource, PeakIsMonotonicAcrossAllocations) {
  ResourceGuard g(true);
  const obs::ResourceSample before = obs::sample_resources();
  // Touch a few MB so the high-water mark cannot shrink below it.
  std::vector<char> ballast(4 << 20, 1);
  EXPECT_GT(ballast[ballast.size() / 2], 0);
  const obs::ResourceSample after = obs::sample_resources();
  EXPECT_GE(after.peak_rss_kb, before.peak_rss_kb);
  EXPECT_GE(after.minor_faults, before.minor_faults);
}

TEST(Resource, DisabledSamplesAreAllZero) {
  ResourceGuard g(false);
  EXPECT_FALSE(obs::resource_enabled());
  const obs::ResourceSample s = obs::sample_resources();
  EXPECT_EQ(s.peak_rss_kb, 0);
  EXPECT_EQ(s.current_rss_kb, 0);
  EXPECT_EQ(s.minor_faults, 0);
  EXPECT_EQ(s.major_faults, 0);
  EXPECT_EQ(obs::sample_current_rss_kb(), 0);
}

TEST(Resource, ToggleIsRaceFreeUnderConcurrentSampling) {
  // TSan checks the relaxed-atomic enable flag against concurrent
  // samplers (the same contract the tracing/metrics flags have).
  ResourceGuard g(true);
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 200; ++i) obs::set_resource(i % 2 == 0);
    stop.store(true);
  });
  long long sink = 0;
  while (!stop.load()) sink += obs::sample_current_rss_kb();
  toggler.join();
  EXPECT_GE(sink, 0);
}

// --- environment ------------------------------------------------------------

/// Decode a table of FFET_* variables (absent = unset).
obs::Env parse(const std::map<std::string, const char*>& vars) {
  return obs::parse_env([&vars](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second;
  });
}

TEST(Env, SinksAreUnsetOffOnOrAPath) {
  using S = obs::EnvSink;
  struct Case {
    const char* value;
    S::Mode mode;
    std::string path;
  };
  for (const Case& c : {Case{nullptr, S::kUnset, ""}, Case{"", S::kUnset, ""},
                        Case{"0", S::kOff, ""}, Case{"1", S::kOn, ""},
                        Case{"m.json", S::kPath, "m.json"}}) {
    const std::string shown = c.value ? c.value : "(unset)";
    for (const char* name :
         {"FFET_TRACE", "FFET_METRICS", "FFET_LEDGER", "FFET_FLOW_REPORT"}) {
      std::map<std::string, const char*> vars;
      if (c.value) vars[name] = c.value;
      const obs::Env env = parse(vars);
      const S& sink = std::string_view(name) == "FFET_TRACE"     ? env.trace
                      : std::string_view(name) == "FFET_METRICS" ? env.metrics
                      : std::string_view(name) == "FFET_LEDGER"  ? env.ledger
                                                                 : env.flow_report;
      EXPECT_EQ(sink.mode, c.mode) << name << "=" << shown;
      EXPECT_EQ(sink.path, c.path) << name << "=" << shown;
      EXPECT_EQ(sink.on(), c.mode == S::kOn || c.mode == S::kPath);
    }
  }
}

TEST(Env, BoolsKeepTheirDefaultsUnlessSet) {
  const obs::Env defaults = parse({});
  EXPECT_TRUE(defaults.resource) << "the resource probe is on by default";
  EXPECT_FALSE(defaults.verbose);
  EXPECT_TRUE(parse({{"FFET_RESOURCE", ""}}).resource);
  EXPECT_TRUE(parse({{"FFET_RESOURCE", "1"}}).resource);
  EXPECT_FALSE(parse({{"FFET_RESOURCE", "0"}}).resource);
  EXPECT_FALSE(parse({{"FFET_VERBOSE", ""}}).verbose);
  EXPECT_FALSE(parse({{"FFET_VERBOSE", "0"}}).verbose);
  EXPECT_TRUE(parse({{"FFET_VERBOSE", "1"}}).verbose);
  EXPECT_TRUE(parse({{"FFET_VERBOSE", "yes"}}).verbose);
}

TEST(Env, WorkerCountIsParsedAndBounded) {
  struct Case {
    const char* value;
    int workers;
  };
  for (const Case& c :
       {Case{"3", 3}, Case{"64", 64}, Case{"65", obs::kMaxEnvWorkers},
        Case{"99999999999999999999999", obs::kMaxEnvWorkers}, Case{"0", 0},
        Case{"-1", 0}, Case{"two", 0}, Case{"4x", 0}, Case{"", 0}}) {
    EXPECT_EQ(parse({{"FFET_WORKERS", c.value}}).workers, c.workers)
        << "'" << c.value << "'";
  }
  EXPECT_EQ(parse({}).workers, 0);
}

TEST(FlagNumbers, IntsAreWholeDecimalsInRange) {
  struct Case {
    const char* text;
    std::optional<int> value;
  };
  const std::optional<int> bad;
  for (const Case& c :
       {Case{"3", 3}, Case{"0", 0}, Case{"-7", -7},
        Case{"2147483647", 2147483647}, Case{"2147483648", bad},
        Case{"-2147483649", bad}, Case{"99999999999999999999", bad},
        Case{"3abc", bad}, Case{"abc", bad}, Case{"", bad}, Case{" 3", bad},
        Case{"3 ", bad}, Case{"+3", bad}, Case{"3.5", bad},
        Case{"0x10", bad}}) {
    EXPECT_EQ(obs::parse_number<int>(c.text), c.value) << "'" << c.text << "'";
  }
}

TEST(FlagNumbers, UnsignedRejectsASign) {
  EXPECT_EQ(obs::parse_number<unsigned>("4294967295"), 4294967295u);
  EXPECT_EQ(obs::parse_number<unsigned>("4294967296"), std::nullopt);
  EXPECT_EQ(obs::parse_number<unsigned>("-1"), std::nullopt);
  EXPECT_EQ(obs::parse_number<unsigned>("7"), 7u);
}

TEST(FlagNumbers, DoublesAreWholeFiniteNumbers) {
  struct Case {
    const char* text;
    std::optional<double> value;
  };
  const std::optional<double> bad;
  for (const Case& c :
       {Case{"0.76", 0.76}, Case{"1", 1.0}, Case{"-2.5", -2.5},
        Case{"1e-3", 1e-3}, Case{".5", 0.5}, Case{"1e999", bad},
        Case{"inf", bad}, Case{"nan", bad}, Case{"0.7x", bad}, Case{"", bad},
        Case{" 0.7", bad}, Case{"+0.7", bad}, Case{"0.7.1", bad}}) {
    EXPECT_EQ(obs::parse_number<double>(c.text), c.value)
        << "'" << c.text << "'";
  }
}

TEST(Env, CrashHooksAreStrings) {
  const obs::Env env = parse({{"FFET_SERVE_TEST_CRASH", "util=0.58"},
                              {"FFET_SERVE_TEST_CRASH_ALWAYS", "regs=8"}});
  EXPECT_EQ(env.serve_test_crash, "util=0.58");
  EXPECT_EQ(env.serve_test_crash_always, "regs=8");
  EXPECT_TRUE(parse({}).serve_test_crash.empty());
}

}  // namespace
}  // namespace ffet

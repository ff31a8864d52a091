#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/numfmt.h"
#include "obs/obs.h"

namespace ffet::obs {

namespace {

/// 0 = uninitialized (read the environment on first query), 1 = off, 2 = on.
std::atomic<int> g_metrics_state{0};

struct MetricsRegistry {
  std::mutex m;
  // Instruments are heap-allocated and never freed: references handed to
  // call sites and the at-exit dump must outlive static destruction.
  std::map<std::string, Counter*, std::less<>> counters;
  std::map<std::string, Gauge*, std::less<>> gauges;
  std::map<std::string, Histogram*, std::less<>> histograms;
};

MetricsRegistry& registry() {
  static auto* r = new MetricsRegistry;
  return *r;
}

template <class T, class Map>
T& lookup(Map& map, std::mutex& m, std::string_view name) {
  std::lock_guard<std::mutex> lk(m);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), new T).first;
  }
  return *it->second;
}

std::string& exit_dump_path() {
  static auto* p = new std::string;
  return *p;
}

}  // namespace

bool metrics_enabled() {
  int s = g_metrics_state.load(std::memory_order_relaxed);
  if (s == 0) {
    init_from_env();
    s = g_metrics_state.load(std::memory_order_relaxed);
  }
  return s == 2;
}

void set_metrics(bool on) {
  g_metrics_state.store(on ? 2 : 1, std::memory_order_relaxed);
}

namespace detail {

void init_metrics_from_env() {
  const EnvSink& sink = env().metrics;
  if (sink.on()) {
    set_metrics(true);
    if (sink.mode == EnvSink::kPath) dump_metrics_at_exit(sink.path);
  } else {
    int expected = 0;
    g_metrics_state.compare_exchange_strong(expected, 1,
                                            std::memory_order_relaxed);
  }
}

}  // namespace detail

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;                       // zero, negatives, nan
  if (std::isinf(v)) return kBuckets - 1;
  const int e = std::ilogb(v);                    // floor(log2(v))
  return std::clamp(e + 9, 0, kBuckets - 1);
}

double Histogram::bucket_lower_bound(int i) {
  if (i <= 0) return 0.0;
  return std::ldexp(1.0, i - 9);  // 2^(i-9)
}

void Histogram::observe(double v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistSnapshot Histogram::snapshot() const {
  HistSnapshot s;
  s.count = count();
  s.sum = sum();
  s.min = s.count == 0 ? 0.0 : min();
  s.max = s.count == 0 ? 0.0 : max();
  s.buckets.resize(kBuckets);
  for (int i = 0; i < kBuckets; ++i) s.buckets[i] = bucket(i);
  return s;
}

double HistSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [0, count]; walk the cumulative bucket counts to the
  // bucket containing it, then interpolate linearly inside the bucket.
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  const int n = static_cast<int>(buckets.size());
  for (int i = 0; i < n; ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double lo = Histogram::bucket_lower_bound(i);
      // The top bucket is open-ended; cap it at the observed max.
      const double hi =
          i + 1 < Histogram::kBuckets ? Histogram::bucket_lower_bound(i + 1)
                                      : max;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      const double v = lo + frac * (hi > lo ? hi - lo : 0.0);
      return std::clamp(v, min, max);
    }
    cum += c;
  }
  return max;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  MetricsRegistry& r = registry();
  return lookup<Counter>(r.counters, r.m, name);
}

Gauge& gauge(std::string_view name) {
  MetricsRegistry& r = registry();
  return lookup<Gauge>(r.gauges, r.m, name);
}

Histogram& histogram(std::string_view name) {
  MetricsRegistry& r = registry();
  return lookup<Histogram>(r.histograms, r.m, name);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (const auto& [name, c] : r.counters) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : r.histograms) {
    MetricsSnapshot::Hist hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = hs.count ? h->min() : 0.0;
    hs.max = hs.count ? h->max() : 0.0;
    hs.buckets.reserve(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      hs.buckets.push_back(h->bucket(i));
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void reset_metrics() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (const auto& [name, c] : r.counters) c->reset();
  for (const auto& [name, g] : r.gauges) g->reset();
  for (const auto& [name, h] : r.histograms) h->reset();
}

std::string metrics_to_json() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":";
    append_double(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, h.name);
    out += "\":{\"count\":" + std::to_string(h.count) + ",\"sum\":";
    append_double(out, h.sum);
    out += ",\"min\":";
    append_double(out, h.min);
    out += ",\"max\":";
    append_double(out, h.max);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

void dump_metrics_at_exit(std::string path) {
  static std::once_flag once;
  std::call_once(once, [&path] {
    exit_dump_path() = std::move(path);
    std::atexit([] {
      if (exit_dump_path().empty()) return;
      const std::string json = metrics_to_json();
      if (std::FILE* f = std::fopen(exit_dump_path().c_str(), "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    });
  });
}

}  // namespace ffet::obs

#include "obs/env.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FFET_ENV_HAVE_UNISTD 1
#endif

namespace ffet::obs {

namespace {

EnvSink parse_sink(const char* v) {
  if (v == nullptr || *v == '\0') return {};
  if (std::strcmp(v, "0") == 0) return {EnvSink::kOff, {}};
  if (std::strcmp(v, "1") == 0) return {EnvSink::kOn, {}};
  return {EnvSink::kPath, v};
}

bool parse_bool(const char* v, bool fallback) {
  if (v == nullptr || *v == '\0') return fallback;
  return std::strcmp(v, "0") != 0;
}

/// A decimal count in [1, max]; larger values (overflow included) clamp to
/// `max`, anything else — garbage, trailing characters, zero, negatives —
/// reads as 0 (unset).
int parse_count(const char* v, int max) {
  if (v == nullptr || *v == '\0') return 0;
  const char* end = v + std::strlen(v);
  long long n = 0;
  const auto [p, ec] = std::from_chars(v, end, n);
  if (ec == std::errc::invalid_argument || p != end) return 0;
  if (ec == std::errc::result_out_of_range) return *v == '-' ? 0 : max;
  return n <= 0 ? 0 : static_cast<int>(std::min<long long>(n, max));
}

}  // namespace

Env parse_env(const std::function<const char*(const char*)>& lookup) {
  Env e;
  e.trace = parse_sink(lookup("FFET_TRACE"));
  e.metrics = parse_sink(lookup("FFET_METRICS"));
  e.ledger = parse_sink(lookup("FFET_LEDGER"));
  e.flow_report = parse_sink(lookup("FFET_FLOW_REPORT"));
  e.verbose = parse_bool(lookup("FFET_VERBOSE"), false);
  e.resource = parse_bool(lookup("FFET_RESOURCE"), true);
  e.threads = parse_count(lookup("FFET_THREADS"), kMaxEnvThreads);
  e.workers = parse_count(lookup("FFET_WORKERS"), kMaxEnvWorkers);
  const char* crash = lookup("FFET_SERVE_TEST_CRASH");
  const char* crash_always = lookup("FFET_SERVE_TEST_CRASH_ALWAYS");
  e.serve_test_crash = crash ? crash : "";
  e.serve_test_crash_always = crash_always ? crash_always : "";
  return e;
}

template <class T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || p != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template std::optional<int> parse_number<int>(std::string_view);
template std::optional<unsigned> parse_number<unsigned>(std::string_view);
template std::optional<double> parse_number<double>(std::string_view);

Env& env() {
  static Env e = parse_env([](const char* name) { return std::getenv(name); });
  return e;
}

std::string host_name() {
#if defined(FFET_ENV_HAVE_UNISTD)
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  if (const char* h = std::getenv("HOSTNAME")) return h;
  return "unknown";
}

}  // namespace ffet::obs

#include "obs/resource.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define FFET_HAVE_RUSAGE 1
#endif

#include "obs/env.h"

namespace ffet::obs {

namespace {

// -1 = undecided (read env().resource on first query), 0 = off, 1 = on.
std::atomic<int> g_resource_state{-1};

int resource_state() {
  int s = g_resource_state.load(std::memory_order_relaxed);
  if (s >= 0) return s;
  s = env().resource ? 1 : 0;
  // A racing set_resource() wins: only replace the undecided marker.
  int expected = -1;
  g_resource_state.compare_exchange_strong(expected, s,
                                           std::memory_order_relaxed);
  return g_resource_state.load(std::memory_order_relaxed);
}

/// Parse "<key>:   <n> kB" out of a /proc/self/status snapshot; -1 when
/// the key is absent (e.g. VmHWM on non-Linux /proc emulations).
long long status_field_kb(const char* text, const char* key) {
  const char* p = std::strstr(text, key);
  if (p == nullptr) return -1;
  p += std::strlen(key);
  while (*p == ':' || *p == ' ' || *p == '\t') ++p;
  long long v = 0;
  bool any = false;
  while (*p >= '0' && *p <= '9') {
    v = v * 10 + (*p - '0');
    ++p;
    any = true;
  }
  return any ? v : -1;
}

}  // namespace

bool resource_enabled() { return resource_state() == 1; }

void set_resource(bool on) {
  g_resource_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

ResourceSample sample_resources() {
  ResourceSample s;
  if (!resource_enabled()) return s;

  // /proc/self/status: VmHWM (peak RSS) and VmRSS, both in kB.  One read
  // of a small pseudo-file; the whole interesting region fits in 4 KiB.
  if (std::FILE* f = std::fopen("/proc/self/status", "rb")) {
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const long long hwm = status_field_kb(buf, "VmHWM");
    const long long rss = status_field_kb(buf, "VmRSS");
    if (hwm > 0) s.peak_rss_kb = hwm;
    if (rss > 0) s.current_rss_kb = rss;
  }

#if defined(FFET_HAVE_RUSAGE)
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.minor_faults = static_cast<long long>(ru.ru_minflt);
    s.major_faults = static_cast<long long>(ru.ru_majflt);
    if (s.peak_rss_kb == 0 && ru.ru_maxrss > 0) {
      // Linux reports ru_maxrss in kB; this branch only runs where /proc
      // was unavailable, i.e. non-Linux, where BSD/macOS report bytes —
      // but macOS is the only common such platform, so convert from bytes
      // there and trust kB elsewhere.
#if defined(__APPLE__)
      s.peak_rss_kb = static_cast<long long>(ru.ru_maxrss) / 1024;
#else
      s.peak_rss_kb = static_cast<long long>(ru.ru_maxrss);
#endif
    }
  }
#endif
  if (s.current_rss_kb == 0) s.current_rss_kb = s.peak_rss_kb;
  return s;
}

long long sample_current_rss_kb() {
  if (!resource_enabled()) return 0;
  // /proc/self/statm: "size resident shared ..." in pages.  Cheaper than
  // status (no key scan) — this is the per-stage read.
  if (std::FILE* f = std::fopen("/proc/self/statm", "rb")) {
    long long size_pages = 0, resident_pages = 0;
    const int got = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
    std::fclose(f);
    if (got == 2) {
#if defined(FFET_HAVE_RUSAGE)
      static const long long kPageKb = [] {
        const long p = sysconf(_SC_PAGESIZE);
        return p > 0 ? static_cast<long long>(p) / 1024 : 4LL;
      }();
#else
      const long long kPageKb = 4;
#endif
      return resident_pages * kPageKb;
    }
  }
  // No /proc (non-Linux): fall back to the full sample's current RSS.
  return sample_resources().current_rss_kb;
}

}  // namespace ffet::obs

// resource.h — process resource probe (memory observability).
//
// Samples the process's resident-set footprint and page-fault counters so
// the flow can attribute memory to stages and the run ledger can trend
// peak RSS against design size:
//
//   * sample_resources()       — full sample: peak/current RSS from
//                                /proc/self/status (VmHWM/VmRSS), minor and
//                                major fault counts from getrusage(2);
//                                falls back to ru_maxrss where /proc is
//                                unavailable (non-Linux Unix).
//   * sample_current_rss_kb()  — fast current-RSS read from
//                                /proc/self/statm (one short read, no
//                                parsing beyond two integers); used per
//                                flow stage for rss_delta_kb accounting.
//
// Enabled **by default** (unlike tracing/metrics): every flow-report line
// and bench JSON is expected to carry peak_rss_kb on Linux, and the cost
// is a handful of short /proc reads per flow point.  FFET_RESOURCE=0 (or
// set_resource(false)) disables the probe entirely: call sites branch on
// one relaxed atomic load and make **zero syscalls** — reports then omit
// every resource field, byte-identical to a build without the probe.

#pragma once

namespace ffet::obs {

/// One process-wide resource sample.  All zeros when the probe is disabled
/// or the platform exposes none of the sources.
struct ResourceSample {
  long long peak_rss_kb = 0;     ///< high-water resident set (VmHWM)
  long long current_rss_kb = 0;  ///< current resident set (VmRSS)
  long long minor_faults = 0;    ///< ru_minflt (page reclaims, no I/O)
  long long major_faults = 0;    ///< ru_majflt (faults that hit storage)
};

/// Is the resource probe on?  One relaxed atomic load; the first call
/// reads env().resource (on unless FFET_RESOURCE=0).
bool resource_enabled();
void set_resource(bool on);

/// Full sample (status + rusage).  Returns zeros without any syscall when
/// the probe is disabled.
ResourceSample sample_resources();

/// Current RSS only, from /proc/self/statm — the cheap per-stage read.
/// Returns 0 without any syscall when disabled, and 0 where unsupported.
long long sample_current_rss_kb();

}  // namespace ffet::obs

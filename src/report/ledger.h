// ledger.h — persistent run ledger: reader and trend analytics.
//
// The flow appends one "ffet.ledger.v1" line per run to the ledger file
// (FFET_LEDGER / FlowConfig::ledger_path, default .ffet_ledger/ledger.jsonl
// — see flow::resolve_ledger_path), the serve daemon one per served point
// with attribution on, and run_benches.sh one per bench; flow::ledger_json
// is the writer.  This header is the read side: a tolerant JSONL reader with
// the same skip-and-count policy as the flow-report reader (qor.h), plus a
// trend engine that groups entries by (kind, label) and gates the latest
// run against the median of the previous N runs with the same thresholds
// as the QoR diff engine — `ffet_report trend` is the CI gate built on it.
//
// Schema of one line:
//
//   {"schema":"ffet.ledger.v1","kind":"flow"|"serve"|"bench","label":...,
//    "timestamp_s":...,"host":...,"threads":...,"valid":true|false,
//    "metrics":{"achieved_freq_ghz":...,"power_uw":...,"wirelength_um":...,
//               "drv":...,"runtime_ms":...[,"peak_rss_kb":...,...]}}
//
// Unknown numeric top-level fields are preserved in `extra`; unknown
// metrics ride along in the metrics map (the trend engine reports them as
// ungated series), so old binaries read ledgers written by newer schemas.

#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "report/qor.h"  // ReadStats, DiffOptions (threshold defaults)

namespace ffet::report {

/// One parsed ledger line.
struct LedgerEntry {
  std::string schema;
  std::string kind;   ///< "flow", "serve" or "bench"
  std::string label;  ///< FlowConfig::label() or bench name
  std::string host;
  long long timestamp_s = 0;
  int threads = 0;
  bool valid = false;
  std::map<std::string, double> metrics;
  std::map<std::string, double> extra;  ///< unknown numeric top-level fields
};

/// Read every well-formed ledger line from `is`; malformed lines are
/// skipped and counted in `stats` (same tolerance policy as
/// read_flow_reports), so one torn line cannot poison the history.
std::vector<LedgerEntry> read_ledger(std::istream& is,
                                     ReadStats* stats = nullptr);

/// File convenience; on open failure returns empty and sets `error`.
std::vector<LedgerEntry> read_ledger_file(const std::string& path,
                                          ReadStats* stats = nullptr,
                                          std::string* error = nullptr);

/// Trend gates.  Thresholds are percent relative to the median of the
/// prior runs; negative disables that gate (the series is still printed).
/// Defaults mirror DiffOptions so `trend` and `diff` agree on what counts
/// as a regression.  Runtime and RSS are machine-dependent, so their gates
/// default off.
struct TrendOptions {
  int window = 5;  ///< compare vs the median of up to this many prior runs
  double freq_drop_pct = 1.0;        ///< metrics.achieved_freq_ghz
  double power_rise_pct = 2.0;       ///< metrics.power_uw
  double wirelength_rise_pct = 2.0;  ///< metrics.wirelength_um
  double runtime_rise_pct = -1.0;    ///< metrics.runtime_ms; off by default
  double rss_rise_pct = -1.0;        ///< metrics.peak_rss_kb; off by default
  bool gate_drv = true;       ///< latest drv above prior median regresses
  bool gate_validity = true;  ///< latest invalid after a valid prior run
  std::string kind;   ///< only analyze entries of this kind ("" = all)
  std::string label;  ///< only analyze this label ("" = all)
};

/// One metric's time series within a (kind, label) group.
struct TrendMetric {
  std::string metric;
  std::vector<double> values;  ///< chronological (file order), latest last
  double latest = 0.0;
  double median_prior = 0.0;  ///< median of up to `window` runs before latest
  bool gated = false;         ///< a threshold applies to this metric
  bool regression = false;
  std::string note;  ///< gate verdict, e.g. "rose 3.1% > 2%"
};

/// All series for one (kind, label) group.
struct TrendSeries {
  std::string kind;
  std::string label;
  int runs = 0;
  bool latest_valid = true;
  bool validity_regression = false;  ///< latest invalid, some prior valid
  int regressions = 0;
  std::vector<TrendMetric> metrics;
};

struct TrendReport {
  std::vector<TrendSeries> series;
  std::vector<std::string> notes;  ///< groups skipped (single run) etc.
  int regressions = 0;
  bool ok() const { return regressions == 0; }
};

/// Group `entries` by (kind, label) in file order and gate each group's
/// latest run against the median of its prior runs.  Groups with a single
/// run produce a note, never a regression — the first run of a new label
/// must not fail CI.
TrendReport analyze_trend(const std::vector<LedgerEntry>& entries,
                          const TrendOptions& options = {});

std::string format_trend(const TrendReport& report);

/// Chronological listing of every entry whose label matches (all when
/// `label` is empty): timestamp, host, threads, verdict, key metrics.
std::string format_history(const std::vector<LedgerEntry>& entries,
                           const std::string& label = {});

}  // namespace ffet::report

// qor.h — QoR regression layer: flow-report reader + run-to-run diff.
//
// Three pieces:
//
//   * a reader for the "ffet.flow_report.v1" JSONL the flow appends to
//     FFET_FLOW_REPORT (src/flow/report_json) — tolerant of malformed
//     lines (skipped and counted) and of unknown fields (kept numerically
//     or counted, never fatal), so old binaries can read reports from
//     newer schemas;
//   * a diff engine comparing two report sets metric-by-metric
//     (frequency, power, wirelength, route convergence, stage wall/CPU,
//     eco counters) with configurable regression thresholds — a self-diff
//     of one file yields zero deltas and passes;
//   * the bench gates CI previously ran as two Python scripts
//     (check_bench_eco.py / check_bench_router.py), ported so
//     `ffet_report diff --mode eco|router` is the single gate binary.

#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "report/json.h"

namespace ffet::report {

/// One stage timing entry from a flow report's "stages" array.
struct StageTime {
  std::string stage;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double rss_delta_kb = 0.0;  ///< resident-set growth (0 when probe off)
};

/// One parsed flow-report line.  Numeric fields land in per-section maps so
/// the diff engine can walk them uniformly; fields this reader does not
/// know by name are preserved in `extra` (numbers/bools) or counted in
/// ReadStats::unknown_fields (anything else) — forward compatibility.
struct FlowRecord {
  std::string schema;
  std::string label;
  std::string tech;
  std::string invalid_reason;
  bool valid = false;
  bool has_eco = false;  ///< the line carried an "eco" section

  std::map<std::string, double> config;       ///< layer counts, targets, seed
  std::map<std::string, double> diagnostics;  ///< convergence / quality
  std::map<std::string, double> ppa;
  std::map<std::string, double> eco;
  std::map<std::string, double> metrics;
  std::map<std::string, double> resource;  ///< peak RSS, faults, sizes
  std::map<std::string, double> serve;  ///< sweep-service latency attribution
  std::map<std::string, double> extra;  ///< unknown numeric top-level fields
  std::vector<StageTime> stages;

  double total_wall_ms() const;
  double total_cpu_ms() const;
};

struct ReadStats {
  int lines = 0;           ///< non-empty lines seen
  int parsed = 0;          ///< lines that became FlowRecords
  int malformed = 0;       ///< lines that failed to parse (skipped)
  int unknown_fields = 0;  ///< non-numeric fields the schema doesn't name
};

/// Read every well-formed report line from `is`; malformed lines are
/// skipped (and counted), so one torn line cannot poison a whole file.
std::vector<FlowRecord> read_flow_reports(std::istream& is,
                                          ReadStats* stats = nullptr);

/// File convenience; on open failure returns empty and sets `error`.
std::vector<FlowRecord> read_flow_reports_file(const std::string& path,
                                               ReadStats* stats = nullptr,
                                               std::string* error = nullptr);

/// Regression thresholds (percent, relative to the baseline value).  A
/// negative threshold disables that gate — the delta is still reported.
struct DiffOptions {
  double freq_drop_pct = 1.0;      ///< achieved_freq_ghz may drop this much
  double power_rise_pct = 2.0;     ///< power_uw may rise this much
  double wirelength_rise_pct = 2.0;  ///< front+back total
  double runtime_rise_pct = -1.0;  ///< total stage wall; off by default
  bool gate_drv = true;            ///< any DRV increase is a regression
  bool gate_validity = true;       ///< valid -> invalid is a regression
  /// QoR-identity mode (the gate for results streamed back from the sweep
  /// service): only config / validity / diagnostics / ppa / eco sections
  /// are compared — stage timings, metrics, resource and unknown-field
  /// sections and the wall-clock ratio eco.sta_speedup are machine- and
  /// run-dependent and are skipped entirely — and *any* surviving delta is
  /// a regression.  Two runs of the same
  /// points pass iff they are bit-identical per point on everything that
  /// is QoR.  `ffet_report diff --qor` sets this.
  bool qor_only = false;
};

/// One changed metric between a paired base/new record.
struct Delta {
  std::string label;   ///< the pair's label
  std::string metric;  ///< e.g. "ppa.achieved_freq_ghz"
  double base = 0.0;
  double now = 0.0;
  bool regression = false;
  std::string note;  ///< gate verdict or "only in base/new"
};

struct DiffReport {
  std::vector<Delta> deltas;       ///< every exact-value change, in pair order
  std::vector<std::string> notes;  ///< pairing / config-change commentary
  int pairs = 0;
  int regressions = 0;
  bool ok() const { return regressions == 0; }
};

/// Compare two report sets.  Records pair index-wise when both sets have
/// the same size (a label mismatch becomes a note — eco runs legitimately
/// relabel with " eco=N"); otherwise by label (last record per label wins,
/// unmatched records become notes).  Values compare exactly: a diff of a
/// file against itself reports zero deltas.
DiffReport diff_flow_reports(const std::vector<FlowRecord>& base,
                             const std::vector<FlowRecord>& now,
                             const DiffOptions& options = {});

std::string format_diff(const DiffReport& report);

/// The bench_eco gate: absolute properties of the new run (frequency gain,
/// iso-frequency power, STA speedup, the bench's own gates) — the C++ port
/// of scripts/check_bench_eco.py — and, when both runs made the same number
/// of ECO passes, the trial counts (attempted, accepted, reverted and the
/// per-kind tallies) compared exactly against the baseline.  Appends the
/// human-readable report to `out`; returns the process exit code
/// (0 pass, 1 fail, 2 malformed input).
int eco_gate(const json::Value& base, const json::Value& now,
             std::string& out);

/// The bench_router gate vs the committed baseline: for every config the
/// route's deterministic work counters ("astar2": passes, ripups,
/// region_ripups, window_expansions, drv_wire, steiner_subnets, fastpath)
/// and the wirelength must match exactly, and per-route search effort may
/// rise at most 20 %.
int router_gate(const json::Value& base, const json::Value& now,
                std::string& out);

}  // namespace ffet::report

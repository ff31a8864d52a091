// report_json.h — machine-readable flow results.
//
// Serializes FlowResult as JSON so sweeps can be plotted or post-processed
// without parsing log text.  One field table (result_fields()) lists every
// serialized FlowResult value once, as a {key, section, getter} row; the
// flat to_json object, the sectioned flow-report line and the report
// reader's config keys are all walks of it.  A new result field is one row
// there — a member census in report_json.cpp breaks the build until it is.

#pragma once

#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "flow/flow.h"
#include "obs/numfmt.h"

namespace ffet::flow {

/// Minimal compact-JSON builder: no whitespace, keys emitted as given,
/// doubles via obs::append_double (std::to_chars — shortest round-trip,
/// locale-independent), strings escaped with obs::append_escaped.  The
/// single formatter behind the flow-report line and the bench JSON
/// emitters, so every machine-readable artifact is byte-deterministic and
/// parses back with the same number semantics (report/json reads
/// std::from_chars, the exact mirror).
class JsonBuilder {
 public:
  explicit JsonBuilder(std::string& out) : out_(out) {}

  void open_obj() { out_ += '{'; }
  void close_obj() { out_ += '}'; }
  void open_array(const char* key) {
    sep();
    key_(key);
    out_ += '[';
  }
  void close_array() { out_ += ']'; }
  void open_nested(const char* key) {
    sep();
    key_(key);
    out_ += '{';
  }
  /// Element separator inside an open array (call before each element).
  void element() {
    if (out_.back() != '[') out_ += ',';
  }

  void field(const char* key, double v) {
    sep();
    key_(key);
    obs::append_double(out_, v);
  }
  void field(const char* key, long long v) {
    sep();
    key_(key);
    out_ += std::to_string(v);
  }
  void field(const char* key, long v) { field(key, static_cast<long long>(v)); }
  void field(const char* key, int v) { field(key, static_cast<long long>(v)); }
  void field(const char* key, unsigned v) {
    field(key, static_cast<long long>(v));
  }
  void field(const char* key, bool v) {
    sep();
    key_(key);
    out_ += v ? "true" : "false";
  }
  void field(const char* key, const std::string& v) {
    sep();
    key_(key);
    out_ += '"';
    obs::append_escaped(out_, v);
    out_ += '"';
  }
  void field(const char* key, const char* v) { field(key, std::string(v)); }

 private:
  void sep() {
    if (out_.back() != '{' && out_.back() != '[') out_ += ',';
  }
  void key_(const char* key) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string& out_;
};

/// Where a FlowResult field lands in the flow-report line.
enum class ResultSection {
  Top,          ///< top level: the config summary and the verdict
  Diagnostics,  ///< "diagnostics": convergence / quality
  Ppa,          ///< "ppa": the PPA summary
  Eco,          ///< "eco": present only when config.eco_passes > 0
  Resource,     ///< "resource": present only when resource.sampled
  None,         ///< not in the flow report (yet); to_json only
};

/// A field's value as the JSON type it is written as.
using FieldValue = std::variant<bool, long long, double, std::string>;

/// One serialized FlowResult value.
struct ResultField {
  const char* key;  ///< flow-report key; to_json prefixes Eco rows "eco_"
  ResultSection section;
  FieldValue (*get)(const FlowResult&);
};

/// The field table, in flow-report order: the one hand-written list of
/// FlowResult fields behind to_json, flow_report_json and the report
/// reader (report::read_flow_reports).
std::span<const ResultField> result_fields();

/// One result as a flat JSON object: every row of the field table except
/// the machine-dependent Resource rows, Eco rows (prefixed "eco_") only
/// when the ECO ran.  Doubles are formatted with std::to_chars (shortest
/// round-trip, locale-independent), so serializing the same result twice
/// yields identical bytes.
std::string to_json(const FlowResult& result);

/// One compact flow-report line (schema "ffet.flow_report.v1"): the field
/// table's rows by section, plus per-stage wall/CPU timings and — when
/// metrics are enabled — a snapshot of the obs counters and gauges.  This
/// is the per-point record run_physical appends to FFET_FLOW_REPORT /
/// FlowConfig::flow_report_path.
std::string flow_report_json(const FlowResult& result);

/// One "ffet.ledger.v1" run-ledger line: a flow point (kind "flow"), a
/// served point ("serve"); run_benches.sh writes kind "bench" lines in the
/// same layout.  report::read_ledger is the reader.
struct LedgerLine {
  std::string kind;
  std::string label;
  int threads = 0;
  bool valid = false;
  /// In write order.  Integers stay long long: std::to_chars prints the
  /// double 100000.0 as "1e+05".
  std::vector<std::pair<std::string, FieldValue>> metrics;
};

/// The flow's ledger line for `result` (run at `threads`): PPA, DRVs and
/// runtime, plus peak RSS and data-structure sizes when the resource probe
/// sampled.
LedgerLine ledger_line(const FlowResult& result, int threads);

/// The one ledger serializer: `line` stamped with `timestamp_s` and
/// `host`, as a compact single-line JSON object without trailing newline.
std::string ledger_json(const LedgerLine& line, long long timestamp_s,
                        const std::string& host);

/// Append `line` stamped with the current time and obs::host_name() to
/// `path` (multi-process-safe, see obs::append_jsonl_line).  Returns false
/// and sets `error` on failure; never throws.
bool append_ledger(const std::string& path, const LedgerLine& line,
                   std::string* error = nullptr);

/// Where a served point spent its time inside the sweep service: queued
/// behind other points, probing the result cache, and running in a worker.
/// Attached to the flow-report line by the daemon (never by run_flow), and
/// only when attribution is enabled — lines are byte-identical to the
/// unserved flow otherwise.
struct ServeAttribution {
  double queue_ms = 0.0;
  double cache_ms = 0.0;
  double run_ms = 0.0;
  int retries = 0;
  int worker_pid = 0;
  bool cache_hit = false;
};

/// Inject `"serve":{...}` as the last member of an ffet.flow_report.v1
/// line (string surgery before the closing brace — the daemon annotates
/// worker-produced lines without re-serializing them).  Returns false and
/// leaves `line` untouched when it does not look like a JSON object.
bool append_serve_report(std::string& line, const ServeAttribution& serve);

}  // namespace ffet::flow

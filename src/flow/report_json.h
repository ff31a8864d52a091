// report_json.h — machine-readable flow results.
//
// Serializes FlowConfig/FlowResult as JSON so sweeps can be plotted or
// post-processed without parsing log text.  Hand-rolled emitter (flat
// structures, no external dependency).

#pragma once

#include <iosfwd>
#include <string>
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

/// One result as a JSON object.  Doubles are formatted with std::to_chars
/// (shortest round-trip, locale-independent), so serializing the same
/// result twice yields identical bytes.
std::string to_json(const FlowResult& result);

/// A sweep as a JSON array of objects.
std::string to_json(const std::vector<FlowResult>& results);

void write_json(const FlowResult& result, std::ostream& os);
void write_json(const std::vector<FlowResult>& results, std::ostream& os);

/// One compact flow-report line (schema "ffet.flow_report.v1"): the result
/// fields plus per-stage wall/CPU timings, convergence diagnostics, the
/// validity verdict with its reason, and — when metrics are enabled — a
/// snapshot of the obs counters and gauges.  This is the per-point record
/// run_physical appends to FFET_FLOW_REPORT / FlowConfig::flow_report_path.
std::string flow_report_json(const FlowResult& result);

void write_flow_report(const FlowResult& result, std::ostream& os);

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

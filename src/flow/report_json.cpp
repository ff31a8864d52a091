#include "flow/report_json.h"

#include <ostream>
#include <sstream>

#include "obs/obs.h"
#include "obs/numfmt.h"

namespace ffet::flow {

namespace {

class Obj {
 public:
  Obj(std::ostream& os, int indent) : os_(os), indent_(indent) {
    os_ << "{";
  }
  ~Obj() {
    os_ << "\n" << pad(indent_) << "}";
  }

  void field(const char* key, double v) {
    sep();
    os_ << '"' << key << "\": " << obs::format_double(v);
  }
  void field(const char* key, int v) { sep(); os_ << '"' << key << "\": " << v; }
  void field(const char* key, long v) {
    sep();
    os_ << '"' << key << "\": " << v;
  }
  void field(const char* key, bool v) {
    sep();
    os_ << '"' << key << "\": " << (v ? "true" : "false");
  }
  void field(const char* key, const std::string& v) {
    sep();
    std::string escaped;
    obs::append_escaped(escaped, v);
    os_ << '"' << key << "\": \"" << escaped << '"';
  }

 private:
  void sep() {
    os_ << (first_ ? "\n" : ",\n") << pad(indent_ + 1);
    first_ = false;
  }
  static std::string pad(int n) { return std::string(2 * static_cast<std::size_t>(n), ' '); }

  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

}  // namespace

void write_json(const FlowResult& r, std::ostream& os) {
  Obj o(os, 0);
  o.field("label", r.config.label());
  o.field("tech", std::string(tech::to_string(r.config.tech_kind)));
  o.field("front_layers", r.config.front_layers);
  o.field("back_layers", r.config.back_layers);
  o.field("backside_input_fraction", r.config.backside_input_fraction);
  o.field("target_freq_ghz", r.config.target_freq_ghz);
  o.field("target_utilization", r.config.utilization);
  o.field("valid", r.valid());
  o.field("invalid_reason", r.invalid_reason);
  o.field("placement_legal", r.placement_legal);
  o.field("placement_violations", r.placement_violations);
  o.field("placement_drc", r.placement_drc);
  o.field("place_mean_displacement_um", r.place_mean_displacement_um);
  o.field("place_max_displacement_um", r.place_max_displacement_um);
  o.field("route_valid", r.route_valid);
  o.field("drv", r.drv);
  o.field("drv_wire", r.drv_wire);
  o.field("drv_pin_access", r.drv_pin_access);
  o.field("route_passes", r.route_passes);
  o.field("route_ripups", r.route_ripups);
  o.field("route_region_ripups", r.route_region_ripups);
  o.field("route_overflow", r.route_overflow);
  o.field("route_settled_nodes", r.route_settled_nodes);
  o.field("route_window_expansions", r.route_window_expansions);
  o.field("route_steiner_subnets", r.route_steiner_subnets);
  o.field("route_fastpath", r.route_fastpath);
  o.field("core_area_um2", r.core_area_um2);
  o.field("utilization", r.utilization);
  o.field("hpwl_um", r.hpwl_um);
  o.field("wirelength_front_um", r.wirelength_front_um);
  o.field("wirelength_back_um", r.wirelength_back_um);
  o.field("num_instances", r.num_instances);
  o.field("num_tap_cells", r.num_tap_cells);
  o.field("clock_skew_ps", r.clock_skew_ps);
  o.field("clock_latency_ps", r.clock_latency_ps);
  o.field("clock_buffers", r.clock_buffers);
  o.field("hold_buffers", r.hold_buffers);
  o.field("hold_slack_ps", r.hold_slack_ps);
  o.field("hold_violations", r.hold_violations);
  o.field("ir_drop_mv", r.ir_drop_mv);
  o.field("achieved_freq_ghz", r.achieved_freq_ghz);
  o.field("critical_path_ps", r.critical_path_ps);
  o.field("power_uw", r.power_uw);
  o.field("switching_uw", r.switching_uw);
  o.field("internal_uw", r.internal_uw);
  o.field("leakage_uw", r.leakage_uw);
  o.field("efficiency_ghz_per_mw", r.efficiency_ghz_per_mw);
  if (r.config.eco_passes > 0) {
    o.field("eco_passes_run", r.eco_passes_run);
    o.field("eco_attempted", r.eco_attempted);
    o.field("eco_accepted", r.eco_accepted);
    o.field("eco_reverted", r.eco_reverted);
    o.field("eco_upsized", r.eco_upsized);
    o.field("eco_downsized", r.eco_downsized);
    o.field("eco_buffers", r.eco_buffers);
    o.field("eco_pin_flips", r.eco_pin_flips);
    o.field("eco_pre_freq_ghz", r.eco_pre_freq_ghz);
    o.field("eco_post_freq_ghz", r.eco_post_freq_ghz);
    o.field("eco_pre_power_uw", r.eco_pre_power_uw);
    o.field("eco_post_power_uw", r.eco_post_power_uw);
    o.field("eco_iso_power_uw", r.eco_iso_power_uw);
    o.field("eco_sta_speedup", r.eco_sta_speedup);
  }
}

std::string to_json(const FlowResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

void write_json(const std::vector<FlowResult>& results, std::ostream& os) {
  os << "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i) os << ",";
    os << "\n";
    write_json(results[i], os);
  }
  os << "\n]";
}

std::string to_json(const std::vector<FlowResult>& results) {
  std::ostringstream os;
  write_json(results, os);
  return os.str();
}

std::string flow_report_json(const FlowResult& r) {
  std::string out;
  out.reserve(2048);
  JsonBuilder j(out);
  j.open_obj();
  j.field("schema", std::string("ffet.flow_report.v1"));
  j.field("label", r.config.label());
  j.field("tech", std::string(tech::to_string(r.config.tech_kind)));
  j.field("front_layers", static_cast<long long>(r.config.front_layers));
  j.field("back_layers", static_cast<long long>(r.config.back_layers));
  j.field("backside_input_fraction", r.config.backside_input_fraction);
  j.field("target_freq_ghz", r.config.target_freq_ghz);
  j.field("target_utilization", r.config.utilization);
  j.field("seed", static_cast<long long>(r.config.seed));

  // Verdict.
  j.field("valid", r.valid());
  j.field("invalid_reason", r.invalid_reason);

  // Convergence / quality diagnostics.
  j.open_nested("diagnostics");
  j.field("placement_violations", static_cast<long long>(r.placement_violations));
  j.field("placement_drc", static_cast<long long>(r.placement_drc));
  j.field("place_mean_displacement_um", r.place_mean_displacement_um);
  j.field("place_max_displacement_um", r.place_max_displacement_um);
  j.field("drv", static_cast<long long>(r.drv));
  j.field("drv_wire", static_cast<long long>(r.drv_wire));
  j.field("drv_pin_access", static_cast<long long>(r.drv_pin_access));
  j.field("route_passes", static_cast<long long>(r.route_passes));
  j.field("route_ripups", static_cast<long long>(r.route_ripups));
  j.field("route_region_ripups",
          static_cast<long long>(r.route_region_ripups));
  j.field("route_overflow", static_cast<long long>(r.route_overflow));
  j.field("route_settled_nodes", static_cast<long long>(r.route_settled_nodes));
  j.field("route_window_expansions",
          static_cast<long long>(r.route_window_expansions));
  j.field("route_steiner_subnets",
          static_cast<long long>(r.route_steiner_subnets));
  j.field("route_fastpath", static_cast<long long>(r.route_fastpath));
  j.field("clock_skew_ps", r.clock_skew_ps);
  j.field("ir_drop_mv", r.ir_drop_mv);
  j.close_obj();

  // PPA summary.
  j.open_nested("ppa");
  j.field("utilization", r.utilization);
  j.field("core_area_um2", r.core_area_um2);
  j.field("wirelength_front_um", r.wirelength_front_um);
  j.field("wirelength_back_um", r.wirelength_back_um);
  j.field("achieved_freq_ghz", r.achieved_freq_ghz);
  j.field("power_uw", r.power_uw);
  j.field("efficiency_ghz_per_mw", r.efficiency_ghz_per_mw);
  j.close_obj();

  // Post-route ECO (only when the stage ran; absent otherwise so reports
  // from eco_passes == 0 runs stay byte-identical to older builds).
  if (r.config.eco_passes > 0) {
    j.open_nested("eco");
    j.field("passes_run", static_cast<long long>(r.eco_passes_run));
    j.field("attempted", static_cast<long long>(r.eco_attempted));
    j.field("accepted", static_cast<long long>(r.eco_accepted));
    j.field("reverted", static_cast<long long>(r.eco_reverted));
    j.field("upsized", static_cast<long long>(r.eco_upsized));
    j.field("downsized", static_cast<long long>(r.eco_downsized));
    j.field("buffers", static_cast<long long>(r.eco_buffers));
    j.field("pin_flips", static_cast<long long>(r.eco_pin_flips));
    j.field("pre_freq_ghz", r.eco_pre_freq_ghz);
    j.field("post_freq_ghz", r.eco_post_freq_ghz);
    j.field("pre_power_uw", r.eco_pre_power_uw);
    j.field("post_power_uw", r.eco_post_power_uw);
    j.field("iso_power_uw", r.eco_iso_power_uw);
    j.field("sta_speedup", r.eco_sta_speedup);
    j.close_obj();
  }

  // Resource usage (obs resource probe; absent when disabled so reports
  // from FFET_RESOURCE=0 runs stay byte-identical to older builds).
  if (r.resource.sampled) {
    j.open_nested("resource");
    j.field("peak_rss_kb", r.resource.peak_rss_kb);
    j.field("current_rss_kb", r.resource.current_rss_kb);
    j.field("minor_faults", r.resource.minor_faults);
    j.field("major_faults", r.resource.major_faults);
    j.field("netlist_cells", r.resource.netlist_cells);
    j.field("netlist_nets", r.resource.netlist_nets);
    j.field("rc_nodes", r.resource.rc_nodes);
    j.field("route_grid_nodes", r.resource.route_grid_nodes);
    j.field("def_components", r.resource.def_components);
    j.field("def_wires", r.resource.def_wires);
    j.close_obj();
  }

  // Per-stage timings, in execution order (plus per-stage RSS growth when
  // the resource probe is on).
  j.open_array("stages");
  for (const StageTiming& st : r.stage_times) {
    j.element();
    j.open_obj();
    j.field("stage", st.stage);
    j.field("wall_ms", st.wall_ms);
    j.field("cpu_ms", st.cpu_ms);
    if (r.resource.sampled) j.field("rss_delta_kb", st.rss_delta_kb);
    j.close_obj();
  }
  j.close_array();

  // Metrics snapshot (only what the registry has seen so far; the
  // histograms' full bucket vectors stay in the FFET_METRICS dump).
  if (obs::metrics_enabled()) {
    const obs::MetricsSnapshot snap = obs::metrics_snapshot();
    j.open_nested("metrics");
    for (const auto& [name, v] : snap.counters) {
      j.field(name.c_str(), static_cast<long long>(v));
    }
    for (const auto& [name, v] : snap.gauges) j.field(name.c_str(), v);
    j.close_obj();
  }
  j.close_obj();
  return out;
}

void write_flow_report(const FlowResult& result, std::ostream& os) {
  os << flow_report_json(result);
}

bool append_serve_report(std::string& line, const ServeAttribution& serve) {
  // Find the closing brace of the report object (the line may carry a
  // trailing newline); splice the serve object in front of it.
  std::size_t end = line.find_last_of('}');
  if (end == std::string::npos || line.find_first_of('{') == std::string::npos) {
    return false;
  }
  std::string obj;
  {
    JsonBuilder j(obj);
    j.open_obj();
    j.field("queue_ms", serve.queue_ms);
    j.field("cache_ms", serve.cache_ms);
    j.field("run_ms", serve.run_ms);
    j.field("retries", serve.retries);
    j.field("worker_pid", serve.worker_pid);
    j.field("cache_hit", serve.cache_hit);
    j.close_obj();
  }
  const bool empty_obj = end > 0 && line[end - 1] == '{';
  line.insert(end, (empty_obj ? "\"serve\":" : ",\"serve\":") + obj);
  return true;
}

}  // namespace ffet::flow

#include "flow/report_json.h"

#include <ctime>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <utility>

#include "flow/config_json.h"
#include "obs/obs.h"

namespace ffet::flow {

namespace {

using S = ResultSection;

/// A member's value widened to the JSON type it is written as.
template <class T>
FieldValue widen(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v;
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<long long>(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<double>(v);
  } else {
    return std::string(v);
  }
}

template <auto M>
struct MemberOf;
template <class C, class T, T C::*M>
struct MemberOf<M> {
  using type = C;
};

/// Getter for a data member of FlowResult, FlowConfig (via .config) or
/// ResourceUsage (via .resource).
template <auto M>
FieldValue get(const FlowResult& r) {
  using C = typename MemberOf<M>::type;
  if constexpr (std::is_same_v<C, FlowConfig>) {
    return widen(r.config.*M);
  } else if constexpr (std::is_same_v<C, ResourceUsage>) {
    return widen(r.resource.*M);
  } else {
    return widen(r.*M);
  }
}

constexpr ResultField kResultFields[] = {
    {"label", S::Top,
     [](const FlowResult& r) -> FieldValue { return r.config.label(); }},
    {"tech", S::Top,
     [](const FlowResult& r) -> FieldValue {
       return std::string(tech::to_string(r.config.tech_kind));
     }},
    {"front_layers", S::Top, get<&FlowConfig::front_layers>},
    {"back_layers", S::Top, get<&FlowConfig::back_layers>},
    {"backside_input_fraction", S::Top,
     get<&FlowConfig::backside_input_fraction>},
    {"target_freq_ghz", S::Top, get<&FlowConfig::target_freq_ghz>},
    {"target_utilization", S::Top, get<&FlowConfig::utilization>},
    {"seed", S::Top, get<&FlowConfig::seed>},
    {"valid", S::Top,
     [](const FlowResult& r) -> FieldValue { return r.valid(); }},
    {"invalid_reason", S::Top, get<&FlowResult::invalid_reason>},

    {"placement_violations", S::Diagnostics,
     get<&FlowResult::placement_violations>},
    {"placement_drc", S::Diagnostics, get<&FlowResult::placement_drc>},
    {"place_mean_displacement_um", S::Diagnostics,
     get<&FlowResult::place_mean_displacement_um>},
    {"place_max_displacement_um", S::Diagnostics,
     get<&FlowResult::place_max_displacement_um>},
    {"drv", S::Diagnostics, get<&FlowResult::drv>},
    {"drv_wire", S::Diagnostics, get<&FlowResult::drv_wire>},
    {"drv_pin_access", S::Diagnostics, get<&FlowResult::drv_pin_access>},
    {"route_passes", S::Diagnostics, get<&FlowResult::route_passes>},
    {"route_ripups", S::Diagnostics, get<&FlowResult::route_ripups>},
    {"route_region_ripups", S::Diagnostics,
     get<&FlowResult::route_region_ripups>},
    {"route_overflow", S::Diagnostics, get<&FlowResult::route_overflow>},
    {"route_settled_nodes", S::Diagnostics,
     get<&FlowResult::route_settled_nodes>},
    {"route_window_expansions", S::Diagnostics,
     get<&FlowResult::route_window_expansions>},
    {"route_steiner_subnets", S::Diagnostics,
     get<&FlowResult::route_steiner_subnets>},
    {"route_fastpath", S::Diagnostics, get<&FlowResult::route_fastpath>},
    {"clock_skew_ps", S::Diagnostics, get<&FlowResult::clock_skew_ps>},
    {"ir_drop_mv", S::Diagnostics, get<&FlowResult::ir_drop_mv>},

    {"utilization", S::Ppa, get<&FlowResult::utilization>},
    {"core_area_um2", S::Ppa, get<&FlowResult::core_area_um2>},
    {"wirelength_front_um", S::Ppa, get<&FlowResult::wirelength_front_um>},
    {"wirelength_back_um", S::Ppa, get<&FlowResult::wirelength_back_um>},
    {"achieved_freq_ghz", S::Ppa, get<&FlowResult::achieved_freq_ghz>},
    {"power_uw", S::Ppa, get<&FlowResult::power_uw>},
    {"efficiency_ghz_per_mw", S::Ppa,
     get<&FlowResult::efficiency_ghz_per_mw>},

    {"passes_run", S::Eco, get<&FlowResult::eco_passes_run>},
    {"attempted", S::Eco, get<&FlowResult::eco_attempted>},
    {"accepted", S::Eco, get<&FlowResult::eco_accepted>},
    {"reverted", S::Eco, get<&FlowResult::eco_reverted>},
    {"upsized", S::Eco, get<&FlowResult::eco_upsized>},
    {"downsized", S::Eco, get<&FlowResult::eco_downsized>},
    {"buffers", S::Eco, get<&FlowResult::eco_buffers>},
    {"pin_flips", S::Eco, get<&FlowResult::eco_pin_flips>},
    {"pre_freq_ghz", S::Eco, get<&FlowResult::eco_pre_freq_ghz>},
    {"post_freq_ghz", S::Eco, get<&FlowResult::eco_post_freq_ghz>},
    {"pre_power_uw", S::Eco, get<&FlowResult::eco_pre_power_uw>},
    {"post_power_uw", S::Eco, get<&FlowResult::eco_post_power_uw>},
    {"iso_power_uw", S::Eco, get<&FlowResult::eco_iso_power_uw>},
    {"sta_speedup", S::Eco, get<&FlowResult::eco_sta_speedup>},

    {"peak_rss_kb", S::Resource, get<&ResourceUsage::peak_rss_kb>},
    {"current_rss_kb", S::Resource, get<&ResourceUsage::current_rss_kb>},
    {"minor_faults", S::Resource, get<&ResourceUsage::minor_faults>},
    {"major_faults", S::Resource, get<&ResourceUsage::major_faults>},
    {"netlist_cells", S::Resource, get<&ResourceUsage::netlist_cells>},
    {"netlist_nets", S::Resource, get<&ResourceUsage::netlist_nets>},
    {"rc_nodes", S::Resource, get<&ResourceUsage::rc_nodes>},
    {"route_grid_nodes", S::Resource, get<&ResourceUsage::route_grid_nodes>},
    {"def_components", S::Resource, get<&ResourceUsage::def_components>},
    {"def_wires", S::Resource, get<&ResourceUsage::def_wires>},

    {"placement_legal", S::None, get<&FlowResult::placement_legal>},
    {"route_valid", S::None, get<&FlowResult::route_valid>},
    {"core_width_um", S::None, get<&FlowResult::core_width_um>},
    {"core_height_um", S::None, get<&FlowResult::core_height_um>},
    {"hpwl_um", S::None, get<&FlowResult::hpwl_um>},
    {"num_instances", S::None, get<&FlowResult::num_instances>},
    {"num_tap_cells", S::None, get<&FlowResult::num_tap_cells>},
    {"clock_latency_ps", S::None, get<&FlowResult::clock_latency_ps>},
    {"clock_buffers", S::None, get<&FlowResult::clock_buffers>},
    {"hold_buffers", S::None, get<&FlowResult::hold_buffers>},
    {"hold_slack_ps", S::None, get<&FlowResult::hold_slack_ps>},
    {"hold_violations", S::None, get<&FlowResult::hold_violations>},
    {"critical_path_ps", S::None, get<&FlowResult::critical_path_ps>},
    {"switching_uw", S::None, get<&FlowResult::switching_uw>},
    {"internal_uw", S::None, get<&FlowResult::internal_uw>},
    {"leakage_uw", S::None, get<&FlowResult::leakage_uw>},
};

// The member census.  Every FlowResult member is one row, except three:
// `config` (summarized by eight Top rows: label, tech and six values),
// `stage_times` (the report's "stages" array) and `resource` (one row per
// ResourceUsage member but the `sampled` gate).  valid() adds one row.  A
// new member breaks the build here until it has a row, or is named in the
// first message as deliberately unserialized.
static_assert(std::is_aggregate_v<FlowResult> &&
                  std::is_aggregate_v<ResourceUsage>,
              "the member census needs both structs to stay aggregates");
static_assert(detail::count_members<FlowResult>() == 58,
              "FlowResult gained or lost a member: add or remove its row "
              "in kResultFields (config and stage_times stay unserialized)");
static_assert(detail::count_members<ResourceUsage>() == 11,
              "ResourceUsage gained or lost a member: add or remove its "
              "Resource row in kResultFields");
static_assert(std::size(kResultFields) == (58 - 3) + (8 + 1) + (11 - 1),
              "kResultFields must hold one row per serialized member");

bool section_present(const FlowResult& r, ResultSection section) {
  switch (section) {
    case S::Eco:
      return r.config.eco_passes > 0;
    case S::Resource:
      return r.resource.sampled;
    default:
      return true;
  }
}

void write_field(JsonBuilder& j, const char* key, const FieldValue& v) {
  std::visit([&](const auto& x) { j.field(key, x); }, v);
}

void write_section(JsonBuilder& j, const FlowResult& r,
                   ResultSection section) {
  for (const ResultField& f : kResultFields) {
    if (f.section == section) write_field(j, f.key, f.get(r));
  }
}

/// The value of the field-table row keyed `key`.
FieldValue field_value(const FlowResult& r, std::string_view key) {
  for (const ResultField& f : kResultFields) {
    if (key == f.key) return f.get(r);
  }
  return {};  // unreachable for the keys ledger_line asks for
}

}  // namespace

std::span<const ResultField> result_fields() { return kResultFields; }

std::string to_json(const FlowResult& r) {
  std::string out;
  out.reserve(2048);
  JsonBuilder j(out);
  j.open_obj();
  for (const ResultField& f : kResultFields) {
    if (f.section == S::Resource || !section_present(r, f.section)) continue;
    const std::string key = f.section == S::Eco ? "eco_" + std::string(f.key)
                                                : std::string(f.key);
    write_field(j, key.c_str(), f.get(r));
  }
  j.close_obj();
  return out;
}

std::string flow_report_json(const FlowResult& r) {
  std::string out;
  out.reserve(2048);
  JsonBuilder j(out);
  j.open_obj();
  j.field("schema", "ffet.flow_report.v1");
  write_section(j, r, S::Top);
  // Sections the run did not produce (no ECO, resource probe off) are
  // absent, so those reports stay byte-identical to older builds.
  for (const auto& [section, name] :
       {std::pair{S::Diagnostics, "diagnostics"}, std::pair{S::Ppa, "ppa"},
        std::pair{S::Eco, "eco"}, std::pair{S::Resource, "resource"}}) {
    if (!section_present(r, section)) continue;
    j.open_nested(name);
    write_section(j, r, section);
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

LedgerLine ledger_line(const FlowResult& r, int threads) {
  double wall_ms = 0.0;
  for (const StageTiming& st : r.stage_times) wall_ms += st.wall_ms;
  LedgerLine line{
      .kind = "flow",
      .label = r.config.label(),
      .threads = threads,
      .valid = r.valid(),
      .metrics = {
          {"achieved_freq_ghz", field_value(r, "achieved_freq_ghz")},
          {"power_uw", field_value(r, "power_uw")},
          {"wirelength_um", r.wirelength_front_um + r.wirelength_back_um},
          {"drv", field_value(r, "drv")},
          {"runtime_ms", wall_ms},
      }};
  if (r.resource.sampled) {
    for (const char* key : {"peak_rss_kb", "rc_nodes", "netlist_cells"}) {
      line.metrics.emplace_back(key, field_value(r, key));
    }
  }
  return line;
}

std::string ledger_json(const LedgerLine& line, long long timestamp_s,
                        const std::string& host) {
  std::string out;
  out.reserve(512);
  JsonBuilder j(out);
  j.open_obj();
  j.field("schema", "ffet.ledger.v1");
  j.field("kind", line.kind);
  j.field("label", line.label);
  j.field("timestamp_s", timestamp_s);
  j.field("host", host);
  j.field("threads", line.threads);
  j.field("valid", line.valid);
  j.open_nested("metrics");
  for (const auto& [key, v] : line.metrics) write_field(j, key.c_str(), v);
  j.close_obj();
  j.close_obj();
  return out;
}

bool append_ledger(const std::string& path, const LedgerLine& line,
                   std::string* error) {
  const auto now = static_cast<long long>(std::time(nullptr));
  return obs::append_jsonl_line(path, ledger_json(line, now, obs::host_name()),
                                error);
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

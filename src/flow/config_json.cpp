#include "flow/config_json.h"

#include <type_traits>

#include "flow/report_json.h"

namespace ffet::flow {

static_assert(std::is_aggregate_v<FlowConfig>,
              "the member census needs FlowConfig to stay an aggregate");
static_assert(detail::count_members<FlowConfig>() == kFlowConfigFieldCount,
              "FlowConfig gained or lost a field: update config_to_json, "
              "serve/config_codec config_from_json, FlowConfig::label() "
              "(if the field changes PPA), the FlowConfigJson tests, and "
              "kFlowConfigFieldCount in config_json.h");

void append_config_json(JsonBuilder& j, const FlowConfig& cfg) {
  j.open_obj();
  // 16 fields, one per FlowConfig member, in declaration order.
  j.field("tech", cfg.tech_kind == tech::TechKind::Cfet4T ? "cfet" : "ffet");
  j.field("front_layers", cfg.front_layers);
  j.field("back_layers", cfg.back_layers);
  j.field("backside_input_fraction", cfg.backside_input_fraction);
  j.field("target_freq_ghz", cfg.target_freq_ghz);
  j.field("utilization", cfg.utilization);
  j.field("aspect_ratio", cfg.aspect_ratio);
  j.field("rv32_registers", cfg.rv32_registers);
  j.field("seed", cfg.seed);
  j.field("simulate_activity", cfg.simulate_activity);
  j.field("activity_cycles", cfg.activity_cycles);
  j.field("eco_passes", cfg.eco_passes);
  j.field("threads", cfg.threads);
  j.field("trace_path", cfg.trace_path);
  j.field("flow_report_path", cfg.flow_report_path);
  j.field("ledger_path", cfg.ledger_path);
  j.close_obj();
}

std::string config_to_json(const FlowConfig& cfg) {
  std::string out;
  out.reserve(256);
  JsonBuilder j(out);
  append_config_json(j, cfg);
  return out;
}

std::string configs_to_json(const std::vector<FlowConfig>& cfgs) {
  std::string out;
  out.reserve(64 + 256 * cfgs.size());
  out += '[';
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (i) out += ',';
    JsonBuilder j(out);
    append_config_json(j, cfgs[i]);
  }
  out += ']';
  return out;
}

}  // namespace ffet::flow

#include "report/qor.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>

#include "flow/report_json.h"

namespace ffet::report {

namespace {

double map_get(const std::map<std::string, double>& m, const std::string& k,
               double fallback = 0.0) {
  const auto it = m.find(k);
  return it == m.end() ? fallback : it->second;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out += buf;
}

/// A top-level key of the flow report's field table: the config summary
/// (its numeric values land in FlowRecord::config) and the verdict.
bool is_top_key(const std::string& key) {
  for (const flow::ResultField& f : flow::result_fields()) {
    if (f.section == flow::ResultSection::Top && key == f.key) return true;
  }
  return false;
}

/// Read numeric members of a JSON object into a map (bools as 0/1);
/// anything else counts as an unknown field.
void read_number_map(const json::Value& obj, std::map<std::string, double>& m,
                     ReadStats* stats) {
  for (const auto& [k, v] : obj.members) {
    if (v.is_number()) {
      m[k] = v.number;
    } else if (v.is_bool()) {
      m[k] = v.boolean ? 1.0 : 0.0;
    } else if (stats) {
      ++stats->unknown_fields;
    }
  }
}

}  // namespace

double FlowRecord::total_wall_ms() const {
  double t = 0.0;
  for (const StageTime& s : stages) t += s.wall_ms;
  return t;
}

double FlowRecord::total_cpu_ms() const {
  double t = 0.0;
  for (const StageTime& s : stages) t += s.cpu_ms;
  return t;
}

std::vector<FlowRecord> read_flow_reports(std::istream& is, ReadStats* stats) {
  std::vector<FlowRecord> out;
  std::string line;
  while (std::getline(is, line)) {
    // Tolerate blank lines and whitespace-only padding between records.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (stats) ++stats->lines;
    const auto doc = json::parse(line);
    if (!doc || !doc->is_object()) {
      if (stats) ++stats->malformed;
      continue;
    }
    FlowRecord rec;
    for (const auto& [key, v] : doc->members) {
      if (key == "schema" && v.is_string()) {
        rec.schema = v.str;
      } else if (key == "label" && v.is_string()) {
        rec.label = v.str;
      } else if (key == "tech" && v.is_string()) {
        rec.tech = v.str;
      } else if (key == "invalid_reason" && v.is_string()) {
        rec.invalid_reason = v.str;
      } else if (key == "valid" && v.is_bool()) {
        rec.valid = v.boolean;
      } else if (v.is_number() && is_top_key(key)) {
        rec.config[key] = v.number;
      } else if (key == "diagnostics" && v.is_object()) {
        read_number_map(v, rec.diagnostics, stats);
      } else if (key == "ppa" && v.is_object()) {
        read_number_map(v, rec.ppa, stats);
      } else if (key == "eco" && v.is_object()) {
        rec.has_eco = true;
        read_number_map(v, rec.eco, stats);
      } else if (key == "metrics" && v.is_object()) {
        read_number_map(v, rec.metrics, stats);
      } else if (key == "resource" && v.is_object()) {
        read_number_map(v, rec.resource, stats);
      } else if (key == "serve" && v.is_object()) {
        read_number_map(v, rec.serve, stats);
      } else if (key == "stages" && v.is_array()) {
        for (const json::Value& sv : v.items) {
          if (!sv.is_object()) continue;
          StageTime st;
          if (const json::Value* name = sv.find("stage");
              name && name->is_string()) {
            st.stage = name->str;
          }
          st.wall_ms = sv.member_number("wall_ms");
          st.cpu_ms = sv.member_number("cpu_ms");
          st.rss_delta_kb = sv.member_number("rss_delta_kb");
          rec.stages.push_back(std::move(st));
        }
      } else if (v.is_number()) {
        // Unknown numeric field from a newer schema: keep it diffable.
        rec.extra[key] = v.number;
      } else if (v.is_bool()) {
        rec.extra[key] = v.boolean ? 1.0 : 0.0;
      } else if (stats) {
        ++stats->unknown_fields;
      }
    }
    if (stats) ++stats->parsed;
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<FlowRecord> read_flow_reports_file(const std::string& path,
                                               ReadStats* stats,
                                               std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return {};
  }
  return read_flow_reports(f, stats);
}

namespace {

/// Threshold gating by fully-qualified metric name; fills Delta::regression
/// and the explanatory note for the handful of direction-aware KPI gates.
void apply_gate(Delta& d, const DiffOptions& o) {
  const bool has_base = d.base != 0.0;
  const double rise_pct =
      has_base ? (d.now - d.base) / d.base * 100.0 : 0.0;
  if (d.metric == "ppa.achieved_freq_ghz") {
    if (o.freq_drop_pct >= 0.0 && has_base && -rise_pct > o.freq_drop_pct) {
      d.regression = true;
      d.note = "frequency dropped " + fmt(-rise_pct) + "% (threshold " +
               fmt(o.freq_drop_pct) + "%)";
    }
  } else if (d.metric == "ppa.power_uw") {
    if (o.power_rise_pct >= 0.0 && has_base && rise_pct > o.power_rise_pct) {
      d.regression = true;
      d.note = "power rose " + fmt(rise_pct) + "% (threshold " +
               fmt(o.power_rise_pct) + "%)";
    }
  } else if (d.metric == "ppa.wirelength_total_um") {
    if (o.wirelength_rise_pct >= 0.0 && has_base &&
        rise_pct > o.wirelength_rise_pct) {
      d.regression = true;
      d.note = "wirelength rose " + fmt(rise_pct) + "% (threshold " +
               fmt(o.wirelength_rise_pct) + "%)";
    }
  } else if (d.metric == "stages.total_wall_ms") {
    if (o.runtime_rise_pct >= 0.0 && has_base &&
        rise_pct > o.runtime_rise_pct) {
      d.regression = true;
      d.note = "runtime rose " + fmt(rise_pct) + "% (threshold " +
               fmt(o.runtime_rise_pct) + "%)";
    }
  } else if (d.metric == "diagnostics.drv") {
    if (o.gate_drv && d.now > d.base) {
      d.regression = true;
      d.note = "DRV count increased";
    }
  }
}

void push_delta(DiffReport& rep, Delta d, const DiffOptions& o) {
  apply_gate(d, o);
  // QoR-identity mode: every delta that made it this far is on a compared
  // (QoR) section, and exact equality is the contract.
  if (o.qor_only && !d.regression) {
    d.regression = true;
    if (d.note.empty()) d.note = "QoR values differ (identity gate)";
  }
  if (d.regression) ++rep.regressions;
  rep.deltas.push_back(std::move(d));
}

/// Merge-walk two sorted maps; every differing or one-sided key becomes a
/// Delta.  Exact (bitwise) comparison: identical records diff empty.
void diff_maps(const std::string& label, const std::string& prefix,
               const std::map<std::string, double>& base,
               const std::map<std::string, double>& now,
               const DiffOptions& o, DiffReport& rep) {
  auto bi = base.begin();
  auto ni = now.begin();
  while (bi != base.end() || ni != now.end()) {
    if (ni == now.end() || (bi != base.end() && bi->first < ni->first)) {
      Delta d{label, prefix + bi->first, bi->second, 0.0, false,
              "only in base"};
      push_delta(rep, std::move(d), o);
      ++bi;
    } else if (bi == base.end() || ni->first < bi->first) {
      Delta d{label, prefix + ni->first, 0.0, ni->second, false,
              "only in new"};
      push_delta(rep, std::move(d), o);
      ++ni;
    } else {
      if (bi->second != ni->second) {
        Delta d{label, prefix + bi->first, bi->second, ni->second, false, ""};
        push_delta(rep, std::move(d), o);
      }
      ++bi;
      ++ni;
    }
  }
}

void diff_pair(const FlowRecord& b, const FlowRecord& n, const DiffOptions& o,
               DiffReport& rep) {
  const std::string label =
      b.label == n.label ? n.label : b.label + " -> " + n.label;

  if (b.valid != n.valid) {
    Delta d{label, "valid", b.valid ? 1.0 : 0.0, n.valid ? 1.0 : 0.0, false,
            ""};
    if (o.gate_validity && b.valid && !n.valid) {
      d.regression = true;
      d.note = "run became invalid: " + n.invalid_reason;
    }
    push_delta(rep, std::move(d), o);
  }

  diff_maps(label, "config.", b.config, n.config, o, rep);
  diff_maps(label, "diagnostics.", b.diagnostics, n.diagnostics, o, rep);
  diff_maps(label, "ppa.", b.ppa, n.ppa, o, rep);
  // eco.sta_speedup is full over incremental STA time, a wall-clock ratio:
  // like the stage times below, never QoR.
  std::map<std::string, double> b_eco = b.eco;
  std::map<std::string, double> n_eco = n.eco;
  if (o.qor_only) {
    b_eco.erase("sta_speedup");
    n_eco.erase("sta_speedup");
  }
  diff_maps(label, "eco.", b_eco, n_eco, o, rep);
  if (!o.qor_only) {
    diff_maps(label, "metrics.", b.metrics, n.metrics, o, rep);
    diff_maps(label, "resource.", b.resource, n.resource, o, rep);
    // Serve attribution is service latency, not QoR: reported so drift is
    // visible, never matched by a gate (apply_gate names no serve.*), and
    // skipped entirely in --qor identity mode — a cached resubmit must
    // compare clean against the run that produced it.
    diff_maps(label, "serve.", b.serve, n.serve, o, rep);
    diff_maps(label, "extra.", b.extra, n.extra, o, rep);
  }

  // Total wirelength carries the gate (one side may legitimately shrink
  // while the other grows — only the sum is a QoR).
  const double b_wl = map_get(b.ppa, "wirelength_front_um") +
                      map_get(b.ppa, "wirelength_back_um");
  const double n_wl = map_get(n.ppa, "wirelength_front_um") +
                      map_get(n.ppa, "wirelength_back_um");
  if (b_wl != n_wl) {
    push_delta(rep, {label, "ppa.wirelength_total_um", b_wl, n_wl, false, ""},
               o);
  }

  // Stage timings: aggregate first (the gated number), then per-stage wall
  // deltas matched by stage name (first occurrence wins).  Skipped in
  // QoR-identity mode — wall/CPU time is never QoR.
  if (!o.qor_only) {
    if (b.total_wall_ms() != n.total_wall_ms()) {
      push_delta(
          rep,
          {label, "stages.total_wall_ms", b.total_wall_ms(), n.total_wall_ms(),
           false, ""},
          o);
    }
    if (b.total_cpu_ms() != n.total_cpu_ms()) {
      push_delta(
          rep,
          {label, "stages.total_cpu_ms", b.total_cpu_ms(), n.total_cpu_ms(),
           false, ""},
          o);
    }
    std::map<std::string, double> b_stage, n_stage;
    for (const StageTime& s : b.stages) b_stage.emplace(s.stage, s.wall_ms);
    for (const StageTime& s : n.stages) n_stage.emplace(s.stage, s.wall_ms);
    diff_maps(label, "stage_wall_ms.", b_stage, n_stage, o, rep);
  }

  // ECO accept-rule self-check on the new record: the transform loop must
  // never end slower than it started (the revert path's contract).
  if (n.has_eco) {
    const double pre = map_get(n.eco, "pre_freq_ghz");
    const double post = map_get(n.eco, "post_freq_ghz");
    if (post < pre) {
      Delta d{label, "eco.post_vs_pre_freq_ghz", pre, post, true,
              "post-ECO frequency below pre-ECO (revert path broken?)"};
      ++rep.regressions;
      rep.deltas.push_back(std::move(d));
    }
  }
}

}  // namespace

DiffReport diff_flow_reports(const std::vector<FlowRecord>& base,
                             const std::vector<FlowRecord>& now,
                             const DiffOptions& options) {
  DiffReport rep;
  if (base.size() == now.size()) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base[i].label != now[i].label) {
        rep.notes.push_back("pair " + std::to_string(i) + ": label \"" +
                            base[i].label + "\" vs \"" + now[i].label +
                            "\" (compared index-wise)");
      }
      ++rep.pairs;
      diff_pair(base[i], now[i], options, rep);
    }
    return rep;
  }

  rep.notes.push_back("record counts differ (" + std::to_string(base.size()) +
                      " vs " + std::to_string(now.size()) +
                      "); pairing by label");
  std::map<std::string, const FlowRecord*> bmap, nmap;
  for (const FlowRecord& r : base) bmap[r.label] = &r;  // last wins
  for (const FlowRecord& r : now) nmap[r.label] = &r;
  for (const auto& [label, b] : bmap) {
    const auto it = nmap.find(label);
    if (it == nmap.end()) {
      rep.notes.push_back("only in base: \"" + label + "\"");
      continue;
    }
    ++rep.pairs;
    diff_pair(*b, *it->second, options, rep);
  }
  for (const auto& [label, n] : nmap) {
    (void)n;
    if (bmap.find(label) == bmap.end()) {
      rep.notes.push_back("only in new: \"" + label + "\"");
    }
  }
  return rep;
}

std::string format_diff(const DiffReport& rep) {
  std::string out;
  appendf(out, "QoR diff: %d pair(s), %zu delta(s), %d regression(s)\n",
          rep.pairs, rep.deltas.size(), rep.regressions);
  for (const std::string& n : rep.notes) out += "  note: " + n + "\n";

  std::string current_label;
  bool first_label = true;
  for (const Delta& d : rep.deltas) {
    if (first_label || d.label != current_label) {
      current_label = d.label;
      first_label = false;
      out += "\n[" + current_label + "]\n";
    }
    const double diff = d.now - d.base;
    std::string pct;
    if (d.base != 0.0) {
      pct = " (" + fmt(diff / d.base * 100.0) + "%)";
    }
    appendf(out, "  %-34s %s -> %s  %s%s%s", d.metric.c_str(),
            fmt(d.base).c_str(), fmt(d.now).c_str(),
            (diff >= 0 ? "+" : ""), fmt(diff).c_str(), pct.c_str());
    if (d.regression) {
      out += "  REGRESSION: " + d.note;
    } else if (!d.note.empty()) {
      out += "  [" + d.note + "]";
    }
    out += "\n";
  }

  if (rep.deltas.empty()) out += "  (no differences)\n";
  out += rep.ok() ? "\nOK: no threshold regressions\n"
                  : "\nFAIL: QoR regression gate\n";
  return out;
}

namespace {

/// Fetch obj[a][b] (or obj[a] with b == nullptr) as a number; records the
/// dotted path in `missing` when absent or non-numeric.
double need_num(const json::Value& obj, const char* a, const char* b,
                std::vector<std::string>& missing) {
  const json::Value* v = obj.find(a);
  if (v && b) v = v->find(b);
  if (!v || !v->is_number()) {
    missing.push_back(b ? std::string(a) + "." + b : std::string(a));
    return 0.0;
  }
  return v->number;
}

}  // namespace

int eco_gate(const json::Value& base, const json::Value& now,
             std::string& out) {
  if (!base.is_object() || !now.is_object()) {
    out += "malformed bench_eco JSON (expected objects)\n";
    return 2;
  }
  std::vector<std::string> missing;
  const double b_pre_f = need_num(base, "pre", "freq_ghz", missing);
  const double b_post_f = need_num(base, "post", "freq_ghz", missing);
  const double b_gain = need_num(base, "freq_gain_pct", nullptr, missing);
  const double b_iso = need_num(base, "iso_power_increase_pct", nullptr, missing);
  const double b_speedup = need_num(base, "sta_speedup", nullptr, missing);
  const double b_passes = need_num(base, "eco_passes", nullptr, missing);
  const double n_pre_f = need_num(now, "pre", "freq_ghz", missing);
  const double n_post_f = need_num(now, "post", "freq_ghz", missing);
  const double n_gain = need_num(now, "freq_gain_pct", nullptr, missing);
  const double n_iso_pct = need_num(now, "iso_power_increase_pct", nullptr, missing);
  const double n_speedup = need_num(now, "sta_speedup", nullptr, missing);
  const double n_passes = need_num(now, "eco_passes", nullptr, missing);
  const double n_pre_power = need_num(now, "pre", "power_uw", missing);
  const double n_iso_power = need_num(now, "post", "iso_power_uw", missing);
  if (!missing.empty()) {
    out += "malformed bench_eco JSON; missing fields:\n";
    for (const std::string& m : missing) out += "  - " + m + "\n";
    return 2;
  }

  appendf(out,
          "baseline (eco_passes=%.0f): %.3f -> %.3f GHz (%+.1f%%), "
          "iso power %+.2f%%, STA speedup %.2fx\n",
          b_passes, b_pre_f, b_post_f, b_gain, b_iso, b_speedup);
  appendf(out,
          "new      (eco_passes=%.0f): %.3f -> %.3f GHz (%+.1f%%), "
          "iso power %+.2f%%, STA speedup %.2fx\n",
          n_passes, n_pre_f, n_post_f, n_gain, n_iso_pct, n_speedup);
  appendf(out,
          "new transforms: %.0f attempted, %.0f accepted (%.0f upsize, "
          "%.0f downsize, %.0f repeater, %.0f pin-flip), %.0f reverted\n",
          now.member_number("attempted"), now.member_number("accepted"),
          now.member_number("upsized"), now.member_number("downsized"),
          now.member_number("buffers"), now.member_number("pin_flips"),
          now.member_number("reverted"));

  constexpr double kIsoPowerTolerance = 0.01;  // <= 1 % rise at iso frequency
  std::vector<std::string> failures;
  if (n_post_f < n_pre_f) {
    failures.push_back("post-ECO freq " + fmt(n_post_f) +
                       " GHz below pre-ECO " + fmt(n_pre_f) +
                       " GHz (revert path broken?)");
  }
  const double iso_limit = (1.0 + kIsoPowerTolerance) * n_pre_power;
  if (n_iso_power > iso_limit) {
    failures.push_back("iso-frequency power " + fmt(n_iso_power) +
                       " uW exceeds " + fmt(iso_limit) + " uW (pre " +
                       fmt(n_pre_power) + " uW + 1%)");
  }
  if (n_speedup < 1.0) {
    failures.push_back("incremental STA slower than full re-analysis "
                       "(speedup " + fmt(n_speedup) + "x < 1)");
  }
  const json::Value* gates_ok = now.find("gates_ok");
  if (!gates_ok || !gates_ok->bool_or(false)) {
    failures.push_back("gates_ok=false: the bench's in-process gates failed");
  }
  // Exact checks: the ECO loop is deterministic (bit-identical at any
  // thread count), so with the same number of passes any change in the
  // trial counts is a behaviour change.  Runs of different pass counts
  // legitimately differ and are not compared.
  if (b_passes == n_passes) {
    for (const char* field : {"attempted", "accepted", "reverted", "upsized",
                              "downsized", "buffers", "pin_flips"}) {
      const json::Value* bf = base.find(field);
      const json::Value* nf = now.find(field);
      if (!bf || !bf->is_number()) continue;  // an older baseline schema
      if (!nf || !nf->is_number()) {
        failures.push_back(std::string(field) + " missing from new run");
      } else if (nf->number != bf->number) {
        failures.push_back(std::string(field) + " changed " +
                           fmt(bf->number) + " -> " + fmt(nf->number));
      }
    }
  }

  if (!failures.empty()) {
    out += "\nFAIL: bench_eco gate\n";
    for (const std::string& f : failures) out += "  - " + f + "\n";
    return 1;
  }
  out += "\nOK: ECO improves frequency within the power budget and the "
         "incremental STA beats full re-analysis\n";
  return 0;
}

int router_gate(const json::Value& base, const json::Value& now,
                std::string& out) {
  const json::Value* b_cfgs = base.find("configs");
  const json::Value* n_cfgs = now.find("configs");
  if (!b_cfgs || !b_cfgs->is_array() || !n_cfgs || !n_cfgs->is_array()) {
    out += "malformed bench_router JSON (expected a \"configs\" array)\n";
    return 2;
  }
  constexpr double kTolerance = 0.20;  // >20 % regression fails

  std::vector<std::string> failures;

  // Configs are keyed by gcell_tracks plus the regime label: two tracks=10
  // configs exist (congested / stress), and a baseline written before the
  // label field existed still keys uniquely by tracks alone ("" label).
  auto cfg_key = [](const json::Value& c) {
    std::string key =
        std::to_string(static_cast<long>(c.member_number("gcell_tracks")));
    if (const json::Value* l = c.find("label"); l && l->is_string()) {
      key += ":" + l->str;
    }
    return key;
  };
  std::map<std::string, const json::Value*> new_by_cfg;
  for (const json::Value& c : n_cfgs->items) new_by_cfg[cfg_key(c)] = &c;
  std::map<std::string, const json::Value*> base_by_cfg;
  for (const json::Value& c : b_cfgs->items) base_by_cfg[cfg_key(c)] = &c;

  // Exact checks: the loop's work counters and wirelength are
  // deterministic (same design, same options, bit-identical at any thread
  // count), so any difference is a behaviour change even when the speed
  // held.  A field the baseline lacks (an older schema) is skipped, and so
  // is any engine block other than "astar2".
  auto check_counters = [&](const std::string& key, const json::Value& b,
                            const json::Value& n) {
    const json::Value* be = b.find("astar2");
    if (!be || !be->is_object()) return;
    const json::Value* ne = n.find("astar2");
    for (const char* field :
         {"passes", "ripups", "region_ripups", "window_expansions",
          "drv_wire", "steiner_subnets", "fastpath", "wirelength_um"}) {
      const json::Value* bf = be->find(field);
      if (!bf || !bf->is_number()) continue;
      const json::Value* nf = ne && ne->is_object() ? ne->find(field) : nullptr;
      const std::string what = key + ": astar2." + field;
      if (!nf || !nf->is_number()) {
        failures.push_back(what + " missing from new run");
      } else if (nf->number != bf->number) {
        char buf[80];
        std::snprintf(buf, sizeof(buf), " changed %.17g -> %.17g",
                      bf->number, nf->number);
        failures.push_back(what + buf);
      }
    }
  };
  for (const auto& [key, b] : base_by_cfg) {
    const auto it = new_by_cfg.find(key);
    if (it == new_by_cfg.end()) {
      failures.push_back(key + ": missing from new run");
      continue;
    }
    const json::Value& n = *it->second;
    check_counters(key, *b, n);
    // Per-route search effort (machine independent) may rise at most
    // 20 %; skipped when a baseline lacks the field.
    const json::Value* bs = b->find("astar2_settled_per_route");
    const json::Value* ns = n.find("astar2_settled_per_route");
    if (!bs || !bs->is_number() || !ns || !ns->is_number()) continue;
    const double ratio = bs->number > 0 ? ns->number / bs->number : 1.0;
    appendf(out, "%s: astar2_settled_per_route %.2f -> %.2f (%+.1f%%)\n",
            key.c_str(), bs->number, ns->number, (ratio - 1.0) * 100.0);
    if (ratio > 1.0 + kTolerance) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: astar2_settled_per_route regressed %.1f%% (> 20%%)",
                    key.c_str(), (ratio - 1.0) * 100.0);
      failures.push_back(buf);
    }
  }

  if (!failures.empty()) {
    out += "\nFAIL: bench_router regression gate\n";
    for (const std::string& f : failures) out += "  - " + f + "\n";
    return 1;
  }
  out += "\nOK: bench_router within tolerance of the committed baseline\n";
  return 0;
}

}  // namespace ffet::report

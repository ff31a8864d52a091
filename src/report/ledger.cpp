#include "report/ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <string_view>

#include "obs/numfmt.h"
#include "report/json.h"

namespace ffet::report {

namespace {

// Copy every numeric/bool member of `obj` into `out` (bools as 0/1);
// anything else counts as an unknown field.  Same policy as the
// flow-report reader so ledgers tolerate schema growth.
void read_number_map(const json::Value& obj, std::map<std::string, double>& out,
                     ReadStats* stats) {
  for (const auto& [key, v] : obj.members) {
    if (v.is_number()) {
      out[key] = v.number;
    } else if (v.is_bool()) {
      out[key] = v.boolean ? 1.0 : 0.0;
    } else if (stats) {
      ++stats->unknown_fields;
    }
  }
}

bool parse_entry(std::string_view line, LedgerEntry& entry, ReadStats* stats) {
  const std::optional<json::Value> doc = json::parse(line);
  if (!doc || !doc->is_object()) return false;
  for (const auto& [key, v] : doc->members) {
    if (key == "schema" && v.is_string()) {
      entry.schema = v.str;
    } else if (key == "kind" && v.is_string()) {
      entry.kind = v.str;
    } else if (key == "label" && v.is_string()) {
      entry.label = v.str;
    } else if (key == "host" && v.is_string()) {
      entry.host = v.str;
    } else if (key == "timestamp_s" && v.is_number()) {
      entry.timestamp_s = static_cast<long long>(v.number);
    } else if (key == "threads" && v.is_number()) {
      entry.threads = static_cast<int>(v.number);
    } else if (key == "valid" && v.is_bool()) {
      entry.valid = v.boolean;
    } else if (key == "metrics" && v.is_object()) {
      read_number_map(v, entry.metrics, stats);
    } else if (v.is_number()) {
      entry.extra[key] = v.number;
    } else if (v.is_bool()) {
      entry.extra[key] = v.boolean ? 1.0 : 0.0;
    } else if (stats) {
      ++stats->unknown_fields;
    }
  }
  // A line without the schema marker is not a ledger entry; a line with a
  // *different* schema still reads (forward compatibility within v-family).
  return entry.schema.rfind("ffet.ledger.", 0) == 0;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (n % 2) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double pct_change(double base, double now) {
  if (base == 0.0) return now == 0.0 ? 0.0 : 100.0;
  return 100.0 * (now - base) / base;
}

std::string fmt_pct(double pct) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.2f%%", pct);
  return buf;
}

// Gate direction per metric name; threshold < 0 means ungated.
struct Gate {
  double threshold_pct = -1.0;
  bool rise_is_bad = true;
};

Gate gate_for(const std::string& metric, const TrendOptions& o) {
  if (metric == "achieved_freq_ghz") return {o.freq_drop_pct, false};
  if (metric == "power_uw") return {o.power_rise_pct, true};
  if (metric == "wirelength_um") return {o.wirelength_rise_pct, true};
  if (metric == "runtime_ms") return {o.runtime_rise_pct, true};
  if (metric == "peak_rss_kb") return {o.rss_rise_pct, true};
  return {};
}

}  // namespace

std::vector<LedgerEntry> read_ledger(std::istream& is, ReadStats* stats) {
  std::vector<LedgerEntry> entries;
  std::string line;
  while (std::getline(is, line)) {
    std::string_view sv(line);
    while (!sv.empty() && (sv.back() == '\r' || sv.back() == ' ')) {
      sv.remove_suffix(1);
    }
    if (sv.empty()) continue;
    if (stats) ++stats->lines;
    LedgerEntry entry;
    if (parse_entry(sv, entry, stats)) {
      entries.push_back(std::move(entry));
      if (stats) ++stats->parsed;
    } else if (stats) {
      ++stats->malformed;
    }
  }
  return entries;
}

std::vector<LedgerEntry> read_ledger_file(const std::string& path,
                                          ReadStats* stats,
                                          std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open ledger file: " + path;
    return {};
  }
  return read_ledger(is, stats);
}

TrendReport analyze_trend(const std::vector<LedgerEntry>& entries,
                          const TrendOptions& options) {
  TrendReport report;

  // Group by (kind, label) preserving first-seen order.
  std::vector<std::pair<std::string, std::vector<const LedgerEntry*>>> groups;
  for (const LedgerEntry& e : entries) {
    if (!options.kind.empty() && e.kind != options.kind) continue;
    if (!options.label.empty() && e.label != options.label) continue;
    const std::string key = e.kind + "\x1f" + e.label;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.push_back({key, {}});
      it = groups.end() - 1;
    }
    it->second.push_back(&e);
  }
  if (groups.empty()) {
    report.notes.push_back("no ledger entries matched");
    return report;
  }

  for (const auto& [key, runs] : groups) {
    TrendSeries series;
    series.kind = runs.front()->kind;
    series.label = runs.front()->label;
    series.runs = static_cast<int>(runs.size());
    const LedgerEntry& latest = *runs.back();
    series.latest_valid = latest.valid;

    if (runs.size() < 2) {
      report.notes.push_back("'" + series.label + "' (" + series.kind +
                             "): only 1 run, no trend baseline yet");
      report.series.push_back(std::move(series));
      continue;
    }

    // Prior window: up to `window` runs immediately before the latest.
    const std::size_t window =
        options.window > 0 ? static_cast<std::size_t>(options.window)
                           : runs.size() - 1;
    const std::size_t prior_count = std::min(window, runs.size() - 1);
    const std::size_t prior_begin = runs.size() - 1 - prior_count;

    if (options.gate_validity && !latest.valid) {
      bool any_prior_valid = false;
      for (std::size_t i = prior_begin; i + 1 < runs.size(); ++i) {
        any_prior_valid |= runs[i]->valid;
      }
      if (any_prior_valid) {
        series.validity_regression = true;
        ++series.regressions;
      }
    }

    // Union of metric names across the group, stable order: latest run's
    // order of appearance would need member order — maps are sorted, which
    // is deterministic and fine for a report.
    std::map<std::string, int> names;
    for (const LedgerEntry* r : runs) {
      for (const auto& [name, _] : r->metrics) names[name] = 1;
    }

    for (const auto& [name, _] : names) {
      TrendMetric tm;
      tm.metric = name;
      for (const LedgerEntry* r : runs) {
        auto it = r->metrics.find(name);
        if (it != r->metrics.end()) tm.values.push_back(it->second);
      }
      const auto latest_it = latest.metrics.find(name);
      if (latest_it == latest.metrics.end() || tm.values.size() < 2) {
        tm.note = "insufficient history";
        series.metrics.push_back(std::move(tm));
        continue;
      }
      tm.latest = latest_it->second;

      std::vector<double> prior;
      for (std::size_t i = prior_begin; i + 1 < runs.size(); ++i) {
        auto it = runs[i]->metrics.find(name);
        if (it != runs[i]->metrics.end()) prior.push_back(it->second);
      }
      if (prior.empty()) {
        tm.note = "insufficient history";
        series.metrics.push_back(std::move(tm));
        continue;
      }
      tm.median_prior = median_of(prior);
      const double pct = pct_change(tm.median_prior, tm.latest);

      if (name == "drv") {
        tm.gated = options.gate_drv;
        if (tm.gated && tm.latest > tm.median_prior) {
          tm.regression = true;
          tm.note = "drv rose vs prior median";
        }
      } else {
        const Gate gate = gate_for(name, options);
        tm.gated = gate.threshold_pct >= 0.0;
        if (tm.gated) {
          const double bad = gate.rise_is_bad ? pct : -pct;
          if (bad > gate.threshold_pct) {
            tm.regression = true;
            tm.note = (gate.rise_is_bad ? "rose " : "dropped ") +
                      fmt_pct(gate.rise_is_bad ? pct : -pct) + " > " +
                      obs::format_double(gate.threshold_pct) + "%";
          }
        }
      }
      if (tm.note.empty()) tm.note = fmt_pct(pct) + " vs prior median";
      if (tm.regression) ++series.regressions;
      series.metrics.push_back(std::move(tm));
    }

    report.regressions += series.regressions;
    report.series.push_back(std::move(series));
  }
  return report;
}

std::string format_trend(const TrendReport& report) {
  std::ostringstream os;
  os << "== ledger trend ==\n";
  for (const TrendSeries& s : report.series) {
    os << "-- " << s.kind << ": " << s.label << " (" << s.runs << " run"
       << (s.runs == 1 ? "" : "s") << ")";
    if (s.validity_regression) {
      os << "  REGRESSION: latest run invalid";
    } else if (!s.latest_valid) {
      os << "  [latest invalid]";
    }
    os << "\n";
    for (const TrendMetric& m : s.metrics) {
      os << "   " << m.metric << ":";
      for (double v : m.values) os << " " << obs::format_double(v);
      if (!m.note.empty() && m.note != "insufficient history") {
        os << "  | " << m.note;
      } else if (m.note == "insufficient history") {
        os << "  | (no baseline)";
      }
      if (m.regression) {
        os << "  REGRESSION";
      } else if (m.gated) {
        os << "  ok";
      }
      os << "\n";
    }
  }
  for (const std::string& n : report.notes) os << "   note: " << n << "\n";
  os << (report.ok() ? "TREND OK" : "TREND REGRESSIONS: ")
     << (report.ok() ? std::string() : std::to_string(report.regressions))
     << "\n";
  return os.str();
}

std::string format_history(const std::vector<LedgerEntry>& entries,
                           const std::string& label) {
  static const char* kKeyOrder[] = {"achieved_freq_ghz", "power_uw",
                                    "wirelength_um",     "drv",
                                    "runtime_ms",        "peak_rss_kb"};
  std::ostringstream os;
  int shown = 0;
  for (const LedgerEntry& e : entries) {
    if (!label.empty() && e.label != label) continue;
    ++shown;
    os << "[" << e.timestamp_s << "] " << e.kind << " '" << e.label << "'"
       << " host=" << (e.host.empty() ? "?" : e.host)
       << " threads=" << e.threads << " valid=" << (e.valid ? 1 : 0);
    for (const char* key : kKeyOrder) {
      auto it = e.metrics.find(key);
      if (it != e.metrics.end()) {
        os << " " << key << "=" << obs::format_double(it->second);
      }
    }
    for (const auto& [name, v] : e.metrics) {
      bool known = false;
      for (const char* key : kKeyOrder) known |= (name == key);
      if (!known) os << " " << name << "=" << obs::format_double(v);
    }
    os << "\n";
  }
  if (shown == 0) {
    os << "(no ledger entries" << (label.empty() ? "" : " for '" + label + "'")
       << ")\n";
  }
  return os.str();
}

}  // namespace ffet::report

#include "synth/synth.h"

#include <string>
#include <vector>

#include "geom/geom.h"
#include "sta/sta.h"
#include "stdcell/nldm.h"

namespace ffet::synth {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Next drive step of a cell, or nullptr at the top of the ladder.
const stdcell::CellType* next_drive(const stdcell::Library& lib,
                                    const stdcell::CellType& type) {
  const int d = type.structure().drive;
  const std::string base(stdcell::to_string(type.function()));
  for (int nd : {d * 2, d * 4}) {
    const stdcell::CellType* up = lib.find(base + "D" + std::to_string(nd));
    if (up) return up;
  }
  return nullptr;
}

/// Split sinks of high-fanout data nets behind buffer trees.
int buffer_high_fanout(Netlist& nl, int max_fanout, int& name_counter) {
  int added = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const int n_nets = nl.num_nets();  // snapshot: we add nets inside
    for (NetId n = 0; n < n_nets; ++n) {
      const netlist::Net& net = nl.net(n);
      if (net.is_clock) continue;  // CTS owns the clock
      if (net.driver.inst == netlist::kNoInst) continue;
      if (static_cast<int>(net.sinks.size()) <= max_fanout) continue;

      // Move sinks in groups of max_fanout behind BUFD4s.
      std::vector<netlist::PinRef> sinks = net.sinks;
      std::size_t idx = 0;
      while (static_cast<int>(sinks.size() - idx) > max_fanout) {
        const NetId leaf =
            nl.add_net("fobuf_net_" + std::to_string(name_counter));
        const InstId buf = nl.add_instance(
            "fobuf_" + std::to_string(name_counter), "BUFD4");
        ++name_counter;
        nl.connect(buf, "Z", leaf);
        for (int k = 0; k < max_fanout && idx < sinks.size(); ++k, ++idx) {
          const netlist::PinRef& ref = sinks[idx];
          const auto& pin_name =
              nl.instance(ref.inst)
                  .type->pins()[static_cast<std::size_t>(ref.pin)]
                  .name;
          nl.reconnect_sink(ref.inst, pin_name, leaf);
        }
        nl.connect(buf, "I", n);
        ++added;
        changed = true;
      }
    }
  }
  return added;
}

}  // namespace

SynthReport size_for_frequency(Netlist& nl, const SynthOptions& options) {
  SynthReport rep;
  int name_counter = 0;
  rep.buffers_added = buffer_high_fanout(nl, options.max_fanout, name_counter);

  const double target_ps = 1000.0 / options.target_freq_ghz;
  const stdcell::Library& lib = nl.library();

  // One wireload timer for every pass: each pass re-times only the cone
  // of the cells it upsized, bit-identical to a fresh analysis.
  sta::Sta sta(&nl, nullptr);
  sta::TimingReport t = sta.analyze_timing();
  for (int pass = 0; pass < options.max_passes; ++pass) {
    rep.passes = pass + 1;
    rep.est_freq_ghz = t.achieved_freq_ghz;
    if (t.critical_path_ps <= target_ps) {
      rep.met = true;
      return rep;
    }
    sta::DirtySet upsized;
    for (InstId id : sta.critical_instances()) {
      const netlist::Instance& inst = nl.instance(id);
      if (inst.type->physical_only() || inst.fixed) continue;
      const stdcell::CellType* up = next_drive(lib, *inst.type);
      if (!up) continue;
      nl.resize_instance(id, up);
      upsized.insts.push_back(id);
    }
    rep.upsized += static_cast<int>(upsized.insts.size());
    if (upsized.insts.empty()) break;  // ladder exhausted on the critical path
    t = sta.update_timing(upsized);
  }
  rep.est_freq_ghz = t.achieved_freq_ghz;
  rep.met = 1000.0 / rep.est_freq_ghz <= target_ps;
  return rep;
}

int fix_hold(netlist::Netlist& nl,
             const std::unordered_map<netlist::InstId, double>&
                 clock_latency_ps,
             double margin_ps) {
  const stdcell::Library& lib = nl.library();
  const stdcell::CellType& buf = lib.at("BUFD1");
  // Delay of one hold buffer at a light load, min edge, derated early.
  const stdcell::TimingArc& arc = buf.timing_model()->arcs.front();
  const double buf_delay =
      0.9 * std::min(arc.delay_rise.lookup(10.0, 1.5),
                     arc.delay_fall.lookup(10.0, 1.5));

  sta::StaOptions so;
  so.derate_early = 0.85;  // conservative min-delay view
  double mean_lat = 0.0;
  if (!clock_latency_ps.empty()) {
    for (const auto& [id, lat] : clock_latency_ps) mean_lat += lat;
    mean_lat /= static_cast<double>(clock_latency_ps.size());
  }
  so.pi_reference_latency_ps = mean_lat;
  // One timer for every pass: after a pass's buffers, only the touched
  // nets' caches are refreshed before the next hold analysis.
  sta::Sta sta(&nl, nullptr, so);

  int inserted = 0;
  int serial = 0;
  for (int pass = 0; pass < 4; ++pass) {
    const sta::HoldReport rep = sta.analyze_hold(&clock_latency_ps);
    if (rep.violating_endpoints.empty()) break;
    sta::DirtySet touched;
    touched.structure_changed = true;
    for (const auto& [ff, slack] : rep.violating_endpoints) {
      const int need = std::max(
          1, static_cast<int>((margin_ps - slack) / buf_delay + 0.999));
      const geom::Point ff_pos = nl.instance(ff).pos;
      const int d_pin = nl.instance(ff).type->pin_index("D");
      netlist::NetId src = nl.pin_net(ff, static_cast<std::size_t>(d_pin));
      touched.nets.push_back(src);
      for (int k = 0; k < need; ++k) {
        const netlist::NetId mid =
            nl.add_net("hold_net_" + std::to_string(serial));
        const netlist::InstId b = nl.add_instance(
            "hold_buf_" + std::to_string(serial), &buf);
        ++serial;
        // Place the buffer at the flop (same idealization as CTS buffers).
        nl.instance(b).pos = ff_pos;
        nl.connect(b, "I", src);
        nl.connect(b, "Z", mid);
        touched.insts.push_back(b);
        src = mid;
        ++inserted;
      }
      nl.reconnect_sink(ff, "D", src);
    }
    sta.update_caches(touched);
  }
  return inserted;
}

}  // namespace ffet::synth

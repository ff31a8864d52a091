#include "sta/sta.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "stdcell/nldm.h"

namespace ffet::sta {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinRef;
using stdcell::PinDir;
using stdcell::TimingArc;
using stdcell::TimingModel;

namespace {

/// Slew degradation through an RC wire: combine the driver transition with
/// the wire's step response (PERI-style root-sum-square).
double degrade_slew(double slew_ps, double elmore_ps) {
  const double wire = 2.2 * elmore_ps;
  return std::sqrt(slew_ps * slew_ps + wire * wire);
}

}  // namespace

namespace {
/// Sentinel for "pin appears in no sink list"; lookups map it to 0, exactly
/// like the original linear search's not-found fallback.
constexpr std::size_t kNoSinkIndex = static_cast<std::size_t>(-1);

/// Topological position of instances outside the timing graph
/// (physical-only cells); they sort last in the incremental worklist and
/// propagate as no-ops.
constexpr int kNoTopoPos = INT_MAX;

double clock_latency_of(
    const std::unordered_map<InstId, double>* clock_latency_ps, InstId id) {
  if (!clock_latency_ps) return 0.0;
  const auto it = clock_latency_ps->find(id);
  return it == clock_latency_ps->end() ? 0.0 : it->second;
}

/// The (unique) output net of an instance, kNoNet if none is connected.
NetId output_net_of(const Netlist& nl, InstId id) {
  const netlist::Instance& inst = nl.instance(id);
  const auto pin_nets = nl.pin_nets(id);
  for (std::size_t p = 0; p < pin_nets.size(); ++p) {
    if (inst.type->pins()[p].dir == PinDir::Output) return pin_nets[p];
  }
  return netlist::kNoNet;
}

/// The "a -> b -> ..." path rendering shared by TimingReport::critical_path
/// and Sta::path_string — one formatter so the two stay bit-identical.
std::string format_path_names(const Netlist& nl,
                              const std::vector<InstId>& path) {
  std::string desc;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) desc += " -> ";
    nl.append_instance_name(desc, path[i]);
    if (desc.size() > 400) {
      desc += " ...";
      break;
    }
  }
  return desc;
}
}  // namespace

Sta::Sta(const Netlist* nl, const extract::RcNetlist* rc, StaOptions options)
    : nl_(nl), rc_(rc), opt_(options) {}

double Sta::compute_net_load_ff(NetId net) const {
  if (rc_) {
    return rc_->span_of(net).total_cap_ff;
  }
  const netlist::Net& n = nl_->net(net);
  double pins = 0.0;
  for (const PinRef& s : n.sinks) pins += nl_->pin_cap_ff(s);
  return pins + opt_.wl_base_ff +
         opt_.wl_per_fanout_ff * static_cast<double>(n.sinks.size());
}

double Sta::net_load_ff(NetId net) const {
  ensure_caches();
  return net_load_[static_cast<std::size_t>(net)];
}

std::size_t Sta::sink_index(InstId inst, std::size_t pin) const {
  const std::size_t idx = sink_index_[static_cast<std::size_t>(inst)][pin];
  return idx == kNoSinkIndex ? 0 : idx;
}

void Sta::ensure_caches() const {
  if (caches_built_) return;
  FFET_TRACE_SCOPE("sta.precompute");
  caches_built_ = true;
  const auto n_nets = static_cast<std::size_t>(nl_->num_nets());
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());

  net_load_.assign(n_nets, 0.0);
  runtime::parallel_for(
      n_nets,
      [&](std::size_t n) {
        net_load_[n] = compute_net_load_ff(static_cast<NetId>(n));
      },
      opt_.threads, 0);

  // Sink-index map: each (inst, pin) belongs to exactly one net's sink
  // list, so parallel per-net fills touch disjoint cells.
  sink_index_.resize(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    sink_index_[i].assign(
        static_cast<std::size_t>(nl_->pin_count(static_cast<InstId>(i))),
        kNoSinkIndex);
  }
  runtime::parallel_for(
      n_nets,
      [&](std::size_t n) {
        const netlist::Net& net = nl_->net(static_cast<NetId>(n));
        for (std::size_t s = 0; s < net.sinks.size(); ++s) {
          const PinRef& ref = net.sinks[s];
          auto& cell =
              sink_index_[static_cast<std::size_t>(ref.inst)]
                         [static_cast<std::size_t>(ref.pin)];
          if (cell == kNoSinkIndex) cell = s;  // keep the first match
        }
      },
      opt_.threads, 0);
}

void Sta::refresh_caches_for(const std::vector<NetId>& nets) const {
  ensure_caches();
  // Structural growth/shrink: size the tables to the current netlist
  // (fresh entries are filled below from the dirty-net list).
  net_load_.resize(static_cast<std::size_t>(nl_->num_nets()), 0.0);
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  sink_index_.resize(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const std::size_t pins =
        static_cast<std::size_t>(nl_->pin_count(static_cast<InstId>(i)));
    if (sink_index_[i].size() != pins) {
      sink_index_[i].assign(pins, kNoSinkIndex);
    }
  }
  for (const NetId n : nets) {
    net_load_[static_cast<std::size_t>(n)] = compute_net_load_ff(n);
    // Re-derive the sink indices of this net's current sinks with the same
    // first-match semantics as the full build (reconnects shift the
    // indices of every later sink in the list).
    const netlist::Net& net = nl_->net(n);
    for (const PinRef& ref : net.sinks) {
      sink_index_[static_cast<std::size_t>(ref.inst)]
                 [static_cast<std::size_t>(ref.pin)] = kNoSinkIndex;
    }
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const PinRef& ref = net.sinks[s];
      auto& cell = sink_index_[static_cast<std::size_t>(ref.inst)]
                              [static_cast<std::size_t>(ref.pin)];
      if (cell == kNoSinkIndex) cell = s;  // keep the first match
    }
  }
}

double Sta::sink_wire_delay_ps(NetId net, std::size_t sink_idx) const {
  if (rc_) {
    return rc_->tree(net).elmore_to_sink(sink_idx);
  }
  // Wireload: lumped R times downstream cap.
  return 0.69 * opt_.wl_res_ohm * net_load_ff(net) / 1000.0;
}

void Sta::rebuild_topo() const {
  topo_order_ = nl_->topo_order();
  topo_pos_.assign(static_cast<std::size_t>(nl_->num_instances()),
                   kNoTopoPos);
  for (std::size_t k = 0; k < topo_order_.size(); ++k) {
    topo_pos_[static_cast<std::size_t>(topo_order_[k])] =
        static_cast<int>(k);
  }
}

void Sta::input_arrival_ps(NetId net_id, std::size_t sink_idx, double& arr,
                           double& slw, InstId& src) const {
  // SDC-style default input delay at PIs, referenced to the propagated
  // clock.
  arr = opt_.input_delay_ps + opt_.pi_reference_latency_ps;
  slw = opt_.input_slew_ps;
  src = netlist::kNoInst;
  const netlist::Net& net = nl_->net(net_id);
  if (net.driver.inst != netlist::kNoInst) {
    arr = arrival_[static_cast<std::size_t>(net.driver.inst)];
    slw = slew_[static_cast<std::size_t>(net.driver.inst)];
    src = net.driver.inst;
  }
  const double wire = sink_wire_delay_ps(net_id, sink_idx) * opt_.derate_late;
  arr += wire;
  slw = degrade_slew(slw, wire);
}

bool Sta::propagate_instance(
    InstId id, const std::unordered_map<InstId, double>* clock_latency_ps) {
  const netlist::Instance& inst = nl_->instance(id);
  const TimingModel* model = inst.type->timing_model();
  if (!model) return false;  // tie cells keep arrival 0

  const NetId out_net = output_net_of(*nl_, id);
  if (out_net == netlist::kNoNet) return false;
  const double load = net_load_ff(out_net);
  const auto sid = static_cast<std::size_t>(id);

  if (inst.type->sequential()) {
    // Launch: CP -> Q at the clock-insertion latency.
    const TimingArc* arc = model->arcs.empty() ? nullptr : &model->arcs[0];
    if (!arc) return false;
    const double clk_slew = 15.0;
    const double d = opt_.derate_late * 0.5 *
                     (arc->delay_rise.lookup(clk_slew, load) +
                      arc->delay_fall.lookup(clk_slew, load));
    const double arr = clock_latency_of(clock_latency_ps, id) + d;
    const double slw = 0.5 * (arc->trans_rise.lookup(clk_slew, load) +
                              arc->trans_fall.lookup(clk_slew, load));
    const bool changed = arr != arrival_[sid] || slw != slew_[sid];
    arrival_[sid] = arr;
    slew_[sid] = slw;
    return changed;
  }

  // Combinational: max over input arcs.
  double best = 0.0;
  double best_slew = opt_.input_slew_ps;
  InstId best_src = netlist::kNoInst;
  const auto pin_nets = nl_->pin_nets(id);
  for (std::size_t p = 0; p < pin_nets.size(); ++p) {
    const auto& pin = inst.type->pins()[p];
    if (pin.dir == PinDir::Output) continue;
    const NetId in_net = pin_nets[p];
    if (in_net == netlist::kNoNet) continue;
    // This pin's position in the net's sink list (for the Elmore lookup).
    const std::size_t sink_idx = sink_index(id, p);
    double arr, slw;
    InstId src;
    input_arrival_ps(in_net, sink_idx, arr, slw, src);
    const TimingArc* arc = model->arc_from(static_cast<int>(p));
    if (!arc) continue;
    const double d =
        opt_.derate_late * std::max(arc->delay_rise.lookup(slw, load),
                                    arc->delay_fall.lookup(slw, load));
    if (arr + d > best) {
      best = arr + d;
      best_slew = std::max(arc->trans_rise.lookup(slw, load),
                           arc->trans_fall.lookup(slw, load));
      best_src = src;
    }
  }
  const bool changed = best != arrival_[sid] || best_slew != slew_[sid];
  arrival_[sid] = best;
  slew_[sid] = best_slew;
  from_[sid] = best_src;
  return changed;
}

TimingReport Sta::build_report(
    const std::unordered_map<InstId, double>* clock_latency_ps) {
  TimingReport rep;

  // Worst output slew over the combinational instances that propagated
  // (same filter as the propagation loop; slew_ stores exactly the values
  // the full pass maximized over, so this scan is bit-identical to the
  // in-loop accumulation).
  for (int i = 0; i < nl_->num_instances(); ++i) {
    const netlist::Instance& inst = nl_->instance(i);
    const TimingModel* model = inst.type->timing_model();
    if (!model || inst.type->sequential()) continue;
    if (output_net_of(*nl_, i) == netlist::kNoNet) continue;
    rep.max_slew_ps =
        std::max(rep.max_slew_ps, slew_[static_cast<std::size_t>(i)]);
  }

  // Endpoints: flip-flop D pins (setup) and primary outputs.
  double worst = 0.0;
  InstId worst_end = netlist::kNoInst;
  InstId worst_src = netlist::kNoInst;
  for (int i = 0; i < nl_->num_instances(); ++i) {
    const netlist::Instance& inst = nl_->instance(i);
    if (!inst.type->sequential()) continue;
    const TimingModel* model = inst.type->timing_model();
    if (!model) continue;
    const auto pin_nets = nl_->pin_nets(i);
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      const auto& pin = inst.type->pins()[p];
      if (pin.dir != PinDir::Input || pin.name != "D") continue;
      const NetId net_id = pin_nets[p];
      if (net_id == netlist::kNoNet) continue;
      const std::size_t sink_idx = sink_index(i, p);
      double arr, slw;
      InstId src;
      input_arrival_ps(net_id, sink_idx, arr, slw, src);
      // Capture edge benefits from this FF's own insertion latency.
      const double path =
          arr + model->setup_ps - clock_latency_of(clock_latency_ps, i);
      if (path > worst) {
        worst = path;
        worst_end = i;
        worst_src = src;
      }
      ++rep.endpoints;
    }
  }
  for (const netlist::Port& port : nl_->ports()) {
    if (port.is_input || port.net == netlist::kNoNet) continue;
    const netlist::Net& net = nl_->net(port.net);
    if (net.driver.inst == netlist::kNoInst) continue;
    const double arr = arrival_[static_cast<std::size_t>(net.driver.inst)];
    if (arr > worst) {
      worst = arr;
      worst_end = net.driver.inst;
      worst_src = from_[static_cast<std::size_t>(net.driver.inst)];
    }
    ++rep.endpoints;
  }

  rep.critical_path_ps = worst + opt_.clock_skew_ps + opt_.uncertainty_ps;
  rep.achieved_freq_ghz =
      rep.critical_path_ps > 0 ? 1000.0 / rep.critical_path_ps : 0.0;

  // Reconstruct the critical path (endpoint backwards).
  critical_insts_.clear();
  for (InstId cur = worst_src; cur != netlist::kNoInst;
       cur = from_[static_cast<std::size_t>(cur)]) {
    critical_insts_.push_back(cur);
    if (critical_insts_.size() > 10000) break;  // safety
  }
  std::reverse(critical_insts_.begin(), critical_insts_.end());
  if (worst_end != netlist::kNoInst) critical_insts_.push_back(worst_end);
  rep.critical_path = format_path_names(*nl_, critical_insts_);
  return rep;
}

TimingReport Sta::analyze_timing(
    const std::unordered_map<InstId, double>* clock_latency_ps) {
  FFET_TRACE_SCOPE("sta.timing");
  ensure_caches();
  rebuild_topo();
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  arrival_.assign(n_inst, 0.0);
  slew_.assign(n_inst, opt_.input_slew_ps);
  from_.assign(n_inst, netlist::kNoInst);

  // Propagate in topological order.  topo_order() lists sequential
  // instances (sources) before the combinational cone they feed.
  for (InstId id : topo_order_) propagate_instance(id, clock_latency_ps);

  return build_report(clock_latency_ps);
}

TimingReport Sta::update_timing(
    const DirtySet& dirty,
    const std::unordered_map<InstId, double>* clock_latency_ps) {
  // No prior full analysis to update (or an unannounced structural
  // change) — fall back to the full pass.
  if (arrival_.empty() || topo_order_.empty() ||
      (!dirty.structure_changed &&
       arrival_.size() != static_cast<std::size_t>(nl_->num_instances()))) {
    return analyze_timing(clock_latency_ps);
  }
  FFET_TRACE_SCOPE("sta.update");
  if (dirty.structure_changed) {
    rebuild_topo();
    const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
    arrival_.resize(n_inst, 0.0);
    slew_.resize(n_inst, opt_.input_slew_ps);
    from_.resize(n_inst, netlist::kNoInst);
  }
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());

  // Expand to the affected net set: the dirty nets plus every net touching
  // a dirty instance (its delay depends on the output load; its sinks see
  // new wire delays when it was resized/moved).
  std::vector<NetId> nets = dirty.nets;
  for (const InstId id : dirty.insts) {
    for (const NetId n : nl_->pin_nets(id)) {
      if (n != netlist::kNoNet) nets.push_back(n);
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  refresh_caches_for(nets);

  // Seeds: every instance whose own computation reads a dirty quantity —
  // drivers (output load changed) and sinks (wire delay changed) of the
  // affected nets, plus the dirty instances themselves.
  std::vector<InstId> seeds = dirty.insts;
  for (const NetId n : nets) {
    const netlist::Net& net = nl_->net(n);
    if (net.driver.inst != netlist::kNoInst) seeds.push_back(net.driver.inst);
    for (const PinRef& s : net.sinks) seeds.push_back(s.inst);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  // Levelized worklist: pop in topological position order, so every
  // instance is recomputed at most once and only after all its recomputed
  // predecessors — the per-instance arithmetic then sees exactly the same
  // inputs as a full pass.
  using Entry = std::pair<int, InstId>;  // (topo position, instance)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> work;
  std::vector<char> queued(n_inst, 0);
  std::vector<char> processed(n_inst, 0);
  for (const InstId id : seeds) {
    queued[static_cast<std::size_t>(id)] = 1;
    work.push({topo_pos_[static_cast<std::size_t>(id)], id});
  }

  long recomputed = 0;
  while (!work.empty()) {
    const auto [pos, id] = work.top();
    work.pop();
    const auto sid = static_cast<std::size_t>(id);
    if (processed[sid]) continue;
    processed[sid] = 1;
    ++recomputed;
    if (!propagate_instance(id, clock_latency_ps)) continue;
    // The stored (arrival, slew) changed: downstream combinational sinks
    // must recompute.  Sequential sinks are endpoints — their launch does
    // not depend on the D input, and the endpoint scan below re-reads the
    // new arrival directly.
    const NetId out_net = output_net_of(*nl_, id);
    if (out_net == netlist::kNoNet) continue;
    for (const PinRef& s : nl_->net(out_net).sinks) {
      const auto ss = static_cast<std::size_t>(s.inst);
      if (queued[ss] || nl_->instance(s.inst).type->sequential()) continue;
      queued[ss] = 1;
      work.push({topo_pos_[ss], s.inst});
    }
  }
  last_update_recomputed_ = recomputed;
  FFET_METRIC_ADD("sta.incremental_updates", 1);
  FFET_METRIC_ADD("sta.incremental_recomputed", recomputed);

  return build_report(clock_latency_ps);
}

std::vector<PathEnd> Sta::worst_paths(
    int k,
    const std::unordered_map<InstId, double>* clock_latency_ps) const {
  std::vector<PathEnd> ends;
  for (int i = 0; i < nl_->num_instances(); ++i) {
    const netlist::Instance& inst = nl_->instance(i);
    if (!inst.type->sequential()) continue;
    const TimingModel* model = inst.type->timing_model();
    if (!model) continue;
    const auto pin_nets = nl_->pin_nets(i);
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      const auto& pin = inst.type->pins()[p];
      if (pin.dir != PinDir::Input || pin.name != "D") continue;
      const NetId net_id = pin_nets[p];
      if (net_id == netlist::kNoNet) continue;
      const std::size_t sink_idx = sink_index(i, p);
      double arr, slw;
      InstId src;
      input_arrival_ps(net_id, sink_idx, arr, slw, src);
      ends.push_back(
          {i, false,
           arr + model->setup_ps - clock_latency_of(clock_latency_ps, i)});
    }
  }
  for (const netlist::Port& port : nl_->ports()) {
    if (port.is_input || port.net == netlist::kNoNet) continue;
    const netlist::Net& net = nl_->net(port.net);
    if (net.driver.inst == netlist::kNoInst) continue;
    ends.push_back(
        {net.driver.inst, true,
         arrival_[static_cast<std::size_t>(net.driver.inst)]});
  }
  // Worst-first; ties resolve like the full scan's strict-greater
  // comparison: the endpoint visited first wins (FFs by id, then POs).
  std::sort(ends.begin(), ends.end(),
            [](const PathEnd& a, const PathEnd& b) {
              if (a.path_ps != b.path_ps) return a.path_ps > b.path_ps;
              if (a.is_port != b.is_port) return !a.is_port;
              return a.endpoint < b.endpoint;
            });
  if (k >= 0 && ends.size() > static_cast<std::size_t>(k)) {
    ends.resize(static_cast<std::size_t>(k));
  }
  return ends;
}

double Sta::endpoint_path_ps(
    InstId endpoint, bool is_port,
    const std::unordered_map<InstId, double>* clock_latency_ps) const {
  if (is_port) return arrival_[static_cast<std::size_t>(endpoint)];
  const netlist::Instance& inst = nl_->instance(endpoint);
  const TimingModel* model = inst.type->timing_model();
  if (!model) return 0.0;
  const auto pin_nets = nl_->pin_nets(endpoint);
  for (std::size_t p = 0; p < pin_nets.size(); ++p) {
    const auto& pin = inst.type->pins()[p];
    if (pin.dir != PinDir::Input || pin.name != "D") continue;
    const NetId net_id = pin_nets[p];
    if (net_id == netlist::kNoNet) continue;
    const std::size_t sink_idx = sink_index(endpoint, p);
    double arr, slw;
    InstId src;
    input_arrival_ps(net_id, sink_idx, arr, slw, src);
    return arr + model->setup_ps -
           clock_latency_of(clock_latency_ps, endpoint);
  }
  return 0.0;
}

std::vector<InstId> Sta::path_instances(const PathEnd& e) const {
  std::vector<InstId> path;
  InstId src = netlist::kNoInst;
  if (e.is_port) {
    src = from_[static_cast<std::size_t>(e.endpoint)];
  } else {
    const netlist::Instance& inst = nl_->instance(e.endpoint);
    const auto pin_nets = nl_->pin_nets(e.endpoint);
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      const auto& pin = inst.type->pins()[p];
      if (pin.dir != PinDir::Input || pin.name != "D") continue;
      const NetId net_id = pin_nets[p];
      if (net_id == netlist::kNoNet) continue;
      src = nl_->net(net_id).driver.inst;
      break;
    }
  }
  for (InstId cur = src; cur != netlist::kNoInst;
       cur = from_[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (path.size() > 10000) break;  // safety
  }
  std::reverse(path.begin(), path.end());
  path.push_back(e.endpoint);
  return path;
}

std::string Sta::path_string(const PathEnd& e) const {
  return format_path_names(*nl_, path_instances(e));
}

std::string Sta::endpoint_name(const PathEnd& e) const {
  if (!e.is_port) return nl_->instance_name(e.endpoint) + "/D";
  for (const netlist::Port& port : nl_->ports()) {
    if (port.is_input || port.net == netlist::kNoNet) continue;
    if (nl_->net(port.net).driver.inst == e.endpoint) {
      return "port:" + port.name;
    }
  }
  return nl_->instance_name(e.endpoint) + "/out";
}

int Sta::path_side_crossings(const PathEnd& e) const {
  const std::vector<InstId> path = path_instances(e);
  int crossings = 0;
  bool have_prev = false;
  stdcell::PinSide prev = stdcell::PinSide::Front;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NetId out = output_net_of(*nl_, path[i]);
    if (out == netlist::kNoNet) continue;
    const netlist::Instance& sink = nl_->instance(path[i + 1]);
    const auto sink_pins = nl_->pin_nets(path[i + 1]);
    for (std::size_t p = 0; p < sink_pins.size(); ++p) {
      if (sink_pins[p] != out) continue;
      if (sink.type->pins()[p].dir == PinDir::Output) continue;
      stdcell::PinSide s =
          nl_->pin_side({path[i + 1], static_cast<int>(p)});
      if (s == stdcell::PinSide::Both) s = stdcell::PinSide::Front;
      if (have_prev && s != prev) ++crossings;
      prev = s;
      have_prev = true;
      break;
    }
  }
  return crossings;
}

HoldReport Sta::analyze_hold(
    const std::unordered_map<InstId, double>* clock_latency_ps) {
  FFET_TRACE_SCOPE("sta.hold");
  ensure_caches();
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  std::vector<double> min_arrival(n_inst, 0.0);
  std::vector<double> min_slew(n_inst, opt_.input_slew_ps);

  auto clock_latency = [&](InstId id) {
    if (!clock_latency_ps) return 0.0;
    const auto it = clock_latency_ps->find(id);
    return it == clock_latency_ps->end() ? 0.0 : it->second;
  };

  // The order the last analysis cached is current unless the netlist grew
  // or shrank since (the load and sink-index caches assume no other
  // structural change between analyses either).
  if (topo_pos_.size() != n_inst) rebuild_topo();
  for (InstId id : topo_order_) {
    const netlist::Instance& inst = nl_->instance(id);
    const stdcell::TimingModel* model = inst.type->timing_model();
    if (!model) continue;
    const NetId out_net = output_net_of(*nl_, id);
    if (out_net == netlist::kNoNet) continue;
    const double load = net_load_ff(out_net);

    if (inst.type->sequential()) {
      const TimingArc* arc = model->arcs.empty() ? nullptr : &model->arcs[0];
      if (!arc) continue;
      const double d = opt_.derate_early *
                       std::min(arc->delay_rise.lookup(15.0, load),
                                arc->delay_fall.lookup(15.0, load));
      min_arrival[static_cast<std::size_t>(id)] = clock_latency(id) + d;
      min_slew[static_cast<std::size_t>(id)] =
          std::min(arc->trans_rise.lookup(15.0, load),
                   arc->trans_fall.lookup(15.0, load));
      continue;
    }

    double best = std::numeric_limits<double>::max();
    double best_slew = opt_.input_slew_ps;
    const auto pin_nets = nl_->pin_nets(id);
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      const auto& pin = inst.type->pins()[p];
      if (pin.dir == PinDir::Output) continue;
      const NetId in_net = pin_nets[p];
      if (in_net == netlist::kNoNet) continue;
      const netlist::Net& net = nl_->net(in_net);
      const std::size_t sink_idx = sink_index(id, p);
      double arr = opt_.input_delay_ps + opt_.pi_reference_latency_ps;
      double slw = opt_.input_slew_ps;
      if (net.driver.inst != netlist::kNoInst) {
        arr = min_arrival[static_cast<std::size_t>(net.driver.inst)];
        slw = min_slew[static_cast<std::size_t>(net.driver.inst)];
      }
      const double wire =
          sink_wire_delay_ps(in_net, sink_idx) * opt_.derate_early;
      arr += wire;
      slw = degrade_slew(slw, wire);
      const TimingArc* arc = model->arc_from(static_cast<int>(p));
      if (!arc) continue;
      const double d = opt_.derate_early *
                       std::min(arc->delay_rise.lookup(slw, load),
                                arc->delay_fall.lookup(slw, load));
      if (arr + d < best) {
        best = arr + d;
        best_slew = std::min(arc->trans_rise.lookup(slw, load),
                             arc->trans_fall.lookup(slw, load));
      }
    }
    if (best == std::numeric_limits<double>::max()) best = 0.0;
    min_arrival[static_cast<std::size_t>(id)] = best;
    min_slew[static_cast<std::size_t>(id)] = best_slew;
  }

  HoldReport rep;
  rep.worst_slack_ps = std::numeric_limits<double>::max();
  for (int i = 0; i < nl_->num_instances(); ++i) {
    const netlist::Instance& inst = nl_->instance(i);
    if (!inst.type->sequential()) continue;
    const stdcell::TimingModel* model = inst.type->timing_model();
    if (!model) continue;
    const auto pin_nets = nl_->pin_nets(i);
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      const auto& pin = inst.type->pins()[p];
      if (pin.dir != PinDir::Input || pin.name != "D") continue;
      const NetId net_id = pin_nets[p];
      if (net_id == netlist::kNoNet) continue;
      const netlist::Net& net = nl_->net(net_id);
      const std::size_t sink_idx = sink_index(i, p);
      double arr = opt_.input_delay_ps + opt_.pi_reference_latency_ps;
      if (net.driver.inst != netlist::kNoInst) {
        arr = min_arrival[static_cast<std::size_t>(net.driver.inst)];
      }
      arr += sink_wire_delay_ps(net_id, sink_idx) * opt_.derate_early;
      // Hold check at the same edge: data must stay stable past the
      // capture flop's hold window, which opens at its clock latency.
      const double skew =
          clock_latency_ps ? clock_latency(i) : opt_.clock_skew_ps;
      const double slack = arr - model->hold_ps - skew;
      if (slack < rep.worst_slack_ps) {
        rep.worst_slack_ps = slack;
        rep.worst_endpoint = nl_->instance_name(i) + "/D";
      }
      if (slack < 0.0) {
        ++rep.violations;
        rep.violating_endpoints.push_back({i, slack});
      }
    }
  }
  if (rep.worst_slack_ps == std::numeric_limits<double>::max()) {
    rep.worst_slack_ps = 0.0;
  }
  return rep;
}

PowerReport Sta::analyze_power(double freq_ghz,
                               const std::vector<double>* toggle_rates,
                               double default_toggle) const {
  FFET_TRACE_SCOPE("sta.power");
  PowerReport rep;
  rep.freq_ghz = freq_ghz;
  const double vdd = nl_->library().tech().device().vdd_v;

  auto toggle_of = [&](NetId n) {
    if (toggle_rates && static_cast<std::size_t>(n) < toggle_rates->size()) {
      return (*toggle_rates)[static_cast<std::size_t>(n)];
    }
    return nl_->net(n).is_clock ? 2.0 : default_toggle;
  };

  // Net switching power: alpha/2 * C * V^2 * f   (fF * V^2 * GHz = uW).
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const double cap = net_load_ff(n);
    rep.switching_uw += 0.5 * toggle_of(n) * cap * vdd * vdd * freq_ghz;
  }

  // Internal power: per-transition NLDM energy at each driver.
  for (int i = 0; i < nl_->num_instances(); ++i) {
    const netlist::Instance& inst = nl_->instance(i);
    const TimingModel* model = inst.type->timing_model();
    if (!model) continue;
    rep.leakage_uw += model->leakage_nw / 1000.0;
    if (model->arcs.empty()) continue;
    const NetId out_net = output_net_of(*nl_, i);
    if (out_net == netlist::kNoNet) continue;
    const double load = net_load_ff(out_net);
    const double slw =
        slew_.empty() ? opt_.input_slew_ps
                      : slew_[static_cast<std::size_t>(i)];
    const TimingArc& arc = model->arcs.front();
    const double e_avg = 0.5 * (arc.energy_rise.lookup(slw, load) +
                                arc.energy_fall.lookup(slw, load));
    // fJ per transition * transitions/cycle * GHz = uW.
    rep.internal_uw += e_avg * toggle_of(out_net) * freq_ghz;
  }
  return rep;
}

}  // namespace ffet::sta

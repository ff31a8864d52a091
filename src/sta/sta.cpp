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
constexpr std::uint32_t kNoSinkIndex = static_cast<std::uint32_t>(-1);

/// Topological position of instances outside the timing graph
/// (physical-only cells); they sort last in the incremental worklist and
/// propagate as no-ops.
constexpr int kNoTopoPos = INT_MAX;

/// Report-tree value of an element that is no leaf.
constexpr double kAbsent = -std::numeric_limits<double>::infinity();

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

/// The instance's connected data pin (input "D"), or -1: the pin every
/// setup and hold endpoint scan checks.
int connected_d_pin(const Netlist& nl, InstId id) {
  const netlist::Instance& inst = nl.instance(id);
  const auto pin_nets = nl.pin_nets(id);
  for (std::size_t p = 0; p < pin_nets.size(); ++p) {
    const auto& pin = inst.type->pins()[p];
    if (pin.dir != PinDir::Input || pin.name != "D") continue;
    if (pin_nets[p] != netlist::kNoNet) return static_cast<int>(p);
  }
  return -1;
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

// ---- ArgMaxTree ------------------------------------------------------------

void Sta::ArgMaxTree::pull(std::size_t node) {
  const std::uint32_t a = win_[2 * node];
  const std::uint32_t b = win_[2 * node + 1];
  // a indexes the left (lower) half: it keeps ties.
  win_[node] = val_[b] > val_[a] ? b : a;
}

void Sta::ArgMaxTree::build(std::vector<double> leaves) {
  n_ = leaves.size();
  cap_ = 1;
  depth_ = 0;
  while (cap_ < n_) {
    cap_ *= 2;
    ++depth_;
  }
  val_ = std::move(leaves);
  val_.resize(cap_, kAbsent);
  win_.assign(2 * cap_, 0);
  pending_.clear();
  present_ = 0;
  for (std::size_t i = 0; i < cap_; ++i) {
    win_[cap_ + i] = static_cast<std::uint32_t>(i);
    if (val_[i] != kAbsent) ++present_;
  }
  for (std::size_t node = cap_ - 1; node >= 1; --node) pull(node);
}

void Sta::ArgMaxTree::resize(std::size_t n) {
  if (n > cap_) {
    std::vector<double> leaves = std::move(val_);
    leaves.resize(n, kAbsent);
    build(std::move(leaves));
    return;
  }
  for (std::size_t i = n; i < n_; ++i) set(i, kAbsent);
  n_ = n;
}

void Sta::ArgMaxTree::set(std::size_t i, double v) {
  present_ += (v != kAbsent) - (val_[i] != kAbsent);
  val_[i] = v;
  pending_.push_back(static_cast<std::uint32_t>(i));
}

void Sta::ArgMaxTree::flush() {
  if (pending_.size() * static_cast<std::size_t>(depth_) >= cap_) {
    for (std::size_t node = cap_ - 1; node >= 1; --node) pull(node);
  } else {
    for (const std::uint32_t i : pending_) {
      for (std::size_t node = (cap_ + i) / 2; node >= 1; node /= 2) {
        pull(node);
      }
    }
  }
  pending_.clear();
}

// ---- caches ----------------------------------------------------------------

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
  const std::uint32_t idx = sink_index_[nl_->pin_offset(inst) + pin];
  return idx == kNoSinkIndex ? 0 : idx;
}

void Sta::ensure_caches() const {
  if (caches_built_) return;
  FFET_TRACE_SCOPE("sta.precompute");
  caches_built_ = true;
  const auto n_nets = static_cast<std::size_t>(nl_->num_nets());

  net_load_.assign(n_nets, 0.0);
  runtime::parallel_for(
      n_nets,
      [&](std::size_t n) {
        net_load_[n] = compute_net_load_ff(static_cast<NetId>(n));
      },
      opt_.threads, 0);

  // Sink-index map: each (inst, pin) belongs to exactly one net's sink
  // list, so parallel per-net fills touch disjoint slots.
  sink_index_.assign(nl_->pin_slots(), kNoSinkIndex);
  runtime::parallel_for(
      n_nets,
      [&](std::size_t n) {
        const netlist::Net& net = nl_->net(static_cast<NetId>(n));
        for (std::size_t s = 0; s < net.sinks.size(); ++s) {
          const PinRef& ref = net.sinks[s];
          std::uint32_t& slot =
              sink_index_[nl_->pin_offset(ref.inst) +
                          static_cast<std::size_t>(ref.pin)];
          // Keep the first match.
          if (slot == kNoSinkIndex) slot = static_cast<std::uint32_t>(s);
        }
      },
      opt_.threads, 0);
}

std::vector<NetId> Sta::affected_nets(const DirtySet& dirty) const {
  std::vector<NetId> nets = dirty.nets;
  for (const InstId id : dirty.insts) {
    for (const NetId n : nl_->pin_nets(id)) {
      if (n != netlist::kNoNet) nets.push_back(n);
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

void Sta::refresh_caches_for(const std::vector<NetId>& nets) const {
  ensure_caches();
  // Structural growth/shrink: size the tables to the current netlist.
  // Pins and nets are appended and popped at the end, so the surviving
  // entries keep their slots; fresh ones are filled from the dirty nets.
  net_load_.resize(static_cast<std::size_t>(nl_->num_nets()), 0.0);
  sink_index_.resize(nl_->pin_slots(), kNoSinkIndex);
  for (const NetId n : nets) {
    net_load_[static_cast<std::size_t>(n)] = compute_net_load_ff(n);
    // Re-derive the sink indices of this net's current sinks with the same
    // first-match semantics as the full build (reconnects shift the
    // indices of every later sink in the list).
    const netlist::Net& net = nl_->net(n);
    for (const PinRef& ref : net.sinks) {
      sink_index_[nl_->pin_offset(ref.inst) +
                  static_cast<std::size_t>(ref.pin)] = kNoSinkIndex;
    }
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const PinRef& ref = net.sinks[s];
      std::uint32_t& slot = sink_index_[nl_->pin_offset(ref.inst) +
                                        static_cast<std::size_t>(ref.pin)];
      if (slot == kNoSinkIndex) slot = static_cast<std::uint32_t>(s);
    }
    // Power: the net's switching term and its driver's internal term read
    // the load.
    dirty_power_net(n);
    if (net.driver.inst != netlist::kNoInst) dirty_power_inst(net.driver.inst);
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
  // Flip-flops come first, so a launch arrival is set before the
  // combinational cells its Q feeds read it.
  topo_order_ = nl_->topo_order();
  topo_pos_.assign(static_cast<std::size_t>(nl_->num_instances()),
                   kNoTopoPos);
  for (std::size_t k = 0; k < topo_order_.size(); ++k) {
    topo_pos_[static_cast<std::size_t>(topo_order_[k])] =
        static_cast<int>(k);
  }
  order_stale_ = false;
}

void Sta::place_new_instances(std::size_t first_new,
                              const std::vector<NetId>& nets) {
  // (position, id) is a topological order when every edge driver → sink
  // runs forward in it; the worklist pops in that order, so any such
  // positions give the bits of a fresh analysis.  A new combinational
  // instance takes the latest position among its drivers, a flip-flop
  // (a source) -1: with the largest id it sorts after each of them.
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  topo_pos_.resize(n_inst, kNoTopoPos);
  for (std::size_t i = first_new; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    const netlist::Instance& inst = nl_->instance(id);
    if (inst.type->physical_only()) continue;
    int pos = -1;
    const auto pin_nets = nl_->pin_nets(id);
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      if (inst.type->sequential()) break;  // a source
      if (inst.type->pins()[p].dir == PinDir::Output) continue;
      if (pin_nets[p] == netlist::kNoNet) continue;
      const InstId d = nl_->net(pin_nets[p]).driver.inst;
      if (d == netlist::kNoInst) continue;
      const int dp = topo_pos_[static_cast<std::size_t>(d)];
      if (dp != kNoTopoPos) pos = std::max(pos, dp);
    }
    topo_pos_[i] = pos;
  }
  order_stale_ = true;
  // Every edge that may be new lies on a dirty net (new instances list
  // theirs); if one runs backwards, re-derive the whole order.  Drivers
  // outside the timing graph never change, so their edges never bind.
  for (const NetId n : nets) {
    const netlist::Net& net = nl_->net(n);
    const InstId d = net.driver.inst;
    if (d == netlist::kNoInst) continue;
    const std::pair<int, InstId> from{topo_pos_[static_cast<std::size_t>(d)],
                                      d};
    if (from.first == kNoTopoPos) continue;
    for (const PinRef& s : net.sinks) {
      const netlist::Instance& si = nl_->instance(s.inst);
      if (si.type->sequential() || si.type->physical_only()) continue;
      if (std::pair{topo_pos_[static_cast<std::size_t>(s.inst)], s.inst} <=
          from) {
        rebuild_topo();
        return;
      }
    }
  }
}

void Sta::update_caches(const DirtySet& dirty) {
  refresh_caches_for(affected_nets(dirty));
  if (dirty.structure_changed) rebuild_topo();
  arrival_.clear();  // the setup tables no longer describe the netlist
}

// ---- propagation ------------------------------------------------------------

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

// ---- report -----------------------------------------------------------------

double Sta::slew_leaf(InstId id) const {
  // The instances the propagation maximizes over: combinational cells
  // with a timing model and a connected output.
  const netlist::Instance& inst = nl_->instance(id);
  if (!inst.type->timing_model() || inst.type->sequential()) return kAbsent;
  if (output_net_of(*nl_, id) == netlist::kNoNet) return kAbsent;
  return slew_[static_cast<std::size_t>(id)];
}

double Sta::ff_end_leaf(
    InstId id,
    const std::unordered_map<InstId, double>* clock_latency_ps) const {
  const netlist::Instance& inst = nl_->instance(id);
  if (!inst.type->sequential()) return kAbsent;
  const TimingModel* model = inst.type->timing_model();
  if (!model) return kAbsent;
  const int p = connected_d_pin(*nl_, id);
  if (p < 0) return kAbsent;
  double arr, slw;
  InstId src;
  input_arrival_ps(nl_->pin_net(id, p),
                   sink_index(id, static_cast<std::size_t>(p)), arr, slw,
                   src);
  // Capture edge benefits from this FF's own insertion latency.
  return arr + model->setup_ps - clock_latency_of(clock_latency_ps, id);
}

double Sta::po_end_leaf(netlist::PortId port) const {
  const netlist::Port& p = nl_->port(port);
  if (p.is_input || p.net == netlist::kNoNet) return kAbsent;
  const InstId d = nl_->net(p.net).driver.inst;
  if (d == netlist::kNoInst) return kAbsent;
  return arrival_[static_cast<std::size_t>(d)];
}

void Sta::build_report_trees(
    const std::unordered_map<InstId, double>* clock_latency_ps) {
  latency_ = clock_latency_ps;
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  std::vector<double> slews(n_inst), ff_paths(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    slews[i] = slew_leaf(static_cast<InstId>(i));
    ff_paths[i] = ff_end_leaf(static_cast<InstId>(i), clock_latency_ps);
  }
  slew_tree_.build(std::move(slews));
  ff_ends_.build(std::move(ff_paths));
  std::vector<double> po_arrivals(static_cast<std::size_t>(nl_->num_ports()));
  for (std::size_t k = 0; k < po_arrivals.size(); ++k) {
    po_arrivals[k] = po_end_leaf(static_cast<netlist::PortId>(k));
  }
  po_ends_.build(std::move(po_arrivals));
}

TimingReport Sta::build_report() {
  slew_tree_.flush();
  ff_ends_.flush();
  po_ends_.flush();
  TimingReport rep;
  // The full scan's accumulations: max slew from 0, and the worst endpoint
  // from 0 under strict `>` — flip-flops by id, then primary outputs in
  // port order, so a port wins only when strictly worse.
  rep.max_slew_ps = std::max(0.0, slew_tree_.best_value());
  rep.endpoints = ff_ends_.present() + po_ends_.present();
  double worst = 0.0;
  InstId worst_end = netlist::kNoInst;
  InstId worst_src = netlist::kNoInst;
  if (ff_ends_.best_value() > worst) {
    worst = ff_ends_.best_value();
    worst_end = static_cast<InstId>(ff_ends_.best());
    worst_src =
        nl_->net(nl_->pin_net(worst_end, connected_d_pin(*nl_, worst_end)))
            .driver.inst;
  }
  if (po_ends_.best_value() > worst) {
    worst = po_ends_.best_value();
    const netlist::Port& port =
        nl_->port(static_cast<netlist::PortId>(po_ends_.best()));
    worst_end = nl_->net(port.net).driver.inst;
    worst_src = from_[static_cast<std::size_t>(worst_end)];
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
  power_.valid = false;  // every slew may have moved

  for (InstId id : topo_order_) propagate_instance(id, clock_latency_ps);

  build_report_trees(clock_latency_ps);
  return build_report();
}

TimingReport Sta::update_timing(
    const DirtySet& dirty,
    const std::unordered_map<InstId, double>* clock_latency_ps) {
  // No prior full analysis to update, an unannounced structural change or
  // another latency map — fall back to the full pass.
  if (arrival_.empty() || topo_order_.empty() ||
      clock_latency_ps != latency_ ||
      (!dirty.structure_changed &&
       arrival_.size() != static_cast<std::size_t>(nl_->num_instances()))) {
    return analyze_timing(clock_latency_ps);
  }
  FFET_TRACE_SCOPE("sta.update");
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  const std::vector<NetId> nets = affected_nets(dirty);
  refresh_caches_for(nets);
  if (dirty.structure_changed) {
    const std::size_t first_new = arrival_.size();
    arrival_.resize(n_inst, 0.0);
    slew_.resize(n_inst, opt_.input_slew_ps);
    from_.resize(n_inst, netlist::kNoInst);
    place_new_instances(first_new, nets);
    slew_tree_.resize(n_inst);
    ff_ends_.resize(n_inst);
    if (po_ends_.size() != static_cast<std::size_t>(nl_->num_ports())) {
      po_ends_.resize(static_cast<std::size_t>(nl_->num_ports()));
      for (std::size_t k = 0; k < po_ends_.size(); ++k) {
        po_ends_.set(k, po_end_leaf(static_cast<netlist::PortId>(k)));
      }
    }
    // Added power terms are dirty (their nets and instances are listed).
    power_.switching.resize(static_cast<std::size_t>(nl_->num_nets()));
    power_.internal.resize(n_inst);
    power_.leakage.resize(n_inst);
  }
  queued_.resize(n_inst, 0);
  for (const InstId id : dirty.insts) dirty_power_inst(id);

  // Seeds: every instance whose own computation reads a dirty quantity —
  // drivers (output load changed) and sinks (wire delay changed) of the
  // affected nets, plus the dirty instances themselves.
  std::vector<InstId> touched = dirty.insts;
  for (const NetId n : nets) {
    const netlist::Net& net = nl_->net(n);
    if (net.driver.inst != netlist::kNoInst) touched.push_back(net.driver.inst);
    for (const PinRef& s : net.sinks) touched.push_back(s.inst);
  }

  // Levelized worklist: pop in (topological position, id) order, so every
  // instance is recomputed at most once and only after all its recomputed
  // predecessors — the per-instance arithmetic then sees exactly the same
  // inputs as a full pass.  `touched` collects every queued instance;
  // flip-flops among them get their endpoint leaf refreshed.
  using Entry = std::pair<int, InstId>;  // (topo position, instance)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> work;
  for (const InstId id : touched) {
    const auto sid = static_cast<std::size_t>(id);
    if (queued_[sid]) continue;
    queued_[sid] = 1;
    work.push({topo_pos_[sid], id});
  }
  long recomputed = 0;
  while (!work.empty()) {
    const InstId id = work.top().second;
    work.pop();
    ++recomputed;
    const bool changed = propagate_instance(id, clock_latency_ps);
    slew_tree_.set(static_cast<std::size_t>(id), slew_leaf(id));
    if (!changed) continue;
    dirty_power_inst(id);
    // The stored (arrival, slew) changed: downstream combinational sinks
    // must recompute.  Sequential sinks are endpoints — their launch does
    // not depend on the D input; their endpoint leaf is refreshed below.
    const NetId out_net = output_net_of(*nl_, id);
    if (out_net == netlist::kNoNet) continue;
    const netlist::Net& net = nl_->net(out_net);
    if (net.port >= 0) {
      po_ends_.set(static_cast<std::size_t>(net.port), po_end_leaf(net.port));
    }
    for (const PinRef& s : net.sinks) {
      const auto ss = static_cast<std::size_t>(s.inst);
      if (queued_[ss]) continue;
      queued_[ss] = 1;
      touched.push_back(s.inst);
      if (!nl_->instance(s.inst).type->sequential()) {
        work.push({topo_pos_[ss], s.inst});
      }
    }
  }
  for (const InstId id : touched) {
    const auto sid = static_cast<std::size_t>(id);
    if (!queued_[sid]) continue;
    queued_[sid] = 0;
    if (nl_->instance(id).type->sequential()) {
      ff_ends_.set(sid, ff_end_leaf(id, clock_latency_ps));
    }
  }
  // A primary output on an affected net may have a new driver.
  for (const NetId n : nets) {
    const netlist::PortId port = nl_->net(n).port;
    if (port >= 0) {
      po_ends_.set(static_cast<std::size_t>(port), po_end_leaf(port));
    }
  }
  last_update_recomputed_ = recomputed;
  FFET_METRIC_ADD("sta.incremental_updates", 1);
  FFET_METRIC_ADD("sta.incremental_recomputed", recomputed);

  return build_report();
}

std::vector<PathEnd> Sta::worst_paths(
    int k,
    const std::unordered_map<InstId, double>* clock_latency_ps) const {
  std::vector<PathEnd> ends;
  for (int i = 0; i < nl_->num_instances(); ++i) {
    const double path = ff_end_leaf(i, clock_latency_ps);
    if (path != kAbsent) ends.push_back({i, false, path});
  }
  for (netlist::PortId port = 0; port < nl_->num_ports(); ++port) {
    const double arr = po_end_leaf(port);
    if (arr == kAbsent) continue;
    ends.push_back({nl_->net(nl_->port(port).net).driver.inst, true, arr});
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
  const double path = ff_end_leaf(endpoint, clock_latency_ps);
  return path == kAbsent ? 0.0 : path;
}

std::vector<InstId> Sta::path_instances(const PathEnd& e) const {
  std::vector<InstId> path;
  InstId src = netlist::kNoInst;
  if (e.is_port) {
    src = from_[static_cast<std::size_t>(e.endpoint)];
  } else if (const int p = connected_d_pin(*nl_, e.endpoint); p >= 0) {
    src = nl_->net(nl_->pin_net(e.endpoint, p)).driver.inst;
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

  // The cached order is current unless instances were placed into it
  // since, or the netlist grew or shrank (the load and sink-index caches
  // assume no other structural change between analyses either).
  if (order_stale_ || topo_pos_.size() != n_inst) rebuild_topo();
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
      min_arrival[static_cast<std::size_t>(id)] =
          clock_latency_of(clock_latency_ps, id) + d;
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
    const int p = connected_d_pin(*nl_, i);
    if (p < 0) continue;
    const NetId net_id = nl_->pin_net(i, p);
    const netlist::Net& net = nl_->net(net_id);
    double arr = opt_.input_delay_ps + opt_.pi_reference_latency_ps;
    if (net.driver.inst != netlist::kNoInst) {
      arr = min_arrival[static_cast<std::size_t>(net.driver.inst)];
    }
    arr += sink_wire_delay_ps(net_id,
                              sink_index(i, static_cast<std::size_t>(p))) *
           opt_.derate_early;
    // Hold check at the same edge: data must stay stable past the
    // capture flop's hold window, which opens at its clock latency.
    const double skew = clock_latency_ps
                            ? clock_latency_of(clock_latency_ps, i)
                            : opt_.clock_skew_ps;
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
  if (rep.worst_slack_ps == std::numeric_limits<double>::max()) {
    rep.worst_slack_ps = 0.0;
  }
  return rep;
}

// ---- power ------------------------------------------------------------------

namespace {
double toggle_of(const Netlist& nl, NetId n,
                 const std::vector<double>* toggle_rates,
                 double default_toggle) {
  if (toggle_rates && static_cast<std::size_t>(n) < toggle_rates->size()) {
    return (*toggle_rates)[static_cast<std::size_t>(n)];
  }
  return nl.net(n).is_clock ? 2.0 : default_toggle;
}
}  // namespace

double Sta::switching_term(NetId n, double vdd, double freq_ghz,
                           const std::vector<double>* toggle_rates,
                           double default_toggle) const {
  // alpha/2 * C * V^2 * f   (fF * V^2 * GHz = uW).
  return 0.5 * toggle_of(*nl_, n, toggle_rates, default_toggle) *
         net_load_ff(n) * vdd * vdd * freq_ghz;
}

void Sta::instance_power_terms(InstId i, double freq_ghz,
                               const std::vector<double>* toggle_rates,
                               double default_toggle, double& internal,
                               double& leakage) const {
  internal = 0.0;
  leakage = 0.0;
  const TimingModel* model = nl_->instance(i).type->timing_model();
  if (!model) return;
  leakage = model->leakage_nw / 1000.0;
  if (model->arcs.empty()) return;
  const NetId out_net = output_net_of(*nl_, i);
  if (out_net == netlist::kNoNet) return;
  // Per-transition NLDM energy at the driver's output slew and load.
  const double load = net_load_ff(out_net);
  const auto si = static_cast<std::size_t>(i);
  const double slw = si < slew_.size() ? slew_[si] : opt_.input_slew_ps;
  const TimingArc& arc = model->arcs.front();
  const double e_avg = 0.5 * (arc.energy_rise.lookup(slw, load) +
                              arc.energy_fall.lookup(slw, load));
  // fJ per transition * transitions/cycle * GHz = uW.
  internal = e_avg * toggle_of(*nl_, out_net, toggle_rates, default_toggle) *
             freq_ghz;
}

void Sta::dirty_power_net(NetId n) const {
  if (!power_.valid) return;
  if (power_.dirty_nets.size() > power_.switching.size()) {
    power_.valid = false;  // a full pass is cheaper than the backlog
    return;
  }
  power_.dirty_nets.push_back(n);
}

void Sta::dirty_power_inst(InstId i) const {
  if (!power_.valid) return;
  if (power_.dirty_insts.size() > power_.internal.size()) {
    power_.valid = false;
    return;
  }
  power_.dirty_insts.push_back(i);
}

PowerReport Sta::analyze_power(double freq_ghz,
                               const std::vector<double>* toggle_rates,
                               double default_toggle) const {
  FFET_TRACE_SCOPE("sta.power");
  const double vdd = nl_->library().tech().device().vdd_v;
  const auto n_nets = static_cast<std::size_t>(nl_->num_nets());
  const auto n_inst = static_cast<std::size_t>(nl_->num_instances());
  PowerTerms& t = power_;
  const bool reuse =
      t.valid && t.freq_ghz == freq_ghz &&
      t.default_toggle == default_toggle &&
      t.has_toggles == (toggle_rates != nullptr) &&
      (!toggle_rates || t.toggles == *toggle_rates) &&
      t.switching.size() == n_nets && t.internal.size() == n_inst;
  if (reuse) {
    for (const NetId n : t.dirty_nets) {
      if (static_cast<std::size_t>(n) >= n_nets) continue;  // popped
      t.switching[static_cast<std::size_t>(n)] =
          switching_term(n, vdd, freq_ghz, toggle_rates, default_toggle);
    }
    for (const InstId i : t.dirty_insts) {
      const auto si = static_cast<std::size_t>(i);
      if (si >= n_inst) continue;
      instance_power_terms(i, freq_ghz, toggle_rates, default_toggle,
                           t.internal[si], t.leakage[si]);
    }
  } else {
    t.valid = true;
    t.freq_ghz = freq_ghz;
    t.default_toggle = default_toggle;
    t.has_toggles = toggle_rates != nullptr;
    t.toggles = toggle_rates ? *toggle_rates : std::vector<double>{};
    t.switching.resize(n_nets);
    t.internal.resize(n_inst);
    t.leakage.resize(n_inst);
    for (std::size_t n = 0; n < n_nets; ++n) {
      t.switching[n] = switching_term(static_cast<NetId>(n), vdd, freq_ghz,
                                      toggle_rates, default_toggle);
    }
    for (std::size_t i = 0; i < n_inst; ++i) {
      instance_power_terms(static_cast<InstId>(i), freq_ghz, toggle_rates,
                           default_toggle, t.internal[i], t.leakage[i]);
    }
  }
  t.dirty_nets.clear();
  t.dirty_insts.clear();

  // Each sum runs in index order over the same term values a full pass
  // computes.  Elements without a term hold +0.0, which leaves the
  // running sum's bits alone: it starts at +0.0 and can never become -0.0.
  PowerReport rep;
  rep.freq_ghz = freq_ghz;
  for (const double x : t.switching) rep.switching_uw += x;
  for (std::size_t i = 0; i < n_inst; ++i) {
    rep.leakage_uw += t.leakage[i];
    rep.internal_uw += t.internal[i];
  }
  return rep;
}

}  // namespace ffet::sta

#include "opt/eco.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "pnr/placement.h"

namespace ffet::opt {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinRef;
using stdcell::PinSide;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Next/previous drive step of a cell, or nullptr at the ladder's end.
const stdcell::CellType* next_drive(const stdcell::Library& lib,
                                    const stdcell::CellType& type) {
  const int d = type.structure().drive;
  const std::string base(stdcell::to_string(type.function()));
  for (int nd : {d * 2, d * 4}) {
    if (const stdcell::CellType* up =
            lib.find(base + "D" + std::to_string(nd))) {
      return up;
    }
  }
  return nullptr;
}

const stdcell::CellType* prev_drive(const stdcell::Library& lib,
                                    const stdcell::CellType& type) {
  const int d = type.structure().drive;
  if (d <= 1) return nullptr;
  const std::string base(stdcell::to_string(type.function()));
  return lib.find(base + "D" + std::to_string(d / 2));
}

NetId output_net_of(const Netlist& nl, InstId id) {
  const auto& pins = nl.instance(id).type->pins();
  for (std::size_t p = 0; p < pins.size(); ++p) {
    if (pins[p].dir == stdcell::PinDir::Output) {
      return nl.pin_net(id, p);
    }
  }
  return netlist::kNoNet;
}

/// All nets touching any pin of `inst`, sorted and deduplicated.
std::vector<NetId> incident_nets(const Netlist& nl, InstId id) {
  std::vector<NetId> nets;
  for (const NetId n : nl.pin_nets(id)) {
    if (n != netlist::kNoNet) nets.push_back(n);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

/// The input pin of `sink_inst` connected to `net` (-1 if none).
int input_pin_on_net(const Netlist& nl, InstId sink_inst, NetId net) {
  const auto& pins = nl.instance(sink_inst).type->pins();
  for (std::size_t p = 0; p < pins.size(); ++p) {
    if (pins[p].dir != stdcell::PinDir::Output &&
        nl.pin_net(sink_inst, p) == net) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

/// Marginal HPWL (nm) of attaching point `p` to the bounding box of the
/// net's pins on side `s` (driver included): 0 when `p` falls inside the
/// existing box, the box growth otherwise.  An empty side costs the full
/// driver->pin span — the route estimate the pin-flip transform compares.
geom::Nm side_marginal_hpwl(const Netlist& nl, const netlist::Net& net,
                            geom::Point drv_pos, tech::Side s,
                            const PinRef& moving, geom::Point p) {
  geom::Nm min_x = drv_pos.x, max_x = drv_pos.x;
  geom::Nm min_y = drv_pos.y, max_y = drv_pos.y;
  for (const PinRef& sref : net.sinks) {
    if (sref == moving) continue;
    const PinSide ps = nl.pin_side(sref);
    const tech::Side side =
        ps == PinSide::Back ? tech::Side::Back : tech::Side::Front;
    if (side != s) continue;
    const geom::Point q = nl.pin_position(sref);
    min_x = std::min(min_x, q.x);
    max_x = std::max(max_x, q.x);
    min_y = std::min(min_y, q.y);
    max_y = std::max(max_y, q.y);
  }
  const geom::Nm before = (max_x - min_x) + (max_y - min_y);
  min_x = std::min(min_x, p.x);
  max_x = std::max(max_x, p.x);
  min_y = std::min(min_y, p.y);
  max_y = std::max(max_y, p.y);
  return (max_x - min_x) + (max_y - min_y) - before;
}

enum class Kind { Upsize, Downsize, Buffer, PinFlip };

/// One candidate transform plus everything needed to undo it exactly.
struct Mutation {
  Kind kind = Kind::Upsize;
  // Resize (up or down).
  InstId inst = netlist::kNoInst;
  const stdcell::CellType* new_type = nullptr;
  const stdcell::CellType* old_type = nullptr;
  geom::Point old_pos;
  geom::Point new_pos;
  bool moved = false;
  // Buffer insertion.
  NetId net = netlist::kNoNet;
  NetId leaf_net = netlist::kNoNet;
  InstId buf = netlist::kNoInst;
  std::vector<PinRef> moved_sinks;
  /// Sink order of `net` before the edit.  Reverting must restore it
  /// exactly: the restored RC tree's sink_nodes are parallel to the
  /// net's sink list, so a permuted order would silently misassign
  /// per-sink wire delays.
  std::vector<PinRef> orig_sinks;
  // Pin flip.
  PinRef flip_pin;
  PinSide old_side = PinSide::Front;
  PinSide flip_to = PinSide::Back;
};

}  // namespace

EcoReport run_eco(Netlist& nl, const pnr::Floorplan& fp,
                  const pnr::PowerPlan& pp, pnr::RouteResult& routes,
                  extract::RcNetlist& rc,
                  const std::unordered_map<InstId, double>& clock_latency_ps,
                  const EcoOptions& options) {
  FFET_TRACE_SCOPE("opt.eco");
  EcoReport rep;
  const stdcell::Library& lib = nl.library();
  const tech::Technology& tech = lib.tech();
  const bool has_back = tech.num_routing_layers(tech::Side::Back) > 0;

  pnr::RouteOptions ro = options.route;
  ro.threads = options.threads;

  sta::Sta sta(&nl, &rc, options.sta);
  // The one full analysis, also the baseline the incremental speedup is
  // measured against.
  const auto full_start = std::chrono::steady_clock::now();
  sta::TimingReport cur = sta.analyze_timing(&clock_latency_ps);
  rep.full_sta_ms = ms_since(full_start);
  rep.full_sta_runs = 1;
  rep.pre_wns_ps = cur.critical_path_ps;
  rep.pre_freq_ghz = cur.achieved_freq_ghz;
  const double pre_freq = cur.achieved_freq_ghz;
  const double pre_power = sta.analyze_power(pre_freq).total_uw();
  double cur_power = pre_power;

  pnr::IncrementalLegalizer legal(nl, fp, pp);
  int buf_serial = 0;

  // One routing state and one extractor for the whole loop: a trial
  // reroutes and re-extracts only its dirty nets, and a revert undoes both
  // by log.
  pnr::RouteState routing(nl, fp, routes, ro);
  extract::RouteExtractor extractor(routing, nl, tech);

  // Reverted trials, keyed by their full edit description.  Worst-endpoint
  // lists overlap heavily between passes; without the memo the loop burns
  // its budget re-trying the same doomed transform.  Cleared on every
  // accept — the design changed, so a previously losing move may now win.
  std::set<std::string> failed;
  auto mutation_key = [&](const Mutation& m) {
    std::string k = std::to_string(static_cast<int>(m.kind));
    k += ':';
    k += std::to_string(m.inst);
    if (m.new_type) k += m.new_type->name();
    k += ':';
    k += std::to_string(m.net);
    for (const PinRef& s : m.moved_sinks) {
      k += ',';
      k += std::to_string(s.inst);
      k += '.';
      k += std::to_string(s.pin);
    }
    k += ':';
    k += std::to_string(m.flip_pin.inst);
    k += '.';
    k += std::to_string(m.flip_pin.pin);
    return k;
  };

  // Apply a mutation's netlist/placement edit.  Returns false (with the
  // netlist untouched) when the edit is infeasible (no legal slot).
  auto apply = [&](Mutation& m) -> bool {
    switch (m.kind) {
      case Kind::Upsize:
      case Kind::Downsize: {
        netlist::Instance& inst = nl.instance(m.inst);
        m.old_type = inst.type;
        m.old_pos = inst.pos;
        nl.resize_instance(m.inst, m.new_type);
        m.moved = m.new_type->width() != m.old_type->width();
        if (m.moved) {
          legal.release(m.old_pos, m.old_type->width());
          const auto p = legal.claim(m.new_type->width(), m.old_pos);
          if (!p) {
            legal.occupy(m.old_pos, m.old_type->width());
            nl.resize_instance(m.inst, m.old_type);
            return false;
          }
          m.new_pos = *p;
          nl.instance(m.inst).pos = m.new_pos;
        }
        return true;
      }
      case Kind::Buffer: {
        const stdcell::CellType& buf_type = lib.at("BUFD4");
        // Desired slot: midpoint of the driver and the moved-sink centroid
        // (the classic repeater sweet spot on a dominant-RC net).
        const netlist::Net& net = nl.net(m.net);
        const geom::Point drv = nl.pin_position(net.driver);
        double cx = 0.0, cy = 0.0;
        for (const PinRef& s : m.moved_sinks) {
          const geom::Point q = nl.pin_position(s);
          cx += static_cast<double>(q.x);
          cy += static_cast<double>(q.y);
        }
        const double n_moved = static_cast<double>(m.moved_sinks.size());
        const geom::Point mid{
            static_cast<geom::Nm>(
                (static_cast<double>(drv.x) + cx / n_moved) / 2.0),
            static_cast<geom::Nm>(
                (static_cast<double>(drv.y) + cy / n_moved) / 2.0)};
        const auto p = legal.claim(buf_type.width(), mid);
        if (!p) return false;
        m.orig_sinks = net.sinks;
        const int serial = buf_serial++;
        m.leaf_net = nl.add_net("eco_rep_net_" + std::to_string(serial));
        m.buf = nl.add_instance("eco_rep_buf_" + std::to_string(serial),
                                &buf_type);
        m.new_pos = *p;
        nl.instance(m.buf).pos = m.new_pos;
        nl.connect(m.buf, "Z", m.leaf_net);
        for (const PinRef& s : m.moved_sinks) {
          const auto& pin_name =
              nl.instance(s.inst)
                  .type->pins()[static_cast<std::size_t>(s.pin)]
                  .name;
          nl.reconnect_sink(s.inst, pin_name, m.leaf_net);
        }
        nl.connect(m.buf, "I", m.net);
        return true;
      }
      case Kind::PinFlip: {
        m.old_side = nl.pin_side(m.flip_pin);
        nl.set_pin_side(m.flip_pin, m.flip_to);
        return true;
      }
    }
    return false;
  };

  // Undo a previously applied mutation exactly (inverse ops in reverse
  // order; LIFO pops keep the id spaces dense).
  auto undo = [&](const Mutation& m) {
    switch (m.kind) {
      case Kind::Upsize:
      case Kind::Downsize: {
        if (m.moved) {
          legal.release(m.new_pos, m.new_type->width());
          legal.occupy(m.old_pos, m.old_type->width());
          nl.instance(m.inst).pos = m.old_pos;
        }
        nl.resize_instance(m.inst, m.old_type);
        break;
      }
      case Kind::Buffer: {
        for (const PinRef& s : m.moved_sinks) {
          const auto& pin_name =
              nl.instance(s.inst)
                  .type->pins()[static_cast<std::size_t>(s.pin)]
                  .name;
          nl.reconnect_sink(s.inst, pin_name, m.net);
        }
        nl.disconnect_pin(m.buf, "I");
        nl.disconnect_pin(m.buf, "Z");
        nl.pop_instance();
        nl.pop_net();
        legal.release(m.new_pos, lib.at("BUFD4").width());
        // The reconnects above appended the moved sinks, permuting the
        // net's sink list; rebuild the exact pre-trial order so the
        // restored RC tree's per-sink mapping stays aligned.
        for (const PinRef& s : m.orig_sinks) {
          const auto& pin_name =
              nl.instance(s.inst)
                  .type->pins()[static_cast<std::size_t>(s.pin)]
                  .name;
          nl.disconnect_pin(s.inst, pin_name);
        }
        for (const PinRef& s : m.orig_sinks) {
          const auto& pin_name =
              nl.instance(s.inst)
                  .type->pins()[static_cast<std::size_t>(s.pin)]
                  .name;
          nl.connect(s.inst, pin_name, m.net);
        }
        break;
      }
      case Kind::PinFlip: {
        nl.set_pin_side(m.flip_pin, m.old_side);
        break;
      }
    }
  };

  // What a mutation invalidates: the nets whose routes and parasitics must
  // be rebuilt, the instances whose pins moved, changed size or side (the
  // router's pin-access deltas), and the STA dirty set.
  struct Dirty {
    std::vector<NetId> nets;
    std::vector<InstId> insts;
    sta::DirtySet sta;
  };
  auto dirty_of = [&](const Mutation& m, bool after_undo) {
    Dirty d;
    switch (m.kind) {
      case Kind::Upsize:
      case Kind::Downsize:
        d.nets = incident_nets(nl, m.inst);
        d.insts.push_back(m.inst);
        d.sta.insts.push_back(m.inst);
        break;
      case Kind::Buffer:
        d.nets.push_back(m.net);
        if (!after_undo) {
          d.nets.push_back(m.leaf_net);
          d.insts.push_back(m.buf);
          d.sta.insts.push_back(m.buf);
        }
        d.sta.structure_changed = true;
        break;
      case Kind::PinFlip:
        d.nets.push_back(m.net);
        d.insts.push_back(m.flip_pin.inst);
        break;
    }
    std::sort(d.nets.begin(), d.nets.end());
    d.nets.erase(std::unique(d.nets.begin(), d.nets.end()), d.nets.end());
    d.sta.nets = d.nets;
    return d;
  };

  auto update_timing = [&](const sta::DirtySet& dirty) {
    const auto t0 = std::chrono::steady_clock::now();
    const sta::TimingReport r = sta.update_timing(dirty, &clock_latency_ps);
    rep.incr_sta_ms += ms_since(t0);
    ++rep.sta_updates;
    rep.sta_recomputed += sta.last_update_recomputed();
    return r;
  };

  // One full trial.  Returns true when accepted (state kept), false when
  // reverted (state restored bit-exactly).
  auto try_mutation = [&](Mutation& m, const sta::PathEnd* target) -> bool {
    const double ep_before =
        target ? sta.endpoint_path_ps(target->endpoint, target->is_port,
                                      &clock_latency_ps)
               : 0.0;
    if (!apply(m)) return false;
    ++rep.attempted;
    const int drv_before = routing.summary().drv_estimate;
    // Incremental pipeline: reroute the dirty nets, re-extract them from
    // their routes, update timing through the dirty cone.
    const Dirty d = dirty_of(m, /*after_undo=*/false);
    routing.reroute(nl, d.nets, d.insts);
    extractor.reextract(rc, nl, routing, d.nets);
    const sta::TimingReport after = update_timing(d.sta);
    const double trial_power = sta.analyze_power(pre_freq).total_uw();

    // Routability is a hard gate for every kind: a transform may not push
    // the design over the DRV estimate it had before the trial.
    bool ok = routing.summary().drv_estimate <= drv_before;
    if (m.kind == Kind::Downsize) {
      // Power recovery: never worse on WNS, strictly better on power.
      ok = ok && after.critical_path_ps <= cur.critical_path_ps &&
           trial_power < cur_power;
    } else {
      const double ep_after = sta.endpoint_path_ps(
          target->endpoint, target->is_port, &clock_latency_ps);
      ok = ok && after.critical_path_ps <= cur.critical_path_ps &&
           (ep_before - ep_after) >= options.min_gain_ps &&
           (trial_power - pre_power) <=
               options.max_power_increase * pre_power;
    }
    if (ok) {
      cur = after;
      cur_power = trial_power;
      ++rep.accepted;
      switch (m.kind) {
        case Kind::Upsize: ++rep.upsized; break;
        case Kind::Downsize: ++rep.downsized; break;
        case Kind::Buffer: ++rep.buffers; break;
        case Kind::PinFlip: ++rep.pin_flips; break;
      }
      return true;
    }
    undo(m);
    extractor.undo(rc, routing);
    routing.undo_reroute();
    cur = update_timing(dirty_of(m, /*after_undo=*/true).sta);
    ++rep.reverted;
    return false;
  };

  // Candidate transforms for one endpoint, in attempt order: load
  // shielding (buffer the off-path sinks away — a pure gain for the path,
  // no upstream penalty), the dual-sided flip (free area, the
  // FFET-specific move), then drive ladder steps endpoint-backwards, then
  // slow-half repeater insertion on long RC links.
  auto candidates_for = [&](const sta::PathEnd& e) {
    std::vector<Mutation> cands;
    const std::vector<InstId> path = sta.path_instances(e);

    // Links (driver inst, net, sink pin) along the path, endpoint-last.
    struct Link {
      NetId net = netlist::kNoNet;
      PinRef sink;
      double elmore_ps = 0.0;
      double off_path_cap_ff = 0.0;  ///< pin cap of the *other* sinks
    };
    std::vector<Link> links;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const NetId n = output_net_of(nl, path[i]);
      if (n == netlist::kNoNet || nl.net(n).is_clock) continue;
      const int pin = input_pin_on_net(nl, path[i + 1], n);
      if (pin < 0) continue;
      Link l;
      l.net = n;
      l.sink = {path[i + 1], pin};
      const extract::RcTreeView tree = rc.tree(n);
      const netlist::Net& net = nl.net(n);
      for (std::size_t k = 0; k < net.sinks.size(); ++k) {
        if (net.sinks[k] == l.sink &&
            k < tree.sink_nodes.size()) {
          l.elmore_ps = tree.elmore_to_sink(k);
          break;
        }
      }
      for (const PinRef& s : net.sinks) {
        if (s == l.sink) continue;
        const stdcell::CellPin& p =
            nl.instance(s.inst).type->pins()[static_cast<std::size_t>(s.pin)];
        l.off_path_cap_ff += p.cap_ff;
      }
      links.push_back(l);
    }

    // Load shielding: on the links with the heaviest off-path fanout, move
    // every sink *except* the path sink behind a repeater.  The on-path
    // driver then sees one pin plus the buffer instead of the whole
    // fanout — a first-order gain with no upstream cap penalty.  Only
    // worth attempting when the removed pin cap clearly exceeds the
    // repeater's own input cap.
    {
      const stdcell::CellType& buf_type = lib.at("BUFD4");
      const stdcell::CellPin* buf_in = buf_type.find_pin("I");
      const double buf_cap = buf_in ? buf_in->cap_ff : 1.0;
      std::vector<const Link*> heavy;
      for (const Link& l : links) {
        if (l.off_path_cap_ff > 2.0 * buf_cap) heavy.push_back(&l);
      }
      std::sort(heavy.begin(), heavy.end(),
                [](const Link* a, const Link* b) {
                  return a->off_path_cap_ff > b->off_path_cap_ff;
                });
      int shields = 0;
      for (const Link* l : heavy) {
        if (shields >= 2) break;
        const netlist::Net& net = nl.net(l->net);
        Mutation m;
        m.kind = Kind::Buffer;
        m.net = l->net;
        for (const PinRef& s : net.sinks) {
          if (!(s == l->sink)) m.moved_sinks.push_back(s);
        }
        if (m.moved_sinks.empty()) continue;
        cands.push_back(m);
        ++shields;
      }
    }

    // Dual-sided pin flip: on the slowest links, compare the marginal
    // route estimate of the sink on each side; flip when the other side's
    // copy of the output pin (the Drain Merge on FM0/BM0) is closer.
    const Link* worst_link = nullptr;
    if (has_back) {
      std::vector<const Link*> by_elmore;
      for (const Link& l : links) by_elmore.push_back(&l);
      std::sort(by_elmore.begin(), by_elmore.end(),
                [](const Link* a, const Link* b) {
                  return a->elmore_ps > b->elmore_ps;
                });
      if (!by_elmore.empty()) worst_link = by_elmore.front();
      int flips = 0;
      for (const Link* l : by_elmore) {
        if (flips >= 3) break;
        const netlist::Net& net = nl.net(l->net);
        const bool driver_dual =
            net.driver.inst != netlist::kNoInst &&
            nl.pin_side(net.driver) == PinSide::Both;
        if (!driver_dual) continue;
        const PinSide side_now = nl.pin_side(l->sink);
        const tech::Side cur_side =
            side_now == PinSide::Back ? tech::Side::Back : tech::Side::Front;
        const tech::Side other = cur_side == tech::Side::Front
                                     ? tech::Side::Back
                                     : tech::Side::Front;
        const geom::Point drv = nl.pin_position(net.driver);
        const geom::Point pos = nl.pin_position(l->sink);
        const geom::Nm stay =
            side_marginal_hpwl(nl, net, drv, cur_side, l->sink, pos);
        const geom::Nm move =
            side_marginal_hpwl(nl, net, drv, other, l->sink, pos);
        if (move < stay) {
          Mutation m;
          m.kind = Kind::PinFlip;
          m.net = l->net;
          m.flip_pin = l->sink;
          m.flip_to =
              other == tech::Side::Back ? PinSide::Back : PinSide::Front;
          cands.push_back(m);
          ++flips;
        }
      }
    } else {
      for (const Link& l : links) {
        if (!worst_link || l.elmore_ps > worst_link->elmore_ps) {
          worst_link = &l;
        }
      }
    }

    // Launch-FF drive swap: a stronger clk->q with no upstream data-path
    // penalty (its input is the clock; CTS latency is pinned by the map).
    if (!path.empty() && nl.instance(path.front()).type->sequential()) {
      const netlist::Instance& ff = nl.instance(path.front());
      if (!ff.fixed) {
        if (const stdcell::CellType* up = next_drive(lib, *ff.type)) {
          Mutation m;
          m.kind = Kind::Upsize;
          m.inst = path.front();
          m.new_type = up;
          cands.push_back(m);
        }
      }
    }

    // Combinational gate sizing, endpoint-backwards (late-path cells
    // first).  The capture FF is skipped — upsizing it only adds D-pin
    // cap to the path.
    int sizing = 0;
    for (auto it = path.rbegin(); it != path.rend() && sizing < 3; ++it) {
      const netlist::Instance& inst = nl.instance(*it);
      if (inst.fixed || inst.type->physical_only() ||
          inst.type->sequential()) {
        continue;
      }
      const NetId out = output_net_of(nl, *it);
      if (out != netlist::kNoNet && nl.net(out).is_clock) continue;
      const stdcell::CellType* up = next_drive(lib, *inst.type);
      if (!up) continue;
      Mutation m;
      m.kind = Kind::Upsize;
      m.inst = *it;
      m.new_type = up;
      cands.push_back(m);
      ++sizing;
    }

    // Repeater insertion on the most resistive link.
    if (worst_link && worst_link->elmore_ps >= options.repeater_elmore_ps) {
      const netlist::Net& net = nl.net(worst_link->net);
      const extract::RcTreeView tree = rc.tree(worst_link->net);
      if (net.driver.inst != netlist::kNoInst &&
          tree.sink_nodes.size() == net.sinks.size()) {
        Mutation m;
        m.kind = Kind::Buffer;
        m.net = worst_link->net;
        // Move the slow half of the tree behind the repeater.
        for (std::size_t k = 0; k < net.sinks.size(); ++k) {
          if (tree.elmore_to_sink(k) >= 0.5 * worst_link->elmore_ps) {
            m.moved_sinks.push_back(net.sinks[k]);
          }
        }
        if (!m.moved_sinks.empty()) cands.push_back(m);
      }
    }
    return cands;
  };

  for (int pass = 0; pass < options.passes; ++pass) {
    ++rep.passes_run;
    int accepted_this_pass = 0;
    int budget = options.max_transforms;

    // Speed transforms on the worst endpoints.
    const std::vector<sta::PathEnd> ends =
        sta.worst_paths(options.paths_per_pass, &clock_latency_ps);
    for (const sta::PathEnd& e : ends) {
      if (budget <= 0) break;
      std::vector<Mutation> cands = candidates_for(e);
      for (Mutation& m : cands) {
        if (budget <= 0) break;
        const std::string key = mutation_key(m);
        if (failed.count(key)) continue;
        --budget;
        if (try_mutation(m, &e)) {
          ++accepted_this_pass;
          failed.clear();
          break;  // endpoint improved; next endpoint
        }
        failed.insert(key);
      }
    }

    // Power recovery: downsize the largest-drive cell on endpoints with
    // comfortable margin over the worst path.
    const std::vector<sta::PathEnd> tail =
        sta.worst_paths(3 * options.paths_per_pass, &clock_latency_ps);
    for (const sta::PathEnd& e : tail) {
      if (budget <= 0) break;
      if (cur.critical_path_ps - e.path_ps < options.downsize_margin_ps) {
        continue;
      }
      const std::vector<InstId> path = sta.path_instances(e);
      InstId cand = netlist::kNoInst;
      int best_drive = 1;
      for (const InstId id : path) {
        const netlist::Instance& inst = nl.instance(id);
        if (inst.fixed || inst.type->physical_only() ||
            inst.type->sequential()) {
          continue;
        }
        const NetId out = output_net_of(nl, id);
        if (out != netlist::kNoNet && nl.net(out).is_clock) continue;
        if (inst.type->structure().drive > best_drive &&
            prev_drive(lib, *inst.type)) {
          best_drive = inst.type->structure().drive;
          cand = id;
        }
      }
      if (cand == netlist::kNoInst) continue;
      Mutation m;
      m.kind = Kind::Downsize;
      m.inst = cand;
      m.new_type = prev_drive(lib, *nl.instance(cand).type);
      const std::string key = mutation_key(m);
      if (failed.count(key)) continue;
      --budget;
      if (try_mutation(m, nullptr)) {
        ++accepted_this_pass;
        failed.clear();
      } else {
        failed.insert(key);
      }
    }

    if (accepted_this_pass == 0) break;  // converged
  }

  routes = std::move(routing).result();
  rc.recompute_totals();

  // `cur` is the timing of the final design: update_timing() leaves it
  // bit-identical to a fresh full analysis.
  rep.post_wns_ps = cur.critical_path_ps;
  rep.post_freq_ghz = cur.achieved_freq_ghz;
  rep.est_power_delta_uw = cur_power - pre_power;

  FFET_METRIC_ADD("opt.attempted", rep.attempted);
  FFET_METRIC_ADD("opt.accepted", rep.accepted);
  FFET_METRIC_ADD("opt.reverted", rep.reverted);
  FFET_METRIC_ADD("opt.upsized", rep.upsized);
  FFET_METRIC_ADD("opt.downsized", rep.downsized);
  FFET_METRIC_ADD("opt.buffers", rep.buffers);
  FFET_METRIC_ADD("opt.pin_flips", rep.pin_flips);
  FFET_METRIC_OBSERVE("opt.wns_gain_ps", rep.pre_wns_ps - rep.post_wns_ps);
  FFET_METRIC_OBSERVE("opt.sta_speedup", rep.sta_speedup());
  return rep;
}

}  // namespace ffet::opt

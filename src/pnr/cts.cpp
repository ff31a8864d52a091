#include "pnr/cts.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "stdcell/nldm.h"

namespace ffet::pnr {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinRef;

namespace {

struct Sink {
  PinRef pin;
  geom::Point pos;
};

struct TreeStats {
  int buffers = 0;
  int depth = 0;
  double wirelength_um = 0.0;
};

geom::Point centroid(const std::vector<Sink>& sinks) {
  double sx = 0, sy = 0;
  for (const Sink& s : sinks) {
    sx += static_cast<double>(s.pos.x);
    sy += static_cast<double>(s.pos.y);
  }
  const auto n = static_cast<double>(sinks.size());
  return {static_cast<Nm>(sx / n), static_cast<Nm>(sy / n)};
}

/// Pick the clock buffer drive by downstream load: leaves drive flip-flop
/// pins, internal nodes drive two buffers over longer wires.
const stdcell::CellType& pick_clkbuf(const stdcell::Library& lib,
                                     double load_ff) {
  if (load_ff > 12.0) return lib.at("CLKBUFD8");
  if (load_ff > 5.0) return lib.at("CLKBUFD4");
  return lib.at("CLKBUFD2");
}

class TreeBuilder {
 public:
  TreeBuilder(Netlist& nl, const Floorplan& fp, const CtsOptions& opt)
      : nl_(nl), fp_(fp), opt_(opt),
        wire_c_per_um_(0.0), wire_r_per_um_(0.0) {
    // Clock routing uses mid-stack frontside metal (FM4/FM5-class).
    const auto& tech = nl.library().tech();
    const tech::MetalLayer* l = tech.find_layer("FM5");
    if (!l) l = tech.find_layer("FM4");
    if (!l) l = tech.find_layer("FM2");
    if (l) {
      wire_c_per_um_ = l->c_ff_per_um;
      wire_r_per_um_ = l->r_ohm_per_um;
    }
  }

  /// Build the subtree for `sinks`; returns {driving buffer instance,
  /// buffer input pin cap, buffer position, downstream latency from this
  /// buffer's input}.
  struct Node {
    InstId buf = netlist::kNoInst;
    geom::Point pos;
    double input_cap_ff = 0.0;
    int depth = 1;
  };

  Node build(std::vector<Sink> sinks, CtsResult& out, double upstream_ps) {
    const geom::Point center = centroid(sinks);
    if (static_cast<int>(sinks.size()) <= opt_.max_fanout) {
      return make_leaf(std::move(sinks), center, out, upstream_ps);
    }
    // Split along the longer axis at the median.
    geom::Rect bbox{sinks.front().pos, sinks.front().pos};
    for (const Sink& s : sinks) {
      bbox = bbox.united({s.pos, s.pos});
    }
    const bool split_x = bbox.width() >= bbox.height();
    std::sort(sinks.begin(), sinks.end(), [&](const Sink& a, const Sink& b) {
      return split_x ? a.pos.x < b.pos.x : a.pos.y < b.pos.y;
    });
    const std::size_t mid = sinks.size() / 2;
    std::vector<Sink> left(sinks.begin(), sinks.begin() + static_cast<long>(mid));
    std::vector<Sink> right(sinks.begin() + static_cast<long>(mid), sinks.end());

    // The internal buffer at this level.
    const NetId out_net = nl_.add_net(fresh_net());
    // Estimate the load: two child buffers plus the wires to them.
    // Children are built first against a provisional latency; we add this
    // buffer's own delay to their sink latencies afterwards via the
    // upstream accumulator, so build order matters: compute self delay on
    // estimated load, then recurse.
    const geom::Point lc = centroid(left);
    const geom::Point rc = centroid(right);
    const double wire_um = geom::to_um(geom::manhattan(center, lc)) +
                           geom::to_um(geom::manhattan(center, rc));
    const double est_child_cap = 2.0 * 3.0;  // two CLKBUF inputs, ~3 fF each
    const double load = est_child_cap + wire_um * wire_c_per_um_;
    const stdcell::CellType& buf_type =
        pick_clkbuf(nl_.library(), load);
    const InstId buf = nl_.add_instance(fresh_inst(), &buf_type);
    nl_.instance(buf).pos = clamp_to_core(center, buf_type);
    nl_.connect(buf, buf_type.output_pin()->name, out_net);
    nl_.mark_clock_net(out_net);
    out.wirelength_um += wire_um;
    ++out.num_buffers;

    const double self_ps = buffer_delay_ps(buf_type, load) +
                           wire_delay_ps(wire_um / 2.0);
    const Node ln = build(std::move(left), out, upstream_ps + self_ps);
    const Node rn = build(std::move(right), out, upstream_ps + self_ps);
    nl_.connect(ln.buf, input_pin_name(ln.buf), out_net);
    nl_.connect(rn.buf, input_pin_name(rn.buf), out_net);

    Node n;
    n.buf = buf;
    n.pos = nl_.instance(buf).pos;
    n.input_cap_ff = input_cap(buf);
    n.depth = 1 + std::max(ln.depth, rn.depth);
    return n;
  }

  /// Every sink's move from the root clock net to its leaf net, in the
  /// order build() made them; nothing in build() reads the sinks' nets,
  /// so the moves are applied in one batch afterwards.
  const std::vector<Netlist::SinkMove>& sink_moves() const {
    return sink_moves_;
  }

  double buffer_delay_ps(const stdcell::CellType& type, double load_ff) const {
    const stdcell::TimingModel* m = type.timing_model();
    if (!m || m->arcs.empty()) {
      throw std::logic_error("CTS requires a characterized library (" +
                             type.name() + " lacks a timing model)");
    }
    const auto& arc = m->arcs.front();
    // Clock edges: use the mean of rise/fall at a nominal 20 ps slew.
    return 0.5 * (arc.delay_rise.lookup(20.0, load_ff) +
                  arc.delay_fall.lookup(20.0, load_ff));
  }

  double wire_delay_ps(double um) const {
    // Lumped RC: 0.69 * R * C / 2 (distributed wire Elmore).
    return 0.69 * (um * wire_r_per_um_) * (um * wire_c_per_um_) / 2.0 / 1000.0;
  }

 private:
  Node make_leaf(std::vector<Sink> sinks, geom::Point center, CtsResult& out,
                 double upstream_ps) {
    double load = 0.0;
    double wire_um = 0.0;
    for (const Sink& s : sinks) {
      load += nl_.pin_cap_ff(s.pin);
      wire_um += geom::to_um(geom::manhattan(center, s.pos));
    }
    load += wire_um * wire_c_per_um_;
    const stdcell::CellType& buf_type = pick_clkbuf(nl_.library(), load);
    const NetId leaf_net = nl_.add_net(fresh_net());
    const InstId buf = nl_.add_instance(fresh_inst(), &buf_type);
    nl_.instance(buf).pos = clamp_to_core(center, buf_type);
    nl_.connect(buf, buf_type.output_pin()->name, leaf_net);
    nl_.mark_clock_net(leaf_net);
    out.wirelength_um += wire_um;
    ++out.num_buffers;

    const double self_ps = buffer_delay_ps(buf_type, load);
    for (const Sink& s : sinks) {
      const double wire_ps =
          wire_delay_ps(geom::to_um(geom::manhattan(center, s.pos)));
      // Move the sink's CP pin from the root clock net to this leaf.
      sink_moves_.push_back({s.pin.inst, s.pin.pin, leaf_net});
      out.sink_latency_ps[s.pin.inst] = upstream_ps + self_ps + wire_ps;
    }

    Node n;
    n.buf = buf;
    n.pos = nl_.instance(buf).pos;
    n.input_cap_ff = input_cap(buf);
    n.depth = 1;
    return n;
  }

  geom::Point clamp_to_core(geom::Point p, const stdcell::CellType& type) {
    return {std::clamp<Nm>(p.x, fp_.core.lo.x,
                           fp_.core.hi.x - type.width()),
            std::clamp<Nm>(geom::snap_down(p.y, fp_.row_height),
                           fp_.core.lo.y,
                           fp_.core.hi.y - fp_.row_height)};
  }

  std::string fresh_net() { return "cts_net_" + std::to_string(counter_++); }
  std::string fresh_inst() { return "cts_buf_" + std::to_string(counter_++); }

  std::string input_pin_name(InstId buf) const {
    for (const auto& p : nl_.instance(buf).type->pins()) {
      if (p.dir == stdcell::PinDir::Input) return p.name;
    }
    throw std::logic_error("clock buffer without input pin");
  }

  double input_cap(InstId buf) const {
    for (const auto& p : nl_.instance(buf).type->pins()) {
      if (p.dir == stdcell::PinDir::Input) return p.cap_ff;
    }
    return 0.0;
  }

  Netlist& nl_;
  const Floorplan& fp_;
  const CtsOptions& opt_;
  double wire_c_per_um_;
  double wire_r_per_um_;
  int counter_ = 0;
  std::vector<Netlist::SinkMove> sink_moves_;
};

}  // namespace

CtsResult build_clock_tree(Netlist& nl, const Floorplan& fp,
                           const CtsOptions& options) {
  FFET_TRACE_SCOPE("cts.build");
  CtsResult result;

  // Find the clock net and its current sinks.
  NetId clock_net = netlist::kNoNet;
  for (int n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).is_clock && nl.net(n).port >= 0) {
      clock_net = n;
      break;
    }
  }
  if (clock_net == netlist::kNoNet) return result;

  std::vector<Sink> sinks;
  for (const PinRef& s : nl.net(clock_net).sinks) {
    sinks.push_back({s, nl.pin_position(s)});
  }
  if (sinks.empty()) return result;

  TreeBuilder builder(nl, fp, options);
  const auto root = builder.build(std::move(sinks), result, 0.0);
  nl.reconnect_sinks(builder.sink_moves());
  // Root buffer hangs on the original clock net.
  nl.connect(root.buf,
             [&] {
               for (const auto& p : nl.instance(root.buf).type->pins()) {
                 if (p.dir == stdcell::PinDir::Input) return p.name;
               }
               throw std::logic_error("no input pin");
             }(),
             clock_net);
  result.depth = root.depth;

  double min_l = 1e18, max_l = -1e18, sum = 0.0;
  for (const auto& [inst, lat] : result.sink_latency_ps) {
    min_l = std::min(min_l, lat);
    max_l = std::max(max_l, lat);
    sum += lat;
  }
  if (!result.sink_latency_ps.empty()) {
    result.skew_ps = max_l - min_l;
    result.mean_latency_ps = sum / static_cast<double>(result.sink_latency_ps.size());
  }
  FFET_METRIC_OBSERVE("cts.skew_ps", result.skew_ps);
  FFET_METRIC_ADD("cts.buffers", result.num_buffers);
  return result;
}

}  // namespace ffet::pnr

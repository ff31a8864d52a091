// rc_reference.h — the RC tree kernel as it was before the reusable-scratch
// rewrite, kept verbatim as the reference the current kernel must equal bit
// for bit: the per-net hash map, adjacency lists, std::queue BFS and
// recursive-children finalize, over the same density model.  `extract_rc`
// here is the serial merged-DEF extraction built on it.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "extract/extract.h"
#include "geom/geom.h"
#include "obs/obs.h"

namespace ffet::extract::reference {

using netlist::Netlist;
using tech::Side;
using tech::Technology;

inline void finalize_rc_tree(RcTree& tree);

/// Hookup resistance from a cell pin (M0) to the first routing layer:
/// a short via stack.
constexpr double kPinHookupOhm = 40.0;

/// Coupling model: wire capacitance scales with the local routed-wire
/// density of its side.  A wire surrounded by neighbors at minimum pitch
/// sees roughly +kMillerCoupling of its base capacitance in switching
/// coupling (Miller effect); an isolated wire sees none.  Density is
/// measured from the extracted wires themselves, per side, on a coarse
/// grid.
constexpr double kMillerCoupling = 1.2;
/// Bin edge for the density grid (µm).
constexpr double kDensityBinUm = 1.0;
/// Effective-capacity correction for the density normalization — same
/// rationale as RouteOptions::capacity_factor: our global placer's
/// wirelength runs high relative to a commercial flow, so raw track counts
/// understate how empty the routing fabric would really be.
constexpr double kDensityCapacityFactor = 2.0;

/// Per-side coarse wire-density grid: wire length per bin, sampled along
/// each wire.
class DensityGrid {
 public:
  /// An empty field over `die`.
  DensityGrid(const geom::Rect& die, const Technology& tech) {
    cols_ = std::max(
        1, static_cast<int>(geom::to_um(die.width()) / kDensityBinUm) + 1);
    rows_ = std::max(
        1, static_cast<int>(geom::to_um(die.height()) / kDensityBinUm) + 1);
    for (auto& load : load_) {
      load.assign(static_cast<std::size_t>(cols_) *
                      static_cast<std::size_t>(rows_),
                  0.0);
    }

    // Wiring capacity per bin (µm of routable wire per µm² of die, per
    // side) from the technology's signal stacks.
    for (int side = 0; side < 2; ++side) {
      double tracks_per_um = 0.0;
      const auto layers = tech.routing_layers(
          side == 0 ? tech::Side::Front : tech::Side::Back);
      for (const tech::MetalLayer* l : layers) {
        tracks_per_um += 1000.0 / static_cast<double>(l->pitch);
      }
      capacity_um_per_um2_[side] =
          tracks_per_um * kDensityCapacityFactor;  // both dirs combined
    }
  }

  /// The field of every wire of a merged DEF.
  static DensityGrid of_def(const io::Def& def, const Technology& tech) {
    DensityGrid g(def.die, tech);
    for (const io::DefNet& n : def.nets) {
      for (const io::DefWire& w : n.wires) {
        const int side = w.layer.empty() || w.layer[0] != 'B' ? 0 : 1;
        g.for_each_sample(w.from, w.to, [&](std::size_t bin, double um) {
          g.load_[side][bin] += um;
        });
      }
    }
    return g;
  }

  /// Distribute a segment's length along the bins it crosses (coarse:
  /// sample every half bin): `f(bin, um)` per sample.
  template <class F>
  void for_each_sample(geom::Point a, geom::Point b, F&& f) const {
    const double len_um = geom::to_um(geom::manhattan(a, b));
    const int samples =
        std::max(1, static_cast<int>(len_um / (kDensityBinUm / 2)));
    for (int i = 0; i < samples; ++i) {
      const double t = (i + 0.5) / samples;
      const geom::Point p{
          a.x + static_cast<geom::Nm>(t * static_cast<double>(b.x - a.x)),
          a.y + static_cast<geom::Nm>(t * static_cast<double>(b.y - a.y))};
      f(bin_of(p), len_um / samples);
    }
  }

  /// Local density ratio (0 = empty, 1 = every track occupied) around a
  /// point, for one side.
  double ratio(Side s, geom::Point p) const {
    const int side = s == Side::Front ? 0 : 1;
    if (capacity_um_per_um2_[side] <= 0.0) return 0.0;
    const double um_in_bin = load_[side][bin_of(p)];
    const double cap_um = capacity_um_per_um2_[side] * kDensityBinUm *
                          kDensityBinUm;
    return std::min(1.0, um_in_bin / cap_um);
  }

  void set_load(int side, std::size_t bin, double um) {
    load_[side][bin] = um;
  }
  const std::vector<double>& loads(int side) const { return load_[side]; }

 private:
  std::size_t bin_of(geom::Point p) const {
    const int c = std::clamp(static_cast<int>(geom::to_um(p.x) / kDensityBinUm),
                             0, cols_ - 1);
    const int r = std::clamp(static_cast<int>(geom::to_um(p.y) / kDensityBinUm),
                             0, rows_ - 1);
    return static_cast<std::size_t>(r * cols_ + c);
  }

  int cols_ = 1, rows_ = 1;
  std::array<std::vector<double>, 2> load_;
  std::array<double, 2> capacity_um_per_um2_{0.0, 0.0};
};

struct NodeKey {
  Side side;
  geom::Nm x;
  geom::Nm y;
  bool operator==(const NodeKey&) const = default;
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(k.side == Side::Back);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.x);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.y);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

inline Side side_of_layer(const std::string& layer) {
  return !layer.empty() && layer[0] == 'B' ? Side::Back : Side::Front;
}

struct Adj {
  int to;
  double r_ohm;
};

/// Build (or rebuild, resetting any prior contents) one net's RC tree from
/// its wires, the side density grids, and the current pin landscape — the
/// one tree kernel of both wire sources (the merged DEF and the routes).
/// `for_each_wire(f)` calls f(side, layer, from, to) for each of the net's
/// `num_wires` wires, in merged-DEF order: the frontside route's, then the
/// backside's.
template <class ForEachWire>
void build_net_tree(RcTree& tree, netlist::NetId net_id, const Netlist& nl,
                    std::size_t num_wires, ForEachWire&& for_each_wire,
                    const DensityGrid& density, double drain_merge_r) {
  FFET_TRACE_SCOPE("extract.net");
  tree.clear();
  const netlist::Net& net = nl.net(net_id);

  // Driver position.
  geom::Point drv_pos{0, 0};
  if (net.driver.inst != netlist::kNoInst) {
    drv_pos = nl.pin_position(net.driver);
  } else if (net.port >= 0) {
    drv_pos = nl.port(net.port).pos;
  }

  // Root node.
  tree.nodes.push_back({drv_pos, 0.0, 0.0, -1, Side::Front});

  // Wire graph.
  std::unordered_map<NodeKey, int, NodeKeyHash> node_of;
  std::vector<std::vector<Adj>> adj(1);
  auto get_node = [&](Side s, geom::Point p) {
    const NodeKey key{s, p.x, p.y};
    auto it = node_of.find(key);
    if (it != node_of.end()) return it->second;
    const int idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({p, 0.0, 0.0, -1, s});
    adj.emplace_back();
    node_of.emplace(key, idx);
    return idx;
  };

  node_of.reserve(num_wires * 2);
  for_each_wire([&](Side s, const tech::MetalLayer& layer, geom::Point from,
                    geom::Point to) {
    const double len_um = geom::to_um(geom::manhattan(from, to));
    const double r = std::max(1e-3, len_um * layer.r_ohm_per_um);
    // Coupling: neighbors at the segment midpoint raise the effective
    // capacitance (Miller factor on switching aggressors).
    const geom::Point mid{(from.x + to.x) / 2, (from.y + to.y) / 2};
    const double coupling = 1.0 + kMillerCoupling * density.ratio(s, mid);
    const double c = len_um * layer.c_ff_per_um * coupling;
    const int a = get_node(s, from);
    const int b = get_node(s, to);
    tree.nodes[static_cast<std::size_t>(a)].cap_ff += c / 2.0;
    tree.nodes[static_cast<std::size_t>(b)].cap_ff += c / 2.0;
    // Via stacks are charged at the pin hookups (kPinHookupOhm), not
    // per gcell segment — a route stays on its track between bends.
    adj[static_cast<std::size_t>(a)].push_back({b, r});
    adj[static_cast<std::size_t>(b)].push_back({a, r});
  });

  // Join each side's nearest node to the driver root: the frontside via a
  // pin hookup stack; the backside through the Drain Merge (the net's
  // dual-sided output pin) — the only wafer-crossing structure.
  for (Side s : {Side::Front, Side::Back}) {
    int nearest = -1;
    geom::Nm best = std::numeric_limits<geom::Nm>::max();
    for (std::size_t i = 1; i < tree.nodes.size(); ++i) {
      if (tree.nodes[i].side != s) continue;
      const geom::Nm d = geom::manhattan(tree.nodes[i].pos, drv_pos);
      if (d < best) {
        best = d;
        nearest = static_cast<int>(i);
      }
    }
    if (nearest < 0) continue;
    const double joint_r = kPinHookupOhm +
                           (s == Side::Back ? drain_merge_r : 0.0);
    adj[0].push_back({nearest, joint_r});
    adj[static_cast<std::size_t>(nearest)].push_back({0, joint_r});
  }

  // Spanning tree by BFS from the root (drops redundant loop edges).
  std::vector<bool> seen(tree.nodes.size(), false);
  std::queue<int> q;
  q.push(0);
  seen[0] = true;
  while (!q.empty()) {
    const int n = q.front();
    q.pop();
    for (const Adj& e : adj[static_cast<std::size_t>(n)]) {
      if (seen[static_cast<std::size_t>(e.to)]) continue;
      seen[static_cast<std::size_t>(e.to)] = true;
      tree.nodes[static_cast<std::size_t>(e.to)].parent = n;
      tree.nodes[static_cast<std::size_t>(e.to)].r_ohm = e.r_ohm;
      q.push(e.to);
    }
  }

  // Sinks: nearest reachable node on the sink pin's side (root if none),
  // plus the hookup stack and the pin capacitance.
  tree.sink_nodes.reserve(net.sinks.size());
  for (const netlist::PinRef& sref : net.sinks) {
    const stdcell::PinSide ps = nl.pin_side(sref);
    const Side s = ps == stdcell::PinSide::Back ? Side::Back : Side::Front;
    const geom::Point pos = nl.pin_position(sref);
    int nearest = 0;
    geom::Nm best = std::numeric_limits<geom::Nm>::max();
    for (std::size_t i = 1; i < tree.nodes.size(); ++i) {
      if (!seen[i] || tree.nodes[i].side != s) continue;
      const geom::Nm d = geom::manhattan(tree.nodes[i].pos, pos);
      if (d < best) {
        best = d;
        nearest = static_cast<int>(i);
      }
    }
    // Attach the pin as its own node so per-sink Elmore includes the
    // hookup resistance.
    const int pin_node = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(
        {pos, nl.pin_cap_ff(sref), kPinHookupOhm, nearest, s});
    seen.push_back(true);
    tree.sink_nodes.push_back(pin_node);
  }

  reference::finalize_rc_tree(tree);
  double pin_cap = 0.0;
  for (const netlist::PinRef& sref : net.sinks) {
    pin_cap += nl.pin_cap_ff(sref);
  }
  tree.wire_cap_ff = std::max(0.0, tree.total_cap_ff - pin_cap);
}

inline void finalize_rc_tree(RcTree& tree) {
  const std::size_t n_nodes = tree.nodes.size();
  std::vector<std::vector<int>> children(n_nodes);
  for (std::size_t i = 1; i < n_nodes; ++i) {
    const int p = tree.nodes[i].parent;
    if (p >= 0) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  // Subtree capacitance, post-order via explicit stack.
  std::vector<double> subtree_cap(n_nodes, 0.0);
  {
    std::vector<std::pair<int, std::size_t>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [n, ci] = stack.back();
      if (ci < children[static_cast<std::size_t>(n)].size()) {
        ++stack.back().second;  // must mutate before push (reallocation)
        stack.push_back({children[static_cast<std::size_t>(n)][ci], 0});
      } else {
        double c = tree.nodes[static_cast<std::size_t>(n)].cap_ff;
        for (int ch : children[static_cast<std::size_t>(n)]) {
          c += subtree_cap[static_cast<std::size_t>(ch)];
        }
        subtree_cap[static_cast<std::size_t>(n)] = c;
        stack.pop_back();
      }
    }
  }
  tree.total_cap_ff = subtree_cap[0];

  // Elmore: delay(n) = delay(parent) + R(n) * subtree_cap(n); ohm*fF = fs.
  tree.elmore_ps.assign(n_nodes, 0.0);
  std::vector<int> bfs{0};
  for (std::size_t qi = 0; qi < bfs.size(); ++qi) {
    const int n = bfs[qi];
    for (int c : children[static_cast<std::size_t>(n)]) {
      tree.elmore_ps[static_cast<std::size_t>(c)] =
          tree.elmore_ps[static_cast<std::size_t>(n)] +
          tree.nodes[static_cast<std::size_t>(c)].r_ohm *
              subtree_cap[static_cast<std::size_t>(c)] / 1000.0;
      bfs.push_back(c);
    }
  }
}

/// The reference extraction of a merged DEF: every net's tree built in net
/// order by the kernel above and packed into the arena, then the totals.
inline RcNetlist extract_rc(const io::Def& merged, const Netlist& nl,
                            const Technology& tech) {
  std::vector<const io::DefNet*> def_nets(
      static_cast<std::size_t>(nl.num_nets()), nullptr);
  for (const io::DefNet& n : merged.nets) {
    if (const auto id = nl.find_net(n.name)) {
      def_nets[static_cast<std::size_t>(*id)] = &n;
    }
  }
  const DensityGrid density = DensityGrid::of_def(merged, tech);
  RcNetlist out;
  out.resize_trees(def_nets.size());
  RcTree tree;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const io::DefNet* dn = def_nets[static_cast<std::size_t>(n)];
    build_net_tree(
        tree, n, nl, dn ? dn->wires.size() : 0,
        [&](auto&& f) {
          if (!dn) return;
          for (const io::DefWire& w : dn->wires) {
            f(side_of_layer(w.layer), *tech.find_layer(w.layer), w.from,
              w.to);
          }
        },
        density, tech.device().np_link_r_ohm);
    out.assign_tree(n, tree);
  }
  out.recompute_totals();
  return out;
}

}  // namespace ffet::extract::reference

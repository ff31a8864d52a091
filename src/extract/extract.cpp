#include "extract/extract.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "geom/grid.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace ffet::extract {

using netlist::Netlist;
using tech::Side;
using tech::Technology;

namespace {

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

Side side_of_layer(const std::string& layer) {
  return !layer.empty() && layer[0] == 'B' ? Side::Back : Side::Front;
}

/// One worker's reusable buffers for building and finalizing RC trees.
/// Each net resets what it uses and frees nothing, so a worker's nets stop
/// touching the heap once the buffers have grown to its largest net.
struct TreeScratch {
  /// Wire-endpoint lookup: open addressing over node indices, keyed by
  /// (side, position) and compared against the tree's nodes.  A slot is
  /// live when its stamp equals `stamp`, so bumping the stamp empties it.
  std::vector<std::int32_t> slot_node;
  std::vector<std::uint32_t> slot_stamp;
  std::uint32_t stamp = 0;

  /// One directed wire-graph arc.
  struct Arc {
    std::int32_t from;
    std::int32_t to;
    double r_ohm;
  };
  /// Both directions of every wire, then the root joins, in push order.
  std::vector<Arc> arcs;
  /// CSR offsets: node n's arcs (or children) are [first[n], first[n+1]).
  std::vector<std::int32_t> first;
  std::vector<Arc> adj;                ///< arcs grouped by `from`
  std::vector<std::int32_t> children;  ///< child nodes grouped by parent
  std::vector<std::int32_t> order;     ///< BFS order from the root
  std::vector<char> seen;
  std::vector<double> subtree_cap;
};

TreeScratch& worker_scratch() {
  thread_local TreeScratch scratch;
  return scratch;
}

/// Stable counting sort of `count` items by key into CSR offsets
/// `first[0..n]`: key(i) in [-1, n) names item i's node, place(slot, i)
/// stores it.  Items keyed -1 fill the slots before first[0].
template <class Key, class Place>
void build_csr(std::vector<std::int32_t>& first, std::size_t n,
               std::size_t count, Key&& key, Place&& place) {
  first.assign(n + 2, 0);
  for (std::size_t i = 0; i < count; ++i) {
    ++first[static_cast<std::size_t>(key(i) + 2)];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  for (std::size_t i = 0; i < count; ++i) {
    const auto slot = first[static_cast<std::size_t>(key(i) + 1)]++;
    place(static_cast<std::size_t>(slot), i);
  }
}

/// finalize_rc_tree on a worker's scratch: children in node order (CSR),
/// subtree caps summed in reverse BFS order (each node's own cap, then its
/// children's subtree caps in node order), Elmore delays in BFS order.
/// Nodes the root does not reach keep Elmore 0.
void finalize_tree(RcTree& tree, TreeScratch& x) {
  const std::size_t n_nodes = tree.nodes.size();
  tree.elmore_ps.assign(n_nodes, 0.0);
  tree.total_cap_ff = 0.0;
  if (n_nodes == 0) return;
  x.children.resize(n_nodes);
  build_csr(
      x.first, n_nodes, n_nodes - 1,
      [&](std::size_t i) { return tree.nodes[i + 1].parent; },
      [&](std::size_t slot, std::size_t i) {
        x.children[slot] = static_cast<std::int32_t>(i + 1);
      });
  x.order.assign(1, 0);
  for (std::size_t qi = 0; qi < x.order.size(); ++qi) {
    const auto n = static_cast<std::size_t>(x.order[qi]);
    for (std::int32_t k = x.first[n]; k < x.first[n + 1]; ++k) {
      x.order.push_back(x.children[static_cast<std::size_t>(k)]);
    }
  }
  x.subtree_cap.resize(n_nodes);
  for (std::size_t qi = x.order.size(); qi-- > 0;) {
    const auto n = static_cast<std::size_t>(x.order[qi]);
    double c = tree.nodes[n].cap_ff;
    for (std::int32_t k = x.first[n]; k < x.first[n + 1]; ++k) {
      c += x.subtree_cap[static_cast<std::size_t>(
          x.children[static_cast<std::size_t>(k)])];
    }
    x.subtree_cap[n] = c;
  }
  tree.total_cap_ff = x.subtree_cap[0];

  // Elmore: delay(n) = delay(parent) + R(n) * subtree_cap(n); ohm*fF = fs.
  for (const std::int32_t m : x.order) {
    const auto n = static_cast<std::size_t>(m);
    for (std::int32_t k = x.first[n]; k < x.first[n + 1]; ++k) {
      const auto c =
          static_cast<std::size_t>(x.children[static_cast<std::size_t>(k)]);
      tree.elmore_ps[c] = tree.elmore_ps[n] +
                          tree.nodes[c].r_ohm * x.subtree_cap[c] / 1000.0;
    }
  }
}

/// Build (or rebuild, resetting any prior contents) one net's RC tree from
/// its wires, the side density grids, and the current pin landscape — the
/// one tree kernel of both wire sources (the merged DEF and the routes).
/// `for_each_wire(f)` calls f(side, layer, from, to) for each of the net's
/// `num_wires` wires, in merged-DEF order: the frontside route's, then the
/// backside's.
///
/// Node numbering is first-seen over the wires, `from` before `to`, after
/// the driver root (node 0, never looked up).  The spanning tree is a BFS
/// from the root over the wire arcs in push order, with the two root joins
/// after every wire arc.  Nearest-node queries are linear scans with the
/// tie-break lowest distance, then lowest index; a sink's candidates
/// include the pin nodes of the sinks before it.
template <class ForEachWire>
void build_net_tree(RcTree& tree, netlist::NetId net_id, const Netlist& nl,
                    std::size_t num_wires, ForEachWire&& for_each_wire,
                    const DensityGrid& density, double drain_merge_r,
                    TreeScratch& x) {
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

  // Wire graph.  The lookup table holds at least twice the 2 * num_wires
  // endpoints a net can have, so probes stay short and always end.
  std::size_t slots = 16;
  int shift = 60;
  while (slots < 4 * num_wires) {
    slots *= 2;
    --shift;
  }
  if (x.slot_node.size() < slots) {
    x.slot_node.resize(slots);
    x.slot_stamp.assign(slots, 0);
    x.stamp = 0;
  }
  if (++x.stamp == 0) {
    std::fill(x.slot_stamp.begin(), x.slot_stamp.end(), 0u);
    x.stamp = 1;
  }
  const std::size_t mask = slots - 1;
  auto get_node = [&](Side s, geom::Point p) {
    std::uint64_t h = static_cast<std::uint64_t>(s == Side::Back);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(p.x);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(p.y);
    for (auto i = static_cast<std::size_t>((h * 0xD6E8FEB86659FD93ull) >>
                                           shift);
         ; i = (i + 1) & mask) {
      if (x.slot_stamp[i] != x.stamp) {
        if (tree.nodes.size() > 2 * num_wires) {
          throw std::logic_error("net has more wires than announced");
        }
        const auto idx = static_cast<std::int32_t>(tree.nodes.size());
        tree.nodes.push_back({p, 0.0, 0.0, -1, s});
        x.slot_stamp[i] = x.stamp;
        x.slot_node[i] = idx;
        return idx;
      }
      const RcNode& n = tree.nodes[static_cast<std::size_t>(x.slot_node[i])];
      if (n.pos == p && n.side == s) return x.slot_node[i];
    }
  };

  x.arcs.clear();
  for_each_wire([&](Side s, const tech::MetalLayer& layer, geom::Point from,
                    geom::Point to) {
    const double len_um = geom::to_um(geom::manhattan(from, to));
    const double r = std::max(1e-3, len_um * layer.r_ohm_per_um);
    // Coupling: neighbors at the segment midpoint raise the effective
    // capacitance (Miller factor on switching aggressors).
    const geom::Point mid{(from.x + to.x) / 2, (from.y + to.y) / 2};
    const double coupling = 1.0 + kMillerCoupling * density.ratio(s, mid);
    const double c = len_um * layer.c_ff_per_um * coupling;
    const std::int32_t a = get_node(s, from);
    const std::int32_t b = get_node(s, to);
    tree.nodes[static_cast<std::size_t>(a)].cap_ff += c / 2.0;
    tree.nodes[static_cast<std::size_t>(b)].cap_ff += c / 2.0;
    // Via stacks are charged at the pin hookups (kPinHookupOhm), not
    // per gcell segment — a route stays on its track between bends.
    x.arcs.push_back({a, b, r});
    x.arcs.push_back({b, a, r});
  });

  // Join each side's nearest node to the driver root: the frontside via a
  // pin hookup stack; the backside through the Drain Merge (the net's
  // dual-sided output pin) — the only wafer-crossing structure.
  for (Side s : {Side::Front, Side::Back}) {
    std::int32_t nearest = -1;
    geom::Nm best = std::numeric_limits<geom::Nm>::max();
    for (std::size_t i = 1; i < tree.nodes.size(); ++i) {
      if (tree.nodes[i].side != s) continue;
      const geom::Nm d = geom::manhattan(tree.nodes[i].pos, drv_pos);
      if (d < best) {
        best = d;
        nearest = static_cast<std::int32_t>(i);
      }
    }
    if (nearest < 0) continue;
    const double joint_r = kPinHookupOhm +
                           (s == Side::Back ? drain_merge_r : 0.0);
    x.arcs.push_back({0, nearest, joint_r});
    x.arcs.push_back({nearest, 0, joint_r});
  }

  // Spanning tree by BFS from the root (drops redundant loop edges).
  const std::size_t wire_nodes = tree.nodes.size();
  x.adj.resize(x.arcs.size());
  build_csr(
      x.first, wire_nodes, x.arcs.size(),
      [&](std::size_t i) { return x.arcs[i].from; },
      [&](std::size_t slot, std::size_t i) { x.adj[slot] = x.arcs[i]; });
  x.seen.assign(wire_nodes + net.sinks.size(), 0);
  x.order.assign(1, 0);
  x.seen[0] = 1;
  for (std::size_t qi = 0; qi < x.order.size(); ++qi) {
    const auto n = static_cast<std::size_t>(x.order[qi]);
    for (std::int32_t k = x.first[n]; k < x.first[n + 1]; ++k) {
      const TreeScratch::Arc& e = x.adj[static_cast<std::size_t>(k)];
      const auto to = static_cast<std::size_t>(e.to);
      if (x.seen[to]) continue;
      x.seen[to] = 1;
      tree.nodes[to].parent = static_cast<std::int32_t>(n);
      tree.nodes[to].r_ohm = e.r_ohm;
      x.order.push_back(e.to);
    }
  }

  // Sinks: nearest reachable node on the sink pin's side (root if none),
  // plus the hookup stack and the pin capacitance.  Earlier sinks' pin
  // nodes are reachable candidates too.
  tree.sink_nodes.reserve(net.sinks.size());
  for (const netlist::PinRef& sref : net.sinks) {
    const stdcell::PinSide ps = nl.pin_side(sref);
    const Side s = ps == stdcell::PinSide::Back ? Side::Back : Side::Front;
    const geom::Point pos = nl.pin_position(sref);
    std::int32_t nearest = 0;
    geom::Nm best = std::numeric_limits<geom::Nm>::max();
    for (std::size_t i = 1; i < tree.nodes.size(); ++i) {
      if (!x.seen[i] || tree.nodes[i].side != s) continue;
      const geom::Nm d = geom::manhattan(tree.nodes[i].pos, pos);
      if (d < best) {
        best = d;
        nearest = static_cast<std::int32_t>(i);
      }
    }
    // Attach the pin as its own node so per-sink Elmore includes the
    // hookup resistance.
    const auto pin_node = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.push_back(
        {pos, nl.pin_cap_ff(sref), kPinHookupOhm, nearest, s});
    x.seen[static_cast<std::size_t>(pin_node)] = 1;
    tree.sink_nodes.push_back(pin_node);
  }

  finalize_tree(tree, x);
  double pin_cap = 0.0;
  for (const netlist::PinRef& sref : net.sinks) {
    pin_cap += nl.pin_cap_ff(sref);
  }
  tree.wire_cap_ff = std::max(0.0, tree.total_cap_ff - pin_cap);
}

/// Per-net pointers into the merged DEF, indexed by NetId (null = the net
/// has no DEF record, i.e. no wires).
std::vector<const io::DefNet*> index_def_nets(const io::Def& merged,
                                              const Netlist& nl) {
  std::vector<const io::DefNet*> by_id(
      static_cast<std::size_t>(nl.num_nets()), nullptr);
  for (const io::DefNet& n : merged.nets) {
    if (const auto id = nl.find_net(n.name)) {
      by_id[static_cast<std::size_t>(*id)] = &n;
    }
  }
  return by_id;
}

/// The route wire source: a route's gcell edges as the wires build_def
/// writes for them (io::route_wire, on the layers "FM<i>"/"BM<i>" it
/// names), and their coupling-density field.  Every route wire is one
/// gcell long and gcells are square, so every density sample adds the same
/// length; the field is kept as per-bin sample counts read through a
/// geom::RepeatedSum, and equals the merged DEF's accumulated field bit for
/// bit whatever order wires were added and removed in.
class RouteWires {
 public:
  RouteWires(const pnr::RouteResult& summary, const Technology& tech)
      : density_(geom::make_rect({0, 0}, summary.gcols * summary.gcell_w,
                                 summary.grows * summary.gcell_h),
                 tech) {
    grid_.gcols = summary.gcols;
    grid_.grows = summary.grows;
    grid_.gcell_w = summary.gcell_w;
    grid_.gcell_h = summary.gcell_h;
    if (grid_.gcell_w != grid_.gcell_h) {
      throw std::invalid_argument(
          "route-driven extraction needs square gcells (equal wire lengths)");
    }
    // Every route wire is one gcell long, so every sample adds what the
    // first wire's sample adds.
    double step = 0.0;
    density_.for_each_sample(
        {0, 0}, {grid_.gcell_w, 0},
        [&](std::size_t, double um) { step = um; });
    for (int side = 0; side < 2; ++side) {
      sample_sums_[static_cast<std::size_t>(side)] = geom::RepeatedSum(step);
      samples_[static_cast<std::size_t>(side)].assign(
          density_.loads(side).size(), 0);
    }
    for (const tech::MetalLayer& l : tech.layers()) {
      const std::size_t side = l.side == Side::Front ? 0 : 1;
      if (l.index < 0 ||
          l.name != std::string(side == 0 ? "FM" : "BM") +
                        std::to_string(l.index)) {
        continue;
      }
      auto& table = layer_of_[side];
      if (table.size() <= static_cast<std::size_t>(l.index)) {
        table.resize(static_cast<std::size_t>(l.index) + 1, nullptr);
      }
      if (!table[static_cast<std::size_t>(l.index)]) {
        table[static_cast<std::size_t>(l.index)] = &l;
      }
    }
  }

  const DensityGrid& density() const { return density_; }

  /// Add (+1) or remove (-1) one side's route wires in the density field.
  /// Each side has its own state, so the two sides may move concurrently.
  void move(Side s, std::span<const pnr::GEdge> edges, int sign) {
    const int side = s == Side::Front ? 0 : 1;
    auto& count = samples_[static_cast<std::size_t>(side)];
    geom::RepeatedSum& sum = sample_sums_[static_cast<std::size_t>(side)];
    for (const pnr::GEdge& e : edges) {
      const io::RouteWire w = io::route_wire(grid_, e, 0, 0);
      density_.for_each_sample(w.from, w.to, [&](std::size_t bin, double um) {
        if (um != sum.step()) {
          throw std::logic_error("route wire of unexpected length");
        }
        density_.set_load(side, bin, sum(count[bin] += sign));
      });
    }
  }

  /// f(side, layer, from, to) for each wire of one side's route, in edge
  /// order — what build_def writes for it.
  template <class F>
  void for_each(Side s, std::span<const pnr::GEdge> edges, int h_layer_index,
                int v_layer_index, F&& f) const {
    for (const pnr::GEdge& e : edges) {
      const io::RouteWire w =
          io::route_wire(grid_, e, h_layer_index, v_layer_index);
      f(s, layer(s, w.layer_index), w.from, w.to);
    }
  }

 private:
  const tech::MetalLayer& layer(Side s, int index) const {
    const auto& table = layer_of_[s == Side::Front ? 0 : 1];
    if (index < 0 || static_cast<std::size_t>(index) >= table.size() ||
        !table[static_cast<std::size_t>(index)]) {
      throw std::runtime_error("route references unknown layer " +
                               std::string(s == Side::Front ? "FM" : "BM") +
                               std::to_string(index));
    }
    return *table[static_cast<std::size_t>(index)];
  }

  pnr::RouteResult grid_;  ///< gcell geometry (routes empty)
  DensityGrid density_;
  /// Density samples per bin and side; a bin's load is its side's
  /// sample_sums_(count).  Each side grows its own sum table.
  std::array<std::vector<int>, 2> samples_;
  std::array<geom::RepeatedSum, 2> sample_sums_;
  /// Routing layer per side and metal index.
  std::array<std::vector<const tech::MetalLayer*>, 2> layer_of_;
};

/// The one full-extraction driver behind both extract_rc overloads:
/// `build(tree, net)` builds one net's tree from its wire source.  Each
/// tree is a pure function of read-only shared state (wire index, density
/// grid, netlist), so a chunk of nets is built into per-net scratch slots
/// in parallel without synchronization, then packed into the arena in net
/// order (assign_trees) — bit-identical to the serial loop while bounding
/// scratch memory to one chunk.  `num_wires` pre-sizes the arena.
template <class BuildTree>
RcNetlist extract_nets(const Netlist& nl, std::size_t num_wires,
                       BuildTree&& build, int threads) {
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  RcNetlist out;
  out.resize_trees(num_nets);

  // Arena pre-sizing: root + per-sink pin node per net, plus at most two
  // endpoint nodes per wire segment.
  std::size_t sinks = 0;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    sinks += nl.net(n).sinks.size();
  }
  out.reserve_arena(num_nets + sinks + 2 * num_wires, sinks);

  constexpr std::size_t kChunk = 1024;
  std::vector<RcTree> scratch(std::min(kChunk, std::max<std::size_t>(
                                                   num_nets, 1)));
  for (std::size_t base = 0; base < num_nets; base += kChunk) {
    const std::size_t count = std::min(kChunk, num_nets - base);
    runtime::parallel_for(
        count,
        [&](std::size_t i) {
          build(scratch[i], static_cast<netlist::NetId>(base + i));
        },
        threads, 0);
    out.assign_trees(static_cast<netlist::NetId>(base),
                     std::span<const RcTree>(scratch.data(), count), threads);
  }
  FFET_METRIC_ADD("extract.nets", nl.num_nets());

  out.recompute_totals();
  return out;
}

}  // namespace

RcSpan RcNetlist::assign_tree(netlist::NetId id, const RcTree& t) {
  const RcSpan replaced = spans_[static_cast<std::size_t>(id)];
  assign_trees(id, {&t, 1}, 1);
  return replaced;
}

void RcNetlist::assign_trees(netlist::NetId first,
                             std::span<const RcTree> trees, int threads) {
  std::size_t node_end = nodes_.size();
  std::size_t sink_end = sinks_.size();
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const RcTree& t = trees[i];
    RcSpan& s = spans_[static_cast<std::size_t>(first) + i];
    s.first_node = static_cast<std::uint32_t>(node_end);
    s.first_sink = static_cast<std::uint32_t>(sink_end);
    s.num_nodes = static_cast<std::uint32_t>(t.nodes.size());
    s.num_sinks = static_cast<std::uint32_t>(t.sink_nodes.size());
    s.total_cap_ff = t.total_cap_ff;
    s.wire_cap_ff = t.wire_cap_ff;
    node_end += t.nodes.size();
    sink_end += t.sink_nodes.size();
  }
  nodes_.resize(node_end);
  elmore_.resize(node_end);
  sinks_.resize(sink_end);
  runtime::parallel_for(
      trees.size(),
      [&](std::size_t i) {
        const RcTree& t = trees[i];
        const RcSpan& s = spans_[static_cast<std::size_t>(first) + i];
        std::copy(t.nodes.begin(), t.nodes.end(),
                  nodes_.begin() + s.first_node);
        std::copy(t.elmore_ps.begin(), t.elmore_ps.end(),
                  elmore_.begin() + s.first_node);
        std::copy(t.sink_nodes.begin(), t.sink_nodes.end(),
                  sinks_.begin() + s.first_sink);
      },
      threads, 0);
}

void RcNetlist::restore_tree(netlist::NetId id, const RcSpan& span) {
  spans_[static_cast<std::size_t>(id)] = span;
}

void RcNetlist::truncate_arena(std::size_t nodes, std::size_t sinks) {
  nodes_.resize(nodes);
  elmore_.resize(nodes);
  sinks_.resize(sinks);
}

void RcNetlist::recompute_totals() {
  total_wire_cap_ff = 0.0;
  total_wire_res_kohm = 0.0;
  for (netlist::NetId n = 0; n < static_cast<netlist::NetId>(num_trees());
       ++n) {
    const RcTreeView t = tree(n);
    total_wire_cap_ff += t.wire_cap_ff;
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      total_wire_res_kohm += t.nodes[i].r_ohm / 1000.0;
    }
  }
}

RcNetlist extract_rc(const io::Def& merged, const Netlist& nl,
                     const Technology& tech, int threads) {
  FFET_TRACE_SCOPE("extract.rc");
  const std::vector<const io::DefNet*> def_nets = index_def_nets(merged, nl);
  std::size_t num_wires = 0;
  for (const io::DefNet& n : merged.nets) num_wires += n.wires.size();
  // Neighborhood wire density per side (coupling model).
  const DensityGrid density = DensityGrid::of_def(merged, tech);
  return extract_nets(
      nl, num_wires,
      [&](RcTree& tree, netlist::NetId n) {
        const io::DefNet* dn = def_nets[static_cast<std::size_t>(n)];
        build_net_tree(
            tree, n, nl, dn ? dn->wires.size() : 0,
            [&](auto&& f) {
              if (!dn) return;
              for (const io::DefWire& w : dn->wires) {
                const tech::MetalLayer* layer = tech.find_layer(w.layer);
                if (!layer) {
                  throw std::runtime_error(
                      "merged DEF references unknown layer " + w.layer);
                }
                f(side_of_layer(w.layer), *layer, w.from, w.to);
              }
            },
            density, tech.device().np_link_r_ohm, worker_scratch());
      },
      threads);
}

RcNetlist extract_rc(const pnr::RouteResult& routes, const Netlist& nl,
                     const Technology& tech, int threads) {
  FFET_TRACE_SCOPE("extract.rc");
  // Each net's routes in its merged-DEF wire order: the frontside routes,
  // then the backside ones, each side in route order.  Only nets with a
  // driver or a sink are routed, and build_def writes exactly those.
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  auto in_nl = [&](const pnr::NetRoute& r) {
    return r.net >= 0 && r.net < nl.num_nets();
  };
  std::vector<std::size_t> first(num_nets + 1, 0);
  for (const pnr::NetRoute& r : routes.routes) {
    if (in_nl(r)) ++first[static_cast<std::size_t>(r.net) + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<const pnr::NetRoute*> by_net(first.back());
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  std::size_t num_wires = 0;
  for (Side s : {Side::Front, Side::Back}) {
    for (const pnr::NetRoute& r : routes.routes) {
      if (r.side != s || !in_nl(r)) continue;
      by_net[next[static_cast<std::size_t>(r.net)]++] = &r;
      num_wires += r.edges.size();
    }
  }
  RouteWires wires(routes, tech);
  auto fill_side = [&](Side s) {
    for (const pnr::NetRoute& r : routes.routes) {
      if (r.side == s && in_nl(r)) wires.move(s, r.edges, +1);
    }
  };
  runtime::parallel_invoke(
      threads, [&] { fill_side(Side::Front); }, [&] { fill_side(Side::Back); });
  return extract_nets(
      nl, num_wires,
      [&](RcTree& tree, netlist::NetId n) {
        const std::span<const pnr::NetRoute* const> net_routes(
            by_net.data() + first[static_cast<std::size_t>(n)],
            by_net.data() + first[static_cast<std::size_t>(n) + 1]);
        std::size_t count = 0;
        for (const pnr::NetRoute* r : net_routes) count += r->edges.size();
        build_net_tree(
            tree, n, nl, count,
            [&](auto&& f) {
              for (const pnr::NetRoute* r : net_routes) {
                wires.for_each(r->side, r->edges, r->h_layer_index,
                               r->v_layer_index, f);
              }
            },
            wires.density(), tech.device().np_link_r_ohm, worker_scratch());
      },
      threads);
}

std::vector<double> density_loads(const io::Def& merged,
                                  const Technology& tech, Side side) {
  return DensityGrid::of_def(merged, tech).loads(side == Side::Front ? 0 : 1);
}

// --- RouteExtractor ----------------------------------------------------------

struct RouteExtractor::Impl {
  RouteWires wires;
  double drain_merge_r;
  RcTree scratch;

  // The last reextract(), for undo().
  std::vector<std::pair<netlist::NetId, RcSpan>> span_log;
  std::size_t log_trees = 0;
  std::size_t log_nodes = 0;
  std::size_t log_sinks = 0;

  Impl(const pnr::RouteResult& summary, const Technology& tech)
      : wires(summary, tech), drain_merge_r(tech.device().np_link_r_ohm) {}

  void build(netlist::NetId n, const Netlist& nl,
             const pnr::RouteState& routes) {
    const auto front = routes.route(n, Side::Front);
    const auto back = routes.route(n, Side::Back);
    const std::size_t num_wires = (front ? front->edges.size() : 0) +
                                  (back ? back->edges.size() : 0);
    build_net_tree(
        scratch, n, nl, num_wires,
        [&](auto&& f) {
          for (const auto& [s, r] : {std::pair{Side::Front, front},
                                     std::pair{Side::Back, back}}) {
            if (r) {
              wires.for_each(s, r->edges, r->h_layer_index, r->v_layer_index,
                             f);
            }
          }
        },
        wires.density(), drain_merge_r, worker_scratch());
  }
};

RouteExtractor::RouteExtractor(const pnr::RouteState& routes,
                               const Netlist& nl, const Technology& tech)
    : impl_(std::make_unique<Impl>(routes.summary(), tech)) {
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    for (Side s : {Side::Front, Side::Back}) {
      if (const auto r = routes.route(n, s)) impl_->wires.move(s, r->edges, +1);
    }
  }
}

RouteExtractor::~RouteExtractor() = default;

void RouteExtractor::reextract(RcNetlist& rc, const Netlist& nl,
                               const pnr::RouteState& routes,
                               const std::vector<netlist::NetId>& nets) {
  FFET_TRACE_SCOPE("extract.reextract");
  Impl& x = *impl_;
  // The coupling field is global: every rerouted wire moves first, so the
  // rebuilt trees see exactly the field a full extraction would.
  for (std::size_t i = 0; i < routes.num_changes(); ++i) {
    const pnr::RouteState::Change c = routes.change(i);
    x.wires.move(c.side, c.before, -1);
    x.wires.move(c.side, c.after, +1);
  }
  x.span_log.clear();
  x.log_trees = rc.num_trees();
  x.log_nodes = rc.arena_nodes();
  x.log_sinks = rc.arena_sinks();
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  for (std::size_t n = num_nets; n < rc.num_trees(); ++n) {
    x.span_log.push_back({static_cast<netlist::NetId>(n),
                          rc.span_of(static_cast<netlist::NetId>(n))});
  }
  rc.resize_trees(num_nets);
  long rebuilt = 0;
  for (const netlist::NetId n : nets) {
    if (n < 0 || static_cast<std::size_t>(n) >= num_nets) continue;
    x.build(n, nl, routes);
    x.span_log.push_back({n, rc.assign_tree(n, x.scratch)});
    ++rebuilt;
  }
  FFET_METRIC_ADD("extract.reextracted_nets", rebuilt);
}

void RouteExtractor::undo(RcNetlist& rc, const pnr::RouteState& routes) {
  Impl& x = *impl_;
  for (std::size_t i = routes.num_changes(); i-- > 0;) {
    const pnr::RouteState::Change c = routes.change(i);
    x.wires.move(c.side, c.after, -1);
    x.wires.move(c.side, c.before, +1);
  }
  rc.resize_trees(std::max(rc.num_trees(), x.log_trees));
  for (auto it = x.span_log.rbegin(); it != x.span_log.rend(); ++it) {
    rc.restore_tree(it->first, it->second);
  }
  x.span_log.clear();
  rc.resize_trees(x.log_trees);
  rc.truncate_arena(x.log_nodes, x.log_sinks);
}

std::vector<double> RouteExtractor::density_loads(Side side) const {
  return impl_->wires.density().loads(side == Side::Front ? 0 : 1);
}

void finalize_rc_tree(RcTree& tree) { finalize_tree(tree, worker_scratch()); }

}  // namespace ffet::extract

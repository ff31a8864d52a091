// extract.h — dual-sided RC extraction (Sec. III.C).
//
// Reads every net's front + back wires from one of two sources — the
// merged DEF (the paper's StarRC input, kept as the reference) or, in the
// flow, the routes themselves (the same wires, bit-identical trees) — and
// produces per-net RC trees:
//
//   * wire segments contribute distributed RC from their layer's derived
//     electrical constants (pi-model: half the capacitance at each
//     endpoint, series resistance between them);
//   * layer changes and pin hookups contribute via-stack resistance;
//   * the frontside and backside subtrees of a dual-sided net are joined at
//     the driver through the Drain Merge (the dual-sided output pin) — its
//     link resistance is the only structure crossing the wafer;
//   * sink input-pin capacitances are attached at their hookup nodes;
//   * **coupling**: wire capacitance grows with the local routed-wire
//     density of its wafer side (neighboring tracks contribute Miller
//     coupling), computed from the extracted wires' own geometry the way a
//     field-solver-calibrated extractor derives coupling from neighborhood
//     occupancy.  This is the mechanism that makes congested single-sided
//     routing slower and hungrier than dual-sided routing at the same
//     utilization — the source of the paper's Table III gains.
//
// Elmore delays to every node are precomputed; STA consumes the driver's
// total load and the per-sink Elmore/slew-degradation terms.
//
// Storage: the design's RC lives in ONE flat node/elmore/sink arena inside
// RcNetlist, with a per-net span table — no per-net allocations.  `RcTree`
// remains as the scratch type one net is built into before being packed
// into the arena; STA/report consumers read nets through the lightweight
// `RcTreeView` spans (index-only traversals).

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/def.h"
#include "netlist/netlist.h"
#include "tech/tech.h"

namespace ffet::extract {

struct RcNode {
  geom::Point pos;
  double cap_ff = 0.0;        ///< lumped capacitance at this node
  double r_ohm = 0.0;         ///< resistance to parent
  std::int32_t parent = -1;   ///< tree parent (-1 for the driver root)
  tech::Side side = tech::Side::Front;
};

/// Scratch representation of one net's RC tree (the build/IO type; packed
/// designs store nets in the RcNetlist arena instead).
class RcTree {
 public:
  std::vector<RcNode> nodes;  ///< nodes[0] is the driver root
  /// Node index for each sink pin, parallel to the net's sink list.
  std::vector<std::int32_t> sink_nodes;

  double total_cap_ff = 0.0;  ///< wire + sink-pin capacitance seen by driver
  double wire_cap_ff = 0.0;   ///< wire-only share (for switching power)

  /// Elmore delay (ps) from the driver to each node.
  std::vector<double> elmore_ps;

  double elmore_to_sink(std::size_t sink_idx) const {
    return elmore_ps[static_cast<std::size_t>(sink_nodes[sink_idx])];
  }

  void clear() {
    nodes.clear();
    sink_nodes.clear();
    elmore_ps.clear();
    total_cap_ff = wire_cap_ff = 0.0;
  }
};

/// One net's location in the RcNetlist arena.  Node/sink indices inside a
/// span are span-local (sink_nodes values index the span's node range).
struct RcSpan {
  std::uint32_t first_node = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t first_sink = 0;
  std::uint32_t num_sinks = 0;
  double total_cap_ff = 0.0;
  double wire_cap_ff = 0.0;
};

/// Read-only view of one net's tree inside the arena; cheap to construct,
/// traversals are pure index arithmetic.
class RcTreeView {
 public:
  std::span<const RcNode> nodes;
  std::span<const double> elmore_ps;
  std::span<const std::int32_t> sink_nodes;
  double total_cap_ff = 0.0;
  double wire_cap_ff = 0.0;

  double elmore_to_sink(std::size_t sink_idx) const {
    return elmore_ps[static_cast<std::size_t>(sink_nodes[sink_idx])];
  }
};

namespace detail {

/// std::allocator whose value-less construct() leaves the storage as it
/// is, so growing a vector of implicit-lifetime elements touches no page
/// (the elements are written later, possibly by several threads).
template <class T>
struct UninitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U*) noexcept {}
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// All nets' parasitics in one flat arena (nodes, Elmore delays and sink
/// hookups), indexed by NetId through the span table.  The arena only
/// grows at its end: a rebuilt tree is appended and its span repointed, so
/// putting the old span back and truncating the arena undoes a rebuild
/// exactly (the ECO loop's revert).
class RcNetlist {
 public:
  double total_wire_cap_ff = 0.0;
  double total_wire_res_kohm = 0.0;

  std::size_t num_trees() const { return spans_.size(); }

  RcTreeView tree(netlist::NetId id) const {
    const RcSpan& s = spans_[static_cast<std::size_t>(id)];
    RcTreeView v;
    v.nodes = {nodes_.data() + s.first_node, s.num_nodes};
    v.elmore_ps = {elmore_.data() + s.first_node, s.num_nodes};
    v.sink_nodes = {sinks_.data() + s.first_sink, s.num_sinks};
    v.total_cap_ff = s.total_cap_ff;
    v.wire_cap_ff = s.wire_cap_ff;
    return v;
  }

  const std::vector<RcSpan>& spans() const { return spans_; }
  /// One net's span record (totals without constructing a view).
  const RcSpan& span_of(netlist::NetId id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Grow (or shrink) the span table; new nets get empty trees.
  void resize_trees(std::size_t n) { spans_.resize(n); }

  /// Append one net's scratch tree to the arena and point its span there;
  /// returns the span it replaced (whose range becomes a hole —
  /// acceptable across ECO loops, which rebuild a handful of nets).
  RcSpan assign_tree(netlist::NetId id, const RcTree& t);
  /// assign_tree() of nets first, first + 1, ... in turn, copying on up
  /// to `threads` threads: the spans are laid out serially, then every
  /// tree is copied into its own range.
  void assign_trees(netlist::NetId first, std::span<const RcTree> trees,
                    int threads);
  /// Point a net back at a span assign_tree() replaced.
  void restore_tree(netlist::NetId id, const RcSpan& span);
  /// Drop everything appended beyond the given arena sizes.
  void truncate_arena(std::size_t nodes, std::size_t sinks);

  /// Recompute the aggregate totals from scratch, in net order.
  void recompute_totals();

  /// Sum of per-net node counts (holes excluded) — the structure-size
  /// counter reports track.
  std::int64_t tree_node_count() const {
    std::int64_t n = 0;
    for (const RcSpan& s : spans_) n += s.num_nodes;
    return n;
  }
  /// Arena occupancy including holes left by incremental re-extraction.
  std::size_t arena_nodes() const { return nodes_.size(); }
  std::size_t arena_sinks() const { return sinks_.size(); }

  /// Pre-size the arenas (optional; the full extractor estimates totals).
  void reserve_arena(std::size_t nodes, std::size_t sinks) {
    nodes_.reserve(nodes);
    elmore_.reserve(nodes);
    sinks_.reserve(sinks);
  }

 private:
  template <class T>
  using Arena = std::vector<T, detail::UninitAllocator<T>>;

  std::vector<RcSpan> spans_;       ///< indexed by NetId
  Arena<RcNode> nodes_;
  Arena<double> elmore_;            ///< parallel to nodes_
  Arena<std::int32_t> sinks_;
};

/// Extract RC for every net of `nl` from the merged DEF.  `merged` must
/// contain the union of front and back wires (see io::merge_defs); nets
/// present in the netlist but absent from the DEF get pin-only trees.
/// Per-net trees are independent, so `threads > 1` builds them in parallel
/// (bit-identical to serial: each net's tree is a pure function of its DEF
/// wires, built into a per-net scratch slot and packed into the arena
/// serially in net order; the totals are summed in net order too).
RcNetlist extract_rc(const io::Def& merged, const netlist::Netlist& nl,
                     const tech::Technology& tech, int threads = 1);

/// Extract RC for every net of `nl` straight from its routes — the flow's
/// signoff extractor.  Bit-identical to extract_rc() of
/// io::merge_defs(io::build_def(nl, routes, Front), build_def(.., Back))
/// at any thread count, without building either DEF.  Needs square gcells
/// (as the router makes them); throws std::invalid_argument otherwise.
RcNetlist extract_rc(const pnr::RouteResult& routes,
                     const netlist::Netlist& nl, const tech::Technology& tech,
                     int threads = 1);

/// The per-bin wire load of `side`'s coupling-density field that
/// extract_rc() builds from `merged` (row-major bins).
std::vector<double> density_loads(const io::Def& merged,
                                  const tech::Technology& tech,
                                  tech::Side side);

/// Route-driven incremental re-extraction, the ECO loop's extractor: it
/// rebuilds dirty nets' trees straight from their routes in a
/// pnr::RouteState, wire for wire what extract_rc() reads from the merged
/// DEF (both go through io::route_wire), so no DEF is built inside the
/// loop.  The coupling-density field is maintained by delta: every wire a
/// reroute replaces moves out of the field and its successor in.  Every
/// route wire is one gcell long and gcells are square, so every density
/// sample adds the same length; the field is kept as per-bin sample counts
/// read through a geom::RepeatedSum, and equals a full extraction's field
/// bit for bit.
class RouteExtractor {
 public:
  /// The density field of every committed route of `routes` (the routes
  /// `nl`'s current parasitics were extracted from).
  RouteExtractor(const pnr::RouteState& routes, const netlist::Netlist& nl,
                 const tech::Technology& tech);
  ~RouteExtractor();
  RouteExtractor(const RouteExtractor&) = delete;
  RouteExtractor& operator=(const RouteExtractor&) = delete;

  /// Follow the last routes.reroute(): move its changed routes' wires in
  /// the density field, grow (or shrink) the span table to `nl`, and
  /// rebuild the trees of `nets` from their routes, appended to the arena.
  /// Other trees are untouched.  Logged for undo().
  void reextract(RcNetlist& rc, const netlist::Netlist& nl,
                 const pnr::RouteState& routes,
                 const std::vector<netlist::NetId>& nets);
  /// Undo the last reextract() exactly: the density field, the spans and
  /// the arena.  Call before routes.undo_reroute() — it reads the
  /// reroute's changes.
  void undo(RcNetlist& rc, const pnr::RouteState& routes);

  /// The maintained field, laid out like density_loads().
  std::vector<double> density_loads(tech::Side side) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Recompute a tree's total capacitance and per-node Elmore delays from its
/// node caps / parents / resistances (used by the extractor and by the
/// SPEF reader).
void finalize_rc_tree(RcTree& tree);

}  // namespace ffet::extract

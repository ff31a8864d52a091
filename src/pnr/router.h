// router.h — dual-sided global signal routing (Sec. III.A, Algorithm 1).
//
// The FFET enabler is the *dual-sided output pin*: every cell output is a
// Drain Merge reaching both FM0 and BM0, so a net's source can drive wires
// on either wafer side.  Algorithm 1 decomposes every net by its sinks'
// pin sides:
//
//     for n in nets:
//         n.front, n.back <- { n.source }
//         for p in n.sinks:
//             assign p to n.front or n.back by the pin side in the LEF
//     route NF and NB independently; emit two DEFs
//
// No bridging cells are used (the paper's main flow minimizes area by
// avoiding them).  In CFET — or FFET libraries with all input pins on the
// frontside (FFET "FM12") — every net decomposes to a frontside net and the
// backside stays signal-free.
//
// The per-side router is a congestion-negotiated gcell global router:
// PathFinder-style A* with history costs over a grid whose edge capacities
// derive from the Table II layer stacks (per preferred direction), minus
// PDN usage, minus a pin-access share proportional to local pin density —
// the mechanism behind the paper's observation that FFET with
// frontside-only signals routs *worse* than CFET (higher pin density in a
// smaller core, Fig. 8c) while dual-sided signals recover routability.
//
// Validity follows the paper's rule: a P&R result is valid only if the
// estimated design-rule-violation count is below 10 (Sec. IV).

#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "pnr/floorplan.h"

namespace ffet::pnr {

using tech::Side;

/// The router has one driver, RouteState, and one negotiation loop, which
/// the state's reroute() runs on the subnets it queues: every subnet for
/// route_design() (a state with nothing carried), the dirty ones for the
/// ECO's reroutes.  Every multi-sink subnet is decomposed over a
/// rectilinear Steiner topology (src/pnr/steiner.h) into independently
/// routed 2-pin subnets, uncongested subnets take a monotonic L/Z fast
/// path that never touches the A* heap, and the rest fall back to windowed
/// A* (admissible
/// Manhattan lower bound scaled by the per-pass minimum edge cost, a
/// search window around {source, target} that adaptively expands (x2,
/// then full grid) when no hard-overflow-free path exists inside it, and a
/// per-pass edge-cost cache).  Negotiation rips up by congestion *region*
/// (src/pnr/region.h) with region reroutes batched across the thread pool
/// (snapshot search + serial commit barrier, bit-identical at any thread
/// count).
struct RouteOptions {
  int gcell_tracks = 15;       ///< gcell edge length in M2 track pitches
  int rrr_passes = 24;         ///< rip-up-and-reroute iterations
  /// Effective routed tracks per raw track-pitch crossing of a gcell edge.
  /// Above 1 because a gcell-edge "usage unit" is one net crossing, which
  /// occupies a track only across that gcell, while the capacity of a
  /// physical track spans many gcells; the value also compensates the
  /// lightweight global placer's extra wirelength vs. a commercial tool.
  /// Calibrated against the paper's Fig. 12 low-layer breakpoints
  /// (FP0.5BP0.5 still closing at 2 layers/side near 70% utilization).
  /// Re-derived (3.2 -> 3.0) when windowed A* replaced a full-grid
  /// Dijkstra kernel: its hard-overflow-avoiding search resolves congestion
  /// the Dijkstra kernel could not, so the fudge compensating router
  /// weakness shrinks to keep the reproduction breakpoints in place.
  double capacity_factor = 3.0;
  double pin_access_demand = 0.2;  ///< wire-demand share added per pin in a
                                   ///< gcell (local hookup wiring)
  double dr_slack = 0.15;  ///< per-edge overflow fraction a detailed router
                           ///< absorbs before violations appear
  /// Pin-access ceiling per µm² of gcell area *per side*: beyond it the
  /// detailed router cannot reach every pin and emits DRVs.  This is the
  /// paper's mechanism limiting FFET-with-frontside-only-signals to 76 %
  /// utilization (Sec. IV / Fig. 8c: "higher pin density in FFET FM12 ...
  /// due to FFET's smaller cell area") while dual-sided pin redistribution
  /// halves the per-side density and removes the ceiling.  Layer-count
  /// independent: pin access happens at M0/M1.
  double pin_access_limit_per_um2 = 80.0;
  /// Worker threads for the route stage.  Algorithm 1's decomposition makes
  /// the two wafer sides fully independent (separate grids, separate edge
  /// pools), so with threads >= 2 the frontside and backside route
  /// concurrently within each PathFinder pass.  Results are bit-identical
  /// to threads == 1, which routes the frontside, then the backside.
  int threads = 1;
  /// Initial A* search-window margin, in gcells, around the bounding box
  /// of a 2-pin subnet's {source, target} (raised to the subnet's length
  /// when that is larger).  Windowed attempts admit only paths
  /// that create no *hard* overflow; if none exists the margin doubles
  /// once, then the search falls back to the full grid with no pruning
  /// (so connectivity never depends on the window).
  int window_margin = 6;
  /// Region clustering: overflowed gcells within this Chebyshev distance
  /// join one congestion region, and each region's bounding box grows by
  /// `region_margin` gcells so the batched reroute sees congestion context
  /// beyond the hot cells.
  int region_merge_dist = 2;
  int region_margin = 3;
};

/// A gcell-level routing edge: between grid nodes a and b (flat indices).
struct GEdge {
  int a = 0;
  int b = 0;
  friend bool operator==(const GEdge&, const GEdge&) = default;
};

/// One routed (sub)net on one side of the wafer.
struct NetRoute {
  netlist::NetId net = netlist::kNoNet;
  Side side = Side::Front;
  std::vector<GEdge> edges;      ///< tree edges in gcell space
  std::vector<int> sink_gcells;  ///< gcell of each decomposed sink
  int source_gcell = 0;
  double wirelength_um = 0.0;
  /// Layer indices assigned per direction (for RC extraction / DEF): the
  /// horizontal-layer and vertical-layer this net predominantly uses.
  int h_layer_index = 2;
  int v_layer_index = 1;
};

/// Convergence record of one negotiation pass.  Pass 0 is the initial
/// route (ripped counts are the number of 2-pin subnets *routed*); passes
/// >= 1 are rip-up-and-reroute rounds.  Overflows are measured after the pass.
struct RoutePassStat {
  int pass = 0;
  int ripped_front = 0;
  int ripped_back = 0;
  double overflow_front = 0.0;  ///< soft overflow on the frontside grid
  double overflow_back = 0.0;
  double hard_overflow = 0.0;   ///< both sides, beyond detail-route slack
  // Search-effort counters for this pass.
  long settled_front = 0;       ///< maze-search nodes settled, frontside
  long settled_back = 0;
  int window_expansions_front = 0;  ///< A* window retries (x2 / full grid)
  int window_expansions_back = 0;
  // Congestion-region counters: regions clustered this pass; the ripped
  // counts above are then 2-pin subnet rip-ups scoped to those regions.
  int regions_front = 0;
  int regions_back = 0;
};

/// Aggregate result of the dual-sided routing stage.
struct RouteResult {
  std::vector<NetRoute> routes;

  int gcols = 0;
  int grows = 0;
  geom::Nm gcell_w = 0;
  geom::Nm gcell_h = 0;

  double wirelength_front_um = 0.0;
  double wirelength_back_um = 0.0;
  int nets_front = 0;
  int nets_back = 0;

  int overflow_total = 0;  ///< sum over edges of max(0, usage - capacity)
  int drv_wire = 0;        ///< DRVs from unresolvable wire overflow
  int drv_pin_access = 0;  ///< DRVs from per-gcell pin-access overload
  int drv_estimate = 0;    ///< total estimated DRC violations
  bool valid = false;      ///< drv_estimate < 10 (the paper's rule)

  // Diagnostics (track-units aggregated over all edges of both sides).
  double capacity_units = 0.0;
  double wire_demand_units = 0.0;
  double pin_demand_units = 0.0;

  // Convergence diagnostics: one entry per executed pass (see
  // RoutePassStat), the number of RRR passes actually run (excluding the
  // initial route), and the total 2-pin subnet rip-ups across all passes.
  // With FFET_VERBOSE set the router also prints a one-line per-pass
  // summary.
  std::vector<RoutePassStat> pass_stats;
  int rrr_passes = 0;
  long ripups_total = 0;
  /// Congestion regions processed across all passes (region-level rip-up
  /// events).
  long region_ripups_total = 0;

  /// Decomposition counters: 2-pin subnets produced by the Steiner
  /// decomposition, and how many 2-pin routes (initial + reroutes) were
  /// satisfied by the monotonic L/Z fast path without touching the A* heap.
  long steiner_subnets = 0;
  long fastpath_routes = 0;

  /// Maze-search effort totals over all passes (sum of the per-pass
  /// counters above).
  long settled_nodes = 0;
  long window_expansions = 0;

  double total_wirelength_um() const {
    return wirelength_front_um + wirelength_back_um;
  }
};

/// Route all signal nets of a placed netlist: a RouteState with nothing
/// carried, rerouted once, its result moved out.  Sinks on backside pins
/// are reachable only because FFET output pins are dual-sided; requesting
/// a route for a netlist with backside sinks on a technology without
/// backside routing layers throws std::runtime_error (no bridging cells in
/// this flow).
RouteResult route_design(const netlist::Netlist& nl, const Floorplan& fp,
                         const RouteOptions& options = {});

/// The router's one driver: the routing state of one design, built once and
/// kept alive across reroutes (route_design() builds one with nothing
/// carried and reroutes it once; the ECO loop keeps one for all its
/// trials).  It holds both per-side grids with their committed usage and
/// pin-access demand, the per-side subnet decomposition of every net, the
/// committed routes with their layer pairs, and the two maze routers.
/// Subnets live in one slot per (net, side), slot 2 * net + side, and
/// result() emits routes in slot order.  Routes, layer pairs and the
/// result's totals are emitted only here.
///
/// reroute() applies the pin-access deltas of the instances that were
/// resized, moved, added or had a pin flipped, re-decomposes the nets those
/// touch plus the dirty ones, rips out every subnet whose decomposition
/// changed (and every dirty one) and routes those, plus every subnet left
/// without a route, through the negotiation loop, against the carried
/// routes as fixed usage.  Every quantity a rebuild would derive is
/// reproduced bit for bit (see DESIGN.md §11): pin-access bases are integer
/// pin counts read through a RepeatedSum, the grids' running overflow
/// totals are re-folded in a fresh build's commit order, and history is
/// zero between reroutes.  The last reroute is logged, and undo_reroute()
/// restores the state before it exactly.
class RouteState {
 public:
  /// Adopt `prev` as the committed routes of `nl`.  Grids and pin demand
  /// come from the current netlist; a subnet whose decomposition no longer
  /// matches its route in `prev` (or that `prev` lacks) is left for the
  /// first reroute() to route.
  RouteState(const netlist::Netlist& nl, const Floorplan& fp,
             const RouteResult& prev, const RouteOptions& options = {});
  ~RouteState();
  RouteState(const RouteState&) = delete;
  RouteState& operator=(const RouteState&) = delete;

  /// Reroute `dirty_nets` (and every subnet whose decomposition changed)
  /// against the committed routes of all other nets.  `touched_insts` are
  /// the instances whose pins moved, changed size or side since the last
  /// reroute; instances added since then are picked up from the netlist's
  /// instance count.  A net whose connectivity changed must be listed
  /// dirty.  Instances and nets may be added between reroutes but not
  /// removed (throws std::invalid_argument); undo_reroute() takes back a
  /// trial's additions.  Discards the previous undo log.
  void reroute(const netlist::Netlist& nl,
               const std::vector<netlist::NetId>& dirty_nets,
               const std::vector<netlist::InstId>& touched_insts);
  /// Restore the state from before the last reroute() exactly.
  void undo_reroute();

  /// One committed per-side route, as the state holds it.
  struct RouteView {
    std::span<const GEdge> edges;
    int h_layer_index = 0;
    int v_layer_index = 0;
  };
  /// The committed route of `net` on `side` (nullopt: no subnet there).
  std::optional<RouteView> route(netlist::NetId net, Side side) const;

  /// A per-side route the last reroute() replaced (either span may be
  /// empty: the subnet appeared or vanished).
  struct Change {
    Side side = Side::Front;
    std::span<const GEdge> before;
    std::span<const GEdge> after;
  };
  std::size_t num_changes() const;
  Change change(std::size_t i) const;

  /// Everything of the current RouteResult except `routes`: the grid
  /// geometry, the DRV verdict and the last reroute's counters.
  const RouteResult& summary() const;
  /// The full RouteResult (summary plus the routes in slot order) —
  /// exactly what reroute_nets() would return for the same sequence.
  RouteResult result() const&;
  /// The same, with the routes' edge and sink lists moved out of the state
  /// instead of copied; the state is then fit only for destruction.
  RouteResult result() &&;

  /// The pin-access demand base of every edge on `side` (horizontal edges,
  /// then vertical) — for checking the maintained grid against
  /// pin_demand_bases().
  std::vector<double> pin_demand(Side side) const;
  /// Both grids' running overflow totals (soft, hard), as the next
  /// negotiation reads them.
  std::pair<double, double> overflow_totals() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The pin-access demand bases of a RouteState built from scratch for `nl`
/// (same layout as RouteState::pin_demand).
std::vector<double> pin_demand_bases(const netlist::Netlist& nl,
                                     const Floorplan& fp,
                                     const RouteOptions& options, Side side);

/// Incremental rip-up-and-reroute, one shot: build a RouteState from
/// `prev` and reroute `dirty_nets` once.  Only the dirty nets, and clean
/// nets whose terminals moved gcells (e.g. a driver displaced without the
/// net being listed), are routed; every other subnet keeps its edges and
/// its layer assignment from `prev`, so its DEF wires — and extracted
/// parasitics — are bit-identical to `prev`.
///
/// The dirty subnets negotiate in the one loop, which also fills
/// `pass_stats`.  With nothing carried, `reroute_nets(nl, fp, {}, {},
/// options)` is route_design(nl, fp, options).
RouteResult reroute_nets(const netlist::Netlist& nl, const Floorplan& fp,
                         const RouteResult& prev,
                         const std::vector<netlist::NetId>& dirty_nets,
                         const RouteOptions& options = {});

}  // namespace ffet::pnr

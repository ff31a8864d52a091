#include "pnr/router.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "geom/grid.h"
#include "obs/obs.h"
#include "pnr/region.h"
#include "pnr/steiner.h"
#include "runtime/thread_pool.h"

namespace ffet::pnr {

using netlist::NetId;
using netlist::Netlist;
using netlist::PinRef;
using stdcell::PinSide;

namespace {

/// Backside routing capacity consumed by the BSPDN stripes (the FFET routes
/// its PDN on the backside *signal* layers — Sec. IV: the highest PDN layer
/// "is determined by the highest signal routing layer on the backside").
constexpr double kPdnBacksideShare = 0.08;

/// PathFinder history increment per unit of overflow per pass, and the
/// per-pass decay that keeps stale history from forcing ever-longer
/// detours (the classic negotiation-thrash failure mode).
constexpr double kHistoryGain = 0.4;
constexpr double kHistoryDecay = 0.85;

double edge_cost(double base, double use, double cap, double hist) {
  const double load = base + use;
  if (cap <= 0.0) return (1.0 + hist) * 64.0;
  // Multiplicative PathFinder-style cost: congested edges get expensive in
  // proportion to their overload, history biases repeat offenders, and the
  // sub-capacity term keeps a mild preference for empty regions.
  double congestion = load / cap;
  double mult = 1.0 + 0.3 * congestion;
  if (load + 1.0 > cap) {
    const double over = (load + 1.0 - cap) / cap;
    mult += 3.0 * over + 2.0 * over * over;
  }
  return (1.0 + hist) * mult;
}

/// One side's routing grid with separate horizontal/vertical edge pools.
///
/// Beyond the raw capacity/usage/history arrays the grid owns two derived
/// structures the maze search depends on:
///
///   * a per-pass *edge-cost cache* (`h_cost`/`v_cost`): edge_cost() of
///     every edge, rebuilt by rebuild_costs() whenever history changes
///     (pass start) and invalidated per-edge by apply_use_*() when a
///     commit touches that edge.  The search kernels read only the cache,
///     so a settled node costs 4 array loads instead of 4 edge_cost()
///     evaluations;
///   * *incremental overflow totals* (`soft_total`/`hard_total`):
///     apply_use_*() maintains the running sum of per-edge overflow, so
///     the negotiation pass barrier reads overflow in O(1) instead of
///     rescanning every edge of both grids.
struct SideGrid {
  int cols = 0, rows = 0;
  geom::Nm gw = 0, gh = 0;
  double h_cap = 0.0;  ///< capacity per horizontal edge (uniform)
  double v_cap = 0.0;
  double h_cap_hard = 0.0;  ///< h_cap * (1 + dr_slack); beyond it: DRVs
  double v_cap_hard = 0.0;
  // Horizontal edges: (cols-1) x rows; vertical: cols x (rows-1).
  std::vector<double> h_base, h_use, h_hist;
  std::vector<double> v_base, v_use, v_hist;
  std::vector<double> h_cost, v_cost;  ///< per-pass edge-cost cache
  /// Admissible per-direction lower bounds on any edge cost reachable
  /// during the current pass: history is fixed within a pass and
  /// edge_cost() >= (1 + hist) * (cap > 0 ? 1 : 64) for any load, so the
  /// minimum over edges of that expression underestimates every step the
  /// A* heuristic has to account for — even after rip-ups lower loads.
  double floor_h = 1.0, floor_v = 1.0;
  double soft_total = 0.0;  ///< running sum of max(0, load - cap)
  double hard_total = 0.0;  ///< running sum of max(0, load - cap_hard)

  int node(int c, int r) const { return r * cols + c; }
  int col_of(int n) const { return n % cols; }
  int row_of(int n) const { return n / cols; }

  int h_edge(int c, int r) const { return r * (cols - 1) + c; }  // (c,r)-(c+1,r)
  int v_edge(int c, int r) const { return r * cols + c; }        // (c,r)-(c,r+1)

  int clamp_gcell(geom::Point p) const {
    const int c = std::clamp(static_cast<int>(p.x / gw), 0, cols - 1);
    const int r = std::clamp(static_cast<int>(p.y / gh), 0, rows - 1);
    return node(c, r);
  }

  /// Call once after capacities and pin-demand bases are final.
  void finalize(double dr_slack) {
    h_cap_hard = h_cap * (1.0 + dr_slack);
    v_cap_hard = v_cap * (1.0 + dr_slack);
    h_cost.assign(h_base.size(), 0.0);
    v_cost.assign(v_base.size(), 0.0);
    rebuild_costs();
    rescan_overflow();
  }

  /// Rebuild the edge-cost cache and the heuristic floors.  Required
  /// whenever history changes (pass start); within a pass the cache stays
  /// valid because apply_use_*() refreshes every edge a commit touches.
  void rebuild_costs() {
    double min_hist_h = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < h_cost.size(); ++i) {
      h_cost[i] = edge_cost(h_base[i], h_use[i], h_cap, h_hist[i]);
      min_hist_h = std::min(min_hist_h, h_hist[i]);
    }
    double min_hist_v = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < v_cost.size(); ++i) {
      v_cost[i] = edge_cost(v_base[i], v_use[i], v_cap, v_hist[i]);
      min_hist_v = std::min(min_hist_v, v_hist[i]);
    }
    floor_h = h_cost.empty() ? 1.0
                             : (1.0 + min_hist_h) * (h_cap > 0.0 ? 1.0 : 64.0);
    floor_v = v_cost.empty() ? 1.0
                             : (1.0 + min_hist_v) * (v_cap > 0.0 ? 1.0 : 64.0);
  }

  void apply_use_h(std::size_t i, double delta) {
    const double before = h_base[i] + h_use[i];
    h_use[i] += delta;
    const double after = before + delta;
    soft_total += std::max(0.0, after - h_cap) - std::max(0.0, before - h_cap);
    hard_total +=
        std::max(0.0, after - h_cap_hard) - std::max(0.0, before - h_cap_hard);
    h_cost[i] = edge_cost(h_base[i], h_use[i], h_cap, h_hist[i]);
  }
  void apply_use_v(std::size_t i, double delta) {
    const double before = v_base[i] + v_use[i];
    v_use[i] += delta;
    const double after = before + delta;
    soft_total += std::max(0.0, after - v_cap) - std::max(0.0, before - v_cap);
    hard_total +=
        std::max(0.0, after - v_cap_hard) - std::max(0.0, before - v_cap_hard);
    v_cost[i] = edge_cost(v_base[i], v_use[i], v_cap, v_hist[i]);
  }

  /// Would one more net on this edge push it beyond the detail-route
  /// slack?  The windowed A* attempts prune such edges (negotiation can
  /// absorb *soft* overflow; hard overflow is a DRV) and fall back to an
  /// unpruned full-grid search if no clean path exists.
  bool h_full(std::size_t i) const {
    return h_base[i] + h_use[i] + 1.0 > h_cap_hard;
  }
  bool v_full(std::size_t i) const {
    return v_base[i] + v_use[i] + 1.0 > v_cap_hard;
  }

  /// Soft overflow (absorbed by the detail router up to dr_slack).  O(1):
  /// maintained incrementally; the max() guards last-ulp drift from the
  /// running +/- updates when the true total is zero.
  double overflow() const { return std::max(0.0, soft_total); }

  /// Overflow beyond the detail-route-absorbable slack — the DRV source.
  double hard_overflow() const { return std::max(0.0, hard_total); }

  /// Recompute the running totals from scratch (initialization and the
  /// best-solution restore; never on the per-pass barrier).
  void rescan_overflow() {
    soft_total = 0.0;
    hard_total = 0.0;
    for (std::size_t i = 0; i < h_use.size(); ++i) {
      const double load = h_base[i] + h_use[i];
      soft_total += std::max(0.0, load - h_cap);
      hard_total += std::max(0.0, load - h_cap_hard);
    }
    for (std::size_t i = 0; i < v_use.size(); ++i) {
      const double load = v_base[i] + v_use[i];
      soft_total += std::max(0.0, load - v_cap);
      hard_total += std::max(0.0, load - v_cap_hard);
    }
  }

  void clear_use() {
    std::fill(h_use.begin(), h_use.end(), 0.0);
    std::fill(v_use.begin(), v_use.end(), 0.0);
    rescan_overflow();
  }

  /// Is any edge loaded beyond its soft or hard capacity?
  bool over_capacity() const {
    for (std::size_t i = 0; i < h_use.size(); ++i) {
      const double load = h_base[i] + h_use[i];
      if (load > h_cap || load > h_cap_hard) return true;
    }
    for (std::size_t i = 0; i < v_use.size(); ++i) {
      const double load = v_base[i] + v_use[i];
      if (load > v_cap || load > v_cap_hard) return true;
    }
    return false;
  }

  /// Zero the history (between reroutes the grid holds none, exactly like
  /// a fresh one) and refresh the cost cache and heuristic floors.
  void clear_history() {
    std::fill(h_hist.begin(), h_hist.end(), 0.0);
    std::fill(v_hist.begin(), v_hist.end(), 0.0);
    rebuild_costs();
  }

  /// Does this side have any routing layer?  Pins on a side without one
  /// still count toward its pin total but add no wiring demand.
  bool wired() const { return h_cap > 0.0 || v_cap > 0.0; }
};

/// A private usage overlay for the region-batched reroute: during
/// the snapshot-search phase of a pass every congestion region routes its
/// 2-pin subnets against the *frozen* grid plus this per-region delta of
/// the paths the region has already picked, so subnets of one region see
/// each other while disjoint regions stay independent.  Keyed by edge
/// index per direction; commits to the real grid happen only at the serial
/// barrier.  (The overlay counts every path crossing, deliberately ignoring
/// same-net refcount sharing — a conservative, deterministic approximation
/// that only ever over-prices an edge.)
struct UseOverlay {
  std::unordered_map<int, double> h, v;

  double h_delta(std::size_t e) const {
    const auto it = h.find(static_cast<int>(e));
    return it == h.end() ? 0.0 : it->second;
  }
  double v_delta(std::size_t e) const {
    const auto it = v.find(static_cast<int>(e));
    return it == v.end() ? 0.0 : it->second;
  }
};

/// The maze kernel of the negotiation loop: connect a 2-pin subnet whose
/// fast path failed.  The kernel is windowed A* (connect_astar):
/// admissible Manhattan heuristic scaled by the grid's per-pass cost
/// floors, deterministic (f, g, node-id) tie-breaking, a search window
/// around the bounding box of {source, target} that doubles its margin and
/// finally opens to the full grid when no hard-overflow-free path exists
/// inside it, cached edge costs, and a 4-ary open list.
struct PathRouter {
  SideGrid& g;
  std::vector<double> dist;
  std::vector<int> prev;
  std::vector<int> stamp_of;
  int stamp = 0;
  long settled = 0;     ///< nodes settled across all searches
  long expansions = 0;  ///< A* window retries (x2 margin or full grid)
  /// Snapshot-search usage overlay of a region reroute; when set, the A*
  /// kernel prices and prunes edges as if the overlay deltas were already
  /// committed.  The heuristic floors stay admissible: deltas only add
  /// load, and edge_cost() is monotone in load.
  const UseOverlay* overlay = nullptr;

  double h_weight(std::size_t e) const {
    if (overlay == nullptr) return g.h_cost[e];
    const double d = overlay->h_delta(e);
    if (d == 0.0) return g.h_cost[e];
    return edge_cost(g.h_base[e], g.h_use[e] + d, g.h_cap, g.h_hist[e]);
  }
  double v_weight(std::size_t e) const {
    if (overlay == nullptr) return g.v_cost[e];
    const double d = overlay->v_delta(e);
    if (d == 0.0) return g.v_cost[e];
    return edge_cost(g.v_base[e], g.v_use[e] + d, g.v_cap, g.v_hist[e]);
  }
  bool h_blocked(std::size_t e) const {
    const double d = overlay == nullptr ? 0.0 : overlay->h_delta(e);
    return g.h_base[e] + g.h_use[e] + d + 1.0 > g.h_cap_hard;
  }
  bool v_blocked(std::size_t e) const {
    const double d = overlay == nullptr ? 0.0 : overlay->v_delta(e);
    return g.v_base[e] + g.v_use[e] + d + 1.0 > g.v_cap_hard;
  }

  /// 4-ary min-heap keyed (f, g, node-id): lower f first, then *higher* g
  /// (ties on f prefer nodes closer to the target), then lower node id —
  /// a total order, so the open list is deterministic regardless of
  /// insertion timing.  Flatter than a binary heap: fewer cache-missing
  /// levels per sift on the push-heavy maze workload.
  struct OpenList {
    struct Item {
      double f = 0.0;
      double g = 0.0;
      int n = 0;
    };
    std::vector<Item> v;

    static bool before(const Item& a, const Item& b) {
      if (a.f != b.f) return a.f < b.f;
      if (a.g != b.g) return a.g > b.g;
      return a.n < b.n;
    }
    bool empty() const { return v.empty(); }
    void clear() { v.clear(); }
    void reserve(std::size_t n) { v.reserve(n); }
    void push(Item it) {
      v.push_back(it);
      std::size_t i = v.size() - 1;
      while (i > 0) {
        const std::size_t p = (i - 1) / 4;
        if (!before(v[i], v[p])) break;
        std::swap(v[i], v[p]);
        i = p;
      }
    }
    Item pop() {
      const Item top = v.front();
      v.front() = v.back();
      v.pop_back();
      const std::size_t n = v.size();
      std::size_t i = 0;
      while (true) {
        const std::size_t c0 = 4 * i + 1;
        if (c0 >= n) break;
        std::size_t best = i;
        const std::size_t c_end = std::min(c0 + 4, n);
        for (std::size_t c = c0; c < c_end; ++c) {
          if (before(v[c], v[best])) best = c;
        }
        if (best == i) break;
        std::swap(v[i], v[best]);
        i = best;
      }
      return top;
    }
  };
  OpenList open;

  explicit PathRouter(SideGrid& grid)
      : g(grid),
        dist(static_cast<std::size_t>(grid.cols * grid.rows)),
        prev(dist.size(), -1),
        stamp_of(dist.size(), -1) {
    open.reserve(256);
  }

  /// Inclusive gcell window [c_lo,c_hi]x[r_lo,r_hi].
  struct Window {
    int c_lo = 0, c_hi = 0, r_lo = 0, r_hi = 0;
    friend bool operator==(const Window&, const Window&) = default;
  };
  Window full_grid() const { return {0, g.cols - 1, 0, g.rows - 1}; }

  /// The bounding box of {source, target} grown by `margin` gcells on
  /// every side and clamped to the grid (the windowed searches' region).
  Window window_around(int source, int target, int margin) const {
    const int c_lo = std::min(g.col_of(source), g.col_of(target));
    const int c_hi = std::max(g.col_of(source), g.col_of(target));
    const int r_lo = std::min(g.row_of(source), g.row_of(target));
    const int r_hi = std::max(g.row_of(source), g.row_of(target));
    return {std::max(0, c_lo - margin), std::min(g.cols - 1, c_hi + margin),
            std::max(0, r_lo - margin), std::min(g.rows - 1, r_hi + margin)};
  }

  /// One bounded A* attempt inside `win`.  With `prune` set, edges already
  /// at their hard capacity are not crossed (a clean path is demanded).
  /// Returns true when `target` was settled.
  bool search_window(int source, int target, Window win, bool prune) {
    ++stamp;
    open.clear();
    const double fh = g.floor_h;
    const double fv = g.floor_v;
    const int tc = g.col_of(target), tr = g.row_of(target);
    auto heur = [&](int c, int r) {
      return fh * static_cast<double>(std::abs(c - tc)) +
             fv * static_cast<double>(std::abs(r - tr));
    };
    const auto si = static_cast<std::size_t>(source);
    dist[si] = 0.0;
    prev[si] = -1;
    stamp_of[si] = stamp;
    open.push({heur(g.col_of(source), g.row_of(source)), 0.0, source});
    while (!open.empty()) {
      const OpenList::Item it = open.pop();
      const int n = it.n;
      const auto ni = static_cast<std::size_t>(n);
      if (stamp_of[ni] != stamp || it.g > dist[ni]) continue;
      ++settled;
      if (n == target) return true;
      const int c = g.col_of(n), r = g.row_of(n);
      const double d = it.g;
      auto relax = [&](int nc, int nr, double w) {
        const int nn = g.node(nc, nr);
        const auto nni = static_cast<std::size_t>(nn);
        const double nd = d + w;
        if (stamp_of[nni] != stamp || nd < dist[nni]) {
          stamp_of[nni] = stamp;
          dist[nni] = nd;
          prev[nni] = n;
          open.push({nd + heur(nc, nr), nd, nn});
        }
      };
      if (c + 1 <= win.c_hi) {
        const auto e = static_cast<std::size_t>(g.h_edge(c, r));
        if (!prune || !h_blocked(e)) relax(c + 1, r, h_weight(e));
      }
      if (c - 1 >= win.c_lo) {
        const auto e = static_cast<std::size_t>(g.h_edge(c - 1, r));
        if (!prune || !h_blocked(e)) relax(c - 1, r, h_weight(e));
      }
      if (r + 1 <= win.r_hi) {
        const auto e = static_cast<std::size_t>(g.v_edge(c, r));
        if (!prune || !v_blocked(e)) relax(c, r + 1, v_weight(e));
      }
      if (r - 1 >= win.r_lo) {
        const auto e = static_cast<std::size_t>(g.v_edge(c, r - 1));
        if (!prune || !v_blocked(e)) relax(c, r - 1, v_weight(e));
      }
    }
    return false;
  }

  /// Windowed A*: bound the search to the bbox of {source, target} plus a
  /// margin; if no hard-overflow-free path exists inside, double the
  /// margin, then fall back to an unpruned full-grid search (which always
  /// succeeds on a connected grid), so connectivity never depends on the
  /// window policy.
  std::vector<int> connect_astar(int source, int target, int window_margin) {
    const int margin = std::max(1, window_margin);
    const Window first = window_around(source, target, margin);
    if (search_window(source, target, first, true)) return walk_back(target);
    // A re-attempt over the identical (clamped) window would fail
    // identically; skip straight to the next escalation level.
    const Window wide = window_around(source, target, 2 * margin);
    if (wide != first) {
      ++expansions;
      if (search_window(source, target, wide, true)) return walk_back(target);
    }
    ++expansions;
    if (search_window(source, target, full_grid(), false)) {
      return walk_back(target);
    }
    return {};  // full grid, unpruned: target unreachable
  }

  /// Hard-pruned-only variant of connect_astar(): one windowed attempt,
  /// then one full-grid attempt, both refusing edges at hard capacity.
  /// Returns an empty path when no hard-clean route exists.  Because it
  /// never crosses a saturated edge it can never *create* hard overflow,
  /// which makes it safe for strict-improvement repair.
  std::vector<int> connect_pruned(int source, int target, int window_margin) {
    const Window w = window_around(source, target, std::max(1, window_margin));
    if (search_window(source, target, w, true)) return walk_back(target);
    if (w != full_grid()) {
      ++expansions;
      if (search_window(source, target, full_grid(), true)) {
        return walk_back(target);
      }
    }
    return {};
  }

 private:
  std::vector<int> walk_back(int target) const {
    std::vector<int> path;
    int n = target;
    if (stamp_of[static_cast<std::size_t>(n)] != stamp) return path;
    while (n != -1) {
      path.push_back(n);
      n = prev[static_cast<std::size_t>(n)];
    }
    return path;
  }
};

/// Apply (or remove, sign=-1) a route's usage to the grid.  Goes through
/// SideGrid::apply_use_*() so the edge-cost cache and the incremental
/// overflow totals stay consistent.
void commit(SideGrid& g, const std::vector<GEdge>& edges, double sign) {
  for (const GEdge& e : edges) {
    const int a = std::min(e.a, e.b);
    const int b = std::max(e.a, e.b);
    const int ca = g.col_of(a), ra = g.row_of(a);
    if (b == a + 1) {
      g.apply_use_h(static_cast<std::size_t>(g.h_edge(ca, ra)), sign);
    } else {
      g.apply_use_v(static_cast<std::size_t>(g.v_edge(ca, ra)), sign);
    }
  }
}

/// Re-fold a grid's running totals exactly as a freshly built grid reaches
/// them for its current usage: clear the usage, then commit every route in
/// the order `for_each_route` visits them (the order a fresh build commits
/// them in).  The totals are order-sensitive sums, so a grid whose usage
/// was reached through another sequence of rips and commits re-folds them
/// rather than keep its own.  With no edge beyond either capacity every
/// term of the fold is 0, and so is the fold.
template <class ForEachRoute>
void refold_totals(SideGrid& g, ForEachRoute&& for_each_route) {
  if (!g.over_capacity()) {
    g.soft_total = 0.0;
    g.hard_total = 0.0;
    return;
  }
  g.clear_use();
  for_each_route(
      [&](const std::vector<GEdge>& edges) { commit(g, edges, +1.0); });
}

/// A subnet to route: source + sinks on one side.
struct SubNet {
  int source = 0;
  std::vector<int> sinks;
};

int sidx(Side s) { return s == Side::Front ? 0 : 1; }

/// Every pin-access landing of instance `i`: each connected pin, once per
/// side its landing metal lives on (per-instance side: pin_side consults
/// the ECO overrides, identical to the master's side when none are set).
template <class F>
void for_each_pin_landing(const Netlist& nl, netlist::InstId i, F&& f) {
  const netlist::Instance& inst = nl.instance(i);
  if (inst.type->physical_only()) return;
  const auto pin_nets = nl.pin_nets(i);
  for (std::size_t p = 0; p < pin_nets.size(); ++p) {
    if (pin_nets[p] == netlist::kNoNet) continue;
    const geom::Point pos = inst.pos + inst.type->pins()[p].offset;
    switch (nl.pin_side({i, static_cast<int>(p)})) {
      case PinSide::Front: f(Side::Front, pos); break;
      case PinSide::Back: f(Side::Back, pos); break;
      case PinSide::Both:
        f(Side::Front, pos);
        f(Side::Back, pos);
        break;
    }
  }
}

/// The grid edges around gcell `node` that a pin landing there loads.
template <class FH, class FV>
void for_each_landing_edge(const SideGrid& g, int node, FH&& h, FV&& v) {
  const int c = g.col_of(node), r = g.row_of(node);
  if (c > 0) h(static_cast<std::size_t>(g.h_edge(c - 1, r)));
  if (c + 1 < g.cols) h(static_cast<std::size_t>(g.h_edge(c, r)));
  if (r > 0) v(static_cast<std::size_t>(g.v_edge(c, r - 1)));
  if (r + 1 < g.rows) v(static_cast<std::size_t>(g.v_edge(c, r)));
}

/// The two per-side grids of a floorplan, with their capacities and no
/// usage, and the per-side pin totals for the access-DRV check.  The
/// RouteState that owns them folds the pin-access demand into the bases.
struct GridSetup {
  std::array<SideGrid, 2> grids;
  std::array<long, 2> pin_totals{0, 0};
  int gcols = 0;
  int grows = 0;
  geom::Nm gsize = 0;
};

GridSetup build_grid_setup(const Floorplan& fp, const tech::Technology& tech,
                           const RouteOptions& options) {
  GridSetup gs;
  gs.gsize = options.gcell_tracks * tech.track_pitch();
  gs.gcols = std::max(
      1, static_cast<int>((fp.core.width() + gs.gsize - 1) / gs.gsize));
  gs.grows = std::max(
      1, static_cast<int>((fp.core.height() + gs.gsize - 1) / gs.gsize));

  for (Side s : {Side::Front, Side::Back}) {
    SideGrid& g = gs.grids[static_cast<std::size_t>(sidx(s))];
    g.cols = gs.gcols;
    g.rows = gs.grows;
    g.gw = gs.gsize;
    g.gh = gs.gsize;
    double hc = 0.0, vc = 0.0;
    for (const tech::MetalLayer* l : tech.routing_layers(s)) {
      const int tracks = static_cast<int>(gs.gsize / l->pitch);
      if (l->preferred_dir == geom::Dir::Horizontal) {
        hc += tracks;
      } else {
        vc += tracks;
      }
    }
    g.h_cap = hc * options.capacity_factor;
    g.v_cap = vc * options.capacity_factor;
    if (s == Side::Back && g.h_cap > 0.0) {
      // BSPDN shares the backside signal layers.
      g.h_cap *= (1.0 - kPdnBacksideShare);
      g.v_cap *= (1.0 - kPdnBacksideShare);
    }
    g.h_base.assign(static_cast<std::size_t>((g.cols - 1) * g.rows), 0.0);
    g.h_use = g.h_base;
    g.h_hist = g.h_base;
    g.v_base.assign(static_cast<std::size_t>(g.cols * (g.rows - 1)), 0.0);
    g.v_use = g.v_base;
    g.v_hist = g.v_base;
  }
  return gs;
}

// --- Algorithm 1: decompose nets into per-side subnets ------------------------

/// One net's per-side subnets: `out[sidx(s)]` holds the source and the
/// sinks on side s; a side without sinks (and a dangling net, which has no
/// source) is not a subnet and is left with no sinks.
void decompose_net(const Netlist& nl, NetId n, bool has_back,
                   const std::array<SideGrid, 2>& grids,
                   std::array<SubNet, 2>& out) {
  for (Side s : {Side::Front, Side::Back}) {
    out[static_cast<std::size_t>(sidx(s))] = SubNet{};
  }
  const netlist::Net& net = nl.net(n);
  // Source gcell: driving cell pin or input port.
  geom::Point src_pos;
  PinSide src_side = PinSide::Front;
  if (net.driver.inst != netlist::kNoInst) {
    src_pos = nl.pin_position(net.driver);
    src_side = nl.pin_side(net.driver);
  } else if (net.port >= 0) {
    src_pos = nl.port(net.port).pos;
    // IO pads: FFET pads land on the backside bump stack but expose
    // access on both sides (the pad via stack crosses the wafer);
    // CFET pads are frontside-only.
    src_side = has_back ? PinSide::Both : PinSide::Front;
  } else {
    return;  // dangling net
  }

  auto add_sink = [&](Side s, geom::Point p) {
    const auto sz = static_cast<std::size_t>(sidx(s));
    out[sz].sinks.push_back(grids[sz].clamp_gcell(p));
  };
  for (const PinRef& sref : net.sinks) {
    const PinSide ps = nl.pin_side(sref);
    add_sink(ps == PinSide::Back ? Side::Back : Side::Front,
             nl.pin_position(sref));
  }
  if (net.port >= 0 && !nl.port(net.port).is_input &&
      net.driver.inst != netlist::kNoInst) {
    add_sink(Side::Front, nl.port(net.port).pos);  // PO pad, frontside
  }

  for (Side s : {Side::Front, Side::Back}) {
    const auto sz = static_cast<std::size_t>(sidx(s));
    SubNet& sn = out[sz];
    if (sn.sinks.empty()) continue;
    if (s == Side::Back) {
      if (!has_back) {
        throw std::runtime_error(
            "net " + nl.net_name(n) +
            " has backside sinks but the technology has no backside "
            "routing layers (no bridging cells in this flow)");
      }
      if (src_side != PinSide::Both) {
        throw std::runtime_error(
            "net " + nl.net_name(n) +
            " has backside sinks but its source pin is frontside-only");
      }
    }
    sn.source = grids[sz].clamp_gcell(src_pos);
  }
}

/// Per-pass PathFinder history update: decay, then bump every overflowed
/// edge in proportion to its overload.
void decay_history(SideGrid& g) {
  for (std::size_t i = 0; i < g.h_use.size(); ++i) {
    g.h_hist[i] *= kHistoryDecay;
    const double o = g.h_base[i] + g.h_use[i] - g.h_cap;
    if (o > 0) g.h_hist[i] += kHistoryGain * o / g.h_cap;
  }
  for (std::size_t i = 0; i < g.v_use.size(); ++i) {
    g.v_hist[i] *= kHistoryDecay;
    const double o = g.v_base[i] + g.v_use[i] - g.v_cap;
    if (o > 0) g.v_hist[i] += kHistoryGain * o / g.v_cap;
  }
}

/// Convergence record of the negotiation loop: one RoutePassStat per
/// executed pass, search effort read as deltas of the per-side
/// routers, the result's pass/rip-up totals, and the FFET_VERBOSE
/// one-line-per-side summary.  Overflows are read from the grids, which
/// maintain them incrementally, so the pass barrier never rescans a grid.
class PassRecorder {
 public:
  PassRecorder(RouteResult& res, const std::array<PathRouter, 2>& routers)
      : res_(res),
        routers_(routers),
        settled_mark_{routers[0].settled, routers[1].settled},
        expansions_mark_{routers[0].expansions, routers[1].expansions} {}

  /// Pass 0 is the initial route (`ripped` counts the 2-pin subnets
  /// routed); every later pass is a rip-up-and-reroute round.  `regions`
  /// counts the congestion regions processed.
  void record(int pass, std::array<std::size_t, 2> ripped,
              std::array<int, 2> regions) {
    if (pass > 0) {
      res_.rrr_passes = pass;
      res_.ripups_total += static_cast<long>(ripped[0] + ripped[1]);
      res_.region_ripups_total += regions[0] + regions[1];
      FFET_METRIC_OBSERVE("route.ripups_per_pass", ripped[0] + ripped[1]);
    }
    RoutePassStat ps;
    ps.pass = pass;
    ps.ripped_front = static_cast<int>(ripped[0]);
    ps.ripped_back = static_cast<int>(ripped[1]);
    ps.overflow_front = routers_[0].g.overflow();
    ps.overflow_back = routers_[1].g.overflow();
    ps.hard_overflow =
        routers_[0].g.hard_overflow() + routers_[1].g.hard_overflow();
    ps.settled_front = routers_[0].settled - settled_mark_[0];
    ps.settled_back = routers_[1].settled - settled_mark_[1];
    ps.window_expansions_front =
        static_cast<int>(routers_[0].expansions - expansions_mark_[0]);
    ps.window_expansions_back =
        static_cast<int>(routers_[1].expansions - expansions_mark_[1]);
    ps.regions_front = regions[0];
    ps.regions_back = regions[1];
    for (int s = 0; s < 2; ++s) {
      settled_mark_[s] = routers_[s].settled;
      expansions_mark_[s] = routers_[s].expansions;
    }
    if (obs::verbose()) {
      for (int s = 0; s < 2; ++s) {
        std::printf(
            "  [route] pass=%d side=%s %s=%d regions=%d overflow_total=%.1f "
            "hard=%.1f settled=%ld expansions=%d\n",
            pass, s == 0 ? "front" : "back",
            pass == 0 ? "routed" : "ripups",
            s == 0 ? ps.ripped_front : ps.ripped_back,
            s == 0 ? ps.regions_front : ps.regions_back,
            s == 0 ? ps.overflow_front : ps.overflow_back, ps.hard_overflow,
            s == 0 ? ps.settled_front : ps.settled_back,
            s == 0 ? ps.window_expansions_front : ps.window_expansions_back);
      }
    }
    res_.pass_stats.push_back(ps);
  }

 private:
  RouteResult& res_;
  const std::array<PathRouter, 2>& routers_;
  std::array<long, 2> settled_mark_;
  std::array<long, 2> expansions_mark_;
};

// --- the negotiation loop: Steiner 2-pin subnets + congestion regions --------

/// One 2-pin subnet: a segment of its parent per-side subnet's Steiner
/// topology, routed independently of its siblings.
struct TwoPin {
  int parent = 0;  ///< position of its subnet in the routed list
  int a = 0;       ///< endpoint gcell nodes
  int b = 0;
  int len = 0;     ///< Manhattan endpoint distance (route-order key)
  /// Its parent's refcount region in the side's EdgeRefs; -1 when the
  /// parent has this one piece only.
  int ref_region = -1;
};

/// One side's edge refcounts: how many committed 2-pin paths of a parent
/// subnet cross a grid edge.  A parent with a single piece keeps no
/// counts: its one path is simple, so it crosses each edge once and every
/// commit and rip of it is a 0 -> 1 or 1 -> 0 transition.  Each
/// multi-piece parent owns one region of a flat slot arena: open
/// addressing over edge keys (e << 1) | dir with linear probing, at most
/// 3/4 full, sized from its pieces' Steiner length.  A region that would
/// pass 3/4 moves to the arena end at twice its size; its old slots are
/// left behind.  A count that falls to 0 keeps its slot (a later commit
/// revives it), so a region never deletes.
class EdgeRefs {
 public:
  static std::uint32_t key(int dir, int e) {
    return static_cast<std::uint32_t>((e << 1) | dir);
  }

  /// Reserve room for regions of `len` total Steiner length to grow about
  /// once each.  Reserved slots are not touched until used.
  void reserve(std::size_t len) { slots_.reserve(4 * len); }

  /// A new region for a parent whose pieces have Steiner length `len`;
  /// returns its id.
  int add_region(std::size_t len) {
    regions_.push_back(allocate(len + len / 3 + 1));
    return static_cast<int>(regions_.size() - 1);
  }

  /// One more path of `region`'s parent crosses `key`; true on its 0 -> 1
  /// transition.
  bool add(int region, std::uint32_t key) {
    Region& r = regions_[static_cast<std::size_t>(region)];
    if (4 * (r.used + 1) > 3 * r.cap) grow(r);
    Slot* s = find(r, key);
    if (s->key == kEmpty) {
      s->key = key;
      ++r.used;
    }
    return ++s->count == 1;
  }

  /// One path fewer of `region`'s parent crosses `key`, which add()
  /// counted; true on its 1 -> 0 transition.
  bool remove(int region, std::uint32_t key) {
    return --find(regions_[static_cast<std::size_t>(region)], key)->count ==
           0;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  struct Slot {
    std::uint32_t key;
    std::int32_t count;
  };
  struct Region {
    std::size_t first = 0;
    std::uint32_t cap = 0;
    std::uint32_t used = 0;
  };

  Region allocate(std::size_t cap) {
    Region r;
    r.first = slots_.size();
    r.cap = static_cast<std::uint32_t>(cap);
    slots_.resize(slots_.size() + cap, Slot{kEmpty, 0});
    return r;
  }

  /// `key`'s slot in `r`, or the empty slot where it would go.
  Slot* find(const Region& r, std::uint32_t key) {
    Slot* base = slots_.data() + r.first;
    std::uint32_t i = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(key * 0x9E3779B9u) * r.cap) >> 32);
    while (base[i].key != key && base[i].key != kEmpty) {
      if (++i == r.cap) i = 0;
    }
    return base + i;
  }

  /// Move `r`'s keys into a fresh region of twice its size at the arena
  /// end.
  void grow(Region& r) {
    Region bigger = allocate(2 * std::size_t{r.cap});
    for (std::size_t j = r.first; j < r.first + r.cap; ++j) {
      const Slot old = slots_[j];
      if (old.key != kEmpty) *find(bigger, old.key) = old;
    }
    bigger.used = r.used;
    r = bigger;
  }

  std::vector<Region> regions_;
  std::vector<Slot> slots_;
};

/// Per-side negotiation state: the 2-pin subnets (each parent's contiguous, in
/// subnet order), their committed paths and edge refcounts, and the
/// gcell -> passing-subnets color map that lets a congestion region collect
/// the subnets crossing it without scanning every path.  Only negotiation
/// passes read the color map, so it is empty until the first pass builds it
/// (color_paths); from then on every commit and rip keeps it current.
struct TwoPinSide {
  std::vector<TwoPin> tps;
  std::vector<std::vector<int>> paths;          ///< committed node lists
  EdgeRefs refs;
  std::vector<std::vector<int>> cell_tps;       ///< gcell -> tp ids
  std::vector<std::size_t> route_order;         ///< (len, id) ascending
};

/// (direction, edge index) of the grid edge between adjacent nodes u, v;
/// direction 0 is horizontal, 1 vertical.
std::pair<int, int> edge_key(const SideGrid& g, int u, int v) {
  const int a = std::min(u, v);
  const int b = std::max(u, v);
  const int c = g.col_of(a), r = g.row_of(a);
  if (b == a + 1) return {0, g.h_edge(c, r)};
  return {1, g.v_edge(c, r)};
}

/// True when no grid edge repeats along `path`.
[[maybe_unused]] bool crosses_each_edge_once(const SideGrid& g,
                                             const std::vector<int>& path) {
  std::vector<std::uint32_t> keys;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto [dir, e] = edge_key(g, path[i], path[i + 1]);
    keys.push_back(EdgeRefs::key(dir, e));
  }
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

/// Apply `delta` to every grid edge of `path` whose refcount in `region`
/// makes the transition `count` reports (see EdgeRefs; a single-piece
/// parent's edges all transition).
template <class Count>
void apply_path(SideGrid& g, const std::vector<int>& path, double delta,
                Count&& count) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto [dir, e] = edge_key(g, path[i], path[i + 1]);
    if (!count(EdgeRefs::key(dir, e))) continue;
    if (dir == 0) {
      g.apply_use_h(static_cast<std::size_t>(e), delta);
    } else {
      g.apply_use_v(static_cast<std::size_t>(e), delta);
    }
  }
}

/// Commit a 2-pin path: bump the parent subnet's per-edge refcounts (the
/// grid sees +1 only on a 0 -> 1 transition, so overlapping paths of one
/// net occupy one track, as in a committed route's edge set), and, once
/// the color map exists, color every gcell the path crosses with the
/// subnet id.
void commit_tp(SideGrid& g, TwoPinSide& ts, std::size_t tp_id,
               std::vector<int> path) {
  const int region = ts.tps[tp_id].ref_region;
  if (region < 0) {
    assert(crosses_each_edge_once(g, path));
    apply_path(g, path, +1.0, [](std::uint32_t) { return true; });
  } else {
    apply_path(g, path, +1.0,
               [&](std::uint32_t key) { return ts.refs.add(region, key); });
  }
  if (!ts.cell_tps.empty()) {
    for (int n : path) {
      ts.cell_tps[static_cast<std::size_t>(n)].push_back(
          static_cast<int>(tp_id));
    }
  }
  ts.paths[tp_id] = std::move(path);
}

/// Undo commit_tp: decrement refcounts (grid sees -1 only on 1 -> 0) and
/// swap-remove the subnet from the color map of every crossed gcell.
void rip_tp(SideGrid& g, TwoPinSide& ts, std::size_t tp_id) {
  std::vector<int>& path = ts.paths[tp_id];
  const int region = ts.tps[tp_id].ref_region;
  if (region < 0) {
    apply_path(g, path, -1.0, [](std::uint32_t) { return true; });
  } else {
    apply_path(g, path, -1.0, [&](std::uint32_t key) {
      return ts.refs.remove(region, key);
    });
  }
  if (!ts.cell_tps.empty()) {
    for (int n : path) {
      std::vector<int>& cell = ts.cell_tps[static_cast<std::size_t>(n)];
      for (std::size_t i = 0; i < cell.size(); ++i) {
        if (cell[i] == static_cast<int>(tp_id)) {
          cell[i] = cell.back();
          cell.pop_back();
          break;
        }
      }
    }
  }
  path.clear();
}

/// Build the color map from the committed paths.  Its one reader sorts and
/// dedups the ids it collects, so the order inside a cell is free.
void color_paths(const SideGrid& g, TwoPinSide& ts) {
  ts.cell_tps.assign(static_cast<std::size_t>(g.cols * g.rows), {});
  for (std::size_t t = 0; t < ts.paths.size(); ++t) {
    for (int n : ts.paths[t]) {
      ts.cell_tps[static_cast<std::size_t>(n)].push_back(static_cast<int>(t));
    }
  }
}

/// Record a fresh path in a region's private overlay (every crossing
/// counts; see UseOverlay).
void overlay_add(UseOverlay& ov, const SideGrid& g,
                 const std::vector<int>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto [dir, e] = edge_key(g, path[i], path[i + 1]);
    (dir == 0 ? ov.h : ov.v)[e] += 1.0;
  }
}

/// Monotonic L/Z fast path between adjacent-or-distant gcells a and b: try
/// the two L-shapes and every single-intermediate-bend Z-shape inside the
/// bounding box, and return the cheapest candidate that is *clean* — no
/// edge it crosses would exceed its soft capacity.  Monotone paths never
/// detour, every edge read is two array loads, and no search state is
/// touched, so the common uncongested subnet skips the A* heap entirely.
/// Returns an empty path when no clean monotone candidate exists (the
/// caller falls back to A*, which may detour around the congestion).
std::vector<int> monotone_fast_path(const SideGrid& g, const UseOverlay* ov,
                                    int a, int b) {
  const int ca = g.col_of(a), ra = g.row_of(a);
  const int cb = g.col_of(b), rb = g.row_of(b);
  const int dc = std::abs(ca - cb);
  const int dr = std::abs(ra - rb);

  // Cost + cleanliness of straight runs; `clean` is cleared, never set.
  auto h_run = [&](int r, int c_from, int c_to, bool& clean) {
    double cost = 0.0;
    const int lo = std::min(c_from, c_to), hi = std::max(c_from, c_to);
    for (int c = lo; c < hi; ++c) {
      const auto e = static_cast<std::size_t>(g.h_edge(c, r));
      const double d = ov == nullptr ? 0.0 : ov->h_delta(e);
      if (g.h_base[e] + g.h_use[e] + d + 1.0 > g.h_cap) clean = false;
      cost += d == 0.0 ? g.h_cost[e]
                       : edge_cost(g.h_base[e], g.h_use[e] + d, g.h_cap,
                                   g.h_hist[e]);
    }
    return cost;
  };
  auto v_run = [&](int c, int r_from, int r_to, bool& clean) {
    double cost = 0.0;
    const int lo = std::min(r_from, r_to), hi = std::max(r_from, r_to);
    for (int r = lo; r < hi; ++r) {
      const auto e = static_cast<std::size_t>(g.v_edge(c, r));
      const double d = ov == nullptr ? 0.0 : ov->v_delta(e);
      if (g.v_base[e] + g.v_use[e] + d + 1.0 > g.v_cap) clean = false;
      cost += d == 0.0 ? g.v_cost[e]
                       : edge_cost(g.v_base[e], g.v_use[e] + d, g.v_cap,
                                   g.v_hist[e]);
    }
    return cost;
  };

  double best_cost = std::numeric_limits<double>::infinity();
  int best_x = -1, best_y = -1;  // HVH bend column / VHV bend row

  // Degenerate straight segments evaluate as a single run via x == ca.
  // Full enumeration is O((dc + dr)^2); long segments (rare — Steiner
  // segments are short) check only the Ls and the centre bends.
  const bool sparse = dc + dr > 96;
  auto try_hvh = [&](int x) {
    bool clean = true;
    double cost = h_run(ra, ca, x, clean) + v_run(x, ra, rb, clean) +
                  h_run(rb, x, cb, clean);
    if (clean && cost < best_cost) {
      best_cost = cost;
      best_x = x;
      best_y = -1;
    }
  };
  auto try_vhv = [&](int y) {
    bool clean = true;
    double cost = v_run(ca, ra, y, clean) + h_run(y, ca, cb, clean) +
                  v_run(cb, y, rb, clean);
    if (clean && cost < best_cost) {
      best_cost = cost;
      best_x = -1;
      best_y = y;
    }
  };
  if (sparse) {
    try_hvh(cb);
    try_hvh(ca);
    if (dc > 1) try_hvh((ca + cb) / 2);
    if (dr > 1) try_vhv((ra + rb) / 2);
  } else {
    const int c_lo = std::min(ca, cb), c_hi = std::max(ca, cb);
    for (int x = c_lo; x <= c_hi; ++x) try_hvh(x);
    // The VHV bends at y == ra / y == rb are the L-shapes again.
    const int r_lo = std::min(ra, rb), r_hi = std::max(ra, rb);
    for (int y = r_lo + 1; y < r_hi; ++y) try_vhv(y);
  }
  if (best_x < 0 && best_y < 0) return {};

  std::vector<int> path;
  path.reserve(static_cast<std::size_t>(dc + dr) + 1);
  path.push_back(a);
  auto walk_h = [&](int& c, int r, int c_to) {
    const int step = c_to > c ? 1 : -1;
    while (c != c_to) {
      c += step;
      path.push_back(g.node(c, r));
    }
  };
  auto walk_v = [&](int c, int& r, int r_to) {
    const int step = r_to > r ? 1 : -1;
    while (r != r_to) {
      r += step;
      path.push_back(g.node(c, r));
    }
  };
  int c = ca, r = ra;
  if (best_x >= 0) {
    walk_h(c, r, best_x);
    walk_v(c, r, rb);
    walk_h(c, r, cb);
  } else {
    walk_v(c, r, best_y);
    walk_h(c, r, cb);
    walk_v(c, r, rb);
  }
  return path;
}

/// Search (do not commit) one 2-pin subnet: monotone fast path first, A*
/// fallback when every monotone candidate is congested.
std::vector<int> route_tp_search(const RouteOptions& options, SideGrid& g,
                                 PathRouter& pr, const UseOverlay* ov,
                                 const TwoPin& tp, long& fastpath) {
  std::vector<int> path = monotone_fast_path(g, ov, tp.a, tp.b);
  if (!path.empty()) {
    ++fastpath;
    return path;
  }
  // The fallback window scales with the segment: a 2-pin bbox is much
  // smaller than a whole subnet's bbox, and a margin-6 window around a
  // segment pinned inside a saturated band escalates straight to the
  // unpruned full grid — creating hard overflow a wider pruned window
  // would have detoured around.
  pr.overlay = ov;
  path = pr.connect_astar(tp.a, tp.b, std::max(options.window_margin, tp.len));
  pr.overlay = nullptr;
  return path;
}

/// Per-side scratch of the negotiation passes, sized to the grid once at
/// the first pass, not per pass: the gcells at the ends of the pass's
/// overflowed edges, their flags (cleared again at the end of the pass),
/// and the region id of every gcell inside a region box.  A pass reads
/// region ids only at its own hot gcells, each inside a box the pass has
/// just written, so ids left from earlier passes are never read.
struct PassScratch {
  std::vector<int> hot;
  std::vector<char> is_hot;
  std::vector<int> region_of;
};

/// Subnets per task of route_astar2's parallel Steiner decomposition and
/// edge emit.
constexpr std::size_t kSubnetBlock = 256;

/// What a negotiation left on the grids besides the routes' usage.
struct NegotiationEnd {
  bool history_written = false;  ///< a pass updated the history
  bool restored = false;         ///< the best pass's paths were put back
};

/// The negotiation loop: Steiner-decompose the subnets listed in `listed`
/// (ascending slots 2 * net + side of `sources` and `sinks`; the slot's
/// parity is its side) into 2-pin subnets, route them
/// short-first (fast path, then A*), then negotiate by congestion region —
/// cluster the overflowed gcells, rip only the listed subnets crossing
/// each region, search region reroutes in parallel against a frozen
/// snapshot (private overlays), and commit serially in region order.
/// Every unlisted subnet's usage must already be on the grids, where it
/// stays as fixed usage (RouteState's carried routes; with nothing carried,
/// as in route_design, every subnet is listed on empty grids).  Serial and
/// threaded runs execute the same searches against the same frozen state,
/// so results are bit-identical at any thread count.  Fills route_edges of
/// the listed subnets (per subnet, deduplicated) and the res counters; the
/// caller assigns layers and accounts.
NegotiationEnd route_astar2(RouteResult& res, const RouteOptions& options,
                            const std::vector<int>& sources,
                            const std::vector<std::vector<int>>& sinks,
                            const std::vector<std::size_t>& listed,
                            std::array<SideGrid, 2>& grids,
                            std::array<PathRouter, 2>& routers,
                            std::vector<std::vector<GEdge>>& route_edges) {
  // --- decompose over Steiner topologies -----------------------------------
  // Blocks of listed subnets build their trees in parallel, each into its
  // own slot; the serial append keeps list order, so each side's tps, and
  // every parent's contiguous span of them, are those of a serial run.
  const std::size_t n_blocks =
      (listed.size() + kSubnetBlock - 1) / kSubnetBlock;
  std::vector<std::vector<TwoPin>> block_tps(n_blocks);
  runtime::parallel_for(
      n_blocks,
      [&](std::size_t b) {
        std::vector<int> term_nodes;
        std::vector<SteinerPoint> terms;
        const std::size_t end =
            std::min(listed.size(), (b + 1) * kSubnetBlock);
        for (std::size_t k = b * kSubnetBlock; k < end; ++k) {
          const std::size_t slot = listed[k];
          const SideGrid& g = grids[slot % 2];
          term_nodes.clear();
          terms.clear();
          auto add_term = [&](int n) {
            for (int m : term_nodes) {
              if (m == n) return;
            }
            term_nodes.push_back(n);
            terms.push_back({g.col_of(n), g.row_of(n)});
          };
          add_term(sources[slot]);
          for (int s : sinks[slot]) add_term(s);
          if (terms.size() < 2) continue;  // all terminals share one gcell
          const SteinerTree tree = build_steiner_tree(terms);
          for (const SteinerSeg& seg : tree.segs) {
            const SteinerPoint& pa =
                tree.points[static_cast<std::size_t>(seg.a)];
            const SteinerPoint& pb =
                tree.points[static_cast<std::size_t>(seg.b)];
            if (pa == pb) continue;
            TwoPin tp;
            tp.parent = static_cast<int>(k);
            tp.a = g.node(pa.c, pa.r);
            tp.b = g.node(pb.c, pb.r);
            tp.len = std::abs(pa.c - pb.c) + std::abs(pa.r - pb.r);
            block_tps[b].push_back(tp);
          }
        }
      },
      options.threads);
  std::array<TwoPinSide, 2> sides;
  // Each listed subnet's [first, end) span of its side's tps.
  std::vector<std::pair<std::size_t, std::size_t>> spans(listed.size());
  for (const std::vector<TwoPin>& block : block_tps) {
    for (const TwoPin& tp : block) {
      const auto p = static_cast<std::size_t>(tp.parent);
      TwoPinSide& ts =
          sides[listed[p] % 2];
      if (spans[p].second == 0) spans[p].first = ts.tps.size();
      ts.tps.push_back(tp);
      spans[p].second = ts.tps.size();
    }
  }
  block_tps = {};
  // A refcount region for every parent of more than one piece, sized from
  // its pieces' Steiner length.
  for (TwoPinSide& ts : sides) {
    std::size_t total_len = 0;
    for (const TwoPin& tp : ts.tps) {
      total_len += static_cast<std::size_t>(tp.len);
    }
    ts.refs.reserve(total_len);
  }
  for (std::size_t p = 0; p < listed.size(); ++p) {
    if (spans[p].second - spans[p].first < 2) continue;
    TwoPinSide& ts =
        sides[listed[p] % 2];
    std::size_t len = 0;
    for (std::size_t t = spans[p].first; t < spans[p].second; ++t) {
      len += static_cast<std::size_t>(ts.tps[t].len);
    }
    const int region = ts.refs.add_region(len);
    for (std::size_t t = spans[p].first; t < spans[p].second; ++t) {
      ts.tps[t].ref_region = region;
    }
  }
  for (TwoPinSide& ts : sides) {
    ts.paths.assign(ts.tps.size(), {});
    ts.route_order.resize(ts.tps.size());
    std::iota(ts.route_order.begin(), ts.route_order.end(), std::size_t{0});
    std::sort(ts.route_order.begin(), ts.route_order.end(),
              [&](std::size_t x, std::size_t y) {
                if (ts.tps[x].len != ts.tps[y].len) {
                  return ts.tps[x].len < ts.tps[y].len;
                }
                return x < y;
              });
    res.steiner_subnets += static_cast<long>(ts.tps.size());
  }

  // --- initial route: short 2-pin subnets first ----------------------------
  std::array<long, 2> fastpath{0, 0};
  // Created *before* the initial route so the pass-0 record shows its real
  // settled/expansion counts.
  PassRecorder recorder(res, routers);
  auto route_side_initial = [&](int s) {
    FFET_TRACE_SCOPE("route.initial.", s == 0 ? "front" : "back");
    const auto sz = static_cast<std::size_t>(s);
    for (std::size_t t : sides[sz].route_order) {
      std::vector<int> path =
          route_tp_search(options, grids[sz], routers[sz], nullptr,
                          sides[sz].tps[t], fastpath[sz]);
      commit_tp(grids[sz], sides[sz], t, std::move(path));
    }
  };
  runtime::parallel_invoke(options.threads, [&] { route_side_initial(0); },
                           [&] { route_side_initial(1); });

  // --- hard-overflow repair -------------------------------------------------
  // The Steiner topology is fixed before congestion is known, so some
  // subnets end up pinned across hard-saturated edges that a
  // congestion-aware tree growth would have skirted.  Repair one subnet
  // at a time: rip a crossing subnet and retry with hard-pruned search
  // only (fast path, window, full grid — never unpruned), keeping the new
  // path only when the side's hard overflow strictly drops and reverting
  // otherwise.  Serial, id-ordered, and run at pass barriers on the
  // (deterministic) negotiated state: bit-identical at any thread count,
  // and monotone — hard overflow can only decrease.  Running it right
  // after the initial route pulls hard overflow down to (near) its
  // structural floor before any negotiation pass is paid for.
  auto crosses_hard = [](const SideGrid& g, const std::vector<int>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto [dir, e] = edge_key(g, path[i], path[i + 1]);
      const auto ei = static_cast<std::size_t>(e);
      if (dir == 0) {
        if (g.h_base[ei] + g.h_use[ei] > g.h_cap_hard) return true;
      } else {
        if (g.v_base[ei] + g.v_use[ei] > g.v_cap_hard) return true;
      }
    }
    return false;
  };
  // A subnet whose repair failed is only retried once the side's hard
  // overflow has strictly improved since the failure — without this the
  // structurally-pinned residue re-pays two pruned searches (one of them
  // full-grid) every pass barrier for the same negative answer.
  std::array<std::vector<double>, 2> repair_fail_at{
      std::vector<double>(sides[0].tps.size(),
                          std::numeric_limits<double>::infinity()),
      std::vector<double>(sides[1].tps.size(),
                          std::numeric_limits<double>::infinity())};
  auto repair_hard = [&](int s) {
    const auto sz = static_cast<std::size_t>(s);
    SideGrid& g = grids[sz];
    TwoPinSide& ts = sides[sz];
    PathRouter& pr = routers[sz];
    for (int round = 0; round < 6 && g.hard_overflow() > 0.0; ++round) {
      bool improved = false;
      for (std::size_t t = 0; t < ts.tps.size(); ++t) {
        if (ts.paths[t].empty() || !crosses_hard(g, ts.paths[t])) continue;
        if (g.hard_overflow() >= repair_fail_at[sz][t]) continue;
        std::vector<int> old_path = ts.paths[t];
        const double before = g.hard_overflow();
        rip_tp(g, ts, t);
        std::vector<int> repl =
            monotone_fast_path(g, nullptr, ts.tps[t].a, ts.tps[t].b);
        if (repl.empty()) {
          repl = pr.connect_pruned(
              ts.tps[t].a, ts.tps[t].b,
              std::max(options.window_margin, ts.tps[t].len));
        }
        bool accepted = false;
        if (!repl.empty()) {
          commit_tp(g, ts, t, std::move(repl));
          if (g.hard_overflow() < before) {
            accepted = true;
          } else {
            rip_tp(g, ts, t);
          }
        }
        if (accepted) {
          improved = true;
          ++res.ripups_total;
        } else {
          commit_tp(g, ts, t, std::move(old_path));
          repair_fail_at[sz][t] = g.hard_overflow();
        }
      }
      if (!improved) break;
    }
  };
  repair_hard(0);
  repair_hard(1);

  // --- region-negotiated rip-up-and-reroute --------------------------------
  auto total_hard = [&] {
    return grids[0].hard_overflow() + grids[1].hard_overflow();
  };
  // The structural hard floor: pin base demand alone already past the hard
  // capacity.  No rip-up or reroute can get below it, so negotiating
  // toward zero when the floor is positive only burns stale passes against
  // an unreachable target — the loop gates on the floor instead.
  double hard_floor = 0.0;
  for (const SideGrid& g : grids) {
    for (std::size_t e = 0; e < g.h_base.size(); ++e) {
      hard_floor += std::max(0.0, g.h_base[e] - g.h_cap_hard);
    }
    for (std::size_t e = 0; e < g.v_base.size(); ++e) {
      hard_floor += std::max(0.0, g.v_base[e] - g.v_cap_hard);
    }
  }
  // The best solution's paths, snapshotted when a pass is about to change
  // the current one (the current solution is the best until then).
  std::array<std::vector<std::vector<int>>, 2> best_paths;
  bool current_is_best = true;
  double best_hard = total_hard();
  double best_soft = grids[0].overflow() + grids[1].overflow();
  int stale_passes = 0;
  recorder.record(0, {sides[0].tps.size(), sides[1].tps.size()}, {0, 0});

  std::array<std::size_t, 2> ripped_counts{0, 0};
  std::array<int, 2> region_counts{0, 0};
  std::array<PassScratch, 2> scratch;
  auto pass_side = [&](int s, int pass) {
    FFET_TRACE_SCOPE("route.pass.", pass, s == 0 ? ".front" : ".back");
    const auto sz = static_cast<std::size_t>(s);
    SideGrid& g = grids[sz];
    TwoPinSide& ts = sides[sz];
    PassScratch& ps = scratch[sz];
    if (pass == 1) {
      color_paths(g, ts);
      ps.is_hot.assign(static_cast<std::size_t>(g.cols * g.rows), 0);
      ps.region_of.assign(static_cast<std::size_t>(g.cols * g.rows), 0);
    }
    decay_history(g);
    g.rebuild_costs();

    // Overflowed gcells = endpoints of every *rippable* soft-overflowed
    // edge: wire usage must contribute (use > 0).  An edge whose pin base
    // demand alone exceeds the capacity is structural — no rip-up can fix
    // it, and seeding regions from it merges the whole die into one giant
    // region that churns every pass for nothing.
    std::vector<int>& hot = ps.hot;
    hot.clear();
    for (int r = 0; r < g.rows; ++r) {
      for (int c = 0; c + 1 < g.cols; ++c) {
        const auto e = static_cast<std::size_t>(g.h_edge(c, r));
        if (g.h_use[e] > 0.0 && g.h_base[e] + g.h_use[e] > g.h_cap) {
          hot.push_back(g.node(c, r));
          hot.push_back(g.node(c + 1, r));
        }
      }
    }
    for (int r = 0; r + 1 < g.rows; ++r) {
      for (int c = 0; c < g.cols; ++c) {
        const auto e = static_cast<std::size_t>(g.v_edge(c, r));
        if (g.v_use[e] > 0.0 && g.v_base[e] + g.v_use[e] > g.v_cap) {
          hot.push_back(g.node(c, r));
          hot.push_back(g.node(c, r + 1));
        }
      }
    }
    const std::vector<CongestionRegion> regions = cluster_congestion_regions(
        hot, g.cols, g.rows, options.region_merge_dist, options.region_margin);
    region_counts[sz] = static_cast<int>(regions.size());
    if (regions.empty()) {
      ripped_counts[sz] = 0;
      return;
    }
    for (int n : hot) ps.is_hot[static_cast<std::size_t>(n)] = 1;

    // Claim the rip set.  The color map narrows candidates to subnets
    // touching a hot gcell; the rip criterion is then the exact PathFinder
    // one — the path crosses an *overflowed edge* (the margin-expanded
    // region box defines batch grouping and reroute context, NOT the rip
    // set, else a busy region would churn every subnet that merely
    // transits it).  Each ripped subnet joins the region of the first hot
    // gcell along its path; hot gcells seeded the clustering, so that
    // region always exists, and the assignment is deterministic.
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      const CongestionRegion& reg = regions[ri];
      for (int r = reg.r_lo; r <= reg.r_hi; ++r) {
        for (int c = reg.c_lo; c <= reg.c_hi; ++c) {
          ps.region_of[static_cast<std::size_t>(g.node(c, r))] =
              static_cast<int>(ri);
        }
      }
    }
    std::vector<int> cand_ids;
    for (int n : hot) {
      const auto& cell = ts.cell_tps[static_cast<std::size_t>(n)];
      cand_ids.insert(cand_ids.end(), cell.begin(), cell.end());
    }
    std::sort(cand_ids.begin(), cand_ids.end());
    cand_ids.erase(std::unique(cand_ids.begin(), cand_ids.end()),
                   cand_ids.end());
    std::vector<std::vector<std::size_t>> region_tps(regions.size());
    for (int t : cand_ids) {
      const std::vector<int>& path = ts.paths[static_cast<std::size_t>(t)];
      bool crosses = false;
      for (std::size_t i = 0; i + 1 < path.size() && !crosses; ++i) {
        const auto [dir, e] = edge_key(g, path[i], path[i + 1]);
        const auto ei = static_cast<std::size_t>(e);
        crosses = dir == 0 ? g.h_use[ei] > 0.0 &&
                                 g.h_base[ei] + g.h_use[ei] > g.h_cap
                           : g.v_use[ei] > 0.0 &&
                                 g.v_base[ei] + g.v_use[ei] > g.v_cap;
      }
      if (!crosses) continue;
      for (int n : path) {
        if (ps.is_hot[static_cast<std::size_t>(n)]) {
          region_tps[static_cast<std::size_t>(
                         ps.region_of[static_cast<std::size_t>(n)])]
              .push_back(static_cast<std::size_t>(t));
          break;
        }
      }
    }
    for (int n : hot) ps.is_hot[static_cast<std::size_t>(n)] = 0;
    for (auto& rtps : region_tps) {
      std::sort(rtps.begin(), rtps.end(),
                [&](std::size_t x, std::size_t y) {
                  if (ts.tps[x].len != ts.tps[y].len) {
                    return ts.tps[x].len < ts.tps[y].len;
                  }
                  return x < y;
                });
    }

    // Rip every claimed subnet, then freeze the grid: the snapshot phase
    // below only reads it.
    std::size_t n_ripped = 0;
    for (const auto& rtps : region_tps) {
      n_ripped += rtps.size();
      for (std::size_t t : rtps) rip_tp(g, ts, t);
    }

    // Snapshot search, batched across the pool: each region prices its own
    // fresh paths through a private overlay; disjoint regions never see
    // each other, so any schedule computes the same candidates.
    std::vector<std::vector<std::vector<int>>> cand(regions.size());
    std::vector<long> r_settled(regions.size(), 0);
    std::vector<long> r_expansions(regions.size(), 0);
    std::vector<long> r_fastpath(regions.size(), 0);
    runtime::parallel_for(
        regions.size(),
        [&](std::size_t ri) {
          UseOverlay ov;
          PathRouter rpr(g);
          cand[ri].resize(region_tps[ri].size());
          long fast = 0;
          for (std::size_t k = 0; k < region_tps[ri].size(); ++k) {
            std::vector<int> p = route_tp_search(
                options, g, rpr, &ov, ts.tps[region_tps[ri][k]], fast);
            overlay_add(ov, g, p);
            cand[ri][k] = std::move(p);
          }
          r_settled[ri] = rpr.settled;
          r_expansions[ri] = rpr.expansions;
          r_fastpath[ri] = fast;
        },
        options.threads);

    // Commit barrier: serial, in canonical region order.
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      for (std::size_t k = 0; k < region_tps[ri].size(); ++k) {
        commit_tp(g, ts, region_tps[ri][k], std::move(cand[ri][k]));
      }
      routers[sz].settled += r_settled[ri];
      routers[sz].expansions += r_expansions[ri];
      fastpath[sz] += r_fastpath[ri];
    }
    ripped_counts[sz] = n_ripped;
  };

  NegotiationEnd end;
  for (int pass = 1; pass < options.rrr_passes &&
                     best_hard > hard_floor + 1e-9 && stale_passes < 6;
       ++pass) {
    end.history_written = true;
    if (pass == 1) best_paths = {sides[0].paths, sides[1].paths};
    runtime::parallel_invoke(options.threads, [&] { pass_side(0, pass); },
                             [&] { pass_side(1, pass); });
    if (ripped_counts[0] + ripped_counts[1] == 0) break;
    // Repair at the pass barrier: the pass's history update and region
    // reroutes shift soft congestion, which can open hard-clean detours
    // that were blocked a pass earlier.
    repair_hard(0);
    repair_hard(1);
    recorder.record(pass, ripped_counts, region_counts);

    const double hard = total_hard();
    const double soft = grids[0].overflow() + grids[1].overflow();
    if (hard < best_hard || (hard == best_hard && soft < best_soft)) {
      best_hard = hard;
      best_soft = soft;
      best_paths = {sides[0].paths, sides[1].paths};
      current_is_best = true;
      stale_passes = 0;
    } else {
      current_is_best = false;
      ++stale_passes;
    }
  }

  // Restore the best solution (usage arrays included, for diagnostics):
  // rip every listed path, then recommit the snapshot's.  The refcount
  // union is order-independent, so recommitting in id order reproduces the
  // exact usage of the snapshot; the unlisted usage is never touched.  The
  // running totals are rescanned between the two, so with nothing carried
  // they are the base-only fold of a fresh grid followed by the id-order
  // commit.  Nothing reads the color map after the passes, so it is
  // dropped first (rips and the recommit then skip it).
  if (!current_is_best) {
    end.restored = true;
    for (std::size_t sz = 0; sz < 2; ++sz) {
      sides[sz].cell_tps.clear();
      for (std::size_t t = 0; t < sides[sz].tps.size(); ++t) {
        rip_tp(grids[sz], sides[sz], t);
      }
      grids[sz].rescan_overflow();
      for (std::size_t t = 0; t < sides[sz].tps.size(); ++t) {
        commit_tp(grids[sz], sides[sz], t, std::move(best_paths[sz][t]));
      }
    }
  }

  // Emit each listed subnet's deduplicated edge set, sorted by edge key
  // for a stable order.  A parent's refcount is positive exactly on the
  // edges its committed paths cross, so gathering the keys of its own
  // contiguous span of paths yields that set without reading the table.
  runtime::parallel_for(
      n_blocks,
      [&](std::size_t b) {
        std::vector<int> keys;
        const std::size_t last =
            std::min(listed.size(), (b + 1) * kSubnetBlock);
        for (std::size_t k = b * kSubnetBlock; k < last; ++k) {
          const std::size_t si = listed[k];
          const std::size_t sz = si % 2;
          const SideGrid& g = grids[sz];
          keys.clear();
          for (std::size_t t = spans[k].first; t < spans[k].second; ++t) {
            const std::vector<int>& path = sides[sz].paths[t];
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
              const auto [dir, e] = edge_key(g, path[i], path[i + 1]);
              keys.push_back((e << 1) | dir);
            }
          }
          std::sort(keys.begin(), keys.end());
          keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
          std::vector<GEdge>& out = route_edges[si];
          out.clear();
          out.reserve(keys.size());
          for (int key : keys) {
            const int dir = key & 1;
            const int e = key >> 1;
            if (dir == 0) {
              const int a = g.node(e % (g.cols - 1), e / (g.cols - 1));
              out.push_back({a, a + 1});
            } else {
              const int a = g.node(e % g.cols, e / g.cols);
              out.push_back({a, a + g.cols});
            }
          }
        }
      },
      options.threads);
  res.fastpath_routes = fastpath[0] + fastpath[1];
  return end;
}

// --- results: wirelength, layer assignment, overflow + DRV accounting ---------

/// Each side's routing-layer indices per preferred direction, ascending:
/// the ladders the wirelength-quantile layer assignment climbs.
struct LayerLadders {
  std::array<std::vector<int>, 2> h;
  std::array<std::vector<int>, 2> v;

  explicit LayerLadders(const tech::Technology& tech) {
    for (Side s : {Side::Front, Side::Back}) {
      const auto sz = static_cast<std::size_t>(sidx(s));
      for (const tech::MetalLayer* l : tech.routing_layers(s)) {
        (l->preferred_dir == geom::Dir::Horizontal ? h[sz] : v[sz])
            .push_back(l->index);
      }
    }
  }
};

/// The layer of a subnet whose length rank among all `n` subnets (both
/// sides) is `rank`: longer nets ride higher layers.
int pick_layer(const std::vector<int>& ladder, std::size_t rank,
               std::size_t n) {
  if (ladder.empty()) return 0;
  const double quantile =
      n > 1 ? static_cast<double>(rank) / static_cast<double>(n - 1) : 0.0;
  const auto k = static_cast<std::size_t>(
      quantile * 0.999 * static_cast<double>(ladder.size()));
  return ladder[k];
}

/// A routed subnet's wirelength: its gcell edges plus the local pin hookup.
double route_wirelength_um(std::size_t num_edges, double gsize_um) {
  return static_cast<double>(num_edges) * gsize_um + 0.2;
}

void set_geometry(RouteResult& res, const GridSetup& gs) {
  res.gcell_w = gs.gsize;
  res.gcell_h = gs.gsize;
  res.gcols = gs.gcols;
  res.grows = gs.grows;
}

}  // namespace

// --- RouteState: the one routing driver --------------------------------------

struct RouteState::Impl {
  /// A connected pin's landing gcell on one side (see for_each_pin_landing).
  struct Landing {
    int node = 0;
    Side side = Side::Front;
  };
  /// A slot as it stood before the last reroute first touched it (its
  /// subnet is logged in subnet_log, and only when the reroute replaces
  /// it).  Packed: the first reroute of route_design logs every slot.
  struct SlotLog {
    std::vector<GEdge> edges;
    std::uint32_t slot : 31;
    std::uint32_t present : 1;
    std::array<std::int16_t, 2> layers;
  };
  /// A subnet the last reroute replaced.
  struct SubnetLog {
    std::size_t slot = 0;
    SubNet subnet;
  };
  /// An instance's landing span before the last reroute replaced it.
  struct InstLog {
    netlist::InstId inst = 0;
    std::pair<std::uint32_t, std::uint32_t> span;
  };

  RouteOptions options;
  bool has_back;
  double pin_budget;
  double gsize_um;
  GridSetup gs;
  std::array<PathRouter, 2> routers;
  LayerLadders ladders;
  /// Landings per edge: the base is pin_sum(count), the value adding the
  /// per-landing share one landing at a time reaches, in any order.
  geom::RepeatedSum pin_sum;
  std::array<std::vector<int>, 2> h_pins, v_pins;

  // Subnet slots, indexed 2 * net + side: the index is the subnet's net
  // and side, so only its source and sinks are stored.
  std::vector<int> sources;
  std::vector<std::vector<int>> sinks;
  std::vector<std::vector<GEdge>> edges;  ///< committed route per slot
  std::vector<std::array<int, 2>> layers;  ///< (h, v) layer index per slot
  std::vector<char> present;  ///< the slot is a subnet of the current design
  std::vector<std::size_t> pending;  ///< present slots with no route yet

  // Pin landings, one span of the flat array per instance.
  std::vector<Landing> landings;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inst_landings;

  RouteResult res;  ///< the current result without its routes

  // The last reroute: what it changed, and how to put it back.
  int epoch = 0;
  std::vector<int> slot_epoch;   ///< the reroute that last logged a slot
  std::vector<int> queued_epoch;  ///< the reroute that queued a slot
  std::vector<int> dirty_epoch;  ///< per net: listed dirty this reroute
  std::vector<SlotLog> slot_log;
  std::vector<SubnetLog> subnet_log;
  std::vector<InstLog> inst_log;
  bool can_undo = false;
  std::size_t undo_slots = 0;
  std::size_t undo_insts = 0;
  std::size_t undo_landings = 0;
  std::vector<std::size_t> undo_pending;
  RouteResult undo_res;
  std::array<double, 2> undo_soft{0.0, 0.0};
  std::array<double, 2> undo_hard{0.0, 0.0};

  Impl(const Netlist& nl, const Floorplan& fp, const RouteOptions& opts)
      : options(opts),
        has_back(nl.library().tech().num_routing_layers(Side::Back) > 0),
        pin_budget(opts.pin_access_limit_per_um2 * fp.core.area_um2()),
        gs(build_grid_setup(fp, nl.library().tech(), opts)),
        routers{PathRouter(gs.grids[0]), PathRouter(gs.grids[1])},
        ladders(nl.library().tech()),
        pin_sum(opts.pin_access_demand / 2.0) {
    gsize_um = geom::to_um(gs.gsize);
    // Pin-access demand: every pin consumes a share of the routing
    // resources around its gcell on the side(s) where its landing metal
    // lives.  This is where FFET FM12's "higher pin density ... due to
    // FFET's smaller cell area" (Fig. 8c) penalty enters, and what
    // dual-sided pin redistribution relieves.
    inst_landings.resize(static_cast<std::size_t>(nl.num_instances()));
    for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
      collect_landings(nl, i);
    }
    for (std::size_t s = 0; s < 2; ++s) {
      h_pins[s].assign(gs.grids[s].h_base.size(), 0);
      v_pins[s].assign(gs.grids[s].v_base.size(), 0);
    }
    for (const Landing& l : landings) {
      const auto sz = static_cast<std::size_t>(sidx(l.side));
      ++gs.pin_totals[sz];
      if (!gs.grids[sz].wired()) continue;  // no layers: no wiring
      for_each_landing_edge(
          gs.grids[sz], l.node, [&](std::size_t e) { ++h_pins[sz][e]; },
          [&](std::size_t e) { ++v_pins[sz][e]; });
    }
    // Bases are final: derive hard capacities, the edge-cost cache and the
    // running overflow totals.
    for (std::size_t s = 0; s < 2; ++s) {
      SideGrid& g = gs.grids[s];
      for (std::size_t e = 0; e < g.h_base.size(); ++e) {
        g.h_base[e] = pin_sum(h_pins[s][e]);
      }
      for (std::size_t e = 0; e < g.v_base.size(); ++e) {
        g.v_base[e] = pin_sum(v_pins[s][e]);
      }
      g.finalize(options.dr_slack);
    }
  }

  SideGrid& grid_of(std::size_t slot) { return gs.grids[slot % 2]; }

  void resize_slots(std::size_t n) {
    sources.resize(n, 0);
    sinks.resize(n);
    edges.resize(n);
    layers.resize(n, {0, 0});
    present.resize(n, 0);
    slot_epoch.resize(n, -1);
    queued_epoch.resize(n, -1);
  }

  /// Add (+1) or remove (-1) one landing: the side's pin total and, on a
  /// wired side, the landing count, base and cached cost of each edge
  /// around it.
  void land(const Landing& l, int sign) {
    const auto sz = static_cast<std::size_t>(sidx(l.side));
    gs.pin_totals[sz] += sign;
    SideGrid& g = gs.grids[sz];
    if (!g.wired()) return;
    for_each_landing_edge(
        g, l.node,
        [&](std::size_t e) {
          g.h_base[e] = pin_sum(h_pins[sz][e] += sign);
          g.h_cost[e] =
              edge_cost(g.h_base[e], g.h_use[e], g.h_cap, g.h_hist[e]);
        },
        [&](std::size_t e) {
          g.v_base[e] = pin_sum(v_pins[sz][e] += sign);
          g.v_cost[e] =
              edge_cost(g.v_base[e], g.v_use[e], g.v_cap, g.v_hist[e]);
        });
  }

  /// Append instance `i`'s current landings as its span.
  void collect_landings(const Netlist& nl, netlist::InstId i) {
    const auto first = static_cast<std::uint32_t>(landings.size());
    for_each_pin_landing(nl, i, [&](Side s, geom::Point pos) {
      landings.push_back(
          {gs.grids[static_cast<std::size_t>(sidx(s))].clamp_gcell(pos), s});
    });
    inst_landings[static_cast<std::size_t>(i)] = {
        first, static_cast<std::uint32_t>(landings.size()) - first};
  }
  void land_span(std::pair<std::uint32_t, std::uint32_t> span, int sign) {
    for (std::uint32_t k = 0; k < span.second; ++k) {
      land(landings[span.first + k], sign);
    }
  }

  /// Log `slot` (once per reroute) and rip its committed route.
  void take(std::size_t slot) {
    if (slot_epoch[slot] == epoch) return;
    slot_epoch[slot] = epoch;
    commit(grid_of(slot), edges[slot], -1.0);
    assert(slot < (std::size_t{1} << 31));
    slot_log.push_back({std::move(edges[slot]),
                        static_cast<std::uint32_t>(slot),
                        static_cast<std::uint32_t>(present[slot]),
                        {static_cast<std::int16_t>(layers[slot][0]),
                         static_cast<std::int16_t>(layers[slot][1])}});
    edges[slot].clear();
  }

  /// Re-fold both grids' running totals over the committed routes in slot
  /// order — a fresh build's commit order.
  void refold() {
    for (std::size_t s = 0; s < 2; ++s) {
      refold_totals(gs.grids[s], [&](auto&& commit_route) {
        for (std::size_t slot = s; slot < edges.size(); slot += 2) {
          if (present[slot]) commit_route(edges[slot]);
        }
      });
    }
  }

  /// Layer pairs for the slots this reroute queued, by wirelength quantile
  /// (longer routes ride higher layers): the rank of each among all present
  /// subnets ordered by edge count, then slot (that is, net, then side),
  /// counted over the slots in two passes instead of sorted.
  void assign_layers() {
    // below[len]: present slots with fewer edges than len (after the
    // prefix sum), then advanced past each slot of length len in turn.
    std::vector<std::size_t> below;
    std::size_t n = 0;
    for (std::size_t q = 0; q < present.size(); ++q) {
      if (!present[q]) continue;
      ++n;
      const std::size_t len = edges[q].size();
      if (len + 1 >= below.size()) below.resize(len + 2, 0);
      ++below[len + 1];
    }
    std::partial_sum(below.begin(), below.end(), below.begin());
    for (std::size_t q = 0; q < present.size(); ++q) {
      if (!present[q]) continue;
      const std::size_t rank = below[edges[q].size()]++;
      if (queued_epoch[q] != epoch) continue;  // carried: layers kept
      const std::size_t sz = q % 2;
      layers[q] = {pick_layer(ladders.h[sz], rank, n),
                   pick_layer(ladders.v[sz], rank, n)};
    }
  }

  /// Fill `out` around the counters the negotiation left in it: the grid
  /// geometry, the wirelength totals (folded over the routes in slot
  /// order), overflow, the DRV verdict and the diagnostics.
  void account(RouteResult& out) {
    set_geometry(out, gs);
    for (std::size_t slot = 0; slot < present.size(); ++slot) {
      if (!present[slot]) continue;
      const double wl = route_wirelength_um(edges[slot].size(), gsize_um);
      if (slot % 2 == 0) {
        out.wirelength_front_um += wl;
        ++out.nets_front;
      } else {
        out.wirelength_back_um += wl;
        ++out.nets_back;
      }
    }

    double overflow = 0.0;
    double hard_overflow = 0.0;
    for (const SideGrid& g : gs.grids) {
      overflow += g.overflow();
      hard_overflow += g.hard_overflow();
      out.capacity_units += g.h_cap * static_cast<double>(g.h_use.size()) +
                            g.v_cap * static_cast<double>(g.v_use.size());
      for (double u : g.h_use) out.wire_demand_units += u;
      for (double u : g.v_use) out.wire_demand_units += u;
      for (double u : g.h_base) out.pin_demand_units += u;
      for (double u : g.v_base) out.pin_demand_units += u;
    }
    out.overflow_total = static_cast<int>(std::round(overflow));
    out.drv_wire = static_cast<int>(std::round(hard_overflow));
    out.settled_nodes = routers[0].settled + routers[1].settled;
    out.window_expansions = routers[0].expansions + routers[1].expansions;

    // Pin-access DRVs: when a side's pin density exceeds what the detailed
    // router can hook up, every pin beyond the budget becomes an access
    // violation.  Density is evaluated block-wide per side — the sharp,
    // deterministic version of the paper's pin-density routability limit.
    double pin_drv = 0.0;
    for (std::size_t s = 0; s < 2; ++s) {
      // A side without routing layers carries no signal hookup (its pin
      // landings are unused metal), so it cannot produce access violations.
      if (!gs.grids[s].wired()) continue;
      pin_drv += std::max(
          0.0, static_cast<double>(gs.pin_totals[s]) - pin_budget);
    }
    out.drv_pin_access = static_cast<int>(std::round(pin_drv));

    out.drv_estimate = out.drv_wire + out.drv_pin_access;
    out.valid = out.drv_estimate < 10;  // the paper's validity rule

    FFET_METRIC_ADD("route.ripups", out.ripups_total);
    FFET_METRIC_ADD("route.region_ripups", out.region_ripups_total);
    FFET_METRIC_ADD("route.steiner_subnets", out.steiner_subnets);
    FFET_METRIC_ADD("route.fastpath_routes", out.fastpath_routes);
    FFET_METRIC_ADD("route.drv.wire", out.drv_wire);
    FFET_METRIC_ADD("route.drv.pin_access", out.drv_pin_access);
    FFET_METRIC_ADD("route.settled_nodes", out.settled_nodes);
    FFET_METRIC_ADD("route.window_expansions", out.window_expansions);
    FFET_METRIC_OBSERVE("route.rrr_passes", out.rrr_passes);
    FFET_METRIC_OBSERVE("route.overflow", overflow);
  }

  /// The summary plus one NetRoute per present slot, in slot order.  With
  /// `move_out` the summary and every edge and sink list are moved out of
  /// the state instead of copied.
  RouteResult emit(bool move_out) {
    RouteResult out = move_out ? std::move(res) : res;
    out.routes.reserve(
        static_cast<std::size_t>(out.nets_front + out.nets_back));
    for (std::size_t slot = 0; slot < present.size(); ++slot) {
      if (!present[slot]) continue;
      NetRoute nr;
      nr.net = static_cast<NetId>(slot / 2);
      nr.side = slot % 2 == 0 ? Side::Front : Side::Back;
      nr.edges = move_out ? std::move(edges[slot]) : edges[slot];
      nr.sink_gcells = move_out ? std::move(sinks[slot]) : sinks[slot];
      nr.source_gcell = sources[slot];
      nr.wirelength_um = route_wirelength_um(nr.edges.size(), gsize_um);
      nr.h_layer_index = layers[slot][0];
      nr.v_layer_index = layers[slot][1];
      out.routes.push_back(std::move(nr));
    }
    return out;
  }
};

RouteState::RouteState(const Netlist& nl, const Floorplan& fp,
                       const RouteResult& prev, const RouteOptions& options)
    : impl_(std::make_unique<Impl>(nl, fp, options)) {
  Impl& s = *impl_;
  // Decompose every net; carry (and commit, in slot order) each subnet
  // whose route in `prev` still matches its terminals.
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  s.resize_slots(2 * num_nets);
  std::vector<std::array<const NetRoute*, 2>> prev_of(num_nets,
                                                      {nullptr, nullptr});
  for (const NetRoute& r : prev.routes) {
    if (r.net >= 0 && static_cast<std::size_t>(r.net) < num_nets) {
      prev_of[static_cast<std::size_t>(r.net)]
             [static_cast<std::size_t>(sidx(r.side))] = &r;
    }
  }
  std::array<SubNet, 2> fresh;
  for (std::size_t n = 0; n < num_nets; ++n) {
    decompose_net(nl, static_cast<NetId>(n), s.has_back, s.gs.grids, fresh);
    for (std::size_t side = 0; side < 2; ++side) {
      if (fresh[side].sinks.empty()) continue;
      const std::size_t slot = 2 * n + side;
      s.sources[slot] = fresh[side].source;
      s.sinks[slot] = std::move(fresh[side].sinks);
      s.present[slot] = 1;
      const NetRoute* p = prev_of[n][side];
      if (p && p->source_gcell == s.sources[slot] &&
          p->sink_gcells == s.sinks[slot]) {
        s.edges[slot] = p->edges;
        s.layers[slot] = {p->h_layer_index, p->v_layer_index};
        commit(s.grid_of(slot), s.edges[slot], +1.0);
      } else {
        s.pending.push_back(slot);
      }
    }
  }
  s.res = prev;
  s.res.routes = {};
  set_geometry(s.res, s.gs);
}

RouteState::~RouteState() = default;

void RouteState::reroute(const Netlist& nl,
                         const std::vector<NetId>& dirty_nets,
                         const std::vector<netlist::InstId>& touched_insts) {
  FFET_TRACE_SCOPE("route.reroute");
  Impl& s = *impl_;
  if (static_cast<std::size_t>(nl.num_instances()) < s.inst_landings.size() ||
      2 * static_cast<std::size_t>(nl.num_nets()) < s.sinks.size()) {
    throw std::invalid_argument(
        "RouteState::reroute: instances or nets were removed (only "
        "undo_reroute() takes back what a reroute saw added)");
  }
  ++s.epoch;
  s.slot_log.clear();
  s.subnet_log.clear();
  s.inst_log.clear();
  s.can_undo = true;
  s.undo_slots = s.sinks.size();
  s.undo_insts = s.inst_landings.size();
  s.undo_landings = s.landings.size();
  s.undo_pending = s.pending;
  s.undo_res = s.res;
  for (std::size_t g = 0; g < 2; ++g) {
    s.undo_soft[g] = s.gs.grids[g].soft_total;
    s.undo_hard[g] = s.gs.grids[g].hard_total;
  }

  // Pin-access deltas: the touched instances, plus every instance added
  // since the last reroute.
  const auto n_inst = static_cast<std::size_t>(nl.num_instances());
  std::vector<netlist::InstId> insts = touched_insts;
  for (std::size_t i = s.inst_landings.size(); i < n_inst; ++i) {
    insts.push_back(static_cast<netlist::InstId>(i));
  }
  std::sort(insts.begin(), insts.end());
  insts.erase(std::unique(insts.begin(), insts.end()), insts.end());
  s.inst_landings.resize(n_inst, {0, 0});
  for (const netlist::InstId i : insts) {
    if (i < 0 || static_cast<std::size_t>(i) >= n_inst) continue;
    auto& span = s.inst_landings[static_cast<std::size_t>(i)];
    s.inst_log.push_back({i, span});
    s.land_span(span, -1);
    s.collect_landings(nl, i);
    s.land_span(s.inst_landings[static_cast<std::size_t>(i)], +1);
  }

  // New nets get empty slots.
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  s.resize_slots(2 * num_nets);
  std::vector<std::size_t> routed;
  routed.reserve(s.pending.size());
  s.slot_log.reserve(s.pending.size());
  auto queue = [&](std::size_t slot) {
    if (s.queued_epoch[slot] == s.epoch) return;
    s.queued_epoch[slot] = s.epoch;
    routed.push_back(slot);
  };
  for (const std::size_t slot : s.pending) {
    s.take(slot);
    queue(slot);
  }
  s.pending.clear();

  // Re-decompose the dirty nets and every net on a touched instance; a
  // subnet is carried when it is clean and its terminals are unchanged.
  if (s.dirty_epoch.size() < num_nets) s.dirty_epoch.resize(num_nets, -1);
  std::vector<NetId> nets;
  for (const NetId n : dirty_nets) {
    if (n < 0 || static_cast<std::size_t>(n) >= num_nets) continue;
    s.dirty_epoch[static_cast<std::size_t>(n)] = s.epoch;
    nets.push_back(n);
  }
  for (const netlist::InstId i : insts) {
    if (i < 0 || static_cast<std::size_t>(i) >= n_inst) continue;
    for (const NetId n : nl.pin_nets(i)) {
      if (n != netlist::kNoNet) nets.push_back(n);
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  std::array<SubNet, 2> fresh;
  for (const NetId n : nets) {
    const auto ni = static_cast<std::size_t>(n);
    const bool dirty = s.dirty_epoch[ni] == s.epoch;
    decompose_net(nl, n, s.has_back, s.gs.grids, fresh);
    for (std::size_t side = 0; side < 2; ++side) {
      const std::size_t slot = 2 * ni + side;
      const bool want = !fresh[side].sinks.empty();
      const bool queued = s.queued_epoch[slot] == s.epoch;
      if (!s.present[slot] && !want) continue;
      if (!dirty && !queued && s.present[slot] && want &&
          s.sources[slot] == fresh[side].source &&
          s.sinks[slot] == fresh[side].sinks) {
        continue;  // carried
      }
      s.take(slot);
      s.present[slot] = want ? 1 : 0;
      // Each net is re-decomposed at most once per reroute, so this logs
      // every replaced subnet once.
      s.subnet_log.push_back(
          {slot, {s.sources[slot], std::move(s.sinks[slot])}});
      s.sources[slot] = want ? fresh[side].source : 0;
      s.sinks[slot] = want ? std::move(fresh[side].sinks) : std::vector<int>();
      if (want) queue(slot);
    }
  }
  std::erase_if(routed, [&](std::size_t slot) { return !s.present[slot]; });
  std::sort(routed.begin(), routed.end());

  // Negotiate the queued subnets against the carried ones, from the totals
  // and the history-free costs a fresh build would start from.
  s.refold();
  for (PathRouter& pr : s.routers) {
    pr.settled = 0;
    pr.expansions = 0;
  }
  RouteResult out;
  const NegotiationEnd end =
      route_astar2(out, s.options, s.sources, s.sinks, routed, s.gs.grids,
                   s.routers, s.edges);
  if (end.restored) s.refold();
  if (end.history_written) {
    for (SideGrid& g : s.gs.grids) g.clear_history();
  }
  s.assign_layers();
  s.account(out);
  s.res = std::move(out);
  FFET_METRIC_ADD("route.reroutes", 1);
  FFET_METRIC_OBSERVE("route.reroute_dirty_subnets", routed.size());
}

void RouteState::undo_reroute() {
  Impl& s = *impl_;
  if (!s.can_undo) return;
  s.can_undo = false;
  for (auto it = s.slot_log.rbegin(); it != s.slot_log.rend(); ++it) {
    SideGrid& g = s.grid_of(it->slot);
    commit(g, s.edges[it->slot], -1.0);
    s.edges[it->slot] = std::move(it->edges);
    s.layers[it->slot] = {it->layers[0], it->layers[1]};
    s.present[it->slot] = static_cast<char>(it->present);
    commit(g, s.edges[it->slot], +1.0);
  }
  s.slot_log.clear();
  for (Impl::SubnetLog& l : s.subnet_log) {
    s.sources[l.slot] = l.subnet.source;
    s.sinks[l.slot] = std::move(l.subnet.sinks);
  }
  s.subnet_log.clear();
  s.resize_slots(s.undo_slots);

  for (auto it = s.inst_log.rbegin(); it != s.inst_log.rend(); ++it) {
    auto& span = s.inst_landings[static_cast<std::size_t>(it->inst)];
    s.land_span(span, -1);
    span = it->span;
    s.land_span(span, +1);
  }
  s.inst_log.clear();
  s.inst_landings.resize(s.undo_insts);
  s.landings.resize(s.undo_landings);

  s.pending = std::move(s.undo_pending);
  s.res = std::move(s.undo_res);
  for (std::size_t g = 0; g < 2; ++g) {
    s.gs.grids[g].soft_total = s.undo_soft[g];
    s.gs.grids[g].hard_total = s.undo_hard[g];
  }
}

std::optional<RouteState::RouteView> RouteState::route(NetId net,
                                                       Side side) const {
  const Impl& s = *impl_;
  const std::size_t slot =
      2 * static_cast<std::size_t>(net) + static_cast<std::size_t>(sidx(side));
  if (net < 0 || slot >= s.present.size() || !s.present[slot]) {
    return std::nullopt;
  }
  return RouteView{s.edges[slot], s.layers[slot][0], s.layers[slot][1]};
}

std::size_t RouteState::num_changes() const {
  return impl_->can_undo ? impl_->slot_log.size() : 0;
}

RouteState::Change RouteState::change(std::size_t i) const {
  const Impl& s = *impl_;
  const Impl::SlotLog& l = s.slot_log[i];
  Change c;
  c.side = l.slot % 2 == 0 ? Side::Front : Side::Back;
  c.before = l.edges;
  if (l.slot < s.edges.size()) c.after = s.edges[l.slot];
  return c;
}

const RouteResult& RouteState::summary() const { return impl_->res; }

RouteResult RouteState::result() const& { return impl_->emit(false); }

RouteResult RouteState::result() && { return impl_->emit(true); }

std::vector<double> RouteState::pin_demand(Side side) const {
  const SideGrid& g = impl_->gs.grids[static_cast<std::size_t>(sidx(side))];
  std::vector<double> out = g.h_base;
  out.insert(out.end(), g.v_base.begin(), g.v_base.end());
  return out;
}

std::pair<double, double> RouteState::overflow_totals() const {
  const auto& g = impl_->gs.grids;
  return {g[0].overflow() + g[1].overflow(),
          g[0].hard_overflow() + g[1].hard_overflow()};
}

std::vector<double> pin_demand_bases(const Netlist& nl, const Floorplan& fp,
                                     const RouteOptions& options, Side side) {
  return RouteState(nl, fp, {}, options).pin_demand(side);
}

RouteResult route_design(const Netlist& nl, const Floorplan& fp,
                         const RouteOptions& options) {
  FFET_TRACE_SCOPE("route.design");
  RouteState state(nl, fp, {}, options);
  state.reroute(nl, {}, {});
  return std::move(state).result();
}

RouteResult reroute_nets(const Netlist& nl, const Floorplan& fp,
                         const RouteResult& prev,
                         const std::vector<netlist::NetId>& dirty_nets,
                         const RouteOptions& options) {
  RouteState state(nl, fp, prev, options);
  state.reroute(nl, dirty_nets, {});
  return std::move(state).result();
}

}  // namespace ffet::pnr

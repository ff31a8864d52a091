#include "pnr/placement.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "geom/grid.h"
#include "obs/obs.h"
#include "pnr/placement_internal.h"
#include "runtime/thread_pool.h"

namespace ffet::pnr {

using netlist::InstId;
using netlist::Netlist;

namespace {

/// One free span of a row between blockages.  Placements punch holes into
/// the span, so it keeps a sorted list of free intervals (gap list) — a
/// forward-only cursor would permanently waste the left part of rows that
/// receive their first cell late.
struct Segment {
  Nm lo = 0;
  Nm hi = 0;
  std::vector<geom::Interval> free_list;  ///< sorted, non-overlapping

  /// Best x for a cell of width `w` wanting `desired`; nullopt if no gap
  /// fits.  Returns the x minimizing |x - desired|.
  std::optional<Nm> best_position(Nm w, Nm desired, Nm site) const {
    std::optional<Nm> best;
    Nm best_d = std::numeric_limits<Nm>::max();
    for (const auto& iv : free_list) {
      if (iv.length() < w) continue;
      const Nm lo_x = geom::snap_up(iv.lo, site);
      const Nm hi_x = geom::snap_down(iv.hi - w, site);
      if (lo_x > hi_x) continue;
      const Nm x = std::clamp(geom::snap_down(desired, site), lo_x, hi_x);
      const Nm d = std::abs(x - desired);
      if (d < best_d) {
        best_d = d;
        best = x;
      }
    }
    return best;
  }

  /// Return [x, x+w) (clamped to the segment span) to the free list,
  /// merging with adjacent free intervals — the inverse of occupy().
  void free_span(Nm x, Nm w) {
    Nm a = std::max(x, lo);
    Nm b = std::min(x + w, hi);
    if (a >= b) return;
    std::size_t i = 0;
    while (i < free_list.size() && free_list[i].hi < a) ++i;
    while (i < free_list.size() && free_list[i].lo <= b) {
      a = std::min(a, free_list[i].lo);
      b = std::max(b, free_list[i].hi);
      free_list.erase(free_list.begin() + static_cast<long>(i));
    }
    free_list.insert(free_list.begin() + static_cast<long>(i), {a, b});
  }

  /// Remove [x, x+w) from the free list.
  void occupy(Nm x, Nm w) {
    for (std::size_t i = 0; i < free_list.size(); ++i) {
      geom::Interval& iv = free_list[i];
      if (x < iv.lo || x + w > iv.hi) continue;
      const geom::Interval right{x + w, iv.hi};
      iv.hi = x;
      if (iv.length() <= 0) {
        free_list.erase(free_list.begin() + static_cast<long>(i));
        if (right.length() > 0) {
          free_list.insert(free_list.begin() + static_cast<long>(i), right);
        }
      } else if (right.length() > 0) {
        free_list.insert(free_list.begin() + static_cast<long>(i) + 1, right);
      }
      return;
    }
  }
};

struct RowState {
  Nm y = 0;
  std::vector<Segment> segments;
};

std::vector<RowState> build_row_segments(const Floorplan& fp,
                                         const PowerPlan& pp) {
  std::vector<RowState> rows;
  rows.reserve(fp.rows.size());
  const BlockageRows index(pp.blockages, fp.core.lo.y, fp.row_height);
  for (const Row& r : fp.rows) {
    RowState rs;
    rs.y = r.y;
    // Collect blockage intervals intersecting this row.
    std::vector<geom::Interval> blocked;
    for (const int i : index.overlapping_y(r.y, r.y + fp.row_height)) {
      const geom::Rect& b = pp.blockages[static_cast<std::size_t>(i)];
      blocked.push_back({b.lo.x, b.hi.x});
    }
    std::sort(blocked.begin(), blocked.end());
    Nm cur = r.x.lo;
    auto add_segment = [&rs](Nm lo, Nm hi) {
      Segment seg;
      seg.lo = lo;
      seg.hi = hi;
      seg.free_list.push_back({lo, hi});
      rs.segments.push_back(std::move(seg));
    };
    for (const geom::Interval& b : blocked) {
      if (b.lo > cur) add_segment(cur, b.lo);
      cur = std::max(cur, b.hi);
    }
    if (cur < r.x.hi) add_segment(cur, r.x.hi);
    rows.push_back(std::move(rs));
  }
  return rows;
}

/// Find the legal slot of width `w` nearest `desired` (Manhattan cost,
/// rows visited near-to-far from the desired row), mark it occupied and
/// return its origin; nullopt when no gap fits anywhere.  The Tetris
/// legalizer and the ECO's incremental legalizer share this search.
std::optional<geom::Point> claim_nearest_slot(std::vector<RowState>& rows,
                                              const Floorplan& fp, Nm w,
                                              geom::Point desired) {
  const int want_row = std::clamp(
      static_cast<int>(desired.y / fp.row_height), 0, fp.num_rows() - 1);
  Nm best_cost = std::numeric_limits<Nm>::max();
  RowState* best_row = nullptr;
  Segment* best_seg = nullptr;
  Nm best_x = 0;
  for (int dr = 0; dr < fp.num_rows(); ++dr) {
    for (int sgn : {1, -1}) {
      const int r = want_row + sgn * dr;
      if (sgn < 0 && dr == 0) continue;
      if (r < 0 || r >= fp.num_rows()) continue;
      RowState& row = rows[static_cast<std::size_t>(r)];
      const Nm dy = std::abs(row.y - desired.y);
      if (dy >= best_cost) continue;  // rows are visited near-to-far
      for (Segment& seg : row.segments) {
        const auto x = seg.best_position(w, desired.x, fp.site_width);
        if (!x) continue;
        const Nm cost = std::abs(*x - desired.x) + dy;
        if (cost < best_cost) {
          best_cost = cost;
          best_row = &row;
          best_seg = &seg;
          best_x = *x;
        }
      }
    }
    // Stop expanding once the row distance alone exceeds the best cost.
    if (best_row && static_cast<Nm>(dr) * fp.row_height > best_cost) break;
  }
  if (!best_row) return std::nullopt;
  best_seg->occupy(best_x, w);
  return geom::Point{best_x, best_row->y};
}

/// Bisections with fewer cells than this run both halves on one thread.
constexpr std::size_t kParallelSpreadCells = 2048;

struct SpreadContext {
  detail::Snapshot& snap;
  detail::SpreadScratch& scratch;
  const Floorplan& fp;
  int threads;
};

/// One bisection node: the cells at [lo, hi) of both sorted lists (the same
/// set in each), spread over `region`.  Positions are written only at the
/// leaves, so the keys sorted at the start of the pass stay current.
void spread_node(const SpreadContext& ctx, std::size_t lo, std::size_t hi,
                 const geom::Rect& region) {
  if (lo == hi) return;
  const std::size_t n = hi - lo;
  const bool split_x = region.width() >= region.height();
  detail::SpreadScratch& s = ctx.scratch;
  const detail::KeyedCell* axis = (split_x ? s.by_x : s.by_y).data() + lo;
  if (n <= 8 || region.width() <= 4 * ctx.fp.site_width ||
      region.height() <= ctx.fp.row_height) {
    // Leaf: scatter by rank along the longer axis.
    for (std::size_t i = 0; i < n; ++i) {
      const double t =
          (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      geom::Point& pos = ctx.snap.pos[static_cast<std::size_t>(axis[i].cell)];
      if (split_x) {
        pos = {region.lo.x + static_cast<Nm>(t * region.width()),
               region.center().y};
      } else {
        pos = {region.center().x,
               region.lo.y + static_cast<Nm>(t * region.height())};
      }
    }
    return;
  }
  const std::vector<double>& area = ctx.snap.area;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += area[static_cast<std::size_t>(axis[i].cell)];
  }
  double acc = 0.0;
  std::size_t cut = 0;
  while (cut < n && acc < total / 2.0) {
    acc += area[static_cast<std::size_t>(axis[cut].cell)];
    ++cut;
  }
  // The split-axis list is sorted in both halves already; the other list is
  // stable-partitioned by side, so it stays sorted in both halves too.
  for (std::size_t i = 0; i < n; ++i) {
    s.upper[static_cast<std::size_t>(axis[i].cell)] = i >= cut;
  }
  detail::KeyedCell* other = (split_x ? s.by_y : s.by_x).data() + lo;
  detail::KeyedCell* tmp = s.tmp.data() + lo;
  std::size_t lower_end = 0;
  std::size_t upper_end = cut;
  for (std::size_t i = 0; i < n; ++i) {
    const detail::KeyedCell c = other[i];
    tmp[s.upper[static_cast<std::size_t>(c.cell)] ? upper_end++
                                                  : lower_end++] = c;
  }
  std::copy(tmp, tmp + n, other);

  geom::Rect lower_region = region;
  geom::Rect upper_region = region;
  if (split_x) {
    lower_region.hi.x = upper_region.lo.x = region.center().x;
  } else {
    lower_region.hi.y = upper_region.lo.y = region.center().y;
  }
  auto lower = [&] { spread_node(ctx, lo, lo + cut, lower_region); };
  auto upper = [&] { spread_node(ctx, lo + cut, hi, upper_region); };
  if (n >= kParallelSpreadCells) {
    runtime::parallel_invoke(ctx.threads, lower, upper);
  } else {
    lower();
    upper();
  }
}

/// Place IO ports evenly on the core boundary: inputs on the left/top
/// edges, outputs on the right/bottom — a simple deterministic IO plan.
void plan_ios(Netlist& nl, const Floorplan& fp) {
  std::vector<netlist::PortId> ins, outs;
  for (int p = 0; p < nl.num_ports(); ++p) {
    (nl.port(p).is_input ? ins : outs).push_back(p);
  }
  auto spread = [&](const std::vector<netlist::PortId>& ports, bool left) {
    const Nm perim = fp.core.height() + fp.core.width();
    const std::size_t n = std::max<std::size_t>(1, ports.size());
    for (std::size_t i = 0; i < ports.size(); ++i) {
      const Nm d = static_cast<Nm>((i + 0.5) / n * perim);
      geom::Point pos;
      if (d < fp.core.height()) {
        pos = {left ? fp.core.lo.x : fp.core.hi.x, fp.core.lo.y + d};
      } else {
        pos = {fp.core.lo.x + (d - fp.core.height()),
               left ? fp.core.hi.y : fp.core.lo.y};
      }
      nl.port(ports[i]).pos = pos;
    }
  };
  spread(ins, /*left=*/true);
  spread(outs, /*left=*/false);
}

}  // namespace

namespace detail {

Snapshot take_snapshot(const Netlist& nl) {
  Snapshot snap;
  const auto instances = static_cast<std::size_t>(nl.num_instances());
  snap.id.reserve(instances);
  snap.pos.reserve(instances);
  snap.area.reserve(instances);
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instance(i);
    if (inst.fixed) continue;
    snap.id.push_back(i);
    snap.pos.push_back(inst.pos);
    snap.area.push_back(inst.type->area_um2());
  }
  return snap;
}

PullModel build_pull_model(const Netlist& nl, const Snapshot& snap) {
  PullModel m;
  const auto nets = static_cast<std::size_t>(nl.num_nets());
  const std::size_t cells = snap.id.size();
  std::vector<std::int32_t> cell_of(static_cast<std::size_t>(nl.num_instances()),
                                    -1);
  std::size_t cell_pins = 0;  // bounds both CSR lists
  for (std::size_t c = 0; c < cells; ++c) {
    cell_of[static_cast<std::size_t>(snap.id[c])] = static_cast<std::int32_t>(c);
    cell_pins += nl.pin_nets(snap.id[c]).size();
  }
  m.net_cells.reserve(cell_pins);
  m.cell_nets.reserve(cell_pins);
  auto offset = [&](const netlist::PinRef& ref) {
    return nl.instance(ref.inst)
        .type->pins()[static_cast<std::size_t>(ref.pin)]
        .offset;
  };

  // Nets: movable pins into the CSR, everything else into the constant.
  std::vector<int> net_pins(nets, 0);
  m.net_first.reserve(nets + 1);
  m.net_const.assign(nets, {});
  for (std::size_t k = 0; k < nets; ++k) {
    m.net_first.push_back(static_cast<std::uint32_t>(m.net_cells.size()));
    const netlist::Net& net = nl.nets()[k];
    if (net.is_clock) continue;
    geom::Point& constant = m.net_const[k];
    auto absorb = [&](const netlist::PinRef& ref) {
      if (ref.inst == netlist::kNoInst) return;
      ++net_pins[k];
      const std::int32_t c = cell_of[static_cast<std::size_t>(ref.inst)];
      if (c < 0) {
        constant = constant + nl.pin_position(ref);
        return;
      }
      m.net_cells.push_back(c);
      constant = constant + offset(ref);
    };
    absorb(net.driver);
    for (const netlist::PinRef& sink : net.sinks) absorb(sink);
    if (net.port >= 0) {
      constant = constant + nl.port(net.port).pos;
      ++net_pins[k];
    }
  }
  m.net_first.push_back(static_cast<std::uint32_t>(m.net_cells.size()));

  // Cells: their non-clock nets, one per pin, and their own pins' terms.
  m.cell_first.reserve(cells + 1);
  m.cell_own.assign(cells, 0);
  m.cell_off.assign(cells, {});
  m.cell_count.assign(cells, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    m.cell_first.push_back(static_cast<std::uint32_t>(m.cell_nets.size()));
    const InstId id = snap.id[c];
    const auto pin_nets = nl.pin_nets(id);
    for (const netlist::NetId net_id : pin_nets) {
      if (net_id == netlist::kNoNet || nl.net(net_id).is_clock) continue;
      m.cell_nets.push_back(net_id);
      m.cell_count[c] += net_pins[static_cast<std::size_t>(net_id)];
      for (std::size_t q = 0; q < pin_nets.size(); ++q) {
        if (pin_nets[q] != net_id) continue;
        ++m.cell_own[c];
        --m.cell_count[c];
        m.cell_off[c] = m.cell_off[c] + offset({id, static_cast<int>(q)});
      }
    }
  }
  m.cell_first.push_back(static_cast<std::uint32_t>(m.cell_nets.size()));
  return m;
}

void sum_net_pins(const PullModel& model, std::span<const geom::Point> pos,
                  std::vector<geom::Point>& sums, int threads) {
  const std::size_t nets = model.net_const.size();
  sums.resize(nets);
  runtime::parallel_for(
      nets,
      [&](std::size_t k) {
        geom::Point sum = model.net_const[k];
        for (std::uint32_t j = model.net_first[k]; j < model.net_first[k + 1];
             ++j) {
          sum = sum + pos[static_cast<std::size_t>(model.net_cells[j])];
        }
        sums[k] = sum;
      },
      threads, 0);
}

Pull cell_pull(const PullModel& model, std::span<const geom::Point> sums,
               std::size_t cell, geom::Point pos) {
  Pull pull;
  for (std::uint32_t j = model.cell_first[cell];
       j < model.cell_first[cell + 1]; ++j) {
    const geom::Point& s = sums[static_cast<std::size_t>(model.cell_nets[j])];
    pull.x += s.x;
    pull.y += s.y;
  }
  const std::int64_t own = model.cell_own[cell];
  pull.x -= own * pos.x + model.cell_off[cell].x;
  pull.y -= own * pos.y + model.cell_off[cell].y;
  pull.count = model.cell_count[cell];
  return pull;
}

void spread_pass(Snapshot& snap, SpreadScratch& scratch, const Floorplan& fp,
                 int threads) {
  const std::size_t n = snap.id.size();
  scratch.by_x.resize(n);
  scratch.by_y.resize(n);
  scratch.tmp.resize(n);
  scratch.upper.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cell = static_cast<std::int32_t>(i);
    scratch.by_x[i] = {snap.pos[i].x, cell};
    scratch.by_y[i] = {snap.pos[i].y, cell};
  }
  runtime::parallel_invoke(
      threads, [&] { std::sort(scratch.by_x.begin(), scratch.by_x.end()); },
      [&] { std::sort(scratch.by_y.begin(), scratch.by_y.end()); });
  spread_node({snap, scratch, fp, threads}, 0, n, fp.core);
}

}  // namespace detail

double compute_hpwl_um(const Netlist& nl) {
  double total = 0.0;
  for (const netlist::Net& net : nl.nets()) {
    geom::Nm min_x = std::numeric_limits<geom::Nm>::max();
    geom::Nm max_x = std::numeric_limits<geom::Nm>::min();
    geom::Nm min_y = min_x, max_y = max_x;
    int pins = 0;
    auto absorb = [&](const geom::Point& p) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
      ++pins;
    };
    if (net.driver.inst != netlist::kNoInst) {
      absorb(nl.pin_position(net.driver));
    }
    for (const netlist::PinRef& s : net.sinks) absorb(nl.pin_position(s));
    if (net.port >= 0) absorb(nl.port(net.port).pos);
    if (pins >= 2) {
      total += geom::to_um(max_x - min_x) + geom::to_um(max_y - min_y);
    }
  }
  return total;
}

PlacementResult place(Netlist& nl, const Floorplan& fp, const PowerPlan& pp,
                      const PlacementOptions& options) {
  FFET_TRACE_SCOPE("place.design");
  PlacementResult res;

  plan_ios(nl, fp);

  // Global placement works on this snapshot; the instance table is written
  // once, by the legalizer.
  detail::Snapshot snap = detail::take_snapshot(nl);
  const std::size_t movable = snap.id.size();
  double movable_area = 0.0;
  for (const double a : snap.area) movable_area += a;

  const double free_area =
      fp.core.area_um2() * (1.0 - pp.blocked_site_fraction);
  res.density = free_area > 0 ? movable_area / free_area : 1e9;

  // --- global placement ---------------------------------------------------
  std::mt19937 rng(options.seed);
  std::uniform_real_distribution<double> ux(0.0, 1.0);
  for (std::size_t i = 0; i < movable; ++i) {
    const stdcell::CellType& type = *nl.instance(snap.id[i]).type;
    snap.pos[i] = {
        static_cast<Nm>(ux(rng) * (fp.core.width() - type.width())),
        static_cast<Nm>(ux(rng) * (fp.core.height() - type.height()))};
  }

  // Global placement: alternate connectivity averaging (Jacobi steps on
  // the quadratic wirelength system, IO ports acting as anchors) with an
  // order-preserving sort-and-balance spreading that equalizes density
  // without destroying the relative cell order — the property that keeps
  // locality through legalization.
  {
    FFET_TRACE_SCOPE("place.global");
    const detail::PullModel model = detail::build_pull_model(nl, snap);
    std::vector<geom::Point> sums;
    std::vector<geom::Point> desired(movable);
    auto centroid_pass = [&]() {
      detail::sum_net_pins(model, snap.pos, sums, options.threads);
      runtime::parallel_for(
          movable,
          [&](std::size_t i) {
            const geom::Point pos = snap.pos[i];
            const detail::Pull pull = detail::cell_pull(model, sums, i, pos);
            geom::Point target = pos;
            if (pull.count > 0) {
              const double n = pull.count;
              target = {static_cast<Nm>(static_cast<double>(pull.x) / n),
                        static_cast<Nm>(static_cast<double>(pull.y) / n)};
            }
            const double a = options.pull_strength;
            desired[i] = {static_cast<Nm>(a * target.x + (1 - a) * pos.x),
                          static_cast<Nm>(a * target.y + (1 - a) * pos.y)};
          },
          options.threads, 0);
      snap.pos.swap(desired);
    };
    detail::SpreadScratch scratch;
    auto spread_pass = [&]() {
      detail::spread_pass(snap, scratch, fp, options.threads);
    };

    // Phase 1: long averaging from the random start — the quadratic system
    // settles into a (collapsed but correctly *ordered*) solution anchored
    // by the IO ports.  Phase 2: alternate density spreading with short
    // re-pull rounds so clusters stay even without losing the global order.
    for (int i = 0; i < options.iterations; ++i) centroid_pass();
    for (int round = 0; round < 6; ++round) {
      spread_pass();
      centroid_pass();
      centroid_pass();
    }
    spread_pass();  // hand a density-legal picture to the legalizer
  }

  // --- legalization (Tetris) ------------------------------------------------
  FFET_TRACE_SCOPE("place.legalize");
  std::vector<RowState> rows = build_row_segments(fp, pp);

  // Whitespace feasibility: the industrial density ceiling.
  if (res.density > kMaxPlacementDensity) {
    const double excess = movable_area - kMaxPlacementDensity * free_area;
    const double avg = movable_area / std::max<std::size_t>(1, movable);
    res.violations = std::max(1, static_cast<int>(std::ceil(excess / avg)));
    res.legal = false;
    res.message = "placement density " + std::to_string(res.density) +
                  " exceeds closable limit " +
                  std::to_string(kMaxPlacementDensity);
  }

  // Sort by global (x, y, id), then pack greedily into the nearest feasible
  // row.
  struct OrderKey {
    Nm x = 0;
    Nm y = 0;
    std::size_t cell = 0;
    auto operator<=>(const OrderKey&) const = default;
  };
  std::vector<OrderKey> order(movable);
  for (std::size_t i = 0; i < movable; ++i) {
    order[i] = {snap.pos[i].x, snap.pos[i].y, i};
  }
  std::sort(order.begin(), order.end());

  int unplaced = 0;
  // Legalization displacement (global position -> legal slot): the cheap
  // proxy for how hard the density target was to realize.
  double disp_sum_um = 0.0;
  std::size_t disp_n = 0;
  obs::Histogram* disp_hist =
      obs::metrics_enabled() ? &obs::histogram("place.displacement_um")
                             : nullptr;
  for (const OrderKey& key : order) {
    netlist::Instance& inst = nl.instance(snap.id[key.cell]);
    const geom::Point global{key.x, key.y};
    const Nm w = inst.type->width();
    const std::optional<geom::Point> slot =
        claim_nearest_slot(rows, fp, w, global);
    if (!slot) {
      ++unplaced;
      // Clamp somewhere sane so downstream stages see finite coordinates.
      inst.pos = {std::clamp<Nm>(global.x, 0, fp.core.width() - w),
                  std::clamp<Nm>(geom::snap_down(global.y, fp.row_height),
                                 0, (fp.num_rows() - 1) * fp.row_height)};
      continue;
    }
    const double disp_um = geom::to_um(std::abs(slot->x - global.x) +
                                       std::abs(slot->y - global.y));
    disp_sum_um += disp_um;
    ++disp_n;
    res.max_displacement_um = std::max(res.max_displacement_um, disp_um);
    if (disp_hist != nullptr) disp_hist->observe(disp_um);
    inst.pos = *slot;
  }
  res.mean_displacement_um =
      disp_n > 0 ? disp_sum_um / static_cast<double>(disp_n) : 0.0;

  if (unplaced > 0) {
    res.violations = std::max(res.violations, unplaced);
    res.legal = false;
    if (res.message.empty()) {
      res.message = std::to_string(unplaced) + " cells could not be legalized";
    }
  } else if (res.message.empty()) {
    res.legal = true;
    res.message = "legal";
  }

  res.hpwl_um = compute_hpwl_um(nl);
  FFET_METRIC_GAUGE_MAX("place.max_displacement_um", res.max_displacement_um);
  FFET_METRIC_ADD("place.violations", res.violations);
  return res;
}

// --- incremental legalization (ECO support) -----------------------------------

struct IncrementalLegalizer::Impl {
  const Floorplan* fp = nullptr;
  std::vector<RowState> rows;

  /// Row whose y matches pos.y exactly (nullptr when the cell sits off-row,
  /// e.g. a clamped unplaceable one).
  RowState* row_at(Nm y) {
    const int guess =
        std::clamp(static_cast<int>(y / fp->row_height), 0,
                   static_cast<int>(rows.size()) - 1);
    if (rows[static_cast<std::size_t>(guess)].y == y) {
      return &rows[static_cast<std::size_t>(guess)];
    }
    for (RowState& rs : rows) {
      if (rs.y == y) return &rs;
    }
    return nullptr;
  }

  Segment* segment_at(RowState& rs, Nm x, Nm w) {
    for (Segment& seg : rs.segments) {
      if (x >= seg.lo && x + w <= seg.hi) return &seg;
    }
    return nullptr;
  }
};

IncrementalLegalizer::IncrementalLegalizer(const Netlist& nl,
                                           const Floorplan& fp,
                                           const PowerPlan& pp)
    : impl_(std::make_unique<Impl>()) {
  impl_->fp = &fp;
  impl_->rows = build_row_segments(fp, pp);
  for (int i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instance(i);
    if (inst.fixed || inst.type->physical_only()) continue;
    occupy(inst.pos, inst.type->width());
  }
}

IncrementalLegalizer::~IncrementalLegalizer() = default;

void IncrementalLegalizer::release(geom::Point pos, geom::Nm width) {
  RowState* rs = impl_->row_at(pos.y);
  if (!rs) return;
  if (Segment* seg = impl_->segment_at(*rs, pos.x, width)) {
    seg->free_span(pos.x, width);
  }
}

void IncrementalLegalizer::occupy(geom::Point pos, geom::Nm width) {
  RowState* rs = impl_->row_at(pos.y);
  if (!rs) return;
  if (Segment* seg = impl_->segment_at(*rs, pos.x, width)) {
    seg->occupy(pos.x, width);
  }
}

std::optional<geom::Point> IncrementalLegalizer::claim(geom::Nm width,
                                                       geom::Point desired) {
  return claim_nearest_slot(impl_->rows, *impl_->fp, width, desired);
}

}  // namespace ffet::pnr

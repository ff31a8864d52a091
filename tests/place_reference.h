// place_reference.h — the spreading pass as it was before the presorted
// rewrite, kept verbatim as the reference the current pass must equal bit
// for bit: every bisection re-reads the instance table and fully re-sorts
// its span by (position along the split axis, id).

#pragma once

#include <algorithm>
#include <span>

#include "geom/geom.h"
#include "netlist/netlist.h"
#include "pnr/floorplan.h"
#include "runtime/thread_pool.h"

namespace ffet::pnr::reference {

using geom::Nm;
using netlist::InstId;
using netlist::Netlist;

/// A cell in the spreading order: its position along the split axis, then
/// its id — the total order the bisection preserves.  Sorting these pairs
/// instead of ids keeps the comparator off the instance table.
struct KeyedCell {
  Nm key = 0;
  InstId id = netlist::kNoInst;
  auto operator<=>(const KeyedCell&) const = default;
};

/// Bisections with fewer cells than this run both halves on one thread.
constexpr std::size_t kParallelSpreadCells = 2048;

/// Recursive equal-area bisection spreading: split the cell set at its
/// area-median along the region's longer axis, give each half one
/// geometric half of the region, recurse.  Order is preserved along the
/// split axis at every level, so connectivity structure built by the
/// averaging passes survives while density becomes uniform.  The halves
/// are disjoint cell sets, so large ones run concurrently.
inline void spread_region(Netlist& nl, const Floorplan& fp,
                          std::span<KeyedCell> cells, const geom::Rect& region,
                          int threads) {
  if (cells.empty()) return;
  const bool split_x = region.width() >= region.height();
  for (KeyedCell& c : cells) {
    const geom::Point& p = nl.instance(c.id).pos;
    c.key = split_x ? p.x : p.y;
  }
  std::sort(cells.begin(), cells.end());
  if (cells.size() <= 8 || region.width() <= 4 * fp.site_width ||
      region.height() <= fp.row_height) {
    // Leaf: scatter by rank along the longer axis.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double t = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(cells.size());
      netlist::Instance& inst = nl.instance(cells[i].id);
      if (split_x) {
        inst.pos = {region.lo.x + static_cast<Nm>(t * region.width()),
                    region.center().y};
      } else {
        inst.pos = {region.center().x,
                    region.lo.y + static_cast<Nm>(t * region.height())};
      }
    }
    return;
  }
  double total = 0.0;
  for (const KeyedCell& c : cells) total += nl.instance(c.id).type->area_um2();
  double acc = 0.0;
  std::size_t cut = 0;
  while (cut < cells.size() && acc < total / 2.0) {
    acc += nl.instance(cells[cut].id).type->area_um2();
    ++cut;
  }
  geom::Rect lower_region = region;
  geom::Rect upper_region = region;
  if (split_x) {
    lower_region.hi.x = upper_region.lo.x = region.center().x;
  } else {
    lower_region.hi.y = upper_region.lo.y = region.center().y;
  }
  auto lower = [&] {
    spread_region(nl, fp, cells.first(cut), lower_region, threads);
  };
  auto upper = [&] {
    spread_region(nl, fp, cells.subspan(cut), upper_region, threads);
  };
  if (cells.size() >= kParallelSpreadCells) {
    runtime::parallel_invoke(threads, lower, upper);
  } else {
    lower();
    upper();
  }
}

}  // namespace ffet::pnr::reference

// placement_internal.h — global placement's working data, split out of
// placement.cpp so tests can check it against references.  Not part of the
// pnr API.
//
// Global placement runs on a flat snapshot of the movable cells (position,
// area, id) instead of the instance table.  Two passes alternate on it:
//
//   * The centroid pass pulls every movable cell toward the mean of the
//     pins it shares a net with.  Connectivity and cell types do not change
//     inside place(), so everything but the cell positions is folded into a
//     PullModel once: per net, the cells of its pins plus the constant pin
//     offsets, fixed-cell pins and port; per cell, its nets and the terms
//     of its own pins.  A pass then sums each net once and reads a cell's
//     pull as Σ S[net] − M·pos − OFF, O(pins) with no pointer chasing.  The
//     sums are integer, so the mean reads back exactly what a pin-by-pin
//     `double` accumulation gives (integer coordinates are exact in
//     `double` below 2^53).
//   * The spreading pass is a recursive equal-area bisection.  It sorts the
//     cells by (x, id) and by (y, id) once per pass; every bisection node
//     owns the same sub-range of both lists, so a cut keeps the split-axis
//     list sorted in both halves and stable-partitions the other one.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "pnr/floorplan.h"

namespace ffet::pnr::detail {

/// The movable (non-fixed) cells in ascending id order; index i of every
/// array is one cell, so comparing indices compares ids.
struct Snapshot {
  std::vector<netlist::InstId> id;
  std::vector<geom::Point> pos;
  std::vector<double> area;  ///< type->area_um2()
};

/// Snapshot of the movable cells of `nl` at their current positions.
Snapshot take_snapshot(const netlist::Netlist& nl);

/// The position-independent part of the centroid pass over one snapshot.
/// Clock nets and unconnected pins are left out: the clock net does not
/// pull placement.
struct PullModel {
  /// CSR over nets: the snapshot cells of net k's instance pins (driver and
  /// sinks; a cell with two pins on the net appears twice) are
  /// net_cells[net_first[k] .. net_first[k + 1]).
  std::vector<std::uint32_t> net_first;
  std::vector<std::int32_t> net_cells;
  /// Per net: the listed pins' offsets plus the fixed-cell pins and the
  /// port, none of which move inside place().
  std::vector<geom::Point> net_const;
  /// CSR over cells: the net of each of the cell's pins on a non-clock net.
  std::vector<std::uint32_t> cell_first;
  std::vector<netlist::NetId> cell_nets;
  /// M: for each listed pin, the cell's own pins on that pin's net.  The
  /// cell's own pins do not pull it, and a cell with two pins on one net
  /// visits the net twice, so each visit subtracts every own pin on it.
  std::vector<std::int64_t> cell_own;
  /// OFF: the summed offsets of the own pins M counts.
  std::vector<geom::Point> cell_off;
  /// The pulling pins: Σ pins per listed net − M (positions do not enter).
  std::vector<int> cell_count;
};

PullModel build_pull_model(const netlist::Netlist& nl, const Snapshot& snap);

/// Per-net pin-coordinate sums at positions `pos` (one per snapshot cell),
/// one net per index (parallel over nets, bit-identical at any thread
/// count).  Clock nets read zero.
void sum_net_pins(const PullModel& model, std::span<const geom::Point> pos,
                  std::vector<geom::Point>& sums, int threads);

/// The pins that pull one cell: summed coordinates and their count.
struct Pull {
  std::int64_t x = 0;
  std::int64_t y = 0;
  int count = 0;
};

/// The pull on snapshot cell `cell` at position `pos`: Σ sums[net] over its
/// listed nets, minus M·pos and OFF.
Pull cell_pull(const PullModel& model, std::span<const geom::Point> sums,
               std::size_t cell, geom::Point pos);

/// A cell in a spreading list: its position along the list's axis, then its
/// snapshot index — the total order (position, id) the bisection preserves.
struct KeyedCell {
  geom::Nm key = 0;
  std::int32_t cell = 0;
  auto operator<=>(const KeyedCell&) const = default;
};

/// The spreading pass's buffers, sized once per place(): the snapshot sorted
/// by (x, id) and by (y, id), the partition buffer and each cell's side of
/// the current cut.
struct SpreadScratch {
  std::vector<KeyedCell> by_x;
  std::vector<KeyedCell> by_y;
  std::vector<KeyedCell> tmp;
  std::vector<std::uint8_t> upper;
};

/// Recursive equal-area bisection spreading of every snapshot cell over
/// the core: split the cells at their area-median along the region's longer
/// axis, give each half one geometric half of the region, recurse, and
/// scatter each leaf by rank.  Halves are disjoint, so large ones run
/// concurrently; the result is bit-identical at any thread count.
void spread_pass(Snapshot& snap, SpreadScratch& scratch, const Floorplan& fp,
                 int threads);

}  // namespace ffet::pnr::detail

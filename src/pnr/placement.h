// placement.h — standard-cell placement and IO planning (Fig. 7 stage 3).
//
// Two phases:
//   1. Global placement: seeded-random start, then iterative centroid pulls
//      (Jacobi steps on the quadratic wirelength system, IO ports as
//      anchors) interleaved with recursive equal-area bisection spreading,
//      which evens density while keeping the cells' relative order.
//   2. Legalization: row-based Tetris packing into the free segments left
//      between the power plan's FIXED obstacles (Power Tap Cells / nTSV
//      pads).
//
// Legality model.  Industrial legalizers need placement whitespace to
// resolve discrete cell widths, pin access and local congestion; placement
// densities above ~87-88 % are not closable.  We encode this as
// kMaxPlacementDensity: the movable area must fit within that fraction of
// the *free* (unblocked) row area.  This is the mechanism behind the
// paper's utilization ceilings:
//     FFET: free fraction = 1 - taps  (98.4 %)  -> max util ~86 %
//     CFET: free fraction = 1 - nTSV  (96.0 %)  -> max util ~84 %
// exactly the Fig. 8(a) behaviour ("utilization above 86 % results in
// placement violations between standard cells and Power Tap Cells").

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "pnr/floorplan.h"
#include "pnr/powerplan.h"

namespace ffet::pnr {

/// Maximum closable placement density (movable area / free area).  See the
/// header comment; calibrated once, shared by both technologies.
inline constexpr double kMaxPlacementDensity = 0.875;

struct PlacementOptions {
  unsigned seed = 1;
  /// Phase-1 centroid passes from the random start; the seven spreading
  /// passes and the twelve centroid passes between them are fixed.
  int iterations = 24;
  double pull_strength = 0.7; ///< blend factor toward the connectivity centroid
  /// Worker threads for global placement: the per-net sums and per-cell
  /// targets of each centroid pass, the two sorts of each spreading pass
  /// and the two halves of each large spreading bisection.  Every index writes only its own slot and the
  /// halves are disjoint, so the placement is bit-identical at any count.
  int threads = 1;
};

struct PlacementResult {
  bool legal = false;
  int violations = 0;      ///< cells that could not be legally placed
  double hpwl_um = 0.0;    ///< half-perimeter wirelength after legalization
  double density = 0.0;    ///< movable area / free area
  /// Legalization displacement (global position -> legal slot, Manhattan):
  /// how far the Tetris packer had to move cells to realize the density
  /// target.  Exported to the flow telemetry report.
  double mean_displacement_um = 0.0;
  double max_displacement_um = 0.0;
  std::string message;
};

/// Place all movable instances of `nl` into the floorplan, avoiding the
/// power plan's blockages, and assign IO port positions on the core
/// boundary.  Writes Instance::pos; fixed instances are untouched.
PlacementResult place(netlist::Netlist& nl, const Floorplan& fp,
                      const PowerPlan& pp,
                      const PlacementOptions& options = {});

/// Half-perimeter wirelength of all multi-pin nets, in µm (uses current
/// instance positions and port positions).
double compute_hpwl_um(const netlist::Netlist& nl);

/// Row-occupancy tracker for post-route ECO transforms: holds the same
/// free-segment model the Tetris legalizer packs into, seeded from an
/// already-legal placement, and supports exact do/undo of single-cell
/// moves.  A resize is release(old) → claim(new width near the old spot);
/// a buffer insertion is a claim; a revert replays the inverse ops
/// (release the claimed slot, occupy the released one), restoring the
/// occupancy map bit-exactly.  All queries are deterministic.
class IncrementalLegalizer {
 public:
  /// Seeds the free-segment model from the floorplan/power plan and marks
  /// every placed non-fixed instance footprint occupied.  The floorplan
  /// and power plan must outlive the legalizer.
  IncrementalLegalizer(const netlist::Netlist& nl, const Floorplan& fp,
                       const PowerPlan& pp);
  ~IncrementalLegalizer();
  IncrementalLegalizer(const IncrementalLegalizer&) = delete;
  IncrementalLegalizer& operator=(const IncrementalLegalizer&) = delete;

  /// Free the footprint [pos.x, pos.x + width) in the row at pos.y
  /// (no-op outside any row segment — e.g. a clamped unplaceable cell).
  void release(geom::Point pos, geom::Nm width);
  /// Find the legal slot nearest `desired` (same near-to-far row scan and
  /// cost as the full legalizer), mark it occupied, and return its origin;
  /// nullopt when no gap fits anywhere.
  std::optional<geom::Point> claim(geom::Nm width, geom::Point desired);
  /// Mark an exact span occupied again (the inverse of release; used when
  /// reverting a trial transform).
  void occupy(geom::Point pos, geom::Nm width);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ffet::pnr

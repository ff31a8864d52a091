// powerplan.h — power-delivery planning (Sec. III.B).
//
// Both technologies are powered from the backside (the package constraint:
// bumps exist on one side only, and the FFET's carrier wafer forces that
// side to be the backside):
//
//   * FFET: backside VDD and VSS power stripes in an interleaved pattern at
//     64 CPP pitch.  Backside M0 VDD rails connect to the BSPDN directly;
//     frontside M0 VSS rails connect through **Power Tap Cells** placed in
//     every row directly under each backside VSS stripe (Fig. 6a-b).  The
//     tap cells are FIXED placement obstacles — they are what limits the
//     maximum achievable utilization (Fig. 8a: "maximum utilization is
//     limited by the placement of the Power Tap Cells").
//
//   * CFET: BPR + nTSV to a BM1/BM2 BSPDN (Fig. 6c).  The nTSV landing
//     pads block a fraction of placement sites along the stripes.
//
// The power plan also produces a first-order IR-drop estimate so the
// "power integrity" aspect of the paper's powerplan stage is checkable.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pnr/floorplan.h"
#include "stdcell/stdcell.h"

namespace ffet::pnr {

struct PowerPlan {
  /// x positions (stripe centerlines) of backside VSS / VDD stripes.
  std::vector<Nm> vss_stripe_x;
  std::vector<Nm> vdd_stripe_x;

  /// Fixed tap-cell instances added to the netlist (FFET only).
  std::vector<netlist::InstId> tap_cells;

  /// Placement blockages (tap-cell footprints and nTSV landing pads).
  std::vector<geom::Rect> blockages;

  /// Fraction of placement sites consumed by blockages.
  double blocked_site_fraction = 0.0;

  /// First-order worst-case static IR drop in mV at the given block power.
  double estimate_ir_drop_mv(double block_power_uw) const;

  // Model inputs kept for the IR estimate.
  double tap_r_ohm = 0.0;
  int num_rails = 0;
  double vdd_v_ = 0.7;
  double rail_r_ohm_ = 0.0;
};

/// Placement blockages indexed by row band: band k covers y in
/// [origin_y + k * row_height, origin_y + (k + 1) * row_height), and every
/// blockage is listed, in index order, in each band its y-span reaches.  A
/// query reads only the bands its own y-span reaches — about ten blockages
/// per row on the mesh, so a short scan per band beats an interval tree.
/// The placement DRC and the legalizer's row segments both read blockages
/// through it.  Holds a view of `blockages`, which must outlive it.
class BlockageRows {
 public:
  BlockageRows(std::span<const geom::Rect> blockages, Nm origin_y,
               Nm row_height);

  /// The lowest index of a blockage whose interior overlaps `box`'s, or -1.
  int first_overlap(const geom::Rect& box) const;
  /// The indices, ascending, of the blockages whose y-span interior
  /// overlaps [lo_y, hi_y] (b.lo.y < hi_y && lo_y < b.hi.y).
  std::vector<int> overlapping_y(Nm lo_y, Nm hi_y) const;

 private:
  /// The bands a y-span [lo, hi] reaches, clipped to the indexed ones
  /// (empty when lo_band > hi_band).  A span with hi <= lo reaches lo's
  /// band, so interior-overlap tests on degenerate spans lose nothing.
  std::pair<std::int64_t, std::int64_t> bands(Nm lo, Nm hi) const;
  std::int64_t band_of(Nm y) const;

  std::span<const geom::Rect> blockages_;
  Nm origin_y_ = 0;
  Nm row_height_ = 1;
  std::int64_t first_band_ = 0;      ///< band of first_[0]
  std::vector<std::int32_t> first_;  ///< CSR offsets into items_, per band
  std::vector<std::int32_t> items_;  ///< blockage indices, ascending per band
};

/// Plan the PDN on a floorplan.  For FFET technologies this ADDS fixed
/// TAPCELL instances to `nl` (they appear as FIXED components in the DEF);
/// for CFET it records nTSV blockages only.
PowerPlan build_power_plan(netlist::Netlist& nl, const Floorplan& fp,
                           const stdcell::Library& lib);

}  // namespace ffet::pnr

// region.h — congestion-region clustering for the router's negotiation.
//
// Rather than rip every subnet crossing an overflowed *edge* in one
// global pass order (no spatial structure), the negotiation loop clusters
// the overflowed gcells of a pass into rectangular congestion regions
// (nthu-route's range router is the exemplar): all 2-pin subnets passing
// through a region are ripped together and rerouted with the region's full
// congestion picture in their costs, and *disjoint* regions are
// independent units of work the thread pool can batch.
//
// Clustering is deterministic: gcells are unioned by Chebyshev proximity in
// index order, cluster boxes are expanded by a margin and transitively
// merged while they overlap, and the result is sorted by (r_lo, c_lo,
// r_hi, c_hi).  Same overflow picture -> same regions, independent of
// thread count.

#pragma once

#include <vector>

namespace ffet::pnr {

/// One rectangular congestion region in gcell coordinates (inclusive).
struct CongestionRegion {
  int c_lo = 0;
  int c_hi = 0;
  int r_lo = 0;
  int r_hi = 0;
  int cells = 0;  ///< overflowed gcells that seeded this region

  bool contains(int c, int r) const {
    return c >= c_lo && c <= c_hi && r >= r_lo && r <= r_hi;
  }
  friend bool operator==(const CongestionRegion&,
                         const CongestionRegion&) = default;
};

/// True when the two rectangles share at least one gcell.
bool regions_overlap(const CongestionRegion& a, const CongestionRegion& b);

/// Cluster `overflowed` gcell node indices (flat index = r * cols + c; any
/// order, duplicates tolerated) into congestion regions.  Cells within
/// Chebyshev distance `merge_dist` join one cluster; each cluster's
/// bounding box grows by `margin` gcells (clamped to the grid) so the
/// reroute sees context beyond the hot cells; boxes that overlap after
/// expansion merge transitively.  The returned regions are pairwise
/// disjoint and sorted by (r_lo, c_lo, r_hi, c_hi).
std::vector<CongestionRegion> cluster_congestion_regions(
    const std::vector<int>& overflowed, int cols, int rows,
    int merge_dist = 2, int margin = 3);

}  // namespace ffet::pnr

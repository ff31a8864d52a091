// steiner.h — rectilinear Steiner topology generation for the 2-pin
// decomposition of multi-sink nets.
//
// The router does not grow each net source-to-sinks inside the maze
// search.  Instead every per-side subnet is
// decomposed *before* routing over a rectilinear Steiner tree of its
// terminals, and each tree segment becomes an independently-routed 2-pin
// subnet — the structure nthu-route popularized (Construct_2d_tree /
// Route_2pinnets): congestion negotiation then operates on short point-to-
// point pieces whose detours stay local, instead of re-threading whole
// fanout trees.
//
// Topology quality is FLUTE-style tiered by terminal count:
//
//   * <= 3 terminals: exact rectilinear Steiner minimal tree (the median
//     point construction);
//   * <= kExactTerminals (9): iterated 1-Steiner over the Hanan grid —
//     repeatedly insert the candidate point whose addition maximally
//     shortens the spanning tree, the classic Kahng-Robins refinement that
//     tracks the FLUTE lookup tables closely at these sizes;
//   * above: plain Prim spanning tree over the terminals (the
//     spanning-graph fallback; high-fanout nets are rare after fanout
//     buffering and their segments are short).
//
// Coordinates are gcell grid indices (column, row), matching the router's
// per-side grids.  All tie-breaking is by index order, so the topology is a
// pure deterministic function of the terminal list.

#pragma once

#include <vector>

namespace ffet::pnr {

/// Terminal-count ceiling for the iterated 1-Steiner refinement; beyond it
/// the spanning-tree fallback is used.
inline constexpr int kExactTerminals = 9;

/// A topology node in gcell coordinates.
struct SteinerPoint {
  int c = 0;  ///< gcell column
  int r = 0;  ///< gcell row
  friend bool operator==(const SteinerPoint&, const SteinerPoint&) = default;
};

/// One tree segment: indices into SteinerTree::points.
struct SteinerSeg {
  int a = 0;
  int b = 0;
};

/// The generated topology.  points[0 .. num_terminals) are the input
/// terminals in input order; any further points are inserted Steiner
/// points.  segs form a spanning tree over all points (|segs| ==
/// |points| - 1 for >= 1 point), so the union of the segments connects
/// every terminal.
struct SteinerTree {
  std::vector<SteinerPoint> points;
  int num_terminals = 0;
  std::vector<SteinerSeg> segs;

  /// Total Manhattan length of the segments (gcell units).
  long length() const;
};

/// Build the Steiner topology of `terminals` (duplicates allowed; they
/// collapse onto one node via zero-length segments the caller can skip).
/// Deterministic: same terminals (in order) -> same tree.
SteinerTree build_steiner_tree(const std::vector<SteinerPoint>& terminals);

}  // namespace ffet::pnr

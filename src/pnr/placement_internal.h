// placement_internal.h — global placement's connectivity pull, split out of
// placement.cpp so tests can check it against a pairwise reference.  Not
// part of the pnr API.
//
// The centroid pass pulls every movable cell toward the mean of the pins it
// shares a net with.  Summing each net once per pass and subtracting the
// cell's own pins makes that O(pins) instead of O(Σ fanout²).  The sums are
// integer, so the mean reads back exactly what a pin-by-pin `double`
// accumulation gives (integer coordinates are exact in `double` below 2^53).

#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace ffet::pnr::detail {

/// Per-net pin-coordinate sums and pin counts of one placement snapshot:
/// the instance pins on the net (driver and sinks) plus the port once.
/// Clock nets read zero; the clock net does not pull placement.
struct NetPinSums {
  std::vector<std::int64_t> x;
  std::vector<std::int64_t> y;
  std::vector<int> count;
};

/// Fill `sums` from the current instance and port positions, one net per
/// index (parallel over nets, bit-identical at any thread count).
void sum_net_pins(const netlist::Netlist& nl, NetPinSums& sums, int threads);

/// The pins that pull one cell: summed coordinates and their count.
struct Pull {
  std::int64_t x = 0;
  std::int64_t y = 0;
  int count = 0;
};

/// The pull on cell `id`: for each of its pins on a non-clock net, that
/// net's sums minus all of the cell's own pins on the net.  A cell with two
/// pins on one net therefore visits the net twice.
Pull cell_pull(const netlist::Netlist& nl, const NetPinSums& sums,
               netlist::InstId id);

}  // namespace ffet::pnr::detail

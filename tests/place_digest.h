// place_digest.h — an integer-only FNV-1a fingerprint of a placement,
// shared by the placement and scale golden-placement tests.

#pragma once

#include <cstdint>

#include "netlist/netlist.h"
#include "pnr/placement.h"

namespace ffet::pnr {

/// FNV-1a 64 over the instance count, every instance position (fixed ones
/// included) and the result's violation count.  Only integers enter the
/// hash, so it pins the placement itself, not how a platform prints a
/// double.
inline std::uint64_t place_digest(const netlist::Netlist& nl,
                                  const PlacementResult& res) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= u & 0xffu;
      h *= 1099511628211ull;
      u >>= 8;
    }
  };
  mix(nl.num_instances());
  for (const netlist::Instance& inst : nl.instances()) {
    mix(inst.pos.x);
    mix(inst.pos.y);
  }
  mix(res.violations);
  return h;
}

}  // namespace ffet::pnr

// route_digest.h — an integer-only FNV-1a fingerprint of route_design's
// output, shared by the router and scale golden-route tests.

#pragma once

#include <cstdint>

#include "pnr/router.h"

namespace ffet::pnr {

/// FNV-1a 64 over every route's net, side, edges, sink gcells, source gcell
/// and layer indices, then the steiner_subnets, fastpath_routes,
/// ripups_total and overflow_total counters.  Only integers enter the hash,
/// so it pins the routes themselves, not how a platform prints a double.
inline std::uint64_t route_digest(const RouteResult& rr) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= u & 0xffu;
      h *= 1099511628211ull;
      u >>= 8;
    }
  };
  mix(static_cast<std::int64_t>(rr.routes.size()));
  for (const NetRoute& r : rr.routes) {
    mix(r.net);
    mix(r.side == tech::Side::Front ? 0 : 1);
    mix(static_cast<std::int64_t>(r.edges.size()));
    for (const GEdge& e : r.edges) {
      mix(e.a);
      mix(e.b);
    }
    mix(static_cast<std::int64_t>(r.sink_gcells.size()));
    for (int s : r.sink_gcells) mix(s);
    mix(r.source_gcell);
    mix(r.h_layer_index);
    mix(r.v_layer_index);
  }
  mix(rr.steiner_subnets);
  mix(rr.fastpath_routes);
  mix(rr.ripups_total);
  mix(rr.overflow_total);
  return h;
}

}  // namespace ffet::pnr

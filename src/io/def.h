// def.h — minimal LEF/DEF exchange layer.
//
// The paper's flow hinges on DEF plumbing: the dual-sided router emits TWO
// DEF files (frontside layers FM*, backside layers BM*), and the RC
// extraction step "first merges the two DEFs into one DEF [which] contains
// the P&R information of all the frontside and backside layers" (Sec.
// III.C).  This module provides:
//
//   * an in-memory DEF model (components / pins / routed nets),
//   * builders from a placed+routed design, one DEF per wafer side,
//   * `merge_defs` — the paper's merge step,
//   * writers and a reader for a compact DEF 5.8 dialect (round-trippable),
//   * a LEF writer for the dual-sided cell library (pin side is encoded in
//     the pin's LAYER: FM0 for frontside pins, BM0 for backside pins, both
//     rects for dual-sided output pins).
//
// The RC extractor (src/extract) reads the *merged* DEF the way the paper's
// StarRC run does; that path stays as the reference.  The flow itself
// extracts straight from the routes (the same wires, via route_wire), so
// it builds DEFs only on demand, for the CLI's dumps and the net report.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "pnr/router.h"
#include "pnr/track_assign.h"

namespace ffet::io {

struct DefComponent {
  std::string name;
  std::string cell;
  geom::Point pos;
  bool fixed = false;
};

struct DefPort {
  std::string name;
  bool is_input = true;
  geom::Point pos;
};

/// One routed wire segment on a named layer; axis-parallel.
struct DefWire {
  std::string layer;
  geom::Point from;
  geom::Point to;
};

struct DefNetPin {
  std::string component;  ///< empty for a top-level PIN connection
  std::string pin;
};

struct DefNet {
  std::string name;
  std::vector<DefNetPin> pins;
  std::vector<DefWire> wires;
};

struct Def {
  std::string design;
  int dbu_per_micron = 1000;  ///< database units: 1 nm
  geom::Rect die;
  std::vector<DefComponent> components;
  std::vector<DefPort> ports;
  std::vector<DefNet> nets;
};

/// One routed gcell edge as a DEF wire: the segment between the two gcell
/// centres (lower node first) on the route's layer for its direction.  The
/// one emitter of route geometry: build_def writes these (shifted off the
/// centreline when tracks are assigned), and the ECO loop's route-driven
/// extraction reads them, so the two cannot drift apart.  `grid` supplies
/// the gcell geometry (gcols, gcell_w, gcell_h).
struct RouteWire {
  int layer_index = 0;
  bool horizontal = false;
  geom::Point from;
  geom::Point to;
};
RouteWire route_wire(const pnr::RouteResult& grid, const pnr::GEdge& e,
                     int h_layer_index, int v_layer_index);

/// Build the DEF of one wafer side from a placed netlist and the routing
/// result: all components and all net pins appear (they are shared), but
/// only the wires of `side`'s layers.  With a TrackAssignment, wires are
/// emitted at their assigned track offsets (parallel runs instead of
/// coincident gcell centerlines).
Def build_def(const netlist::Netlist& nl, const pnr::RouteResult& routes,
              tech::Side side, const pnr::TrackAssignment* tracks = nullptr,
              int tracks_per_edge = 0);

/// The paper's merge step: combine the frontside and backside DEFs into one
/// model covering the full layer stack.  Both inputs must describe the same
/// design (same components and nets); throws std::invalid_argument
/// otherwise.
Def merge_defs(const Def& front, const Def& back);

void write_def(const Def& def, std::ostream& os);
std::string to_def_string(const Def& def);

/// Parse the dialect emitted by write_def.  Throws std::runtime_error on
/// malformed input.
Def read_def(std::istream& is);
Def read_def_string(const std::string& text);

/// Emit a LEF-flavoured description of the library (sites, macros, pin
/// sides via layer names).
void write_lef(const stdcell::Library& lib, std::ostream& os);
std::string to_lef_string(const stdcell::Library& lib);

/// Parse the dialect emitted by write_lef into a Library bound to `tech`.
/// LEF carries physical data only: macro sizes, pin names/directions and
/// sides (from the FM0/BM0 PORT layers).  Cell functions and drives are
/// recovered from the macro names (our catalogue naming, e.g. "NAND2D4");
/// unknown names throw.  The returned library is *uncharacterized* — run
/// liberty::characterize_library before timing it.
stdcell::Library read_lef(std::istream& is, const tech::Technology& tech);
stdcell::Library read_lef_string(const std::string& text,
                                 const tech::Technology& tech);

}  // namespace ffet::io

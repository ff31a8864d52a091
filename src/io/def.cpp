#include "io/def.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "io/stream_writer.h"

namespace ffet::io {

using netlist::Netlist;
using pnr::NetRoute;
using pnr::RouteResult;
using tech::Side;

RouteWire route_wire(const RouteResult& grid, const pnr::GEdge& e,
                     int h_layer_index, int v_layer_index) {
  const int a = std::min(e.a, e.b);
  const int b = std::max(e.a, e.b);
  const int ca = a % grid.gcols, ra = a / grid.gcols;
  const int cb = b % grid.gcols, rb = b / grid.gcols;
  RouteWire w;
  w.horizontal = ra == rb;
  w.layer_index = w.horizontal ? h_layer_index : v_layer_index;
  w.from = {ca * grid.gcell_w + grid.gcell_w / 2,
            ra * grid.gcell_h + grid.gcell_h / 2};
  w.to = {cb * grid.gcell_w + grid.gcell_w / 2,
          rb * grid.gcell_h + grid.gcell_h / 2};
  return w;
}

Def build_def(const Netlist& nl, const RouteResult& routes, Side side,
              const pnr::TrackAssignment* tracks, int tracks_per_edge) {
  Def def;
  def.design = nl.name();
  // Die spans the routing grid extent.
  def.die = geom::make_rect({0, 0}, routes.gcols * routes.gcell_w,
                            routes.grows * routes.gcell_h);

  def.components.reserve(static_cast<std::size_t>(nl.num_instances()));
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instance(i);
    def.components.push_back(
        {nl.instance_name(i), inst.type->name(), inst.pos, inst.fixed});
  }
  for (const netlist::Port& p : nl.ports()) {
    def.ports.push_back({p.name, p.is_input, p.pos});
  }

  // Nets: connectivity always, wires only for this side's routes.  Slots
  // are NetId-indexed (def.nets is emitted in NetId order; `present` marks
  // fully unconnected nets, which are skipped).
  std::vector<DefNet> by_net(static_cast<std::size_t>(nl.num_nets()));
  std::vector<char> present(static_cast<std::size_t>(nl.num_nets()), 0);
  for (int n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver.inst == netlist::kNoInst && net.sinks.empty()) continue;
    DefNet& dn = by_net[static_cast<std::size_t>(n)];
    present[static_cast<std::size_t>(n)] = 1;
    dn.name = nl.net_name(n);
    dn.pins.reserve(net.sinks.size() + 1 + (net.port >= 0 ? 1 : 0));
    if (net.port >= 0) {
      dn.pins.push_back({"", nl.port(net.port).name});
    }
    auto pin_name = [&](const netlist::PinRef& r) {
      const netlist::Instance& inst = nl.instance(r.inst);
      return DefNetPin{nl.instance_name(r.inst),
                       inst.type->pins()[static_cast<std::size_t>(r.pin)].name};
    };
    if (net.driver.inst != netlist::kNoInst) {
      dn.pins.push_back(pin_name(net.driver));
    }
    for (const netlist::PinRef& s : net.sinks) dn.pins.push_back(pin_name(s));
  }

  const char prefix = side == Side::Front ? 'F' : 'B';
  for (std::size_t ri = 0; ri < routes.routes.size(); ++ri) {
    const NetRoute& r = routes.routes[ri];
    if (r.side != side) continue;
    if (r.net < 0 || r.net >= nl.num_nets() ||
        !present[static_cast<std::size_t>(r.net)]) {
      continue;
    }
    DefNet& dn = by_net[static_cast<std::size_t>(r.net)];
    for (std::size_t ei = 0; ei < r.edges.size(); ++ei) {
      RouteWire w =
          route_wire(routes, r.edges[ei], r.h_layer_index, r.v_layer_index);
      if (tracks && tracks_per_edge > 0) {
        // Offset perpendicular to the run direction by the assigned track.
        const geom::Nm off = pnr::track_offset_nm(
            tracks->track_of[ri][ei], tracks_per_edge,
            w.horizontal ? routes.gcell_h : routes.gcell_w);
        if (w.horizontal) {
          w.from.y += off;
          w.to.y += off;
        } else {
          w.from.x += off;
          w.to.x += off;
        }
      }
      dn.wires.push_back(
          {std::string(1, prefix) + "M" + std::to_string(w.layer_index),
           w.from, w.to});
    }
  }

  def.nets.reserve(
      static_cast<std::size_t>(std::count(present.begin(), present.end(), 1)));
  for (std::size_t n = 0; n < by_net.size(); ++n) {
    if (present[n]) def.nets.push_back(std::move(by_net[n]));
  }
  return def;
}

Def merge_defs(const Def& front, const Def& back) {
  if (front.design != back.design ||
      front.components.size() != back.components.size() ||
      front.nets.size() != back.nets.size()) {
    throw std::invalid_argument(
        "front/back DEFs describe different designs and cannot be merged");
  }
  Def merged = front;
  merged.die = front.die.united(back.die);
  // Index back nets by name; append their wires to the front net.
  std::unordered_map<std::string_view, const DefNet*> back_nets;
  back_nets.reserve(back.nets.size());
  for (const DefNet& n : back.nets) back_nets.emplace(n.name, &n);
  for (DefNet& n : merged.nets) {
    auto it = back_nets.find(n.name);
    if (it == back_nets.end()) {
      throw std::invalid_argument("net " + n.name + " missing from back DEF");
    }
    if (it->second->pins.size() != n.pins.size()) {
      throw std::invalid_argument("net " + n.name +
                                  " has mismatched connectivity");
    }
    n.wires.insert(n.wires.end(), it->second->wires.begin(),
                   it->second->wires.end());
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_def(const Def& def, std::ostream& os) {
  StreamWriter w(os);
  w << "VERSION 5.8 ;\n";
  w << "DESIGN " << def.design << " ;\n";
  w << "UNITS DISTANCE MICRONS " << def.dbu_per_micron << " ;\n";
  w << "DIEAREA ( " << def.die.lo.x << ' ' << def.die.lo.y << " ) ( "
    << def.die.hi.x << ' ' << def.die.hi.y << " ) ;\n";

  w << "COMPONENTS " << def.components.size() << " ;\n";
  for (const DefComponent& c : def.components) {
    w << "- " << c.name << ' ' << c.cell << " + "
      << (c.fixed ? "FIXED" : "PLACED") << " ( " << c.pos.x << ' '
      << c.pos.y << " ) N ;\n";
  }
  w << "END COMPONENTS\n";

  w << "PINS " << def.ports.size() << " ;\n";
  for (const DefPort& p : def.ports) {
    w << "- " << p.name << " + DIRECTION "
      << (p.is_input ? "INPUT" : "OUTPUT") << " + PLACED ( " << p.pos.x
      << ' ' << p.pos.y << " ) ;\n";
  }
  w << "END PINS\n";

  w << "NETS " << def.nets.size() << " ;\n";
  for (const DefNet& n : def.nets) {
    w << "- " << n.name;
    for (const DefNetPin& p : n.pins) {
      if (p.component.empty()) {
        w << " ( PIN " << p.pin << " )";
      } else {
        w << " ( " << p.component << ' ' << p.pin << " )";
      }
    }
    for (std::size_t wi = 0; wi < n.wires.size(); ++wi) {
      w << "\n  " << (wi == 0 ? "+ ROUTED " : "NEW ") << n.wires[wi].layer
        << " ( " << n.wires[wi].from.x << ' ' << n.wires[wi].from.y
        << " ) ( " << n.wires[wi].to.x << ' ' << n.wires[wi].to.y << " )";
    }
    w << " ;\n";
  }
  w << "END NETS\n";
  w << "END DESIGN\n";
}

std::string to_def_string(const Def& def) {
  std::ostringstream os;
  write_def(def, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

class Tokenizer {
 public:
  explicit Tokenizer(std::istream& is) : is_(is) {}

  std::string next() {
    std::string t;
    if (!(is_ >> t)) throw std::runtime_error("unexpected end of DEF");
    return t;
  }
  bool try_next(std::string& t) { return static_cast<bool>(is_ >> t); }

  long long next_int() {
    const std::string t = next();
    try {
      return std::stoll(t);
    } catch (...) {
      throw std::runtime_error("expected integer, got '" + t + "'");
    }
  }

  void expect(const std::string& want) {
    const std::string t = next();
    if (t != want) {
      throw std::runtime_error("expected '" + want + "', got '" + t + "'");
    }
  }

 private:
  std::istream& is_;
};

}  // namespace

Def read_def(std::istream& is) {
  Tokenizer tk(is);
  Def def;

  tk.expect("VERSION");
  tk.next();  // 5.8
  tk.expect(";");
  tk.expect("DESIGN");
  def.design = tk.next();
  tk.expect(";");
  tk.expect("UNITS");
  tk.expect("DISTANCE");
  tk.expect("MICRONS");
  def.dbu_per_micron = static_cast<int>(tk.next_int());
  tk.expect(";");
  tk.expect("DIEAREA");
  tk.expect("(");
  def.die.lo.x = tk.next_int();
  def.die.lo.y = tk.next_int();
  tk.expect(")");
  tk.expect("(");
  def.die.hi.x = tk.next_int();
  def.die.hi.y = tk.next_int();
  tk.expect(")");
  tk.expect(";");

  tk.expect("COMPONENTS");
  const auto ncomp = tk.next_int();
  tk.expect(";");
  for (long long i = 0; i < ncomp; ++i) {
    tk.expect("-");
    DefComponent c;
    c.name = tk.next();
    c.cell = tk.next();
    tk.expect("+");
    const std::string kind = tk.next();
    c.fixed = kind == "FIXED";
    tk.expect("(");
    c.pos.x = tk.next_int();
    c.pos.y = tk.next_int();
    tk.expect(")");
    tk.expect("N");
    tk.expect(";");
    def.components.push_back(std::move(c));
  }
  tk.expect("END");
  tk.expect("COMPONENTS");

  tk.expect("PINS");
  const auto npins = tk.next_int();
  tk.expect(";");
  for (long long i = 0; i < npins; ++i) {
    tk.expect("-");
    DefPort p;
    p.name = tk.next();
    tk.expect("+");
    tk.expect("DIRECTION");
    p.is_input = tk.next() == "INPUT";
    tk.expect("+");
    tk.expect("PLACED");
    tk.expect("(");
    p.pos.x = tk.next_int();
    p.pos.y = tk.next_int();
    tk.expect(")");
    tk.expect(";");
    def.ports.push_back(std::move(p));
  }
  tk.expect("END");
  tk.expect("PINS");

  tk.expect("NETS");
  const auto nnets = tk.next_int();
  tk.expect(";");
  for (long long i = 0; i < nnets; ++i) {
    tk.expect("-");
    DefNet n;
    n.name = tk.next();
    // Pins then optional routed segments, terminated by ';'.
    std::string t = tk.next();
    while (t == "(") {
      DefNetPin p;
      const std::string a = tk.next();
      if (a == "PIN") {
        p.pin = tk.next();
      } else {
        p.component = a;
        p.pin = tk.next();
      }
      tk.expect(")");
      n.pins.push_back(std::move(p));
      t = tk.next();
    }
    while (t == "+" || t == "NEW") {
      if (t == "+") tk.expect("ROUTED");
      DefWire w;
      w.layer = tk.next();
      tk.expect("(");
      w.from.x = tk.next_int();
      w.from.y = tk.next_int();
      tk.expect(")");
      tk.expect("(");
      w.to.x = tk.next_int();
      w.to.y = tk.next_int();
      tk.expect(")");
      n.wires.push_back(std::move(w));
      t = tk.next();
    }
    if (t != ";") {
      throw std::runtime_error("malformed net " + n.name + " near '" + t +
                               "'");
    }
    def.nets.push_back(std::move(n));
  }
  tk.expect("END");
  tk.expect("NETS");
  tk.expect("END");
  tk.expect("DESIGN");
  return def;
}

Def read_def_string(const std::string& text) {
  std::istringstream is(text);
  return read_def(is);
}

// ---------------------------------------------------------------------------
// LEF writer
// ---------------------------------------------------------------------------

void write_lef(const stdcell::Library& lib, std::ostream& os) {
  const tech::Technology& tech = lib.tech();
  os << "VERSION 5.8 ;\n";
  os << "BUSBITCHARS \"[]\" ;\n";
  os << "DIVIDERCHAR \"/\" ;\n";
  os << "UNITS\n  DATABASE MICRONS 1000 ;\nEND UNITS\n\n";
  for (const tech::MetalLayer& l : tech.layers()) {
    os << "LAYER " << l.name << "\n  TYPE ROUTING ;\n  DIRECTION "
       << (l.preferred_dir == geom::Dir::Horizontal ? "HORIZONTAL"
                                                    : "VERTICAL")
       << " ;\n  PITCH " << geom::to_um(l.pitch) << " ;\nEND " << l.name
       << "\n";
  }
  os << "\nSITE core\n  CLASS CORE ;\n  SIZE " << geom::to_um(tech.cpp())
     << " BY " << geom::to_um(tech.cell_height()) << " ;\nEND core\n\n";

  for (const auto& cell : lib.cells()) {
    os << "MACRO " << cell->name() << "\n";
    os << "  CLASS CORE ;\n";
    os << "  SIZE " << geom::to_um(cell->width()) << " BY "
       << geom::to_um(cell->height()) << " ;\n";
    os << "  SITE core ;\n";
    for (const stdcell::CellPin& p : cell->pins()) {
      os << "  PIN " << p.name << "\n    DIRECTION "
         << (p.dir == stdcell::PinDir::Output ? "OUTPUT" : "INPUT")
         << " ;\n";
      if (p.dir == stdcell::PinDir::Clock) os << "    USE CLOCK ;\n";
      auto emit_port = [&](const char* layer) {
        os << "    PORT\n      LAYER " << layer << " ;\n      RECT "
           << geom::to_um(p.offset.x - 10) << " "
           << geom::to_um(p.offset.y - 10) << " "
           << geom::to_um(p.offset.x + 10) << " "
           << geom::to_um(p.offset.y + 10) << " ;\n    END\n";
      };
      // Pin side encoding: frontside pins on FM0, backside pins on BM0,
      // dual-sided output pins carry a PORT on both.
      switch (p.side) {
        case stdcell::PinSide::Front: emit_port("FM0"); break;
        case stdcell::PinSide::Back: emit_port("BM0"); break;
        case stdcell::PinSide::Both:
          emit_port("FM0");
          emit_port("BM0");
          break;
      }
      os << "  END " << p.name << "\n";
    }
    os << "END " << cell->name() << "\n\n";
  }
  os << "END LIBRARY\n";
}

std::string to_lef_string(const stdcell::Library& lib) {
  std::ostringstream os;
  write_lef(lib, os);
  return os.str();
}

}  // namespace ffet::io

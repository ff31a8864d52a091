#include "netlist/netlist.h"

#include <algorithm>
#include <charconv>
#include <queue>
#include <stdexcept>

namespace ffet::netlist {

using stdcell::PinDir;

namespace {

/// Parse a synthesized spelling "<prefix><N>" (prefix = "_i" or "_n");
/// returns -1 when `s` is not of that exact shape.
std::int32_t parse_synth_name(std::string_view s, char kind) {
  if (s.size() < 3 || s[0] != '_' || s[1] != kind) return -1;
  std::int32_t v = 0;
  const char* b = s.data() + 2;
  const char* e = s.data() + s.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (ec != std::errc{} || p != e || v < 0) return -1;
  return v;
}

void append_synth_name(std::string& out, char kind, std::int32_t id) {
  char buf[16];
  buf[0] = '_';
  buf[1] = kind;
  const auto [p, ec] = std::to_chars(buf + 2, buf + sizeof(buf), id);
  (void)ec;
  out.append(buf, static_cast<std::size_t>(p - buf));
}

}  // namespace

Netlist::Netlist(std::string name, const stdcell::Library* lib)
    : name_(std::move(name)), lib_(lib) {}

Netlist::Netlist(const Netlist& other)
    : name_(other.name_),
      lib_(other.lib_),
      instances_(other.instances_),
      nets_(other.nets_),
      ports_(other.ports_),
      inst_first_pin_(other.inst_first_pin_),
      pin_net_arena_(other.pin_net_arena_),
      port_by_name_(other.port_by_name_),
      pin_side_override_(other.pin_side_override_) {
  // Re-intern names into this netlist's own pool and rebuild the by-name
  // maps (the source's views point into its pool).
  inst_names_.reserve(other.inst_names_.size());
  net_names_.reserve(other.net_names_.size());
  inst_by_name_.reserve(other.inst_by_name_.size());
  net_by_name_.reserve(other.net_by_name_.size());
  for (std::size_t i = 0; i < other.inst_names_.size(); ++i) {
    const std::string_view v = pool_.intern(other.inst_names_[i]);
    inst_names_.push_back(v);
    if (!v.empty()) inst_by_name_.emplace(v, static_cast<InstId>(i));
  }
  for (std::size_t n = 0; n < other.net_names_.size(); ++n) {
    const std::string_view v = pool_.intern(other.net_names_[n]);
    net_names_.push_back(v);
    if (!v.empty()) net_by_name_.emplace(v, static_cast<NetId>(n));
  }
}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this != &other) {
    Netlist tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void Netlist::reserve(std::size_t insts, std::size_t nets, std::size_t pins) {
  instances_.reserve(insts);
  inst_names_.reserve(insts);
  inst_first_pin_.reserve(insts + 1);
  nets_.reserve(nets);
  net_names_.reserve(nets);
  pin_net_arena_.reserve(pins);
}

InstId Netlist::add_instance(std::string_view inst_name,
                             std::string_view cell_name) {
  return add_instance(inst_name, &lib_->at(cell_name));
}

InstId Netlist::add_instance(std::string_view inst_name,
                             const stdcell::CellType* type) {
  if (inst_name.empty()) {
    throw std::invalid_argument("explicit instance name must be non-empty");
  }
  if (inst_by_name_.contains(inst_name)) {
    throw std::invalid_argument("duplicate instance " +
                                std::string(inst_name));
  }
  return add_instance_impl(inst_name, type);
}

InstId Netlist::add_instance(const stdcell::CellType* type) {
  return add_instance_impl({}, type);
}

InstId Netlist::add_instance_impl(std::string_view inst_name,
                                  const stdcell::CellType* type) {
  Instance inst;
  inst.type = type;
  const InstId id = static_cast<InstId>(instances_.size());
  const std::string_view interned = pool_.intern(inst_name);
  inst_names_.push_back(interned);
  if (!interned.empty()) inst_by_name_.emplace(interned, id);
  instances_.push_back(inst);
  pin_net_arena_.insert(pin_net_arena_.end(), type->pins().size(), kNoNet);
  inst_first_pin_.push_back(static_cast<std::uint32_t>(pin_net_arena_.size()));
  return id;
}

NetId Netlist::add_net(std::string_view net_name) {
  if (net_name.empty()) {
    throw std::invalid_argument("explicit net name must be non-empty");
  }
  if (net_by_name_.contains(net_name)) {
    throw std::invalid_argument("duplicate net " + std::string(net_name));
  }
  return add_net_impl(net_name);
}

NetId Netlist::add_net() { return add_net_impl({}); }

NetId Netlist::add_net_impl(std::string_view net_name) {
  const NetId id = static_cast<NetId>(nets_.size());
  const std::string_view interned = pool_.intern(net_name);
  net_names_.push_back(interned);
  if (!interned.empty()) net_by_name_.emplace(interned, id);
  nets_.emplace_back();
  return id;
}

std::string Netlist::instance_name(InstId id) const {
  std::string out;
  append_instance_name(out, id);
  return out;
}

std::string Netlist::net_name(NetId id) const {
  std::string out;
  append_net_name(out, id);
  return out;
}

void Netlist::append_instance_name(std::string& out, InstId id) const {
  const std::string_view v = inst_names_[static_cast<std::size_t>(id)];
  if (!v.empty()) {
    out.append(v);
  } else {
    append_synth_name(out, 'i', id);
  }
}

void Netlist::append_net_name(std::string& out, NetId id) const {
  const std::string_view v = net_names_[static_cast<std::size_t>(id)];
  if (!v.empty()) {
    out.append(v);
  } else {
    append_synth_name(out, 'n', id);
  }
}

PortId Netlist::add_input(std::string port_name) {
  const NetId net = add_net(port_name);
  Port p;
  p.name = std::move(port_name);
  p.is_input = true;
  p.net = net;
  const PortId id = static_cast<PortId>(ports_.size());
  port_by_name_.emplace(p.name, id);
  nets_[static_cast<std::size_t>(net)].port = id;
  ports_.push_back(std::move(p));
  return id;
}

PortId Netlist::add_output(std::string port_name) {
  const NetId net = add_net(port_name);
  Port p;
  p.name = std::move(port_name);
  p.is_input = false;
  p.net = net;
  const PortId id = static_cast<PortId>(ports_.size());
  port_by_name_.emplace(p.name, id);
  nets_[static_cast<std::size_t>(net)].port = id;
  ports_.push_back(std::move(p));
  return id;
}

PortId Netlist::add_output_for_net(std::string port_name, NetId net_id) {
  Net& n = net(net_id);
  if (n.port >= 0) {
    throw std::invalid_argument("net " + net_name(net_id) +
                                " already has a port");
  }
  Port p;
  p.name = std::move(port_name);
  p.is_input = false;
  p.net = net_id;
  const PortId id = static_cast<PortId>(ports_.size());
  if (port_by_name_.contains(p.name)) {
    throw std::invalid_argument("duplicate port " + p.name);
  }
  port_by_name_.emplace(p.name, id);
  n.port = id;
  ports_.push_back(std::move(p));
  return id;
}

void Netlist::connect(InstId inst, std::string_view pin_name, NetId net) {
  Instance& i = instance(inst);
  const int pin = i.type->pin_index(pin_name);
  if (pin < 0) {
    throw std::invalid_argument("instance " + instance_name(inst) + " (" +
                                i.type->name() + ") has no pin " +
                                std::string(pin_name));
  }
  const std::size_t slot =
      inst_first_pin_[static_cast<std::size_t>(inst)] +
      static_cast<std::size_t>(pin);
  if (pin_net_arena_[slot] != kNoNet) {
    throw std::invalid_argument("pin " + instance_name(inst) + "/" +
                                std::string(pin_name) + " already connected");
  }
  pin_net_arena_[slot] = net;
  Net& n = this->net(net);
  const PinDir dir = i.type->pins()[static_cast<std::size_t>(pin)].dir;
  if (dir == PinDir::Output) {
    if (n.driver.inst != kNoInst) {
      throw std::invalid_argument("net " + net_name(net) +
                                  " has two drivers");
    }
    n.driver = {inst, pin};
  } else {
    n.sinks.push_back({inst, pin});
  }
}

void Netlist::reconnect_sink(InstId inst, std::string_view pin_name,
                             NetId new_net) {
  const int pin = instance(inst).type->pin_index(pin_name);
  if (pin < 0) {
    throw std::invalid_argument("no pin " + std::string(pin_name));
  }
  const SinkMove move{inst, pin, new_net};
  reconnect_sinks({&move, 1});
}

void Netlist::reconnect_sinks(std::span<const SinkMove> moves) {
  std::vector<PinRef> moved;
  std::vector<NetId> old_nets;
  moved.reserve(moves.size());
  for (const SinkMove& m : moves) {
    const Instance& i = instance(m.inst);
    if (m.pin < 0 || static_cast<std::size_t>(m.pin) >= i.type->pins().size()) {
      throw std::invalid_argument("no pin " + std::to_string(m.pin) +
                                  " on " + instance_name(m.inst));
    }
    const auto& pin = i.type->pins()[static_cast<std::size_t>(m.pin)];
    if (pin.dir == PinDir::Output) {
      throw std::invalid_argument("reconnect_sink on driver pin " +
                                  instance_name(m.inst) + "/" + pin.name);
    }
    moved.push_back({m.inst, m.pin});
    const NetId old = pin_net(m.inst, m.pin);
    if (old != kNoNet) old_nets.push_back(old);
  }
  auto by_ref = [](const PinRef& a, const PinRef& b) {
    return a.inst != b.inst ? a.inst < b.inst : a.pin < b.pin;
  };
  std::sort(moved.begin(), moved.end(), by_ref);
  std::sort(old_nets.begin(), old_nets.end());
  old_nets.erase(std::unique(old_nets.begin(), old_nets.end()),
                 old_nets.end());
  for (const NetId old : old_nets) {
    auto& sinks = net(old).sinks;
    sinks.erase(std::remove_if(sinks.begin(), sinks.end(),
                               [&](const PinRef& s) {
                                 return std::binary_search(
                                     moved.begin(), moved.end(), s, by_ref);
                               }),
                sinks.end());
  }
  for (const SinkMove& m : moves) {
    pin_net_arena_[inst_first_pin_[static_cast<std::size_t>(m.inst)] +
                   static_cast<std::size_t>(m.pin)] = m.net;
    net(m.net).sinks.push_back({m.inst, m.pin});
  }
}

void Netlist::resize_instance(InstId inst, const stdcell::CellType* new_type) {
  Instance& i = instance(inst);
  if (i.type == new_type) return;
  if (i.type->function() != new_type->function() ||
      i.type->pins().size() != new_type->pins().size()) {
    throw std::invalid_argument("resize across incompatible types: " +
                                i.type->name() + " -> " + new_type->name());
  }
  for (std::size_t p = 0; p < i.type->pins().size(); ++p) {
    if (i.type->pins()[p].name != new_type->pins()[p].name) {
      throw std::invalid_argument("resize with mismatched pin order");
    }
  }
  i.type = new_type;
}

void Netlist::mark_clock_net(NetId net_id) {
  net(net_id).is_clock = true;
}

void Netlist::disconnect_pin(InstId inst, std::string_view pin_name) {
  Instance& i = instance(inst);
  const int pin = i.type->pin_index(pin_name);
  if (pin < 0) {
    throw std::invalid_argument("no pin " + std::string(pin_name));
  }
  const std::size_t slot =
      inst_first_pin_[static_cast<std::size_t>(inst)] +
      static_cast<std::size_t>(pin);
  const NetId old = pin_net_arena_[slot];
  if (old == kNoNet) return;
  Net& n = net(old);
  if (n.driver == PinRef{inst, pin}) {
    n.driver = {};
  } else {
    n.sinks.erase(std::remove(n.sinks.begin(), n.sinks.end(),
                              PinRef{inst, pin}),
                  n.sinks.end());
  }
  pin_net_arena_[slot] = kNoNet;
}

void Netlist::pop_instance() {
  if (instances_.empty()) {
    throw std::logic_error("pop_instance on empty netlist");
  }
  const auto id = static_cast<InstId>(instances_.size() - 1);
  for (const NetId n : pin_nets(id)) {
    if (n != kNoNet) {
      throw std::logic_error("pop_instance " + instance_name(id) +
                             ": pins still connected");
    }
  }
  if (!pin_side_override_.empty()) {
    const int pins = pin_count(id);
    for (int p = 0; p < pins; ++p) pin_side_override_.erase(pin_key(id, p));
  }
  const std::string_view nm = inst_names_.back();
  if (!nm.empty()) inst_by_name_.erase(nm);
  inst_names_.pop_back();
  instances_.pop_back();
  inst_first_pin_.pop_back();
  pin_net_arena_.resize(inst_first_pin_.back());
}

void Netlist::pop_net() {
  if (nets_.empty()) throw std::logic_error("pop_net on empty netlist");
  const Net& n = nets_.back();
  if (n.driver.inst != kNoInst || !n.sinks.empty() || n.port >= 0) {
    throw std::logic_error("pop_net " +
                           net_name(static_cast<NetId>(nets_.size() - 1)) +
                           ": still connected");
  }
  const std::string_view nm = net_names_.back();
  if (!nm.empty()) net_by_name_.erase(nm);
  net_names_.pop_back();
  nets_.pop_back();
}

void Netlist::set_pin_side(const PinRef& p, stdcell::PinSide side) {
  if (side == instance(p.inst)
                  .type->pins()[static_cast<std::size_t>(p.pin)]
                  .side) {
    pin_side_override_.erase(pin_key(p.inst, p.pin));
  } else {
    pin_side_override_[pin_key(p.inst, p.pin)] = side;
  }
}

void Netlist::clear_pin_side(const PinRef& p) {
  pin_side_override_.erase(pin_key(p.inst, p.pin));
}

std::optional<NetId> Netlist::find_net(std::string_view n) const {
  auto it = net_by_name_.find(n);
  if (it != net_by_name_.end()) return it->second;
  // Synthesized spelling of an anonymous net.
  const std::int32_t id = parse_synth_name(n, 'n');
  if (id >= 0 && id < num_nets() &&
      net_names_[static_cast<std::size_t>(id)].empty()) {
    return id;
  }
  return std::nullopt;
}

std::optional<InstId> Netlist::find_instance(std::string_view n) const {
  auto it = inst_by_name_.find(n);
  if (it != inst_by_name_.end()) return it->second;
  const std::int32_t id = parse_synth_name(n, 'i');
  if (id >= 0 && id < num_instances() &&
      inst_names_[static_cast<std::size_t>(id)].empty()) {
    return id;
  }
  return std::nullopt;
}

std::optional<PortId> Netlist::find_port(std::string_view n) const {
  auto it = port_by_name_.find(n);
  if (it == port_by_name_.end()) return std::nullopt;
  return it->second;
}

stdcell::PinSide Netlist::pin_side(const PinRef& p) const {
  if (!pin_side_override_.empty()) {
    const auto it = pin_side_override_.find(pin_key(p.inst, p.pin));
    if (it != pin_side_override_.end()) return it->second;
  }
  const Instance& i = instance(p.inst);
  return i.type->pins()[static_cast<std::size_t>(p.pin)].side;
}

geom::Point Netlist::pin_position(const PinRef& p) const {
  const Instance& i = instance(p.inst);
  return i.pos + i.type->pins()[static_cast<std::size_t>(p.pin)].offset;
}

double Netlist::pin_cap_ff(const PinRef& p) const {
  const Instance& i = instance(p.inst);
  return i.type->pins()[static_cast<std::size_t>(p.pin)].cap_ff;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.num_instances = num_instances();
  s.num_nets = num_nets();
  double fanout_sum = 0.0;
  int driven = 0;
  for (const Instance& i : instances_) {
    s.total_cell_area_um2 += i.type->area_um2();
    if (i.type->sequential()) ++s.num_sequential;
  }
  for (const NetId n : pin_net_arena_) {
    if (n != kNoNet) ++s.num_pins;
  }
  for (const Net& n : nets_) {
    if (n.driver.inst != kNoInst) {
      fanout_sum += static_cast<double>(n.sinks.size());
      ++driven;
    }
  }
  s.avg_fanout = driven ? fanout_sum / driven : 0.0;
  return s;
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  for (InstId id = 0; id < num_instances(); ++id) {
    const Instance& i = instance(id);
    if (i.type->physical_only()) continue;
    const std::span<const NetId> pins = pin_nets(id);
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (pins[p] == kNoNet) {
        problems.push_back("open pin " + instance_name(id) + "/" +
                           i.type->pins()[p].name);
      }
    }
  }
  for (NetId n = 0; n < num_nets(); ++n) {
    const Net& net = nets_[static_cast<std::size_t>(n)];
    const bool has_driver =
        net.driver.inst != kNoInst ||
        (net.port >= 0 && ports_[static_cast<std::size_t>(net.port)].is_input);
    if (!has_driver && !net.sinks.empty()) {
      problems.push_back("undriven net " + net_name(n));
    }
    for (const PinRef& s : net.sinks) {
      if (pin_net(s.inst, s.pin) != n) {
        problems.push_back("inconsistent sink list on net " + net_name(n));
      }
    }
  }
  return problems;
}

std::vector<InstId> Netlist::topo_order() const {
  // Kahn's algorithm over the combinational dependency graph: an edge
  // A -> B exists when A's output net feeds a *data* input of combinational
  // instance B.  Sequential instances are sources (their Q is available at
  // cycle start) and never depend on anything combinationally.
  std::vector<int> pending(instances_.size(), 0);
  for (std::size_t b = 0; b < instances_.size(); ++b) {
    const Instance& inst = instances_[b];
    if (inst.type->physical_only() || inst.type->sequential()) continue;
    const std::span<const NetId> pins = pin_nets(static_cast<InstId>(b));
    for (std::size_t p = 0; p < pins.size(); ++p) {
      const auto& pin = inst.type->pins()[p];
      if (pin.dir == stdcell::PinDir::Output) continue;
      const NetId n = pins[p];
      if (n == kNoNet) continue;
      const PinRef d = net(n).driver;
      if (d.inst == kNoInst) continue;  // PI-driven
      if (instance(d.inst).type->sequential()) continue;
      ++pending[b];
    }
  }

  // Sequential instances first, in id order: a flop's Q is read by the
  // combinational cells it feeds, whatever their ids.  They add no edges,
  // so the combinational part of the order is the same either way.
  std::queue<InstId> ready;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].type->sequential()) ready.push(static_cast<InstId>(i));
  }
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const stdcell::CellType& type = *instances_[i].type;
    if (type.physical_only() || type.sequential()) continue;
    if (pending[i] == 0) ready.push(static_cast<InstId>(i));
  }

  std::vector<InstId> order;
  order.reserve(instances_.size());
  while (!ready.empty()) {
    const InstId id = ready.front();
    ready.pop();
    order.push_back(id);
    const Instance& inst = instance(id);
    if (inst.type->sequential()) continue;  // Q feeds next cycle, not topo
    const std::span<const NetId> pins = pin_nets(id);
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (inst.type->pins()[p].dir != stdcell::PinDir::Output) continue;
      const NetId n = pins[p];
      if (n == kNoNet) continue;
      for (const PinRef& s : net(n).sinks) {
        const Instance& si = instance(s.inst);
        if (si.type->sequential() || si.type->physical_only()) continue;
        if (--pending[static_cast<std::size_t>(s.inst)] == 0) {
          ready.push(s.inst);
        }
      }
    }
  }

  std::size_t logic_count = 0;
  for (const Instance& i : instances_) {
    if (!i.type->physical_only()) ++logic_count;
  }
  if (order.size() != logic_count) {
    throw std::runtime_error("combinational cycle detected in " + name_);
  }
  return order;
}

}  // namespace ffet::netlist

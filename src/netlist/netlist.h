// netlist.h — gate-level netlist database.
//
// The design representation flowing through the whole framework: produced by
// the RISC-V generator (src/riscv), resized by virtual synthesis
// (src/synth), annotated with positions by placement (src/pnr), decomposed
// into per-side nets by the dual-sided router, and traversed by STA
// (src/sta).
//
// Identifiers are dense integer indices (InstId / NetId) into flat vectors —
// the representation every serious P&R database uses.  The storage is laid
// out for million-cell designs:
//
//   * pin connectivity lives in one shared CSR arena — instance i's pins
//     are `pin_net_arena[inst_first_pin[i] .. inst_first_pin[i+1])` — so an
//     instance costs no per-object heap allocation;
//   * names are interned into a chunked character pool and referenced by
//     string_view; instances/nets created without a name (`add_instance(
//     type)` / `add_net()`) cost zero name bytes and synthesize a stable
//     `_i<N>` / `_n<N>` on demand.  `find_instance`/`find_net` resolve both
//     explicit and synthesized spellings.

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geom/geom.h"
#include "stdcell/stdcell.h"

namespace ffet::netlist {

using InstId = std::int32_t;
using NetId = std::int32_t;
using PortId = std::int32_t;
inline constexpr InstId kNoInst = -1;
inline constexpr NetId kNoNet = -1;

/// A pin reference: instance + pin index within its cell type.
struct PinRef {
  InstId inst = kNoInst;
  int pin = -1;

  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// One placed cell instance.  Pin connectivity and the (optional) name live
/// in the Netlist's shared arenas; the struct itself is flat.
struct Instance {
  const stdcell::CellType* type = nullptr;
  /// Placement origin (lower-left), set by the placer.
  geom::Point pos;
  /// Fixed instances (Power Tap Cells, nTSV blockages) may not be moved.
  bool fixed = false;

  geom::Rect bbox() const {
    return geom::make_rect(pos, type->width(), type->height());
  }
};

/// A logical net: one driver, many sinks.  Primary inputs are modeled as
/// driverless nets attached to an input port; primary outputs as ports
/// listed among the sinks.
struct Net {
  PinRef driver;               ///< invalid (inst == kNoInst) for PI nets
  std::vector<PinRef> sinks;   ///< cell input pins
  PortId port = -1;            ///< attached primary port, if any
  bool is_clock = false;       ///< marked by the clock definition / CTS
};

struct Port {
  std::string name;
  bool is_input = true;
  NetId net = kNoNet;
  /// IO placement on the core boundary, set during floorplan/IO planning.
  geom::Point pos;
};

/// Aggregate statistics used by reports and the floorplanner.  Pin and area
/// accumulators are wide: a 1M-cell design crosses 2^31 total pins long
/// before it crosses 2^31 instances.
struct NetlistStats {
  int num_instances = 0;
  int num_sequential = 0;
  int num_nets = 0;
  std::int64_t num_pins = 0;
  double total_cell_area_um2 = 0.0;
  double avg_fanout = 0.0;
};

/// Chunked character arena with stable storage: interned views stay valid
/// for the pool's lifetime (chunks are never reallocated or freed).
class NamePool {
 public:
  NamePool() = default;
  NamePool(NamePool&&) = default;
  NamePool& operator=(NamePool&&) = default;
  NamePool(const NamePool&) = delete;
  NamePool& operator=(const NamePool&) = delete;

  std::string_view intern(std::string_view s) {
    if (s.empty()) return {};
    if (s.size() > cap_ - used_) grow(s.size());
    char* dst = chunks_.back().get() + used_;
    std::memcpy(dst, s.data(), s.size());
    used_ += s.size();
    return {dst, s.size()};
  }

  void clear() {
    chunks_.clear();
    used_ = cap_ = 0;
  }

 private:
  void grow(std::size_t need) {
    const std::size_t sz = std::max(need, kChunkBytes);
    chunks_.push_back(std::make_unique<char[]>(sz));
    used_ = 0;
    cap_ = sz;
  }

  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t used_ = 0;
  std::size_t cap_ = 0;
};

/// Heterogeneous string hasher so name maps accept string_view lookups
/// without materializing a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

class Netlist {
 public:
  explicit Netlist(std::string name, const stdcell::Library* lib);

  // Names reference the internal pool; copying re-interns them, moving is
  // O(1) (chunk storage is pointer-stable).
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&&) = default;
  Netlist& operator=(Netlist&&) = default;

  const std::string& name() const { return name_; }
  const stdcell::Library& library() const { return *lib_; }

  // --- construction -------------------------------------------------------

  InstId add_instance(std::string_view inst_name, std::string_view cell_name);
  InstId add_instance(std::string_view inst_name,
                      const stdcell::CellType* type);
  /// Anonymous instance: no name bytes are stored; the instance answers to
  /// the synthesized spelling `_i<id>`.
  InstId add_instance(const stdcell::CellType* type);
  NetId add_net(std::string_view net_name);
  /// Anonymous net (synthesized spelling `_n<id>`).
  NetId add_net();
  PortId add_input(std::string port_name);   ///< creates and attaches a net
  PortId add_output(std::string port_name);  ///< creates and attaches a net
  /// Expose an existing (internally driven) net as a primary output.
  PortId add_output_for_net(std::string port_name, NetId net);

  /// Bind instance pin `pin_name` to `net`; registers the pin as driver or
  /// sink according to its direction.  A pin may be connected only once.
  void connect(InstId inst, std::string_view pin_name, NetId net);

  /// Rebind an already-connected input pin to a different net (used by
  /// synthesis buffering and CTS).  Driver pins cannot be moved this way.
  void reconnect_sink(InstId inst, std::string_view pin_name, NetId new_net);

  /// One reconnect_sink(): input pin `pin` of `inst` moves to `net`.
  struct SinkMove {
    InstId inst = kNoInst;
    int pin = -1;
    NetId net = kNoNet;
  };
  /// reconnect_sink() of every move, in order, with one stable erase per
  /// old net instead of one scan of it per move: every net's sink list and
  /// every pin binding end up as the one-at-a-time calls leave them.  A
  /// pin may move at most once per call.  Every move is checked before
  /// any is applied.
  void reconnect_sinks(std::span<const SinkMove> moves);

  /// Replace the cell type of an instance with a same-footprint-family type
  /// (same function + pin names) — the gate-sizing primitive.
  void resize_instance(InstId inst, const stdcell::CellType* new_type);

  void mark_clock_net(NetId net);

  /// Detach a connected pin from its net, removing it from the net's
  /// driver or sink records (no-op on an open pin).  With pop_instance /
  /// pop_net this gives the ECO engine exact structural revert of a trial
  /// transform.
  void disconnect_pin(InstId inst, std::string_view pin_name);

  /// Remove the most recently added instance; all its pins must be
  /// disconnected.  LIFO-only removal keeps InstId/NetId dense (and the CSR
  /// pin arena append-only), so a trial add_net/add_instance is undone by
  /// disconnect + pop in reverse order.
  void pop_instance();
  /// Remove the most recently added net; it must have no driver, no sinks,
  /// and no attached port.
  void pop_net();

  // --- per-instance pin sides ----------------------------------------------

  /// Override one instance pin's wafer side (the ECO dual-sided pin
  /// re-assignment).  Pin sides normally live on the shared cell master;
  /// the override reroutes just this instance's pin to the other side's
  /// copy without disturbing other instances of the same cell type.
  void set_pin_side(const PinRef& p, stdcell::PinSide side);
  /// Drop the override, reverting to the cell master's side.
  void clear_pin_side(const PinRef& p);

  // --- access --------------------------------------------------------------

  int num_instances() const { return static_cast<int>(instances_.size()); }
  int num_nets() const { return static_cast<int>(nets_.size()); }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  Instance& instance(InstId id) { return instances_[static_cast<std::size_t>(id)]; }
  const Instance& instance(InstId id) const {
    return instances_[static_cast<std::size_t>(id)];
  }
  Net& net(NetId id) { return nets_[static_cast<std::size_t>(id)]; }
  const Net& net(NetId id) const { return nets_[static_cast<std::size_t>(id)]; }
  Port& port(PortId id) { return ports_[static_cast<std::size_t>(id)]; }
  const Port& port(PortId id) const { return ports_[static_cast<std::size_t>(id)]; }

  /// Nets bound to the instance's pins, parallel to type->pins();
  /// kNoNet = open.  A view into the shared CSR arena — invalidated by
  /// add_instance/pop_instance, like any vector iterator.
  std::span<const NetId> pin_nets(InstId id) const {
    const auto first = inst_first_pin_[static_cast<std::size_t>(id)];
    const auto last = inst_first_pin_[static_cast<std::size_t>(id) + 1];
    return {pin_net_arena_.data() + first, pin_net_arena_.data() + last};
  }
  NetId pin_net(InstId id, int pin) const {
    return pin_net_arena_[inst_first_pin_[static_cast<std::size_t>(id)] +
                          static_cast<std::size_t>(pin)];
  }
  int pin_count(InstId id) const {
    return static_cast<int>(inst_first_pin_[static_cast<std::size_t>(id) + 1] -
                            inst_first_pin_[static_cast<std::size_t>(id)]);
  }
  /// Flat slot of the instance's pin 0 in the CSR pin arena: pin p of
  /// instance i is slot `pin_offset(i) + p`, a dense index over
  /// [0, pin_slots()) that per-pin tables can use instead of one vector
  /// per instance.  Appending an instance appends its slots; pop_instance
  /// drops them.
  std::size_t pin_offset(InstId id) const {
    return inst_first_pin_[static_cast<std::size_t>(id)];
  }
  std::size_t pin_slots() const { return inst_first_pin_.back(); }

  /// The instance's name: the explicit one if given, else the synthesized
  /// `_i<id>`.  `append_*` variants extend `out` without an intermediate
  /// allocation (the streaming-writer path).
  std::string instance_name(InstId id) const;
  std::string net_name(NetId id) const;
  void append_instance_name(std::string& out, InstId id) const;
  void append_net_name(std::string& out, NetId id) const;
  /// True when the object was created with an explicit name.
  bool instance_has_explicit_name(InstId id) const {
    return !inst_names_[static_cast<std::size_t>(id)].empty();
  }
  bool net_has_explicit_name(NetId id) const {
    return !net_names_[static_cast<std::size_t>(id)].empty();
  }

  std::optional<NetId> find_net(std::string_view net_name) const;
  std::optional<InstId> find_instance(std::string_view inst_name) const;
  std::optional<PortId> find_port(std::string_view port_name) const;

  const std::vector<Instance>& instances() const { return instances_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Port>& ports() const { return ports_; }

  /// The pin's side: a per-instance override when set (set_pin_side),
  /// otherwise the instance's cell master.
  stdcell::PinSide pin_side(const PinRef& p) const;
  /// Absolute pin position = instance origin + pin offset.
  geom::Point pin_position(const PinRef& p) const;
  double pin_cap_ff(const PinRef& p) const;

  NetlistStats stats() const;

  /// Verify structural sanity: every non-physical pin connected, each net
  /// driven at most once, sink lists consistent.  Returns problem messages
  /// (empty == healthy).
  std::vector<std::string> validate() const;

  /// Instances in topological order of the combinational graph (PIs and
  /// register outputs are sources; register D pins and POs are sinks):
  /// every sequential instance first, in id order, then the combinational
  /// ones.  Throws std::runtime_error on a combinational cycle.
  std::vector<InstId> topo_order() const;

  /// Pre-size the instance/net/pin arenas (builder-scale hint; optional).
  void reserve(std::size_t insts, std::size_t nets, std::size_t pins);

 private:
  InstId add_instance_impl(std::string_view inst_name,
                           const stdcell::CellType* type);
  NetId add_net_impl(std::string_view net_name);
  static std::uint64_t pin_key(InstId inst, int pin) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(inst))
            << 32) |
           static_cast<std::uint32_t>(pin);
  }

  std::string name_;
  const stdcell::Library* lib_;
  std::vector<Instance> instances_;
  std::vector<Net> nets_;
  std::vector<Port> ports_;

  // CSR pin table: instance i's pin nets are
  // pin_net_arena_[inst_first_pin_[i] .. inst_first_pin_[i+1]).
  std::vector<std::uint32_t> inst_first_pin_{0};
  std::vector<NetId> pin_net_arena_;

  // Interned names; an empty view marks an anonymous object.
  NamePool pool_;
  std::vector<std::string_view> inst_names_;
  std::vector<std::string_view> net_names_;

  std::unordered_map<std::string_view, InstId, StringHash, std::equal_to<>>
      inst_by_name_;
  std::unordered_map<std::string_view, NetId, StringHash, std::equal_to<>>
      net_by_name_;
  std::unordered_map<std::string, PortId, StringHash, std::equal_to<>>
      port_by_name_;
  /// Sparse per-instance pin-side overrides (empty outside ECO flows),
  /// keyed by (inst << 32 | pin).
  std::unordered_map<std::uint64_t, stdcell::PinSide> pin_side_override_;
};

}  // namespace ffet::netlist

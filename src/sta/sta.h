// sta.h — graph-based static timing analysis and power analysis.
//
// Standard NLDM STA: instances are levelized topologically; arrival times
// and transitions propagate through cell arcs (bilinear NLDM lookups) and
// wire RC (Elmore delay from the extractor, with slew degradation).
// Sequential elements launch at their clock-insertion latency (from CTS)
// and capture with setup at the next edge.  The achieved frequency is the
// reciprocal of the worst launch→capture path — the number the paper's
// power-frequency plots report on the y/x axes.
//
// Power (the paper's "power" KPI) combines:
//   * net switching power     alpha/2 * C_net * VDD^2 * f
//   * cell internal power     per-transition NLDM energy * alpha * f
//   * leakage                 per-cell static leakage
// with per-net toggle rates taken from gate-level simulation when
// available (the RV32 harness) or a default activity factor otherwise.
//
// When no extraction is available (pre-placement synthesis timing), a
// fanout-based wireload model stands in for the RC trees.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "extract/extract.h"
#include "netlist/netlist.h"

namespace ffet::sta {

struct StaOptions {
  /// Clock skew folded into every setup check (from CTS).
  double clock_skew_ps = 0.0;
  /// Input slew assumed at primary inputs.
  double input_slew_ps = 20.0;
  /// Default arrival time at primary inputs (an SDC-style input delay);
  /// keeps PI-fed flip-flops from reporting spurious hold violations.
  double input_delay_ps = 10.0;
  /// Propagated-clock reference for primary inputs: external data is
  /// launched by the same clock the capture flops receive through the
  /// tree, so PI arrivals shift by the mean network latency.  The flow
  /// sets this to the CTS mean insertion delay.
  double pi_reference_latency_ps = 0.0;
  /// Extra margin on the critical path (clock uncertainty).
  double uncertainty_ps = 5.0;
  /// Corner derates: max-delay (setup) analysis scales all cell and wire
  /// delays by derate_late; min-delay (hold) by derate_early.  (1.0, 1.0)
  /// is the typical corner; a classic signoff pair is (1.12, 0.88).
  double derate_late = 1.0;
  double derate_early = 1.0;
  /// Wireload model (used only when no RcNetlist is supplied):
  /// C = wl_base_ff + wl_per_fanout_ff * fanout.
  double wl_base_ff = 0.3;
  double wl_per_fanout_ff = 0.35;
  double wl_res_ohm = 120.0;  ///< lumped wire resistance for wireload mode
  /// Worker threads for the per-net precomputation (net loads and
  /// sink-index maps).  The topological arrival propagation itself is
  /// inherently serial; the precomputed tables are pure per-net functions,
  /// so results are bit-identical at any thread count.
  int threads = 1;
};

struct TimingReport {
  double critical_path_ps = 0.0;  ///< data path + setup + skew + uncertainty
  double achieved_freq_ghz = 0.0;
  double max_slew_ps = 0.0;
  std::string critical_path;      ///< "ffA/Q -> u1/ZN -> ... -> ffB/D"
  int endpoints = 0;

  double slack_ps(double target_period_ps) const {
    return target_period_ps - critical_path_ps;
  }
};

/// Netlist elements whose timing-relevant state changed since the last
/// analysis: nets whose parasitics / load / sink list changed, and
/// instances whose cell master (or clock latency) changed.  Set
/// `structure_changed` whenever instances or nets were added or removed —
/// the incremental update then sizes its tables to the netlist and orders
/// the new instances; otherwise the cached order is reused as is.
struct DirtySet {
  std::vector<netlist::NetId> nets;
  std::vector<netlist::InstId> insts;
  bool structure_changed = false;
};

/// One timing endpoint — a flip-flop D pin or a primary output — with its
/// unconstrained path delay (the quantity analyze_timing maximizes before
/// adding the skew/uncertainty margins).
struct PathEnd {
  netlist::InstId endpoint = netlist::kNoInst;  ///< FF, or the PO's driver
  bool is_port = false;                         ///< primary-output endpoint
  double path_ps = 0.0;  ///< FF: arrival + setup − capture latency; PO: arrival
};

/// Min-delay (hold) analysis result.
struct HoldReport {
  double worst_slack_ps = 0.0;  ///< min over endpoints of (min arrival −
                                ///< hold − skew); negative = violation
  int violations = 0;
  std::string worst_endpoint;
  /// Every violating flip-flop with its slack (for hold fixing).
  std::vector<std::pair<netlist::InstId, double>> violating_endpoints;
};

struct PowerReport {
  double switching_uw = 0.0;
  double internal_uw = 0.0;
  double leakage_uw = 0.0;
  double freq_ghz = 0.0;
  double total_uw() const { return switching_uw + internal_uw + leakage_uw; }
  /// Power efficiency in GHz/mW — Fig. 13's metric.
  double efficiency_ghz_per_mw() const {
    const double mw = total_uw() / 1000.0;
    return mw > 0 ? freq_ghz / mw : 0.0;
  }
};

class Sta {
 public:
  /// `rc` may be null: synthesis-time analysis then uses the wireload
  /// model.  `clock_latency_ps` (per sequential InstId, from CTS) may be
  /// null for an ideal clock.
  Sta(const netlist::Netlist* nl, const extract::RcNetlist* rc,
      StaOptions options = {});

  /// Full arrival propagation; fills per-instance arrival/slew tables.
  TimingReport analyze_timing(
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps =
          nullptr);

  /// Incremental re-analysis after a full analyze_timing(): re-propagates
  /// arrivals and slews only through the downstream cone of the dirty
  /// elements (levelized worklist ordered by cached topological position;
  /// propagation stops where recomputed values are bitwise unchanged).
  /// The returned report — and the arrival/slew tables — are bit-identical
  /// to a fresh full analyze_timing() on the current netlist state.  With
  /// `dirty.structure_changed` the per-instance tables are resized and
  /// newly added nets/instances must be listed in the dirty set; a new
  /// instance is ordered right after its latest driver, and the order is
  /// re-derived only when a dirty net's edge would run against it.
  /// Removed instances (LIFO pops) need no re-ordering.  Falls back to a
  /// full analysis when no prior one exists or `clock_latency_ps` differs
  /// from the last analysis's map.  Serial and deterministic at any
  /// `threads` setting.  Cost: O(dirty cone · log n).
  TimingReport update_timing(
      const DirtySet& dirty,
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps =
          nullptr);

  /// Announce netlist edits to a timer that is not re-timed (hold fixing):
  /// refreshes the load and sink-index caches of the dirty nets and of
  /// every net on a dirty instance, and re-derives the topological order
  /// on a structural change, so the next analyze_hold() sees the edited
  /// netlist exactly as a fresh timer would.  The setup tables are
  /// dropped: the next update_timing() runs a full analysis.
  void update_caches(const DirtySet& dirty);

  /// The `k` worst endpoints by unconstrained path delay, valid after an
  /// analysis.  Ordered worst-first; ties resolve exactly like the full
  /// scan (flip-flop endpoints before primary outputs, then by id), so the
  /// first entry is always the endpoint of `critical_path`.
  std::vector<PathEnd> worst_paths(
      int k, const std::unordered_map<netlist::InstId, double>*
                 clock_latency_ps = nullptr) const;

  /// Current unconstrained path delay of one endpoint (same arithmetic as
  /// the full endpoint scan); valid after an analysis.
  double endpoint_path_ps(
      netlist::InstId endpoint, bool is_port,
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps =
          nullptr) const;

  /// Slack of an endpoint at `target_period_ps`, including the same
  /// skew + uncertainty margins folded into `critical_path_ps`.
  double endpoint_slack_ps(const PathEnd& e, double target_period_ps) const {
    return target_period_ps -
           (e.path_ps + opt_.clock_skew_ps + opt_.uncertainty_ps);
  }

  /// Instances on the path into endpoint `e`, driver-first, ending with
  /// the endpoint itself (launch FF, combinational cone, capture FF / PO
  /// driver).  Valid after an analysis.
  std::vector<netlist::InstId> path_instances(const PathEnd& e) const;

  /// The path into `e` rendered exactly like `TimingReport::critical_path`
  /// ("a -> b -> ...", truncated past 400 characters with " ...").  For the
  /// worst endpoint of the last analysis the returned bytes are identical
  /// to the report's string (both go through the same formatter).
  std::string path_string(const PathEnd& e) const;

  /// Human-readable endpoint name: "inst/D" for a flip-flop D pin,
  /// "port:NAME" for a primary output ("inst/out" if the port lookup
  /// fails — e.g. the driver feeds several ports and the first wins).
  std::string endpoint_name(const PathEnd& e) const;

  /// Front<->back wafer crossings along the data path into `e`: the number
  /// of consecutive hop pairs whose sink input pins sit on different wafer
  /// sides.  Each change of side passes through the driving cell's
  /// dual-sided Drain-Merge output pin — the only structure crossing the
  /// wafer (Sec. III.C).  Dual-sided (Both) input pins count as frontside.
  int path_side_crossings(const PathEnd& e) const;

  /// Instances recomputed by the last update_timing() (worklist pops) —
  /// the incremental-STA effort metric benches and telemetry report.
  long last_update_recomputed() const { return last_update_recomputed_; }

  /// Min-delay propagation and hold checks at every flip-flop D pin.
  /// Fast paths launched and captured by the same edge must exceed the
  /// capture flop's hold requirement plus the clock skew between the two
  /// flops (approximated by `StaOptions::clock_skew_ps` when no per-sink
  /// latency map is given).
  HoldReport analyze_hold(
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps =
          nullptr);

  /// Power at `freq_ghz` with per-net toggle rates (toggles per cycle,
  /// indexed by NetId); null uses `default_toggle` for data nets and 2.0
  /// for clock nets.  The per-net switching and per-instance internal and
  /// leakage terms are kept between calls: a call with the same frequency,
  /// toggle vector and default toggle recomputes only the terms that
  /// update_timing() dirtied and re-sums each term array in index order,
  /// bit-identical to a full pass.  Any other call runs the full pass.
  PowerReport analyze_power(double freq_ghz,
                            const std::vector<double>* toggle_rates = nullptr,
                            double default_toggle = 0.15) const;

  /// Per-instance worst output arrival (ps), valid after analyze_timing.
  const std::vector<double>& arrival_ps() const { return arrival_; }
  /// Per-instance worst output slew (ps), valid after analyze_timing.
  const std::vector<double>& slew_ps() const { return slew_; }
  /// Instances on the critical path, driver-first (for synthesis sizing).
  const std::vector<netlist::InstId>& critical_instances() const {
    return critical_insts_;
  }

 private:
  /// Tournament tree over indexed values: the root names the largest
  /// value, ties going to the lowest index — the winner of a strict-`>`
  /// scan in index order.  Absent entries hold −∞.  set() writes the leaf
  /// only; flush() then re-plays the k changed leaves' paths, or rebuilds
  /// every node when that is cheaper: O(min(k log n, n)).
  class ArgMaxTree {
   public:
    /// Rebuild from `leaves` (−∞ = absent) in O(n).
    void build(std::vector<double> leaves);
    /// Grow with absent leaves or drop the tail; keeps the other values.
    void resize(std::size_t n);
    void set(std::size_t i, double v);
    void flush();
    std::size_t size() const { return n_; }
    int present() const { return present_; }
    /// The winner as of the last flush().
    std::size_t best() const { return win_[1]; }
    double best_value() const { return val_[win_[1]]; }

   private:
    void pull(std::size_t node);
    std::size_t n_ = 0;
    std::size_t cap_ = 1;
    int depth_ = 0;  ///< log2(cap_)
    int present_ = 0;
    std::vector<double> val_;         ///< cap_ leaves, −∞ past n_
    std::vector<std::uint32_t> win_;  ///< winning leaf per node (1 = root)
    std::vector<std::uint32_t> pending_;  ///< leaves set since flush()
  };

  /// Per-net and per-instance power terms of the last analyze_power()
  /// call, valid for its frequency and toggles; `dirty_*` name the terms
  /// update_timing() invalidated since.
  struct PowerTerms {
    bool valid = false;
    double freq_ghz = 0.0;
    double default_toggle = 0.0;
    bool has_toggles = false;
    std::vector<double> toggles;
    std::vector<double> switching;  ///< per net
    std::vector<double> internal;   ///< per instance
    std::vector<double> leakage;    ///< per instance
    std::vector<netlist::NetId> dirty_nets;
    std::vector<netlist::InstId> dirty_insts;
  };

  double net_load_ff(netlist::NetId net) const;
  double compute_net_load_ff(netlist::NetId net) const;
  double sink_wire_delay_ps(netlist::NetId net, std::size_t sink_idx) const;
  /// Cached position of (inst, pin) in its net's sink list (0 if absent —
  /// the same fallback the original linear search used).
  std::size_t sink_index(netlist::InstId inst, std::size_t pin) const;
  /// Build the per-net load and sink-index caches (parallel_for over nets;
  /// lazy, built on first analysis).
  void ensure_caches() const;
  /// The dirty nets plus every net on a dirty instance, sorted and unique.
  std::vector<netlist::NetId> affected_nets(const DirtySet& dirty) const;
  /// Resize the lazy caches to the current netlist and recompute the
  /// entries of `nets` (O(|nets| + their sinks)).
  void refresh_caches_for(const std::vector<netlist::NetId>& nets) const;
  /// Rebuild topo_order_/topo_pos_ from the current netlist.
  void rebuild_topo() const;
  /// Give instances [first_new, n) a topological position after their
  /// latest driver; re-derive the whole order instead when an edge of
  /// `nets` would run against (position, id) order.
  void place_new_instances(std::size_t first_new,
                           const std::vector<netlist::NetId>& nets);
  /// Arrival and slew at an instance input pin fed by `net_id`.
  void input_arrival_ps(netlist::NetId net_id, std::size_t sink_idx,
                        double& arr, double& slw, netlist::InstId& src) const;
  /// Recompute one instance's arrival/slew/from from its current inputs
  /// (the shared body of the full and incremental analyses).  Returns true
  /// when the stored (arrival, slew) pair changed bitwise.
  bool propagate_instance(
      netlist::InstId id,
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps);
  /// Report leaves: an instance's slew if it is a propagating
  /// combinational cell, a flip-flop's D-pin path delay, a primary
  /// output's arrival (−∞ where the element is no such leaf).
  double slew_leaf(netlist::InstId id) const;
  double ff_end_leaf(
      netlist::InstId id,
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps)
      const;
  double po_end_leaf(netlist::PortId port) const;
  /// Rebuild every report leaf from the current tables (O(n)).
  void build_report_trees(
      const std::unordered_map<netlist::InstId, double>* clock_latency_ps);
  /// Report from the leaf trees: worst endpoint (first in the full scan's
  /// order on ties), max slew, endpoint count and the critical path.
  TimingReport build_report();
  /// Power terms of one net / instance (the full pass's term expressions).
  double switching_term(netlist::NetId n, double vdd, double freq_ghz,
                        const std::vector<double>* toggle_rates,
                        double default_toggle) const;
  void instance_power_terms(netlist::InstId i, double freq_ghz,
                            const std::vector<double>* toggle_rates,
                            double default_toggle, double& internal,
                            double& leakage) const;
  /// Queue power terms for recomputation (no-op while none are cached).
  void dirty_power_net(netlist::NetId n) const;
  void dirty_power_inst(netlist::InstId i) const;

  const netlist::Netlist* nl_;
  const extract::RcNetlist* rc_;
  StaOptions opt_;
  std::vector<double> arrival_;
  std::vector<double> slew_;
  std::vector<netlist::InstId> from_;  ///< per-instance worst-arc source
  std::vector<netlist::InstId> critical_insts_;
  long last_update_recomputed_ = 0;
  /// The latency map the report leaves were computed with.
  const std::unordered_map<netlist::InstId, double>* latency_ = nullptr;
  ArgMaxTree slew_tree_;    ///< per InstId
  ArgMaxTree ff_ends_;      ///< per InstId: flip-flop D-pin endpoints
  ArgMaxTree po_ends_;      ///< per PortId: primary-output endpoints
  std::vector<char> queued_;  ///< worklist marks, all 0 between updates

  mutable bool caches_built_ = false;
  mutable std::vector<double> net_load_;  ///< per-net driver load (fF)
  /// Per-pin sink index, indexed by the netlist's flat pin slot
  /// (kNoSinkIndex = pin not in any sink list; reads map it to 0).
  mutable std::vector<std::uint32_t> sink_index_;
  /// Topological order cached by the last rebuild and each instance's
  /// position in it (kNoTopoPos for instances outside the timing graph).
  /// The worklist orders by (position, id); instances placed since the
  /// rebuild share their driver's position, so topo_order_ is then stale
  /// (`order_stale_`) while topo_pos_ stays a valid order.
  mutable std::vector<netlist::InstId> topo_order_;
  mutable std::vector<int> topo_pos_;
  mutable bool order_stale_ = false;
  mutable PowerTerms power_;
};

}  // namespace ffet::sta

// eco.h — post-route timing-closure engine (incremental ECO optimizer).
//
// Closes timing on a routed, extracted design with a serial accept/revert
// transform loop over the worst endpoints:
//
//   * gate sizing: upsize cells on critical paths one drive step against
//     the extracted loads (and downsize over-driven cells on paths with
//     slack margin, recovering power at equal frequency);
//   * repeater insertion: split long, resistive RC trees on critical nets
//     behind a buffer placed near the far-sink centroid;
//   * dual-sided pin re-assignment: move a critical sink's input pin to the
//     other wafer side when the driver's output-pin copy there (the Drain
//     Merge on FM0/BM0) yields a shorter route estimate — the transform
//     only FFET's dual-sided output pins make possible.
//
// Every trial runs the incremental pipeline on state kept alive across the
// whole loop: legalize the touched cells (pnr::IncrementalLegalizer),
// reroute only the modified nets against the committed routes of all
// others (pnr::RouteState, which also applies the touched cells'
// pin-access deltas), re-extract only those nets straight from their
// routes against a wire-density field maintained by delta
// (extract::RouteExtractor — no DEF is built inside the loop), and
// re-propagate only the dirty timing cone (sta::Sta::update_timing).  A
// trial is accepted when the worst slack does not degrade, the targeted
// endpoint improves by at least `min_gain_ps`, the cumulative power
// estimate stays within `max_power_increase`, and the routed DRV estimate
// does not rise; otherwise the netlist edit is undone exactly (LIFO
// structural revert) and the router and extractor roll back their undo
// logs, leaving every data structure bit-identical to before the trial.
// Every maintained quantity equals a rebuild bit for bit (DESIGN.md §11),
// so `routes` and `rc` come out exactly as rebuilding the design on every
// trial would leave them.
//
// The transform loop is serial and all primitives are deterministic at any
// thread count, so the ECO result is a pure function of its inputs.

#pragma once

#include <unordered_map>

#include "extract/extract.h"
#include "netlist/netlist.h"
#include "pnr/floorplan.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "sta/sta.h"

namespace ffet::opt {

struct EcoOptions {
  /// Transform passes over the worst-endpoint list (0 = ECO disabled).
  int passes = 1;
  /// Endpoints targeted per pass (worst-first).
  int paths_per_pass = 6;
  /// Trial budget per pass (attempted transforms, accepted or not).
  int max_transforms = 48;
  /// Minimum endpoint path improvement (ps) for a speed trial to count.
  double min_gain_ps = 0.05;
  /// Cumulative power-increase budget, as a fraction of the pre-ECO power
  /// estimate (the paper-style "faster at ~equal power" contract).
  double max_power_increase = 0.01;
  /// Per-sink Elmore delay (ps) beyond which a critical net is considered
  /// a repeater-insertion candidate.
  double repeater_elmore_ps = 12.0;
  /// Slack margin (ps) over the worst path an endpoint must have before
  /// its cells become downsize (power-recovery) candidates.
  double downsize_margin_ps = 10.0;
  int threads = 1;
  /// STA options for the in-loop analyses — must match the flow's signoff
  /// settings (skew, PI latency) for the accept decisions to be honest.
  sta::StaOptions sta;
  /// Routing options for the incremental reroutes.
  pnr::RouteOptions route;
};

struct EcoReport {
  int passes_run = 0;
  int attempted = 0;   ///< trials executed (accepted + reverted)
  int accepted = 0;
  int reverted = 0;
  int upsized = 0;     ///< accepted drive-up resizes
  int downsized = 0;   ///< accepted drive-down (power recovery) resizes
  int buffers = 0;     ///< accepted repeater insertions
  int pin_flips = 0;   ///< accepted dual-sided pin re-assignments

  double pre_wns_ps = 0.0;   ///< critical_path_ps before any transform
  double post_wns_ps = 0.0;  ///< critical_path_ps after the last pass
  double pre_freq_ghz = 0.0;
  double post_freq_ghz = 0.0;
  /// Cumulative power-estimate delta of the accepted transforms (µW, at
  /// the pre-ECO frequency with default activity).
  double est_power_delta_uw = 0.0;

  /// Incremental-STA effort: update_timing() calls, total instances they
  /// re-propagated, and wall time vs the one full analysis the loop opens
  /// with — the incremental-vs-full speedup the bench reports.
  long sta_updates = 0;
  long sta_recomputed = 0;
  double incr_sta_ms = 0.0;
  double full_sta_ms = 0.0;
  int full_sta_runs = 0;

  /// Mean full-analysis time over mean incremental-update time (>= 1 when
  /// incremental is paying off; 0 when either count is empty).
  double sta_speedup() const {
    if (sta_updates <= 0 || full_sta_runs <= 0 || incr_sta_ms <= 0.0) {
      return 0.0;
    }
    const double mean_full = full_sta_ms / full_sta_runs;
    const double mean_incr = incr_sta_ms / static_cast<double>(sta_updates);
    return mean_incr > 0.0 ? mean_full / mean_incr : 0.0;
  }
};

/// Run the ECO transform loop on a routed + extracted design.  `routes`
/// and `rc` are updated in place to the accepted state; `nl` receives the
/// accepted resizes / buffers / pin-side overrides (trial edits are undone
/// exactly on revert).  `clock_latency_ps` is the CTS per-sink insertion
/// latency map the flow's signoff STA uses.
EcoReport run_eco(netlist::Netlist& nl, const pnr::Floorplan& fp,
                  const pnr::PowerPlan& pp, pnr::RouteResult& routes,
                  extract::RcNetlist& rc,
                  const std::unordered_map<netlist::InstId, double>&
                      clock_latency_ps,
                  const EcoOptions& options = {});

}  // namespace ffet::opt

// flow.h — the end-to-end evaluation framework (Fig. 7).
//
// Orchestrates the full pipeline the paper describes:
//
//   technology (+ routing-layer limits)        src/tech
//     -> dual-sided library (+ pin DoE)        src/stdcell
//     -> NLDM characterization                 src/liberty
//     -> RV32 core generation                  src/riscv
//     -> virtual synthesis @ target frequency  src/synth
//     -> floorplan (utilization, AR)           src/pnr
//     -> powerplan (BSPDN, Power Tap Cells)    src/pnr
//     -> placement + IO planning               src/pnr
//     -> clock-tree synthesis                  src/pnr
//     -> dual-sided routing (Algorithm 1)      src/pnr
//     -> two DEFs -> merged DEF                src/io
//     -> dual-sided RC extraction              src/extract
//     -> STA + power                           src/sta
//
// A `DesignContext` caches everything upstream of the physical stages so
// utilization/layer sweeps re-run only floorplan→STA.  The physical stages
// are written once, in run_physical, over one `PhysicalState`; a caller
// that needs the artifacts (the reporting CLI, DEF/SPEF dumps) passes a
// state to keep instead of replaying the stages itself.
//
// Validity follows the paper: legal placement (no cell/tap violations) and
// routing DRV < 10.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "extract/extract.h"
#include "io/def.h"
#include "netlist/netlist.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "sta/sta.h"
#include "stdcell/stdcell.h"
#include "synth/synth.h"
#include "tech/tech.h"

namespace ffet::flow {

struct FlowConfig {
  tech::TechKind tech_kind = tech::TechKind::Ffet3p5T;

  /// Routing-layer pattern: FM<front_layers> [BM<back_layers>].
  int front_layers = 12;
  int back_layers = 12;  ///< ignored for CFET (its backside is PDN-only)

  /// Input-pin DoE: fraction of library input pins on the backside.
  double backside_input_fraction = 0.0;

  double target_freq_ghz = 1.5;
  double utilization = 0.7;
  double aspect_ratio = 1.0;

  int rv32_registers = 32;
  unsigned seed = 1;

  /// Run a gate-level workload to extract real toggle rates (slower);
  /// otherwise a default activity factor is used.
  bool simulate_activity = false;
  int activity_cycles = 120;

  /// Post-route ECO timing-closure passes (src/opt): 0 (default) skips the
  /// stage entirely — the flow output is then bit-identical to a build
  /// without the ECO engine.  With passes > 0 the flow runs the
  /// accept/revert transform loop after routing/extraction and re-signs
  /// off timing and power on the optimized design.
  int eco_passes = 0;

  /// Worker threads for the intra-flow parallel stages (per-side routing,
  /// per-net extraction, STA precompute).  0 = auto: the FFET_THREADS
  /// environment variable if set, else std::thread::hardware_concurrency().
  /// All stages are bit-identical to threads == 1.
  int threads = 0;

  /// Telemetry sinks (src/obs).  `trace_path` enables span tracing and
  /// dumps a Chrome trace-event JSON there when the process exits (same
  /// effect as the FFET_TRACE environment variable).  `flow_report_path`
  /// appends one structured-JSON line per run_physical call (stage
  /// timings + metrics + validity verdict); the FFET_FLOW_REPORT
  /// environment variable is the out-of-band equivalent.  Both empty by
  /// default: the flow then records nothing and pays only a relaxed
  /// atomic load per instrumentation site.
  std::string trace_path;
  std::string flow_report_path;

  /// Run-ledger sink (src/report reads it back): when non-empty,
  /// run_physical appends one "ffet.ledger.v1" JSON line per point
  /// (label + timestamp + host/threads + PPA/runtime/peak-RSS metrics)
  /// to this file.  Empty (default) defers to the FFET_LEDGER environment
  /// variable: unset/"0" = off, "1" = the default .ffet_ledger/ledger.jsonl,
  /// anything else = that path.  Ledger writes happen after the result is
  /// fully computed, so they can never perturb flow output.
  std::string ledger_path;

  std::string label() const;
};

/// Resolve the ledger sink path shared by the flow emitter, the bench
/// wrapper and the ffet_report CLI: `explicit_path` if non-empty, else the
/// FFET_LEDGER environment variable ("0"/unset -> "" = off, "1" -> the
/// default ".ffet_ledger/ledger.jsonl", anything else -> that value).
std::string resolve_ledger_path(const std::string& explicit_path = {});

/// The default on-disk ledger location (used when FFET_LEDGER=1 and as the
/// CLI's read-side default).
inline constexpr const char kDefaultLedgerPath[] = ".ffet_ledger/ledger.jsonl";

/// Everything upstream of the physical stages; reusable across
/// utilization / aspect-ratio sweeps of the same design point.
/// The Technology is heap-owned so the Library's internal pointer to it
/// stays valid for the context's lifetime.
struct DesignContext {
  FlowConfig config;
  std::unique_ptr<tech::Technology> tech_storage;
  std::unique_ptr<stdcell::Library> library;
  netlist::Netlist netlist;  ///< synthesized (sized + fanout-buffered)
  synth::SynthReport synth;
  double realized_backside_pin_fraction = 0.0;

  const tech::Technology& tech() const { return *tech_storage; }

  DesignContext(FlowConfig cfg, std::unique_ptr<tech::Technology> t,
                std::unique_ptr<stdcell::Library> lib, netlist::Netlist nl)
      : config(std::move(cfg)), tech_storage(std::move(t)),
        library(std::move(lib)), netlist(std::move(nl)) {}
};

/// Build tech + library + characterization + core + synthesis.
std::unique_ptr<DesignContext> prepare_design(const FlowConfig& config);

/// Wall/CPU time of one named flow stage (telemetry; always collected —
/// the cost is two clock reads per stage, independent of obs state).
struct StageTiming {
  std::string stage;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< calling thread's CPU time (helpers excluded)
  /// Resident-set growth across the stage (end minus start, in kB; may be
  /// negative when the allocator returns memory).  Always 0 when the
  /// resource probe is disabled (FFET_RESOURCE=0) — the probe then makes
  /// no syscalls and reports omit the field.
  long long rss_delta_kb = 0;
};

/// Process resource usage for one flow point, sampled by the obs resource
/// probe at the end of run_physical, plus the sizes of the big per-point
/// data structures ("allocation counters" — the memory observability the
/// 1M-cell data-plane work trends against).  `sampled` is false when the
/// probe is disabled: everything stays 0 and the flow report omits the
/// whole section, byte-identical to a build without the probe.
struct ResourceUsage {
  bool sampled = false;
  long long peak_rss_kb = 0;     ///< process high-water RSS (VmHWM)
  long long current_rss_kb = 0;  ///< RSS when the point finished
  long long minor_faults = 0;
  long long major_faults = 0;
  // Structure sizes at signoff (post-ECO when the stage ran).
  long long netlist_cells = 0;      ///< instances incl. taps/buffers
  long long netlist_nets = 0;
  long long rc_nodes = 0;           ///< RC tree nodes across all nets
  long long route_grid_nodes = 0;   ///< gcells (gcols * grows)
  long long def_components = 0;     ///< merged-DEF components
  long long def_wires = 0;          ///< merged-DEF wire segments (both sides)
};

struct FlowResult {
  FlowConfig config;

  // Physical outcome.
  bool placement_legal = false;
  int placement_violations = 0;
  bool route_valid = false;
  int drv = 0;
  double core_area_um2 = 0.0;
  double core_width_um = 0.0;
  double core_height_um = 0.0;
  double utilization = 0.0;  ///< achieved (after floorplan snapping)
  double hpwl_um = 0.0;
  double wirelength_front_um = 0.0;
  double wirelength_back_um = 0.0;
  int num_instances = 0;
  int num_tap_cells = 0;

  // CTS.
  double clock_skew_ps = 0.0;
  double clock_latency_ps = 0.0;
  int clock_buffers = 0;

  // Power integrity.
  double ir_drop_mv = 0.0;

  // Signoff-lite checks.
  int placement_drc = 0;       ///< independent placement DRC count
  double hold_slack_ps = 0.0;  ///< worst hold slack (negative = violation)
  int hold_violations = 0;
  int hold_buffers = 0;        ///< delay buffers inserted by hold fixing

  // PPA.
  double achieved_freq_ghz = 0.0;
  double critical_path_ps = 0.0;
  double power_uw = 0.0;        ///< total power at the achieved frequency
  double switching_uw = 0.0;
  double internal_uw = 0.0;
  double leakage_uw = 0.0;
  double efficiency_ghz_per_mw = 0.0;  ///< Fig. 13's metric

  // Convergence / quality diagnostics (telemetry).
  int route_passes = 0;         ///< RRR passes the router actually ran
  /// Total subnet-level rip-ups across all passes: 2-pin subnets for the
  /// stage-2 engine, whole per-side subnets for the stage-1 engines —
  /// distinct granularities, reported distinctly from the region events
  /// below.
  long route_ripups = 0;
  /// Congestion regions processed across all passes (stage-2 engine only;
  /// each region is one batched rip-up-and-reroute unit).
  long route_region_ripups = 0;
  int route_overflow = 0;       ///< residual hard overflow (track units)
  long route_settled_nodes = 0;  ///< maze-search nodes settled (all passes)
  long route_window_expansions = 0;  ///< A* window retries (x2 / full grid)
  long route_steiner_subnets = 0;  ///< 2-pin subnets from Steiner decomposition
  long route_fastpath = 0;  ///< 2-pin routes satisfied by the L/Z fast path
  int drv_wire = 0;             ///< DRVs from wire overflow
  int drv_pin_access = 0;       ///< DRVs from pin-access overload
  double place_mean_displacement_um = 0.0;  ///< legalization displacement
  double place_max_displacement_um = 0.0;

  // Post-route ECO (src/opt; populated only when config.eco_passes > 0).
  int eco_passes_run = 0;
  int eco_attempted = 0;
  int eco_accepted = 0;
  int eco_reverted = 0;
  int eco_upsized = 0;
  int eco_downsized = 0;
  int eco_buffers = 0;
  int eco_pin_flips = 0;
  double eco_pre_freq_ghz = 0.0;   ///< signoff frequency before the ECO
  double eco_post_freq_ghz = 0.0;  ///< and after (== achieved_freq_ghz)
  double eco_pre_power_uw = 0.0;
  double eco_post_power_uw = 0.0;  ///< at the (higher) post-ECO frequency
  /// Optimized design's power evaluated at the *pre-ECO* frequency — the
  /// iso-frequency number the paper-style "faster at ~equal power"
  /// contract is judged on (power_uw/eco_post_power_uw include the power
  /// cost of running faster).
  double eco_iso_power_uw = 0.0;
  double eco_sta_speedup = 0.0;  ///< mean full-STA / mean incremental-STA time

  /// Per-stage wall/CPU timings in execution order (floorplan ... power,
  /// then eco and eco_signoff when the ECO ran).
  std::vector<StageTiming> stage_times;

  /// Peak/current RSS, fault counters and structure sizes (see
  /// ResourceUsage); populated only while the obs resource probe is on.
  ResourceUsage resource;

  /// Why valid() is false, composed from the failing stage ("" when valid).
  std::string invalid_reason;

  /// The paper's validity rule: legal placement and DRV < 10.
  bool valid() const { return placement_legal && route_valid; }
};

/// The physical design of one flow point: the private netlist copy and
/// every stage artifact, as signed off (post-ECO when the ECO ran).  The
/// netlist references the DesignContext's library, so the context must
/// outlive the state.
struct PhysicalState {
  netlist::Netlist nl{"", nullptr};  ///< with taps, CTS/hold/ECO buffers
  pnr::Floorplan fp;
  pnr::PowerPlan pp;
  pnr::PlacementResult placement;
  pnr::CtsResult cts;
  pnr::RouteResult routes;
  io::Def merged;  ///< front+back merge the signoff extracted from
  extract::RcNetlist rc;
  sta::StaOptions sta_options;  ///< what the signoff Sta used
  bool eco_ran = false;
};

/// Run floorplan → STA on a prepared design.  The context is not modified
/// (the netlist is copied for tap cells / CTS buffers).  When `keep` is
/// non-null it receives the finished state of this run (replacing its
/// contents); otherwise the state dies with the call.
FlowResult run_physical(const DesignContext& ctx, const FlowConfig& config,
                        PhysicalState* keep = nullptr);

/// Convenience: prepare + run.
FlowResult run_flow(const FlowConfig& config);

/// Run every config as an independent sweep point on the shared prepared
/// design (each point still sees its own FlowConfig — the ctx supplies the
/// synthesized netlist and library).  `threads` workers execute points
/// concurrently (0 = auto, as FlowConfig::threads); results are returned in
/// config order and are bit-identical to a serial loop of run_physical
/// calls.  Points whose FlowConfig::threads == 0 run their intra-flow
/// stages serially (the sweep level owns the parallelism).
std::vector<FlowResult> run_sweep(const DesignContext& ctx,
                                  const std::vector<FlowConfig>& configs,
                                  int threads = 0);

/// Sweep over configs that need their own prepared design (per-point
/// prepare_design + run_physical).  The characterization cache makes the
/// repeated library builds cheap.
std::vector<FlowResult> run_sweep(const std::vector<FlowConfig>& configs,
                                  int threads = 0);

/// Highest utilization (within [lo, hi], to `tol`) at which the flow is
/// valid; nullopt if even `lo` fails.  Uses bisection (validity is
/// monotone in utilization for fixed everything-else).
std::optional<double> find_max_utilization(const DesignContext& ctx,
                                           FlowConfig config, double lo = 0.40,
                                           double hi = 0.98,
                                           double tol = 0.005);

}  // namespace ffet::flow

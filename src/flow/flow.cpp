#include "flow/flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

#include "flow/report_json.h"
#include "obs/obs.h"

#include "liberty/characterize.h"
#include "netlist/sim.h"
#include "opt/eco.h"
#include "pnr/floorplan.h"
#include "pnr/drc.h"
#include "pnr/powerplan.h"
#include "riscv/encode.h"
#include "riscv/harness.h"
#include "riscv/rv32.h"
#include "runtime/thread_pool.h"

namespace ffet::flow {

std::string FlowConfig::label() const {
  std::ostringstream os;
  os << (tech_kind == tech::TechKind::Cfet4T ? "CFET" : "FFET");
  os << " FM" << front_layers;
  if (tech_kind == tech::TechKind::Ffet3p5T && back_layers > 0) {
    os << "BM" << back_layers;
  }
  if (backside_input_fraction > 0) {
    stdcell::PinConfig pc;
    pc.backside_input_fraction = backside_input_fraction;
    os << " " << pc.label();
  }
  os << " @" << target_freq_ghz << "GHz util=" << utilization;
  // PPA-changing knobs beyond the defaults are appended only when set, so
  // labels of pre-existing configs stay byte-identical (they key the
  // characterization cache and the committed bench baselines).
  if (aspect_ratio != 1.0) os << " ar=" << aspect_ratio;
  if (rv32_registers != 32) os << " regs=" << rv32_registers;
  if (seed != 1) os << " seed=" << seed;
  if (simulate_activity) os << " act=" << activity_cycles;
  if (eco_passes > 0) os << " eco=" << eco_passes;
  return os.str();
}

std::string resolve_ledger_path(const std::string& explicit_path,
                                const obs::Env& env) {
  if (!explicit_path.empty()) return explicit_path;
  if (env.ledger.mode == obs::EnvSink::kOn) return kDefaultLedgerPath;
  return env.ledger.path;  // empty unless FFET_LEDGER names a path
}

namespace {

/// Re-assign library input-pin sides so the *instance-weighted* backside
/// fraction matches the DoE request.  The library-level error diffusion in
/// build_library is exact over distinct pins, but instance counts weight
/// pins very unevenly (a 32-bit datapath uses thousands of MUX2 pins and
/// two of some corner cell), so the realized density of a netlist can
/// drift far from the request.  This pass walks pins by descending
/// instance weight with an error-diffusion accumulator — deterministic and
/// exact to within the heaviest single pin.
void rebalance_pin_sides(stdcell::Library& lib, const netlist::Netlist& nl,
                         double backside_fraction) {
  struct PinUse {
    stdcell::CellType* cell;
    std::size_t pin;
    long uses;
  };
  std::map<std::pair<const stdcell::CellType*, std::size_t>, long> counts;
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instance(i);
    if (inst.type->physical_only()) continue;
    const auto pins = nl.pin_nets(i);
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (pins[p] == netlist::kNoNet) continue;
      if (inst.type->pins()[p].dir != stdcell::PinDir::Input) continue;
      counts[{inst.type, p}] += 1;
    }
  }
  std::vector<PinUse> pins;
  for (const auto& cell : lib.cells()) {
    if (cell->physical_only() ||
        cell->function() == stdcell::Function::ClkBuf) {
      continue;
    }
    for (std::size_t p = 0; p < cell->pins().size(); ++p) {
      if (cell->pins()[p].dir != stdcell::PinDir::Input) continue;
      const auto it = counts.find({cell.get(), p});
      pins.push_back({cell.get(), p, it == counts.end() ? 0 : it->second});
    }
  }
  std::sort(pins.begin(), pins.end(), [](const PinUse& a, const PinUse& b) {
    if (a.uses != b.uses) return a.uses > b.uses;
    if (a.cell->name() != b.cell->name()) return a.cell->name() < b.cell->name();
    return a.pin < b.pin;
  });
  long total = 0;
  for (const PinUse& p : pins) total += p.uses;
  const double target = backside_fraction * static_cast<double>(total);
  double assigned = 0.0;
  double debt = 0.0;
  for (const PinUse& p : pins) {
    stdcell::CellPin& pin = p.cell->mutable_pins()[p.pin];
    // Greedy error diffusion on instance weight.
    debt += backside_fraction * static_cast<double>(p.uses);
    if (assigned + static_cast<double>(p.uses) / 2.0 <= target &&
        debt >= static_cast<double>(p.uses) / 2.0) {
      pin.side = stdcell::PinSide::Back;
      assigned += static_cast<double>(p.uses);
      debt -= static_cast<double>(p.uses);
    } else {
      pin.side = stdcell::PinSide::Front;
    }
  }
}

}  // namespace

std::unique_ptr<DesignContext> prepare_design(const FlowConfig& config) {
  tech::Technology tech = config.tech_kind == tech::TechKind::Cfet4T
                              ? tech::make_cfet_4t()
                              : tech::make_ffet_3p5t();
  const int back = config.tech_kind == tech::TechKind::Cfet4T
                       ? 12  // CFET backside layers are PDN-only anyway
                       : config.back_layers;
  tech = tech.with_routing_limit(config.front_layers, back);

  stdcell::PinConfig pc;
  pc.backside_input_fraction = config.backside_input_fraction;

  // The library must outlive the netlist and hold a stable Technology
  // pointer, so the context owns both; library points at ctx.tech after
  // construction below.
  auto ctx_tech = std::make_unique<tech::Technology>(std::move(tech));
  auto lib = std::make_unique<stdcell::Library>(
      stdcell::build_library(*ctx_tech, pc));
  liberty::characterize_library(*lib);

  riscv::Rv32Options rv;
  rv.num_registers = config.rv32_registers;
  netlist::Netlist nl = riscv::build_rv32_core(*lib, rv);

  auto ctx = std::make_unique<DesignContext>(
      config, std::move(ctx_tech), std::move(lib), std::move(nl));
  if (config.backside_input_fraction > 0.0) {
    rebalance_pin_sides(*ctx->library, ctx->netlist,
                        config.backside_input_fraction);
  }
  // Realized fraction, instance-weighted (what the router actually sees).
  {
    long total = 0, back = 0;
    const netlist::Netlist& cnl = ctx->netlist;
    for (netlist::InstId i = 0; i < cnl.num_instances(); ++i) {
      const netlist::Instance& inst = cnl.instance(i);
      if (inst.type->physical_only()) continue;
      const auto pnets = cnl.pin_nets(i);
      for (std::size_t p = 0; p < pnets.size(); ++p) {
        if (pnets[p] == netlist::kNoNet) continue;
        const auto& pin = inst.type->pins()[p];
        if (pin.dir != stdcell::PinDir::Input) continue;
        ++total;
        if (pin.side == stdcell::PinSide::Back) ++back;
      }
    }
    ctx->realized_backside_pin_fraction =
        total ? static_cast<double>(back) / static_cast<double>(total) : 0.0;
  }

  synth::SynthOptions so;
  so.target_freq_ghz = config.target_freq_ghz;
  ctx->synth = synth::size_for_frequency(ctx->netlist, so);
  return ctx;
}

namespace {

/// A small benchmark workload (checksum loop with loads/stores/branches)
/// used to extract realistic toggle rates.
std::vector<std::uint32_t> activity_program() {
  namespace e = riscv::enc;
  return {
      /* 0x00 */ e::addi(1, 0, 0),        // sum
      /* 0x04 */ e::addi(2, 0, 64),       // i = 64
      /* 0x08 */ e::addi(3, 0, 0x100),    // base
      /* 0x0c */ e::lw(4, 3, 0),          // loop: x4 = mem[base]
      /* 0x10 */ e::xor_(1, 1, 4),
      /* 0x14 */ e::slli(4, 4, 1),
      /* 0x18 */ e::add(1, 1, 4),
      /* 0x1c */ e::sw(1, 3, 4),
      /* 0x20 */ e::addi(3, 3, 4),
      /* 0x24 */ e::addi(2, 2, -1),
      /* 0x28 */ e::bne(2, 0, -28),
      /* 0x2c */ e::jal(0, -44),          // restart
  };
}

/// RAII wall/CPU timer for one flow stage: opens a "flow.<name>" trace
/// span and appends a StageTiming to the result on destruction.  The
/// timings themselves are always collected (two clock reads per stage);
/// the span and the per-stage histogram are gated on obs state, and the
/// per-stage RSS delta on the resource probe (zero syscalls when off).
class StageClock {
 public:
  StageClock(FlowResult& res, const char* name)
      : res_(res), name_(name), span_("flow.", name),
        resource_on_(obs::resource_enabled()),
        wall0_(std::chrono::steady_clock::now()),
        cpu0_(obs::thread_cpu_ms()),
        rss0_kb_(resource_on_ ? obs::sample_current_rss_kb() : 0) {}

  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;

  ~StageClock() {
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall0_)
                               .count();
    const double cpu_ms = obs::thread_cpu_ms() - cpu0_;
    const long long rss_delta_kb =
        resource_on_ ? obs::sample_current_rss_kb() - rss0_kb_ : 0;
    res_.stage_times.push_back({name_, wall_ms, cpu_ms, rss_delta_kb});
    if (obs::metrics_enabled()) {
      obs::histogram(std::string("flow.stage.") + name_ + ".ms")
          .observe(wall_ms);
    }
    if (obs::verbose()) {
      if (resource_on_) {
        std::printf("  [stage] %s: %.1f ms wall / %.1f ms cpu, rss %+lld kB\n",
                    name_, wall_ms, cpu_ms, rss_delta_kb);
      } else {
        std::printf("  [stage] %s: %.1f ms wall / %.1f ms cpu\n", name_,
                    wall_ms, cpu_ms);
      }
    }
  }

 private:
  FlowResult& res_;
  const char* name_;
  obs::TraceScope span_;
  bool resource_on_;
  std::chrono::steady_clock::time_point wall0_;
  double cpu0_;
  long long rss0_kb_;
};

/// Append one flow-report line (see flow_report_json) to the sink named by
/// FlowConfig::flow_report_path, or FFET_FLOW_REPORT when the config leaves
/// it empty.  obs::append_jsonl_line keeps lines whole across threads *and*
/// processes (O_APPEND + one write) — the serve worker fleet appends to a
/// shared sink from forked workers.
void emit_flow_report(const FlowResult& res) {
  std::string path = res.config.flow_report_path;
  if (path.empty()) path = obs::env().flow_report.path;
  if (path.empty()) return;
  obs::append_jsonl_line(path, flow_report_json(res));
}

/// Append this flow point's ledger line (see ledger_line) to the run ledger
/// (FlowConfig::ledger_path / FFET_LEDGER, see resolve_ledger_path).  Runs
/// strictly after the result is complete — the ledger can record but never
/// influence a flow.  The append is multi-process-safe: serve workers from
/// a forked fleet share one ledger file.
void emit_ledger(const FlowResult& res, int threads) {
  const std::string path = resolve_ledger_path(res.config.ledger_path);
  if (!path.empty()) append_ledger(path, ledger_line(res, threads));
}

/// Per-net toggle rates from `cycles` of the activity workload on `nl`
/// (clock nets toggle twice per cycle).
std::vector<double> simulate_toggles(const netlist::Netlist& nl, int cycles) {
  riscv::Rv32Harness harness_like(&nl);  // drives clk/rst and memories
  harness_like.load_program(activity_program());
  harness_like.reset();
  harness_like.sim().reset_activity();
  harness_like.step(cycles);
  std::vector<double> toggles(static_cast<std::size_t>(nl.num_nets()), 0.0);
  for (int n = 0; n < nl.num_nets(); ++n) {
    toggles[static_cast<std::size_t>(n)] =
        nl.net(n).is_clock ? 2.0 : harness_like.sim().toggle_rate(n);
  }
  return toggles;
}

/// Run `fn` as the named flow stage when `timed`, else inline (the ECO
/// re-signoff runs untimed inside its single "eco_signoff" stage).
template <class Fn>
auto in_stage(FlowResult& res, bool timed, const char* name, Fn&& fn) {
  if (!timed) return fn();
  StageClock clk(res, name);
  return fn();
}

/// Floorplan → powerplan → placement (+ independent DRC) → CTS → hold
/// fixing → dual-sided routing (Algorithm 1).
void place_and_route(const DesignContext& ctx, PhysicalState& st,
                     FlowResult& res, const pnr::RouteOptions& ro) {
  const FlowConfig& config = res.config;
  netlist::Netlist& nl = st.nl;

  // --- floorplan -------------------------------------------------------------
  pnr::FloorplanOptions fo;
  fo.target_utilization = config.utilization;
  fo.aspect_ratio = config.aspect_ratio;
  st.fp = [&] {
    StageClock clk(res, "floorplan");
    return pnr::make_floorplan(nl, ctx.tech(), fo);
  }();
  res.core_area_um2 = st.fp.core_area_um2();
  res.core_width_um = geom::to_um(st.fp.core.width());
  res.core_height_um = geom::to_um(st.fp.core.height());
  res.utilization = st.fp.achieved_utilization;

  // --- powerplan ---------------------------------------------------------------
  st.pp = [&] {
    StageClock clk(res, "powerplan");
    return pnr::build_power_plan(nl, st.fp, *ctx.library);
  }();
  res.num_tap_cells = static_cast<int>(st.pp.tap_cells.size());

  // --- placement ----------------------------------------------------------------
  pnr::PlacementOptions po;
  po.seed = config.seed;
  po.threads = ro.threads;
  st.placement = [&] {
    StageClock clk(res, "placement");
    return pnr::place(nl, st.fp, st.pp, po);
  }();
  res.placement_legal = st.placement.legal;
  res.placement_violations = st.placement.violations;
  res.hpwl_um = st.placement.hpwl_um;
  res.place_mean_displacement_um = st.placement.mean_displacement_um;
  res.place_max_displacement_um = st.placement.max_displacement_um;
  // Independent signoff check of what the placer claims.
  {
    StageClock clk(res, "placement_drc");
    res.placement_drc = static_cast<int>(
        pnr::check_placement(nl, st.fp, st.pp).violations.size());
  }

  // --- CTS -----------------------------------------------------------------------
  st.cts = [&] {
    StageClock clk(res, "cts");
    return pnr::build_clock_tree(nl, st.fp);
  }();
  res.clock_skew_ps = st.cts.skew_ps;
  res.clock_latency_ps = st.cts.mean_latency_ps;
  res.clock_buffers = st.cts.num_buffers;

  // Post-CTS hold fixing: pad short paths against the tree's skew before
  // routing so the post-route hold check closes.
  res.hold_buffers = [&] {
    StageClock clk(res, "hold_fix");
    return synth::fix_hold(nl, st.cts.sink_latency_ps);
  }();

  // --- routing (Algorithm 1) ------------------------------------------------------
  st.routes = [&] {
    StageClock clk(res, "route");
    return pnr::route_design(nl, st.fp, ro);
  }();
  const pnr::RouteResult& routes = st.routes;
  res.route_valid = routes.valid;
  res.drv = routes.drv_estimate;
  res.route_passes = routes.rrr_passes;
  res.route_ripups = routes.ripups_total;
  res.route_region_ripups = routes.region_ripups_total;
  res.route_overflow = routes.overflow_total;
  res.route_settled_nodes = routes.settled_nodes;
  res.route_window_expansions = routes.window_expansions;
  res.route_steiner_subnets = routes.steiner_subnets;
  res.route_fastpath = routes.fastpath_routes;
  res.drv_wire = routes.drv_wire;
  res.drv_pin_access = routes.drv_pin_access;
  res.wirelength_front_um = routes.wirelength_front_um;
  res.wirelength_back_um = routes.wirelength_back_um;
  res.num_instances = nl.num_instances();

  st.sta_options.clock_skew_ps = st.cts.skew_ps;
  st.sta_options.pi_reference_latency_ps = st.cts.mean_latency_ps;
  st.sta_options.threads = ro.threads;
}

/// Structure-size accounting (the resource section's "allocation
/// counters"): how big the per-point data plane got at signoff.
void record_structure_sizes(const PhysicalState& st, FlowResult& res) {
  if (!res.resource.sampled) return;
  long long wires = 0;
  for (const pnr::NetRoute& r : st.routes.routes) {
    wires += static_cast<long long>(r.edges.size());
  }
  res.resource.netlist_cells = st.nl.num_instances();
  res.resource.netlist_nets = st.nl.num_nets();
  res.resource.rc_nodes = st.rc.tree_node_count();
  res.resource.route_grid_nodes =
      static_cast<long long>(st.routes.gcols) * st.routes.grows;
  // What the merged DEF of the routes would hold: one component per
  // instance and one wire per routed gcell edge.
  res.resource.def_components = st.nl.num_instances();
  res.resource.def_wires = wires;
}

/// The timer a signoff measured the design with (after timing, hold and
/// power analysis) and the toggle rates its power used (empty: the
/// default activity factor).
struct SignoffTimer {
  sta::Sta sta;
  std::vector<double> toggles;

  const std::vector<double>* toggle_rates() const {
    return toggles.empty() ? nullptr : &toggles;
  }
};

/// Signoff of the routed design: dual-sided RC extraction from the routes
/// → STA → hold → [activity sim] → power → IR drop → structure sizes.  The
/// first signoff times each step as its own stage; after the ECO
/// (st.eco_ran) the caller times the whole re-signoff as one stage.
SignoffTimer signoff(const DesignContext& ctx, PhysicalState& st,
                     FlowResult& res) {
  const FlowConfig& config = res.config;
  const bool timed = !st.eco_ran;
  st.rc = in_stage(res, timed, "extract", [&] {
    return extract::extract_rc(st.routes, st.nl, ctx.tech(),
                               st.sta_options.threads);
  });
  record_structure_sizes(st, res);

  SignoffTimer out{sta::Sta(&st.nl, &st.rc, st.sta_options), {}};
  sta::Sta& sta = out.sta;
  const auto* latency = &st.cts.sink_latency_ps;
  const sta::TimingReport timing = in_stage(
      res, timed, "sta_timing", [&] { return sta.analyze_timing(latency); });
  res.achieved_freq_ghz = timing.achieved_freq_ghz;
  res.critical_path_ps = timing.critical_path_ps;
  if (obs::verbose()) {
    const auto worst = sta.worst_paths(1, latency);
    if (!worst.empty()) {
      const std::string ep = sta.endpoint_name(worst[0]);
      std::printf("  [sta] %s: worst_slack=%+.2f ps (%.3f GHz) "
                  "endpoint=%s side_crossings=%d\n",
                  st.eco_ran ? "eco_signoff" : "signoff",
                  timing.slack_ps(1000.0 / config.target_freq_ghz),
                  timing.achieved_freq_ghz, ep.c_str(),
                  sta.path_side_crossings(worst[0]));
    }
  }
  const sta::HoldReport hold = in_stage(
      res, timed, "sta_hold", [&] { return sta.analyze_hold(latency); });
  res.hold_slack_ps = hold.worst_slack_ps;
  res.hold_violations = hold.violations;

  if (config.simulate_activity) {
    // Re-derived on every signoff: ECO buffers add nets.
    out.toggles = in_stage(res, timed, "activity_sim", [&] {
      return simulate_toggles(st.nl, config.activity_cycles);
    });
  }
  const sta::PowerReport power = in_stage(res, timed, "power", [&] {
    return sta.analyze_power(res.achieved_freq_ghz, out.toggle_rates());
  });
  res.power_uw = power.total_uw();
  res.switching_uw = power.switching_uw;
  res.internal_uw = power.internal_uw;
  res.leakage_uw = power.leakage_uw;
  res.efficiency_ghz_per_mw = power.efficiency_ghz_per_mw();
  res.ir_drop_mv = st.pp.estimate_ir_drop_mv(res.power_uw);
  return out;
}

/// Post-route ECO timing closure (src/opt), then a full re-signoff of the
/// optimized design.  Only the ECO's own extras live here: the
/// iso-frequency power and the route/netlist fields the accepted
/// transforms moved.
void eco_and_resignoff(const DesignContext& ctx, PhysicalState& st,
                       FlowResult& res, const pnr::RouteOptions& ro) {
  res.eco_pre_freq_ghz = res.achieved_freq_ghz;
  res.eco_pre_power_uw = res.power_uw;

  opt::EcoOptions eo;
  eo.passes = res.config.eco_passes;
  eo.threads = ro.threads;
  eo.sta = st.sta_options;
  eo.route = ro;
  const opt::EcoReport eco = [&] {
    StageClock clk(res, "eco");
    return opt::run_eco(st.nl, st.fp, st.pp, st.routes, st.rc,
                        st.cts.sink_latency_ps, eo);
  }();
  res.eco_passes_run = eco.passes_run;
  res.eco_attempted = eco.attempted;
  res.eco_accepted = eco.accepted;
  res.eco_reverted = eco.reverted;
  res.eco_upsized = eco.upsized;
  res.eco_downsized = eco.downsized;
  res.eco_buffers = eco.buffers;
  res.eco_pin_flips = eco.pin_flips;
  res.eco_sta_speedup = eco.sta_speedup();
  if (obs::verbose()) {
    std::printf("  [eco] passes=%d accepted=%d/%d (reverted %d)\n",
                eco.passes_run, eco.accepted, eco.attempted, eco.reverted);
  }
  st.eco_ran = true;

  // Full re-signoff on the optimized design: fresh extraction + STA (the
  // incremental state is bit-identical by construction, but the reported
  // PPA must come from the same full pipeline as every other flow result).
  {
    StageClock clk(res, "eco_signoff");
    const SignoffTimer timer = signoff(ctx, st, res);
    // Iso-frequency power: the optimized design clocked at the pre-ECO
    // frequency (the "faster at ~equal power" contract's denominator).
    res.eco_iso_power_uw =
        timer.sta.analyze_power(res.eco_pre_freq_ghz, timer.toggle_rates())
            .total_uw();

    // Routes, wirelength and netlist shape moved with the accepted
    // transforms.
    res.route_valid = st.routes.valid;
    res.drv = st.routes.drv_estimate;
    res.drv_wire = st.routes.drv_wire;
    res.drv_pin_access = st.routes.drv_pin_access;
    res.wirelength_front_um = st.routes.wirelength_front_um;
    res.wirelength_back_um = st.routes.wirelength_back_um;
    res.hpwl_um = pnr::compute_hpwl_um(st.nl);
    res.num_instances = st.nl.num_instances();
  }
  res.eco_post_freq_ghz = res.achieved_freq_ghz;
  res.eco_post_power_uw = res.power_uw;
}

}  // namespace

FlowResult run_physical(const DesignContext& ctx, const FlowConfig& config,
                        PhysicalState* keep) {
  obs::init_from_env();
  FFET_TRACE_SCOPE("flow.point");
  const auto point0 = std::chrono::steady_clock::now();
  FlowResult res;
  res.config = config;
  const int threads = runtime::resolve_threads(config.threads);
  // One probe decision per point: every stage delta and the final sample
  // agree, even if set_resource() flips concurrently.
  const bool resource_on = obs::resource_enabled();
  res.resource.sampled = resource_on;

  // Work on a private copy: taps, CTS buffers and placement are per-run.
  PhysicalState local;
  PhysicalState& st = keep != nullptr ? *keep : local;
  st.nl = ctx.netlist;
  st.eco_ran = false;

  pnr::RouteOptions ro;
  ro.threads = threads;
  place_and_route(ctx, st, res, ro);
  signoff(ctx, st, res);
  // Optional and off by default: with eco_passes == 0 the ECO never runs
  // and every result above is exactly what the flow always produced.
  if (config.eco_passes > 0 && res.valid()) {
    eco_and_resignoff(ctx, st, res, ro);
  }

  if (!res.placement_legal) {
    res.invalid_reason =
        "placement: " +
        (st.placement.message.empty()
             ? std::to_string(st.placement.violations) + " violations"
             : st.placement.message);
  } else if (!res.route_valid) {
    std::ostringstream os;
    os << "route: drv=" << res.drv << " (wire=" << res.drv_wire
       << ", pin_access=" << res.drv_pin_access << ") after "
       << res.route_passes << " RRR passes";
    res.invalid_reason = os.str();
  }

  // Final resource sample for the point: peak RSS is process-wide (a
  // high-water mark), current RSS and faults are where this point left the
  // process.  Surfaced as gauges alongside the report/ledger fields.
  if (resource_on) {
    const obs::ResourceSample rs = obs::sample_resources();
    res.resource.peak_rss_kb = rs.peak_rss_kb;
    res.resource.current_rss_kb = rs.current_rss_kb;
    res.resource.minor_faults = rs.minor_faults;
    res.resource.major_faults = rs.major_faults;
    FFET_METRIC_GAUGE_MAX("resource.peak_rss_kb", rs.peak_rss_kb);
    FFET_METRIC_GAUGE_SET("resource.current_rss_kb", rs.current_rss_kb);
    FFET_METRIC_GAUGE_SET("resource.minor_faults", rs.minor_faults);
    FFET_METRIC_GAUGE_SET("resource.major_faults", rs.major_faults);
    FFET_METRIC_GAUGE_MAX("resource.netlist_cells",
                          res.resource.netlist_cells);
    FFET_METRIC_GAUGE_MAX("resource.netlist_nets", res.resource.netlist_nets);
    FFET_METRIC_GAUGE_MAX("resource.rc_nodes", res.resource.rc_nodes);
    FFET_METRIC_GAUGE_MAX("resource.route_grid_nodes",
                          res.resource.route_grid_nodes);
    FFET_METRIC_GAUGE_MAX("resource.def_wires", res.resource.def_wires);
    if (obs::verbose()) {
      std::printf("  [resource] peak_rss=%lld kB current=%lld kB "
                  "faults=%lld/%lld cells=%lld nets=%lld rc_nodes=%lld\n",
                  rs.peak_rss_kb, rs.current_rss_kb, rs.minor_faults,
                  rs.major_faults, res.resource.netlist_cells,
                  res.resource.netlist_nets, res.resource.rc_nodes);
    }
  }

  const double point_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - point0)
                              .count();
  FFET_METRIC_OBSERVE("flow.point.ms", point_ms);
  FFET_METRIC_ADD("flow.points", 1);
  emit_flow_report(res);
  emit_ledger(res, threads);
  return res;
}

FlowResult run_flow(const FlowConfig& config) {
  if (!config.trace_path.empty()) obs::set_tracing(true);
  const auto ctx = prepare_design(config);
  FlowResult res = run_physical(*ctx, config);
  if (!config.trace_path.empty()) obs::dump_trace(config.trace_path);
  return res;
}

namespace {

/// When the sweep level owns the parallelism, points that did not ask for
/// intra-flow threads explicitly (threads == 0 -> auto) are pinned to 1 so
/// k sweep workers do not each spawn k stage helpers.
FlowConfig pin_point_threads(FlowConfig cfg, int sweep_threads) {
  if (sweep_threads > 1 && cfg.threads == 0) cfg.threads = 1;
  return cfg;
}

}  // namespace

std::vector<FlowResult> run_sweep(const DesignContext& ctx,
                                  const std::vector<FlowConfig>& configs,
                                  int threads) {
  const int k = runtime::resolve_threads(threads);
  std::vector<FlowResult> out(configs.size());
  runtime::parallel_for(
      configs.size(),
      [&](std::size_t i) {
        out[i] = run_physical(ctx, pin_point_threads(configs[i], k));
      },
      k, 1);
  return out;
}

std::vector<FlowResult> run_sweep(const std::vector<FlowConfig>& configs,
                                  int threads) {
  const int k = runtime::resolve_threads(threads);
  std::vector<FlowResult> out(configs.size());
  runtime::parallel_for(
      configs.size(),
      [&](std::size_t i) {
        const FlowConfig cfg = pin_point_threads(configs[i], k);
        const auto ctx = prepare_design(cfg);
        out[i] = run_physical(*ctx, cfg);
      },
      k, 1);
  return out;
}

std::optional<double> find_max_utilization(const DesignContext& ctx,
                                           FlowConfig config, double lo,
                                           double hi, double tol) {
  auto valid_at = [&](double util) {
    config.utilization = util;
    return run_physical(ctx, config).valid();
  };
  if (!valid_at(lo)) return std::nullopt;
  if (valid_at(hi)) return hi;
  // Invariant: lo valid, hi invalid.
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    (valid_at(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace ffet::flow

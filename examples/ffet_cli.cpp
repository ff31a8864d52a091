// ffet_cli — command-line front end for the evaluation framework.
//
// Runs one flow configuration and prints the PPA summary; optionally dumps
// the design artifacts (LEF, Liberty, Verilog, per-side DEFs, merged DEF,
// SPEF) the way the paper's tool chain would exchange them.
//
//   ffet_cli [options]
//     --tech ffet|cfet          technology (default ffet)
//     --fm N                    frontside routing layers (default 12)
//     --bm N                    backside routing layers (default 12; 0 for
//                               single-sided; ignored for cfet)
//     --backside-pins F         input-pin DoE fraction 0..1 (default 0)
//     --util F                  placement utilization (default 0.7)
//     --freq F                  synthesis target GHz (default 1.5)
//     --registers N             RV32 register count (default 32)
//     --activity                simulate a workload for toggle rates
//     --dump PREFIX             write PREFIX.{lef,lib,v,front.def,back.def,
//                               merged.def,spef}
//     --max-util                search the maximum valid utilization
//     --congestion              print frontside/backside congestion maps

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>

#include "extract/spef.h"
#include "flow/flow.h"
#include "flow/version.h"
#include "io/def.h"
#include "io/verilog.h"
#include "liberty/liberty_writer.h"
#include "obs/env.h"
#include "pnr/report.h"

using namespace ffet;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf("usage: %s [--tech ffet|cfet] [--fm N] [--bm N] "
              "[--backside-pins F] [--util F] [--freq F] [--registers N] "
              "[--activity] [--dump PREFIX] [--max-util] [--congestion] "
              "[--version]\n",
              argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  std::optional<std::string> dump;
  bool search_max_util = false;
  bool congestion = false;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::printf("missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // A numeric flag's value; garbage, trailing characters or an
    // out-of-range value is a usage error.
    const auto need_number = [&](const char* flag, auto& out) {
      const char* v = need_value(flag);
      const auto n = obs::parse_number<std::decay_t<decltype(out)>>(v);
      if (!n) {
        std::printf("bad value for %s: %s\n", flag, v);
        usage(argv[0]);
      }
      out = *n;
    };
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--version")) {
      std::printf("ffet_cli %s\n", ffet::kVersion);
      return 0;
    } else if (!std::strcmp(argv[i], "--tech")) {
      const std::string v = need_value("--tech");
      if (v == "ffet") {
        cfg.tech_kind = tech::TechKind::Ffet3p5T;
      } else if (v == "cfet") {
        cfg.tech_kind = tech::TechKind::Cfet4T;
      } else {
        usage(argv[0]);
      }
    } else if (!std::strcmp(argv[i], "--fm")) {
      need_number("--fm", cfg.front_layers);
    } else if (!std::strcmp(argv[i], "--bm")) {
      need_number("--bm", cfg.back_layers);
    } else if (!std::strcmp(argv[i], "--backside-pins")) {
      need_number("--backside-pins", cfg.backside_input_fraction);
    } else if (!std::strcmp(argv[i], "--util")) {
      need_number("--util", cfg.utilization);
    } else if (!std::strcmp(argv[i], "--freq")) {
      need_number("--freq", cfg.target_freq_ghz);
    } else if (!std::strcmp(argv[i], "--registers")) {
      need_number("--registers", cfg.rv32_registers);
    } else if (!std::strcmp(argv[i], "--activity")) {
      cfg.simulate_activity = true;
    } else if (!std::strcmp(argv[i], "--dump")) {
      dump = need_value("--dump");
    } else if (!std::strcmp(argv[i], "--max-util")) {
      search_max_util = true;
    } else if (!std::strcmp(argv[i], "--congestion")) {
      congestion = true;
    } else {
      usage(argv[0]);
    }
  }

  std::printf("config: %s\n", cfg.label().c_str());
  const auto ctx = flow::prepare_design(cfg);
  std::printf("design: %d instances, est. %.2f GHz after synthesis\n",
              ctx->netlist.num_instances(), ctx->synth.est_freq_ghz);

  if (search_max_util) {
    const auto mu = flow::find_max_utilization(*ctx, cfg);
    if (mu) {
      std::printf("max valid utilization: %.3f\n", *mu);
    } else {
      std::printf("no valid utilization found in [0.40, 0.98]\n");
    }
    return 0;
  }

  // Keep the signed-off state only when an artifact is asked for.
  flow::PhysicalState st;
  const flow::FlowResult r =
      flow::run_physical(*ctx, cfg, dump || congestion ? &st : nullptr);
  std::printf("\narea   : %.1f um^2 (%.1f x %.1f), util %.1f%%\n",
              r.core_area_um2, r.core_width_um, r.core_height_um,
              r.utilization * 100);
  std::printf("timing : %.3f GHz (crit %.1f ps, skew %.1f ps)\n",
              r.achieved_freq_ghz, r.critical_path_ps, r.clock_skew_ps);
  std::printf("power  : %.1f uW (sw %.1f / int %.1f / lkg %.1f), IR %.2f mV\n",
              r.power_uw, r.switching_uw, r.internal_uw, r.leakage_uw,
              r.ir_drop_mv);
  std::printf("route  : %.0f um F + %.0f um B, DRV %d -> %s\n",
              r.wirelength_front_um, r.wirelength_back_um, r.drv,
              r.valid() ? "VALID" : "INVALID");

  if (dump || congestion) {
    const pnr::RouteResult& rr = st.routes;
    if (congestion) {
      std::printf("\nfrontside congestion:\n%s\n",
                  pnr::render_heatmap(
                      pnr::build_congestion_map(rr, tech::Side::Front).load)
                      .c_str());
      if (rr.nets_back > 0) {
        std::printf("backside congestion:\n%s\n",
                    pnr::render_heatmap(
                        pnr::build_congestion_map(rr, tech::Side::Back).load)
                        .c_str());
      }
      std::printf("%s\n", pnr::routing_summary(rr).c_str());
    }

    if (dump) {
      const std::string p = *dump;
      std::ofstream(p + ".lef") << io::to_lef_string(*ctx->library);
      std::ofstream(p + ".lib")
          << liberty::to_liberty_string(*ctx->library);
      std::ofstream(p + ".v") << io::to_verilog_string(ctx->netlist);
      const io::Def front = io::build_def(st.nl, rr, tech::Side::Front);
      const io::Def back = io::build_def(st.nl, rr, tech::Side::Back);
      std::ofstream(p + ".front.def") << io::to_def_string(front);
      std::ofstream(p + ".back.def") << io::to_def_string(back);
      std::ofstream(p + ".merged.def")
          << io::to_def_string(io::merge_defs(front, back));
      std::ofstream(p + ".spef") << extract::to_spef_string(st.rc, st.nl);
      std::printf("\nwrote %s.{lef,lib,v,front.def,back.def,merged.def,"
                  "spef}\n",
                  p.c_str());
    }
  }
  return r.valid() ? 0 : 1;
}

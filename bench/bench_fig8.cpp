// bench_fig8 — reproduces Fig. 8: core area vs utilization.
//
//  (a) CFET vs FFET FM12BM12 (dual-sided signals, pins 50/50): FFET reaches
//      higher max utilization (paper: 86 %, limited by the Power Tap Cells)
//      and cuts core area 25.1 % at respective minimum area / 23.3 % at the
//      same utilization.
//  (b) layout DEFs at 84 % utilization (written next to the binary).
//  (c) CFET vs FFET FM12 (single-sided): FFET max utilization drops to 76 %
//      (pin-density-limited routability) and the area gain shrinks to
//      15.4 % at respective minimum area.

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.h"
#include "io/def.h"

using namespace ffet;

namespace {

struct Curve {
  std::string label;
  std::vector<std::pair<double, flow::FlowResult>> points;  // util -> result
  double max_util = 0.0;
  double min_area = 1e18;
};

// Utilization grid 0.46..0.90 step 0.04; integer index avoids the
// float-accumulation drift that can drop or duplicate the final point.
// --quick coarsens to step 0.08 (6 points) and skips the Fig. 8(b) DEFs.
constexpr int kPoints = 12;
int g_points = kPoints;
double g_step = 0.04;

Curve sweep(const flow::DesignContext& ctx, flow::FlowConfig cfg) {
  Curve c;
  c.label = cfg.label();
  std::vector<flow::FlowConfig> cfgs;
  for (int i = 0; i < g_points; ++i) {
    cfg.utilization = 0.46 + g_step * i;
    cfgs.push_back(cfg);
  }
  const std::vector<flow::FlowResult> results = flow::run_sweep(ctx, cfgs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double u = cfgs[i].utilization;
    const flow::FlowResult& r = results[i];
    c.points.push_back({u, r});
    if (r.valid()) {
      c.max_util = std::max(c.max_util, u);
      c.min_area = std::min(c.min_area, r.core_area_um2);
    }
  }
  return c;
}

void print_curve(const Curve& c) {
  std::printf("\n%s\n", c.label.c_str());
  std::printf("  %6s %12s %8s %6s %6s\n", "util", "area(um^2)", "valid",
              "plc", "drv");
  for (const auto& [u, r] : c.points) {
    std::printf("  %6.2f %12.1f %8s %6s %6d\n", u, r.core_area_um2,
                r.valid() ? "yes" : "NO", r.placement_legal ? "ok" : "viol",
                r.drv);
  }
  std::printf("  max valid utilization: %.2f   min valid area: %.1f um^2\n",
              c.max_util, c.min_area);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, "bench_fig8");
  if (args.quick) {
    g_points = 6;
    g_step = 0.08;
  }
  bench::print_title("Fig. 8", "Core area vs utilization");
  bench::SweepTimer timer("bench_fig8", 3 * g_points);

  // --- (a) CFET vs FFET FM12BM12 -------------------------------------------
  auto cfet_ctx = flow::prepare_design(bench::cfet_config());
  auto ffet_dual_ctx = flow::prepare_design(bench::ffet_dual_config(0.5));
  const Curve cfet = sweep(*cfet_ctx, cfet_ctx->config);
  const Curve dual = sweep(*ffet_dual_ctx, ffet_dual_ctx->config);

  std::printf("\n--- Fig. 8(a): CFET vs FFET FM12BM12 ---\n");
  print_curve(cfet);
  print_curve(dual);
  std::printf(
      "\n  area cut at respective min area : %5.1f%%   (paper: 25.1%%)\n",
      bench::pct(cfet.min_area, dual.min_area));
  // Same utilization: compare at the highest util valid for both.
  const double same_u = std::min(cfet.max_util, dual.max_util);
  double a_c = 0, a_f = 0;
  for (const auto& [u, r] : cfet.points) {
    if (u <= same_u && r.valid()) a_c = r.core_area_um2;
  }
  for (const auto& [u, r] : dual.points) {
    if (u <= same_u && r.valid()) a_f = r.core_area_um2;
  }
  std::printf("  area cut at same utilization    : %5.1f%%   (paper: 23.3%%)\n",
              bench::pct(a_c, a_f));
  std::printf("  FFET max utilization            : %5.2f    (paper: 0.86, "
              "tap-cell-limited)\n",
              dual.max_util);
  std::printf("  CFET max utilization            : %5.2f    (paper: ~0.84)\n",
              cfet.max_util);

  // --- (b) layout DEFs at 84% ------------------------------------------------
  if (!args.quick) {
    flow::FlowConfig cfg = ffet_dual_ctx->config;
    cfg.utilization = 0.84;
    flow::PhysicalState st;
    flow::run_physical(*ffet_dual_ctx, cfg, &st);
    for (tech::Side s : {tech::Side::Front, tech::Side::Back}) {
      const io::Def def = io::build_def(st.nl, st.routes, s);
      const std::string path = std::string("fig8b_ffet_") +
                               (s == tech::Side::Front ? "front" : "back") +
                               ".def";
      std::ofstream os(path);
      io::write_def(def, os);
      std::printf("\n  Fig. 8(b): wrote %s (%zu components, %zu nets)\n",
                  path.c_str(), def.components.size(), def.nets.size());
    }
  }

  // --- (c) CFET vs FFET FM12 ---------------------------------------------------
  auto ffet_single_ctx = flow::prepare_design(bench::ffet_fm12_config());
  const Curve single = sweep(*ffet_single_ctx, ffet_single_ctx->config);
  std::printf("\n--- Fig. 8(c): CFET vs FFET FM12 (single-sided) ---\n");
  print_curve(single);
  std::printf(
      "\n  FFET FM12 max utilization       : %5.2f    (paper: 0.76, "
      "routability-limited)\n",
      single.max_util);
  std::printf(
      "  area cut at respective min area : %5.1f%%   (paper: 15.4%%)\n",
      bench::pct(cfet.min_area, single.min_area));
  return 0;
}

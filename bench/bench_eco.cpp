// bench_eco — post-route ECO timing closure at the Fig. 9 operating point.
//
// Runs the RV32 core at FFET FM12/BM12, 76 % utilization, twice on the same
// prepared design: once with eco_passes = 0 (the paper-reproduction
// baseline) and once with the ECO engine enabled, and reports
//
//   * pre-ECO vs post-ECO achieved frequency and total power (plus the
//     iso-frequency power of the optimized design — the "faster at ~equal
//     power" contract is judged at the pre-ECO frequency);
//   * the accepted/reverted transform mix (sizing, repeaters, dual-sided
//     pin flips);
//   * incremental-vs-full STA speedup measured inside the ECO inner loop.
//
// Always writes BENCH_eco.json (cwd).  The committed copy at the repo root
// is the baseline for the CI quick-bench step (ffet_report diff --mode eco),
// which gates post_freq >= pre_freq and sta_speedup >= 1 — both
// machine-independent (the speedup is a same-process ratio).
//
//   --quick   1 ECO pass instead of 2 (same design, same gates)

#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace ffet;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, "eco");
  const int eco_passes = args.quick ? 1 : 2;

  bench::print_title("bench_eco",
                     "post-route ECO: incremental STA + dual-sided optimizer");
  bench::print_note(
      "RV32 core, FFET FM12BM12 FP0.5BP0.5 at 76% utilization (Fig. 9 "
      "operating point); eco_passes=" +
      std::to_string(eco_passes) + ".");

  flow::FlowConfig cfg = bench::ffet_dual_config(0.5);
  cfg.utilization = 0.76;
  const auto ctx = flow::prepare_design(cfg);

  // Baseline: the untouched flow (eco_passes = 0, the default every
  // paper-reproduction bench runs with).
  const flow::FlowResult pre = flow::run_physical(*ctx, cfg);

  flow::FlowConfig ecfg = cfg;
  ecfg.eco_passes = eco_passes;
  const flow::FlowResult post = flow::run_physical(*ctx, ecfg);

  const double freq_gain = bench::pct(post.achieved_freq_ghz,
                                      pre.achieved_freq_ghz);
  const double iso_power_pct =
      bench::pct(post.eco_iso_power_uw, pre.power_uw);

  std::printf("\n  %-26s %12s %12s\n", "", "pre-ECO", "post-ECO");
  std::printf("  %-26s %12.3f %12.3f  (%+.1f%%)\n", "achieved freq (GHz)",
              pre.achieved_freq_ghz, post.achieved_freq_ghz, freq_gain);
  std::printf("  %-26s %12.1f %12.1f  (at achieved freq)\n",
              "total power (uW)", pre.power_uw, post.power_uw);
  std::printf("  %-26s %12s %12.1f  (%+.2f%% vs pre)\n",
              "iso-freq power (uW)", "-", post.eco_iso_power_uw,
              iso_power_pct);
  std::printf("  %-26s %12.1f %12.1f\n", "critical path (ps)",
              pre.critical_path_ps, post.critical_path_ps);
  std::printf("  %-26s %12d %12d\n", "DRV", pre.drv, post.drv);

  std::printf("\n  transforms: %d attempted, %d accepted (%d upsize, "
              "%d downsize, %d repeater, %d pin-flip), %d reverted\n",
              post.eco_attempted, post.eco_accepted, post.eco_upsized,
              post.eco_downsized, post.eco_buffers, post.eco_pin_flips,
              post.eco_reverted);
  std::printf("  incremental STA: %.2fx faster than full re-analysis in "
              "the ECO loop\n",
              post.eco_sta_speedup);

  const bool freq_ok = post.achieved_freq_ghz > pre.achieved_freq_ghz;
  const bool power_ok = post.eco_iso_power_uw <= 1.01 * pre.power_uw;
  const bool speedup_ok = post.eco_sta_speedup >= 1.0;
  std::printf("\n  gates: freq_improved=%s power_within_1pct=%s "
              "sta_speedup_ge_1=%s\n",
              freq_ok ? "ok" : "FAIL", power_ok ? "ok" : "FAIL",
              speedup_ok ? "ok" : "FAIL");

  std::string json;
  json.reserve(1024);
  flow::JsonBuilder j(json);
  j.open_obj();
  j.field("bench", "bench_eco");
  j.field("design", "rv32_ffet_fm12bm12_dual0.5_util0.76");
  j.field("eco_passes", eco_passes);
  j.open_nested("pre");
  j.field("freq_ghz", pre.achieved_freq_ghz);
  j.field("power_uw", pre.power_uw);
  j.field("critical_path_ps", pre.critical_path_ps);
  j.field("drv", pre.drv);
  j.close_obj();
  j.open_nested("post");
  j.field("freq_ghz", post.achieved_freq_ghz);
  j.field("power_uw", post.power_uw);
  j.field("iso_power_uw", post.eco_iso_power_uw);
  j.field("critical_path_ps", post.critical_path_ps);
  j.field("drv", post.drv);
  j.close_obj();
  j.field("freq_gain_pct", freq_gain);
  j.field("iso_power_increase_pct", iso_power_pct);
  j.field("sta_speedup", post.eco_sta_speedup);
  j.field("attempted", post.eco_attempted);
  j.field("accepted", post.eco_accepted);
  j.field("reverted", post.eco_reverted);
  j.field("upsized", post.eco_upsized);
  j.field("downsized", post.eco_downsized);
  j.field("buffers", post.eco_buffers);
  j.field("pin_flips", post.eco_pin_flips);
  j.field("gates_ok", freq_ok && power_ok && speedup_ok);
  j.close_obj();
  json += '\n';

  if (std::FILE* f = std::fopen("BENCH_eco.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    bench::print_note("results written to BENCH_eco.json");
  }

  return (freq_ok && power_ok && speedup_ok) ? 0 : 1;
}

// bench_table2 — reproduces Table II: the design-rule decks (per-layer
// pitches) of both technologies, plus the electrical constants our
// extraction derives from them.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "tech/tech.h"

using namespace ffet;

namespace {

void print_stack(const tech::Technology& t) {
  std::printf("\n%s (pattern %s)\n", t.name().c_str(),
              t.routing_pattern().c_str());
  std::printf("%-6s %10s %6s %12s %12s %10s\n", "layer", "pitch(nm)", "dir",
              "R(ohm/um)", "C(fF/um)", "purpose");
  for (const tech::MetalLayer& l : t.layers()) {
    const char* purpose = l.purpose == tech::LayerPurpose::Signal ? "signal"
                          : l.purpose == tech::LayerPurpose::PowerOnly
                              ? "PDN-only"
                              : "cell-level";
    std::printf("%-6s %10lld %6s %12.3f %12.3f %10s\n", l.name.c_str(),
                static_cast<long long>(l.pitch),
                l.preferred_dir == geom::Dir::Horizontal ? "H" : "V",
                l.r_ohm_per_um, l.c_ff_per_um, purpose);
  }
}

}  // namespace

int main() {
  bench::print_title("Table II", "Design rules: BEOL metal layers");
  bench::SweepTimer timer("bench_table2", 7);  // 2 stacks + 5 limited variants
  bench::print_note(
      "pitches are the paper's published values (model inputs, exact by");
  bench::print_note(
      "construction); R/C are derived by the interconnect scaling model.");
  print_stack(tech::make_cfet_4t());
  print_stack(tech::make_ffet_3p5t());

  std::printf("\nlayer-limited variants (Table III / Fig. 12 DoEs):\n");
  for (const auto& [f, b] :
       {std::pair{10, 2}, {8, 4}, {6, 6}, {5, 5}, {2, 2}}) {
    const tech::Technology t = tech::make_ffet_3p5t().with_routing_limit(f, b);
    std::printf("  %s: %d front + %d back signal routing layers\n",
                t.routing_pattern().c_str(),
                t.num_routing_layers(tech::Side::Front),
                t.num_routing_layers(tech::Side::Back));
  }
  return 0;
}

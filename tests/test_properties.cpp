// Property-based tests: invariants swept over the full library / parameter
// grids with parameterized gtest.

#include <ostream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geom/geom.h"
#include "liberty/characterize.h"
#include "stdcell/nldm.h"
#include "stdcell/stdcell.h"
#include "tech/tech.h"

namespace ffet {
namespace {

// ---------------------------------------------------------------------------
// NLDM monotonicity over every characterized cell of both libraries.
// ---------------------------------------------------------------------------

struct LibHolder {
  tech::Technology tech;
  stdcell::Library lib;
  explicit LibHolder(tech::Technology t)
      : tech(std::move(t)), lib(stdcell::build_library(tech)) {
    liberty::characterize_library(lib);
  }
};

LibHolder& ffet_holder() {
  static LibHolder h(tech::make_ffet_3p5t());
  return h;
}
LibHolder& cfet_holder() {
  static LibHolder h(tech::make_cfet_4t());
  return h;
}

/// One library cell by technology and catalogue index.  Printed as
/// `(<case_id> pointing to "<tech>", <index>)`: the ctest names these cases
/// have been recorded under, when gtest printed the technology string's
/// address there.  The ids are now fixed per technology, so the names no
/// longer change between builds.
struct NldmCase {
  const char* tech_name;
  const char* case_id;
  int cell_index;
};

void PrintTo(const NldmCase& c, std::ostream* os) {
  *os << "(" << c.case_id << " pointing to \"" << c.tech_name << "\", "
      << c.cell_index << ")";
}

std::vector<NldmCase> nldm_cases() {
  struct TechId {
    const char* tech_name;
    const char* case_id;
  };
  std::vector<NldmCase> cases;
  for (const TechId t : {TechId{"ffet", "0x563afb7ce5b6"},
                         TechId{"cfet", "0x563afb7ce75c"}}) {
    for (int i = 0; i < 64; ++i) cases.push_back({t.tech_name, t.case_id, i});
  }
  return cases;
}

class NldmProperty : public ::testing::TestWithParam<NldmCase> {};

TEST_P(NldmProperty, DelayMonotoneInLoadAndSlew) {
  const NldmCase& param = GetParam();
  const int cell_index = param.cell_index;
  LibHolder& h = std::string(param.tech_name) == "ffet" ? ffet_holder()
                                                        : cfet_holder();
  const auto& cells = h.lib.cells();
  if (static_cast<std::size_t>(cell_index) >= cells.size()) GTEST_SKIP();
  const stdcell::CellType& cell = *cells[static_cast<std::size_t>(cell_index)];
  if (cell.physical_only() || !cell.timing_model() ||
      cell.timing_model()->arcs.empty()) {
    GTEST_SKIP();
  }
  for (const stdcell::TimingArc& arc : cell.timing_model()->arcs) {
    for (double slew : {3.0, 12.0, 60.0}) {
      double prev_r = -1, prev_f = -1;
      for (double load : {0.5, 2.0, 8.0, 24.0}) {
        const double r = arc.delay_rise.lookup(slew, load);
        const double f = arc.delay_fall.lookup(slew, load);
        EXPECT_GE(r, prev_r) << cell.name() << " slew=" << slew;
        EXPECT_GE(f, prev_f) << cell.name() << " slew=" << slew;
        EXPECT_GT(r, 0.0) << cell.name();
        EXPECT_GT(f, 0.0) << cell.name();
        prev_r = r;
        prev_f = f;
      }
    }
    for (double load : {1.0, 8.0}) {
      double prev = -1;
      for (double slew : {2.0, 10.0, 40.0, 150.0}) {
        const double d = arc.delay_rise.lookup(slew, load);
        EXPECT_GE(d, prev) << cell.name() << " load=" << load;
        prev = d;
      }
    }
    // Energies are positive and finite.
    EXPECT_GT(arc.energy_rise.lookup(10, 4), 0.0) << cell.name();
    EXPECT_LT(arc.energy_fall.lookup(160, 40), 1000.0) << cell.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, NldmProperty,
                         ::testing::ValuesIn(nldm_cases()));

// ---------------------------------------------------------------------------
// Fig. 4 area law holds for every drive variant, not just D1.
// ---------------------------------------------------------------------------

class AreaLaw : public ::testing::TestWithParam<int> {};

TEST_P(AreaLaw, HeightRatioBoundsEveryCell) {
  const auto& f = ffet_holder().lib;
  const auto& c = cfet_holder().lib;
  const auto idx = static_cast<std::size_t>(GetParam());
  if (idx >= f.cells().size()) GTEST_SKIP();
  const stdcell::CellType& cell = *f.cells()[idx];
  if (cell.physical_only()) GTEST_SKIP();
  const stdcell::CellType* other = c.find(cell.name());
  if (!other) GTEST_SKIP();
  const double ratio = cell.area_um2() / other->area_um2();
  const auto& st = cell.structure();
  if (st.split_gate_pairs > 0) {
    EXPECT_LT(ratio, 0.875) << cell.name() << ": Split Gate must gain";
  } else if (st.width_cpp_ffet > st.width_cpp_cfet) {
    EXPECT_GT(ratio, 0.875) << cell.name() << ": Drain Merge must cost";
  } else {
    EXPECT_NEAR(ratio, 0.875, 1e-9) << cell.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, AreaLaw, ::testing::Range(0, 64));

// ---------------------------------------------------------------------------
// Geometry: randomized snap/track properties (fixed seed).
// ---------------------------------------------------------------------------

TEST(GeomProperty, SnapInvariants) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<geom::Nm> val(-100000, 100000);
  std::uniform_int_distribution<geom::Nm> pitch_d(1, 500);
  for (int i = 0; i < 2000; ++i) {
    const geom::Nm v = val(rng);
    const geom::Nm p = pitch_d(rng);
    const geom::Nm down = geom::snap_down(v, p);
    const geom::Nm up = geom::snap_up(v, p);
    EXPECT_LE(down, v);
    EXPECT_GE(up, v);
    EXPECT_EQ((down % p + p) % p, 0);
    EXPECT_EQ((up % p + p) % p, 0);
    EXPECT_LT(v - down, p);
    EXPECT_LT(up - v, p);
  }
}

TEST(GeomProperty, TracksInSpanMatchesBruteForce) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<geom::Nm> val(0, 2000);
  std::uniform_int_distribution<geom::Nm> pitch_d(1, 97);
  for (int i = 0; i < 500; ++i) {
    geom::Nm lo = val(rng), hi = val(rng);
    if (lo > hi) std::swap(lo, hi);
    const geom::Nm p = pitch_d(rng);
    int brute = 0;
    for (geom::Nm t = 0; t <= hi; t += p) {
      if (t >= lo) ++brute;
    }
    EXPECT_EQ(geom::tracks_in_span(lo, hi, p), brute)
        << lo << ".." << hi << " pitch " << p;
  }
}

TEST(GeomProperty, RectOperationsClosed) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<geom::Nm> val(-1000, 1000);
  for (int i = 0; i < 1000; ++i) {
    geom::Rect a{{val(rng), val(rng)}, {0, 0}};
    a.hi = {a.lo.x + std::abs(val(rng)), a.lo.y + std::abs(val(rng))};
    geom::Rect b{{val(rng), val(rng)}, {0, 0}};
    b.hi = {b.lo.x + std::abs(val(rng)), b.lo.y + std::abs(val(rng))};
    const geom::Rect u = a.united(b);
    EXPECT_TRUE(u.contains(a));
    EXPECT_TRUE(u.contains(b));
    if (a.intersects(b)) {
      const geom::Rect i2 = a.intersected(b);
      EXPECT_TRUE(i2.well_formed());
      EXPECT_TRUE(a.contains(i2));
      EXPECT_TRUE(b.contains(i2));
    }
    // Interior overlap implies intersection.
    if (a.overlaps_interior(b)) {
      EXPECT_TRUE(a.intersects(b));
    }
  }
}

// ---------------------------------------------------------------------------
// Characterization KPI invariants across the FFET/CFET pair for every cell.
// ---------------------------------------------------------------------------

TEST(KpiProperty, LeakageZeroAndTimingNotWorseAcrossLibrary) {
  const auto diffs =
      liberty::compare_libraries(ffet_holder().lib, cfet_holder().lib);
  ASSERT_GT(diffs.size(), 20u);
  for (const liberty::KpiDiff& d : diffs) {
    EXPECT_DOUBLE_EQ(d.leakage_power_pct, 0.0) << d.cell;
    // FFET never slower on the falling edge (the Drain-Merge advantage).
    EXPECT_LT(d.fall_timing_pct, 0.5) << d.cell;
    // Deltas stay physical (no runaway model behaviour).
    EXPECT_GT(d.fall_timing_pct, -40.0) << d.cell;
    EXPECT_LT(std::abs(d.transition_power_pct), 40.0) << d.cell;
  }
}

}  // namespace
}  // namespace ffet

#include "pnr/powerplan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/obs.h"

namespace ffet::pnr {

namespace {

/// Share of a rail's current that flows through the worst-case tap path;
/// with distributed taps the worst cell sees roughly half the rail span.
constexpr double kWorstCaseShare = 0.5;

}  // namespace

BlockageRows::BlockageRows(std::span<const geom::Rect> blockages,
                           Nm origin_y, Nm row_height)
    : blockages_(blockages), origin_y_(origin_y), row_height_(row_height) {
  if (blockages.empty()) return;
  // Counting sort of (band, blockage) pairs into per-band lists.
  first_band_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_band = std::numeric_limits<std::int64_t>::min();
  for (const geom::Rect& b : blockages) {
    first_band_ = std::min(first_band_, band_of(b.lo.y));
    last_band = std::max(last_band, band_of(std::max(b.lo.y, b.hi.y - 1)));
  }
  first_.assign(static_cast<std::size_t>(last_band - first_band_) + 2, 0);
  auto for_each_band = [&](const geom::Rect& b, auto&& f) {
    const auto [lo, hi] = bands(b.lo.y, b.hi.y);
    for (std::int64_t k = lo; k <= hi; ++k) {
      f(static_cast<std::size_t>(k - first_band_));
    }
  };
  for (const geom::Rect& b : blockages) {
    for_each_band(b, [&](std::size_t k) { ++first_[k + 1]; });
  }
  std::partial_sum(first_.begin(), first_.end(), first_.begin());
  items_.resize(static_cast<std::size_t>(first_.back()));
  std::vector<std::int32_t> next(first_.begin(), first_.end() - 1);
  for (std::size_t i = 0; i < blockages.size(); ++i) {
    for_each_band(blockages[i], [&](std::size_t k) {
      items_[static_cast<std::size_t>(next[k]++)] =
          static_cast<std::int32_t>(i);
    });
  }
}

std::int64_t BlockageRows::band_of(Nm y) const {
  const Nm d = y - origin_y_;
  return d >= 0 ? d / row_height_ : -((-d + row_height_ - 1) / row_height_);
}

std::pair<std::int64_t, std::int64_t> BlockageRows::bands(Nm lo, Nm hi) const {
  if (first_.empty()) return {0, -1};
  const std::int64_t last_band =
      first_band_ + static_cast<std::int64_t>(first_.size()) - 2;
  return {std::max(first_band_, band_of(lo)),
          std::min(last_band, band_of(std::max(lo, hi - 1)))};
}

int BlockageRows::first_overlap(const geom::Rect& box) const {
  int found = -1;
  const auto [lo, hi] = bands(box.lo.y, box.hi.y);
  for (std::int64_t k = lo; k <= hi; ++k) {
    const auto band = static_cast<std::size_t>(k - first_band_);
    for (std::int32_t j = first_[band]; j < first_[band + 1]; ++j) {
      const std::int32_t i = items_[static_cast<std::size_t>(j)];
      if (found >= 0 && i >= found) break;
      if (box.overlaps_interior(blockages_[static_cast<std::size_t>(i)])) {
        found = i;
        break;
      }
    }
  }
  return found;
}

std::vector<int> BlockageRows::overlapping_y(Nm lo_y, Nm hi_y) const {
  std::vector<int> out;
  const auto [lo, hi] = bands(lo_y, hi_y);
  for (std::int64_t k = lo; k <= hi; ++k) {
    const auto band = static_cast<std::size_t>(k - first_band_);
    for (std::int32_t j = first_[band]; j < first_[band + 1]; ++j) {
      const std::int32_t i = items_[static_cast<std::size_t>(j)];
      const geom::Rect& b = blockages_[static_cast<std::size_t>(i)];
      if (b.lo.y < hi_y && lo_y < b.hi.y) out.push_back(i);
    }
  }
  if (hi > lo) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

double PowerPlan::estimate_ir_drop_mv(double block_power_uw) const {
  if (num_rails <= 0) return 0.0;
  // I = P / V; V is embedded in tap_r bookkeeping via vdd_v_ set below.
  const double current_ua = block_power_uw / vdd_v_;
  const double per_rail_ua = current_ua / num_rails;
  // uA * ohm = uV; /1000 -> mV.
  return per_rail_ua * kWorstCaseShare * (tap_r_ohm + rail_r_ohm_) / 1000.0;
}

PowerPlan build_power_plan(netlist::Netlist& nl, const Floorplan& fp,
                           const stdcell::Library& lib) {
  FFET_TRACE_SCOPE("powerplan.build");
  const tech::Technology& tech = lib.tech();
  const tech::PowerPlanRules& rules = tech.power_rules();

  PowerPlan plan;
  plan.tap_r_ohm = tech.device().power_tap_r_ohm;
  plan.vdd_v_ = tech.device().vdd_v;

  const Nm stripe_pitch = rules.stripe_pitch_cpp * tech.cpp();
  const Nm half = stripe_pitch / 2;

  // Interleaved VDD/VSS stripes at 64 CPP pitch: same-type pitch 128 CPP.
  int idx = 0;
  for (Nm x = half; x < fp.core.width(); x += stripe_pitch, ++idx) {
    if (idx % 2 == 0) {
      plan.vdd_stripe_x.push_back(x);
    } else {
      plan.vss_stripe_x.push_back(x);
    }
  }
  plan.num_rails = static_cast<int>(plan.vdd_stripe_x.size() +
                                    plan.vss_stripe_x.size());
  // Rail resistance of one backside stripe over half the core height.  The
  // FFET BSPDN rides the *highest* backside layer available ("the highest
  // PDN layer is determined by the highest signal routing layer on the
  // backside", Sec. IV); the CFET uses its PDN-only BM2.
  const tech::MetalLayer* rail_layer = nullptr;
  for (const tech::MetalLayer& l : tech.layers()) {
    if (l.side != tech::Side::Back || l.index < 0) continue;
    if (!rail_layer || l.index > rail_layer->index) rail_layer = &l;
  }
  plan.rail_r_ohm_ =
      rail_layer
          ? rail_layer->r_ohm_per_um * geom::to_um(fp.core.height()) / 2.0
          : 0.0;

  double blocked_area = 0.0;

  if (rules.tap_cell_width_cpp > 0) {
    // FFET: a Power Tap Cell in every row under every backside VSS stripe,
    // connecting the frontside VSS M0 rail around the backside VDD rail to
    // the BSPDN (Fig. 6b).  FIXED: the placer must route around them.
    const stdcell::CellType& tap = lib.at(lib.tap_cell_name());
    int serial = 0;
    for (Nm x : plan.vss_stripe_x) {
      const Nm tap_x =
          geom::snap_down(x - tap.width() / 2, fp.site_width);
      for (const Row& row : fp.rows) {
        const std::string name = "power_tap_" + std::to_string(serial++);
        const netlist::InstId id = nl.add_instance(name, &tap);
        nl.instance(id).pos = {tap_x, row.y};
        nl.instance(id).fixed = true;
        plan.tap_cells.push_back(id);
        const geom::Rect bbox = nl.instance(id).bbox();
        plan.blockages.push_back(bbox);
        blocked_area += bbox.area_um2();
      }
    }
  } else if (rules.tsv_blockage_fraction > 0.0) {
    // CFET: nTSV landing pads along every stripe.  The pads are not
    // site-quantized; each row contributes one pad per stripe whose width
    // realizes the technology's blockage fraction exactly.
    const Nm pad_w = static_cast<Nm>(rules.tsv_blockage_fraction *
                                     static_cast<double>(stripe_pitch));
    std::vector<Nm> all_stripes;
    all_stripes.insert(all_stripes.end(), plan.vdd_stripe_x.begin(),
                       plan.vdd_stripe_x.end());
    all_stripes.insert(all_stripes.end(), plan.vss_stripe_x.begin(),
                       plan.vss_stripe_x.end());
    std::sort(all_stripes.begin(), all_stripes.end());
    for (Nm x : all_stripes) {
      for (const Row& row : fp.rows) {
        const geom::Rect pad =
            geom::make_rect({x - pad_w / 2, row.y}, pad_w, fp.row_height);
        plan.blockages.push_back(pad);
        blocked_area += pad.area_um2();
      }
    }
  }

  plan.blocked_site_fraction = blocked_area / fp.core.area_um2();
  FFET_METRIC_ADD("powerplan.taps", plan.tap_cells.size());
  return plan;
}

}  // namespace ffet::pnr

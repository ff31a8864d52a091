#include "pnr/drc.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace ffet::pnr {

std::string_view to_string(DrcViolation::Kind k) {
  switch (k) {
    case DrcViolation::Kind::OutsideCore: return "outside-core";
    case DrcViolation::Kind::OffSiteGrid: return "off-site-grid";
    case DrcViolation::Kind::OffRowGrid: return "off-row-grid";
    case DrcViolation::Kind::CellOverlap: return "cell-overlap";
    case DrcViolation::Kind::BlockageOverlap: return "blockage-overlap";
  }
  return "?";
}

int DrcReport::count(DrcViolation::Kind k) const {
  int n = 0;
  for (const DrcViolation& v : violations) {
    if (v.kind == k) ++n;
  }
  return n;
}

std::string DrcReport::summary() const {
  std::ostringstream os;
  os << violations.size() << " placement DRC violations";
  if (!violations.empty()) {
    os << " (outside-core " << count(DrcViolation::Kind::OutsideCore)
       << ", off-grid "
       << count(DrcViolation::Kind::OffSiteGrid) +
              count(DrcViolation::Kind::OffRowGrid)
       << ", overlaps " << count(DrcViolation::Kind::CellOverlap)
       << ", on-blockage " << count(DrcViolation::Kind::BlockageOverlap)
       << ")";
  }
  return os.str();
}

DrcReport check_placement(const netlist::Netlist& nl, const Floorplan& fp,
                          const PowerPlan& pp) {
  DrcReport rep;
  const BlockageRows blocked(pp.blockages, fp.core.lo.y, fp.row_height);

  // Tap-cell footprints double as blockages; skip self-matches below.
  std::map<geom::Nm, std::vector<std::pair<geom::Rect, netlist::InstId>>>
      by_row;

  for (netlist::InstId id = 0; id < nl.num_instances(); ++id) {
    const netlist::Instance& inst = nl.instance(id);
    const geom::Rect box = inst.bbox();
    if (!fp.core.contains(box)) {
      rep.violations.push_back(
          {DrcViolation::Kind::OutsideCore, nl.instance_name(id), "", box});
    }
    if (box.lo.x % fp.site_width != 0) {
      rep.violations.push_back(
          {DrcViolation::Kind::OffSiteGrid, nl.instance_name(id), "", box});
    }
    if (box.lo.y % fp.row_height != 0) {
      rep.violations.push_back(
          {DrcViolation::Kind::OffRowGrid, nl.instance_name(id), "", box});
    }
    if (!inst.fixed) {
      // The lowest-index blockage under the cell, as a scan in index order
      // would find it.
      if (const int b = blocked.first_overlap(box); b >= 0) {
        rep.violations.push_back(
            {DrcViolation::Kind::BlockageOverlap, nl.instance_name(id), "",
             box.intersected(pp.blockages[static_cast<std::size_t>(b)])});
      }
    }
    by_row[box.lo.y].push_back({box, id});
  }

  // Overlap scan per row (cells share a row exactly when legal).
  for (auto& [y, v] : by_row) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.first.lo.x < b.first.lo.x;
    });
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      if (v[i].first.hi.x > v[i + 1].first.lo.x) {
        rep.violations.push_back({DrcViolation::Kind::CellOverlap,
                                  nl.instance_name(v[i].second),
                                  nl.instance_name(v[i + 1].second),
                                  v[i].first.intersected(v[i + 1].first)});
      }
    }
  }
  return rep;
}

}  // namespace ffet::pnr

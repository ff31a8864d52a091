// rc_compare.h — bitwise comparison of extracted parasitics, shared by the
// extraction, ECO and scale tests.

#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "extract/extract.h"

namespace ffet::extract {

/// Every field of two RC trees, bitwise: node positions, caps, resistances,
/// parents and sides, the Elmore delays, the sink hookups and the totals.
inline void expect_same_tree(const RcTreeView& a, const RcTreeView& b,
                             netlist::NetId n) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "net " << n;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const RcNode& x = a.nodes[i];
    const RcNode& y = b.nodes[i];
    EXPECT_EQ(x.pos.x, y.pos.x) << "net " << n << " node " << i;
    EXPECT_EQ(x.pos.y, y.pos.y) << "net " << n << " node " << i;
    EXPECT_EQ(x.cap_ff, y.cap_ff) << "net " << n << " node " << i;
    EXPECT_EQ(x.r_ohm, y.r_ohm) << "net " << n << " node " << i;
    EXPECT_EQ(x.parent, y.parent) << "net " << n << " node " << i;
    EXPECT_EQ(x.side, y.side) << "net " << n << " node " << i;
  }
  ASSERT_EQ(a.elmore_ps.size(), b.elmore_ps.size()) << "net " << n;
  for (std::size_t i = 0; i < a.elmore_ps.size(); ++i) {
    EXPECT_EQ(a.elmore_ps[i], b.elmore_ps[i]) << "net " << n << " node " << i;
  }
  ASSERT_EQ(a.sink_nodes.size(), b.sink_nodes.size()) << "net " << n;
  for (std::size_t i = 0; i < a.sink_nodes.size(); ++i) {
    EXPECT_EQ(a.sink_nodes[i], b.sink_nodes[i]) << "net " << n;
  }
  EXPECT_EQ(a.total_cap_ff, b.total_cap_ff) << "net " << n;
  EXPECT_EQ(a.wire_cap_ff, b.wire_cap_ff) << "net " << n;
}

/// Every tree of two extractions (expect_same_tree) and their global
/// totals, bitwise.
inline void expect_same_rc(const RcNetlist& a, const RcNetlist& b) {
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (netlist::NetId n = 0; n < static_cast<netlist::NetId>(a.num_trees());
       ++n) {
    expect_same_tree(a.tree(n), b.tree(n), n);
  }
  EXPECT_EQ(a.total_wire_cap_ff, b.total_wire_cap_ff);
  EXPECT_EQ(a.total_wire_res_kohm, b.total_wire_res_kohm);
}

}  // namespace ffet::extract

// synth.h — virtual synthesis: target-frequency gate sizing and buffering.
//
// The paper sweeps the *synthesis target frequency* (500 MHz – 3 GHz) and
// reports the post-P&R achieved frequency and power.  We reproduce the
// mechanism with a sizing loop over the mapped netlist:
//
//   1. high-fanout nets are buffered down to `max_fanout`;
//   2. wireload-model STA finds the critical path; every cell on it is
//      upsized one drive step (D1→D2→D4→D8) when a bigger drive exists;
//   3. repeat until the target period is met or no further move helps.
//
// Tighter targets therefore yield larger/faster/hungrier netlists — the
// effect that makes the paper's power-frequency curves slope upward.

#pragma once

#include <unordered_map>

#include "netlist/netlist.h"

namespace ffet::synth {

struct SynthOptions {
  double target_freq_ghz = 1.5;
  int max_passes = 16;
  int max_fanout = 12;
};

struct SynthReport {
  double est_freq_ghz = 0.0;  ///< wireload-model estimate after sizing
  bool met = false;
  int upsized = 0;
  int buffers_added = 0;
  int passes = 0;
};

/// Size `nl` in place for the target frequency.  The library must be
/// characterized.
SynthReport size_for_frequency(netlist::Netlist& nl,
                               const SynthOptions& options = {});

/// Post-CTS hold fixing: insert delay buffers in front of flip-flop D pins
/// whose min-delay paths violate hold under the clock-tree latencies
/// (classic useful-skew repair).  Uses a conservative (derated, zero-wire)
/// min-delay model plus `margin_ps` of padding so the post-route check
/// stays clean.  Returns the number of buffers inserted.
int fix_hold(netlist::Netlist& nl,
             const std::unordered_map<netlist::InstId, double>&
                 clock_latency_ps,
             double margin_ps = 4.0);

}  // namespace ffet::synth

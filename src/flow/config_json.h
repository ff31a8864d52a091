// config_json.h — FlowConfig as a machine-readable JSON object.
//
// The sweep service (`src/serve`) ships FlowConfigs over the wire as JSON:
// a client submits a list of config objects, the daemon hands each one to a
// forked worker, and the worker reconstructs the FlowConfig and runs the
// flow.  This header is the write side (byte-deterministic, emitted with
// the same JsonBuilder as every other artifact); the read side lives in
// serve/config_codec.h because it reuses the strict parser from src/report
// (which links *against* this library — flow cannot link back).
//
// Every member of FlowConfig is serialized, including the ones that do not
// change PPA (threads, sink paths): the wire format is a faithful
// round-trip, and the *worker* decides which fields to honor.  A
// compile-time member census (kFlowConfigFieldCount) pins the struct shape:
// adding a FlowConfig field breaks the build here until the serializer, the
// parser, FlowConfig::label() and the round-trip test are revisited —
// that's the guard against a new PPA-affecting knob silently aliasing two
// cache keys (the service cache is keyed on label()).

#pragma once

#include <string>
#include <utility>

#include "flow/flow.h"

namespace ffet::flow {

class JsonBuilder;

/// The number of data members FlowConfig currently has.  Checked against
/// the real struct by a static_assert in config_json.cpp (aggregate
/// brace-initializability census).  When this fails to compile you added or
/// removed a field: update config_to_json, serve/config_codec's
/// config_from_json, label() (if the field changes PPA), the
/// FlowConfigJson tests in test_serve.cpp — and then this constant.
inline constexpr int kFlowConfigFieldCount = 16;

// --- compile-time member census ---------------------------------------------
// An aggregate's number of data members equals the largest N for which it
// brace-initializes from N distinct arguments.  `CensusProbe` converts to
// anything; count_members() finds the maximum N by recursion over the
// index sequence.  Pins FlowConfig here and FlowResult/ResourceUsage in
// report_json.cpp.

namespace detail {

struct CensusProbe {
  template <class T>
  operator T() const;
};

template <class T, class... Args>
concept BraceConstructible = requires { T{std::declval<Args>()...}; };

template <class T, int... I>
constexpr bool constructible_with(std::integer_sequence<int, I...>) {
  return BraceConstructible<T, decltype((void(I), CensusProbe{}))...>;
}

template <class T, int N = 0>
constexpr int count_members() {
  if constexpr (constructible_with<T>(
                    std::make_integer_sequence<int, N + 1>{})) {
    return count_members<T, N + 1>();
  } else {
    return N;
  }
}

}  // namespace detail

/// Append `cfg` as a JSON object ({"tech":"ffet",...}) to an open builder.
void append_config_json(JsonBuilder& j, const FlowConfig& cfg);

/// One compact JSON object for `cfg`; serializing the same config twice
/// yields identical bytes (to_chars doubles, fixed field order).
std::string config_to_json(const FlowConfig& cfg);

/// A list of configs as a compact JSON array — the payload of a service
/// sweep submission.
std::string configs_to_json(const std::vector<FlowConfig>& cfgs);

}  // namespace ffet::flow

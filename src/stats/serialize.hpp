// Exact, deterministic (de)serialization of Stats.
//
// Every Stats field is an unsigned integer (or a container of them), so the
// round trip is lossless. The output is canonical — fields in a fixed
// order, the per-line histogram sorted by address — which makes serialized
// reports directly comparable: two runs produced identical statistics iff
// their serializations are byte-identical. The runner's result cache and the
// determinism regression tests both rely on that property.
//
// Format: one `key value...` line per field of the Stats field table
// (stats/counters.hpp), in table order; containers are
// `key <count> v0 v1 ...` (the map flattens to addr/count pairs). A leading
// `asfsim-stats v<N>` line versions the schema and says which opt-in
// sections follow; deserialize_stats() rejects anything it does not fully
// recognize, so a stale or truncated blob reads as "not a report" (the
// cache treats that as a miss) rather than as zeroed statistics.
#pragma once

#include <string>
#include <string_view>

#include "stats/counters.hpp"

namespace asfsim {

[[nodiscard]] std::string serialize_stats(const Stats& s);

/// Parse a blob produced by serialize_stats into `out` (fully overwritten
/// on success). Returns false — leaving `out` unspecified — on any
/// mismatch: unknown/missing keys, bad counts, trailing garbage.
[[nodiscard]] bool deserialize_stats(std::string_view blob, Stats& out);

}  // namespace asfsim

#pragma once
// Renderers for telemetry::Dump: the human-readable text listing and the
// JSON export shaped like bench_perf_round's perf_round.json (per-round
// `seconds.*` keys derived from the event log, from the same labels a
// live BflRoundRecord::stats harvest carries).
//
// Consumed by `fairbfl_sim --trace-format=text|json` and the telemetry
// tests; kept out of telemetry.hpp so hot-path includes stay lean.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace fairbfl::telemetry {

/// Unique (session, round) pairs present in the dump, in first-appearance
/// order -- the slices to_json() summarizes.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> rounds_of(
    const Dump& dump);

/// RoundStats of one (session, round) slice, resolving label names from
/// the dump's own table (a decoded file needs no live registry).
[[nodiscard]] RoundStats dump_round_stats(const Dump& dump,
                                          std::uint32_t session,
                                          std::uint32_t round);

/// Human-readable listing: label table, then one line per record with the
/// span tree indented by nesting depth.
[[nodiscard]] std::string to_text(const Dump& dump);

/// JSON export: `schema_version`, record/label counts, and one entry per
/// (session, round) with the perf_round.json stage keys (`seconds.local`,
/// `seconds.cluster`, `seconds.index_build`, `seconds.aggregate`,
/// `seconds.mine`, `seconds.wait_quorum`, `seconds.total`,
/// `index_peak_bytes`) derived from the log, plus the raw
/// per-label statistics.
[[nodiscard]] std::string to_json(const Dump& dump);

}  // namespace fairbfl::telemetry

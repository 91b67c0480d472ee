#pragma once
// Client selection: Algorithm 1 line 3, "randomly select lambda*n clients".

#include <cstdint>
#include <vector>


namespace fairbfl::fl {

/// Uniformly samples ceil(ratio * n) distinct client indices for a round.
/// `ratio` is the paper's lambda; clamped to (0, 1].  Deterministic in
/// (root_seed, round).
[[nodiscard]] std::vector<std::size_t> sample_clients(std::size_t n,
                                                      double ratio,
                                                      std::uint64_t round,
                                                      std::uint64_t root_seed);

/// Removes `excluded` ids from `selected` (the discarding strategy's client
/// selection: low-contribution clients "no longer participate before the
/// round").  Order of the survivors is preserved.
[[nodiscard]] std::vector<std::size_t> exclude_clients(
    std::vector<std::size_t> selected, const std::vector<std::size_t>& excluded);

}  // namespace fairbfl::fl

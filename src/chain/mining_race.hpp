#pragma once
// The mining competition (Procedure V) as a stochastic race.
//
// Every miner draws an exponential solve time; the minimum wins.  For the
// vanilla blockchain baseline, near-simultaneous solves (within a block's
// propagation window) fork the chain: both blocks circulate until the next
// block orphans one side, which costs an extra merge delay and may discard
// transactions -- the behaviour behind the paper's Figure 6b.  FAIR-BFL's
// tight coupling keeps exactly one competition per round and accepts the
// first solve atomically, so its race never forks.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chain/network.hpp"
#include "chain/transaction.hpp"
#include "support/rng.hpp"

namespace fairbfl::chain {

struct MinerSpec {
    NodeId id = 0;
    double hashes_per_second = 1.0e6;
};

struct RaceOutcome {
    NodeId winner = 0;
    double solve_seconds = 0.0;        ///< winner's solve time
    double propagation_seconds = 0.0;  ///< winner's block reaching all peers
    bool forked = false;               ///< >=2 solves within the propagation window
    std::size_t fork_width = 1;        ///< number of competing blocks
    double fork_merge_seconds = 0.0;   ///< extra delay to orphan the losers
    /// Total wall time this competition contributed to the round.
    [[nodiscard]] double total_seconds() const noexcept {
        return solve_seconds + propagation_seconds + fork_merge_seconds;
    }
};

class MiningRace {
public:
    MiningRace(std::vector<MinerSpec> miners, NetworkModel network,
               std::uint64_t difficulty) noexcept;

    /// Runs one competition.  `block_bytes` drives propagation time;
    /// `allow_forks` distinguishes vanilla blockchain (true) from
    /// FAIR-BFL's tightly coupled race (false).
    [[nodiscard]] RaceOutcome run(std::size_t block_bytes, bool allow_forks,
                                  support::Rng& rng) const;

    [[nodiscard]] std::uint64_t difficulty() const noexcept {
        return difficulty_;
    }
    [[nodiscard]] std::size_t miner_count() const noexcept {
        return miners_.size();
    }

private:
    std::vector<MinerSpec> miners_;
    NetworkModel network_;
    std::uint64_t difficulty_;
};

/// Uniform fleet helper: `count` miners with identical hash rate.
[[nodiscard]] std::vector<MinerSpec> uniform_miners(std::size_t count,
                                                    double hashes_per_second);

}  // namespace fairbfl::chain

#include "chain/mining_race.hpp"

#include <algorithm>
#include <limits>

#include "chain/pow.hpp"

namespace fairbfl::chain {

MiningRace::MiningRace(std::vector<MinerSpec> miners, NetworkModel network,
                       std::uint64_t difficulty) noexcept
    : miners_(std::move(miners)),
      network_(network),
      difficulty_(difficulty == 0 ? 1 : difficulty) {}

RaceOutcome MiningRace::run(std::size_t block_bytes, bool allow_forks,
                            support::Rng& rng) const {
    RaceOutcome outcome;
    if (miners_.empty()) return outcome;

    // Draw each miner's solve time; track winner and the full sorted set of
    // solves for fork detection.
    std::vector<double> solves;
    solves.reserve(miners_.size());
    double best = std::numeric_limits<double>::infinity();
    for (const MinerSpec& miner : miners_) {
        const double t =
            sample_mining_seconds(miner.hashes_per_second, difficulty_, rng);
        solves.push_back(t);
        if (t < best) {
            best = t;
            outcome.winner = miner.id;
        }
    }
    outcome.solve_seconds = best;
    outcome.propagation_seconds = network_.block_propagation_seconds(
        miners_.size(), block_bytes, rng);

    if (allow_forks && miners_.size() > 1) {
        // Any other solve landing before the winner's block has propagated
        // produces a competing block (the miner had not heard "stop").
        std::size_t competing = 0;
        const double window = best + outcome.propagation_seconds;
        for (const double t : solves) {
            if (t > best && t <= window) ++competing;
        }
        if (competing > 0) {
            outcome.forked = true;
            outcome.fork_width = competing + 1;
            // Merging costs roughly one extra block interval per extra
            // branch: the network must mine on top of one side to orphan
            // the others, and the contention repeats for wide forks.
            double merge = 0.0;
            for (std::size_t branch = 0; branch < competing; ++branch) {
                // Expected next-solve time of the whole fleet.
                double fleet_rate = 0.0;
                for (const MinerSpec& miner : miners_)
                    fleet_rate += miner.hashes_per_second /
                                  static_cast<double>(difficulty_);
                merge += rng.exponential(fleet_rate) +
                         network_.block_propagation_seconds(miners_.size(),
                                                            block_bytes, rng);
            }
            outcome.fork_merge_seconds = merge;
        }
    }
    return outcome;
}

std::vector<MinerSpec> uniform_miners(std::size_t count,
                                      double hashes_per_second) {
    std::vector<MinerSpec> miners;
    miners.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        miners.push_back(MinerSpec{static_cast<NodeId>(i),
                                   hashes_per_second});
    return miners;
}

}  // namespace fairbfl::chain

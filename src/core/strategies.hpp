#pragma once
// Pluggable strategy interfaces for the orchestration layer.
//
// The paper's flexibility claim (Figure 3, §4.6) is that FAIR-BFL is a
// pipeline of swappable stages: how gradients are combined (Algorithm 1
// line 24 / Eq. 1), how blocks are mined (Assumption 1 on or off), and how
// contributions are scored and rewarded (Algorithm 2 + the two
// low-contribution strategies).  These interfaces make each stage an
// object, so a new aggregation rule, consensus discipline, or incentive
// scheme drops into FairBfl -- and into the SystemRegistry of
// core/system.hpp -- without editing the round loop.
//
// Every built-in implementation wraps the corresponding free function and
// consumes randomness in exactly the same order, so swapping a bool-driven
// configuration for its strategy object reproduces the legacy series
// bit-for-bit.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/delay_model.hpp"
#include "incentive/contribution.hpp"

namespace fairbfl::core {

// ---------------------------------------------------------------------------
// Aggregation (Algorithm 1 line 24 / Eq. 1).

/// Combines one round's gradient updates into the next global weight
/// vector.  Implementations must be stateless and thread-safe: one
/// instance may serve many concurrent systems in a run_suite sweep.
class Aggregator {
public:
    virtual ~Aggregator() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Unweighted combine (the paper's line-24 provisional update).
    [[nodiscard]] virtual std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const = 0;

    /// Score-weighted combine (Eq. 1; `theta` holds one contribution score
    /// per update).  Rules without a weighted form ignore the scores.
    [[nodiscard]] virtual std::vector<float> aggregate_weighted(
        std::span<const fl::GradientUpdate> updates,
        std::span<const double> theta) const {
        (void)theta;
        return aggregate(updates);
    }
};

/// Registered rules: "simple" (line 24), "sample_weighted" (classic
/// FedAvg), "fair" (Eq. 1 when given scores), "trimmed_mean" (per
/// coordinate, drop the ceil(trim * K) smallest and largest values, average
/// the rest -- robust to forged magnitudes), and "median" (coordinate-wise
/// median, trimmed mean's limit).  Throws std::invalid_argument for an
/// unknown name.  `trim_fraction` only affects "trimmed_mean".
[[nodiscard]] std::shared_ptr<const Aggregator> make_aggregator(
    std::string_view name, double trim_fraction = 0.1);

/// Names accepted by make_aggregator, for error messages and CLIs.
[[nodiscard]] std::vector<std::string_view> aggregator_names();

// ---------------------------------------------------------------------------
// Consensus (Procedure V).

/// What one round of mining produced, in simulated seconds.
struct MiningOutcome {
    double seconds = 0.0;
    std::size_t forks = 0;
    double fork_merge_seconds = 0.0;
};

/// Prices one round's block production.  `blocks` sequential blocks of
/// `block_bytes` each are mined by `miners`.  Implementations must draw
/// from `rng` exactly as their legacy code path did (common-random-numbers
/// discipline across configurations).
class ConsensusEngine {
public:
    virtual ~ConsensusEngine() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    [[nodiscard]] virtual MiningOutcome mine(const DelayModel& delays,
                                             std::size_t miners,
                                             std::size_t blocks,
                                             std::size_t block_bytes,
                                             support::Rng& rng) const = 0;
};

/// Registered engines: "sync_pow" (Assumption 1: one tightly-coupled race
/// per block, no forks) and "async_pow" (the ablation/vanilla discipline:
/// concurrent mining with forking and idle-block waste).  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::shared_ptr<const ConsensusEngine> make_consensus(
    std::string_view name);

// ---------------------------------------------------------------------------
// Incentive (Algorithm 2 + the low-contribution strategies).

/// Scores one round's updates against the provisional global update.
class ContributionPolicy {
public:
    virtual ~ContributionPolicy() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// `reference` is the previous round's global weights (may be empty);
    /// see incentive::identify_contributions for why deltas matter.
    [[nodiscard]] virtual incentive::ContributionReport identify(
        std::span<const fl::GradientUpdate> updates,
        std::span<const float> provisional_global,
        std::span<const float> reference) const = 0;
};

/// Algorithm 2: clustering (DBSCAN or k-means per `config`) + cosine
/// scores.
[[nodiscard]] std::shared_ptr<const ContributionPolicy>
make_contribution_policy(const incentive::ContributionConfig& config);

/// Decides what a contribution report is worth: the final aggregation of
/// the round and whether flagged clients sit out the next one.
class RewardPolicy {
public:
    virtual ~RewardPolicy() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Applies the strategy to pick the surviving updates, then combines
    /// them: with `aggregator == nullptr` via Eq. 1 exactly
    /// (incentive::apply_strategy); with an explicit aggregator via its
    /// score-weighted form, so a robust rule governs the final global
    /// update too.
    [[nodiscard]] virtual std::vector<float> settle(
        std::span<const fl::GradientUpdate> updates,
        const incentive::ContributionReport& report,
        const Aggregator* aggregator = nullptr) const = 0;

    /// True when low-contribution clients are benched for the next round
    /// (the paper's discarding strategy read as client selection).
    [[nodiscard]] virtual bool benches_low_contributors() const noexcept = 0;
};

/// "keep_all" or "discard", matching incentive::LowContributionStrategy.
[[nodiscard]] std::shared_ptr<const RewardPolicy> make_reward_policy(
    incentive::LowContributionStrategy strategy);

}  // namespace fairbfl::core

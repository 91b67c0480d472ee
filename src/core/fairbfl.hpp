#pragma once
// FAIR-BFL: the paper's Algorithm 1 -- five tightly coupled procedures per
// communication round:
//
//   I.   Local Learning and Update         (clients, parallel)
//   II.  Uploading the gradient for mining (clients -> random miner, RSA)
//   III. Exchanging Gradients              (miners all-to-all)
//   IV.  Computing Global Updates          (simple avg -> Algorithm 2 ->
//                                           fair aggregation, Eq. 1)
//   V.   Block Mining and Consensus        (PoW race, one block per round)
//
// Flexibility by design (Figure 3): stages III and V can be switched off,
// degrading FAIR-BFL to pure FL; the pure-blockchain degradation (drop I
// and IV) lives in blockchain_baseline.hpp.  Two ablation switches undo
// the paper's Assumptions for comparison: `async_mining` (violates
// Assumption 1 -> forking + empty-block waste) and
// `record_local_gradients` (violates Assumption 2 -> every local gradient
// becomes a block transaction, re-introducing block-size queuing).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/chain.hpp"
#include "core/attacker.hpp"
#include "core/delay_model.hpp"
#include "core/round_engine.hpp"
#include "core/strategies.hpp"
#include "fl/fedavg.hpp"
#include "fl/local_trainer.hpp"
#include "incentive/contribution.hpp"
#include "incentive/reward.hpp"
#include "support/fault_plan.hpp"
#include "telemetry/telemetry.hpp"

namespace fairbfl::core {

struct FairBflConfig {
    fl::FlConfig fl;        ///< lambda, rounds, SGD params, seed
    std::size_t miners = 2; ///< m
    incentive::ContributionConfig incentive;
    /// Algorithm 2 on/off (off = plain simple-average BFL rounds).
    bool enable_incentive = true;
    AttackConfig attack;
    DelayParams delay;
    /// RSA key size for transaction signing; 0 disables cryptography
    /// (recommended for large sweeps -- the protocol path is identical).
    std::size_t key_bits = 0;
    /// Hybrid-encrypt each local gradient to its miner before upload
    /// (paper §4.2: "local gradients can be encrypted using RSA to ensure
    /// data privacy").  Requires key_bits > 0.  Inflates the upload payload
    /// by the key-wrap + tag overhead, which the delay model charges.
    bool encrypt_gradients = false;
    /// Stage toggles (Figure 3).  Disabling exchange+mining degrades to
    /// pure FL while keeping the same code path.
    bool stage_exchange = true;  ///< Procedure III
    bool stage_mining = true;    ///< Procedure V
    /// Ablations (see header comment).
    bool async_mining = false;           ///< violate Assumption 1
    bool record_local_gradients = false; ///< violate Assumption 2
    std::uint64_t chain_id = 0x7A1B;

    // --- Strategy overrides (core/strategies.hpp).  Null / empty fields
    // fall back to the paper's defaults, so a default-constructed config
    // reproduces Algorithm 1 exactly; setting one swaps that stage without
    // touching the round loop.
    /// Combine rule.  Null = the paper's combines exactly: "simple" for
    /// the provisional update (line 24) and Eq. 1 for the settlement.
    /// When set, the rule shapes the provisional *and* (via its weighted
    /// form) the incentive settlement, so robust rules ("trimmed_mean",
    /// "median") defend whether Algorithm 2 is on or off.
    std::shared_ptr<const Aggregator> aggregator;
    /// Consensus engine name ("sync_pow" / "async_pow").  Empty = derived
    /// from the legacy `async_mining` bool.
    std::string consensus;
    /// Algorithm 2 replacement.  Null = clustering per `incentive`.
    std::shared_ptr<const ContributionPolicy> contribution;
    /// Low-contribution handling.  Null = from `incentive.strategy`.
    std::shared_ptr<const RewardPolicy> reward;

    // --- Async round engine (core/round_engine.hpp).
    /// Quorum-or-deadline collection contract.  The default (full
    /// participation, no deadline) reproduces the lockstep series
    /// bit-for-bit; engaging either knob makes the round partial-
    /// participation with late-gradient handling per `round.late_policy`.
    RoundConfig round;
    /// Optional fault-injection plan (dropout / straggler / duplicate /
    /// churn) applied to the round's deliveries.  Null = no faults.
    std::shared_ptr<const support::FaultPlan> fault_plan;
    /// Pool carrying the round's training fan-out; null = the process
    /// global pool.  Results are identical for any pool size.
    support::ThreadPool* pool = nullptr;
};

/// Everything that happened in one FAIR-BFL communication round.
struct BflRoundRecord {
    fl::RoundRecord fl;                      ///< accuracy / loss / counts
    RoundDelay delay;                        ///< paper's T components
    /// Measured host wall time, derived from the round's telemetry
    /// harvest via core::stage_wall_from (zeros when FAIRBFL_TELEMETRY is
    /// off).  Deprecated shim -- new consumers should harvest the
    /// telemetry session directly.  The member rides out the shim's final
    /// release, so it suppresses the deprecation it would otherwise emit.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    StageWall wall;
#pragma GCC diagnostic pop
    std::vector<fl::NodeId> attacker_clients;
    std::vector<fl::NodeId> low_contribution_clients;  ///< Table 2 "Drop Index"
    double detection_rate = 1.0;             ///< Table 2 row metric
    double round_reward_total = 0.0;
    std::size_t chain_height = 0;            ///< after this round
    std::size_t blocks_this_round = 0;
    std::size_t forks_this_round = 0;        ///< ablation runs only

    // --- Async round engine outcome (core/round_engine.hpp).
    std::size_t on_time_updates = 0;  ///< aggregated at the trigger
    std::size_t late_updates = 0;     ///< arrived after the trigger
    std::size_t carried_in_updates = 0;  ///< prior rounds' late joiners
    std::size_t duplicate_updates_dropped = 0;  ///< replays deduplicated
    std::size_t empty_blocks_this_round = 0;  ///< async-race idle solves
    std::size_t quorum_needed = 0;
    bool deadline_fired = false;
    /// Virtual seconds the trigger waited for quorum after the first
    /// arrival.
    double wait_quorum_seconds = 0.0;
};

class FairBfl {
public:
    FairBfl(const ml::Model& model, std::vector<fl::Client> clients,
            ml::DatasetView test_set, FairBflConfig config);

    BflRoundRecord run_round();
    std::vector<BflRoundRecord> run(std::size_t rounds = 0);

    [[nodiscard]] std::span<const float> weights() const noexcept {
        return weights_;
    }
    [[nodiscard]] const chain::Blockchain& blockchain() const noexcept {
        return chain_;
    }
    [[nodiscard]] const incentive::RewardLedger& ledger() const noexcept {
        return ledger_;
    }
    [[nodiscard]] const FairBflConfig& config() const noexcept {
        return config_;
    }
    [[nodiscard]] std::uint64_t current_round() const noexcept {
        return round_;
    }
    [[nodiscard]] const std::vector<fl::Client>& clients() const noexcept {
        return clients_;
    }
    /// The system's telemetry session (one per instance; its id tags every
    /// record this system emits).  Exposed so tests and tools can harvest
    /// or cross-check against a captured dump.
    [[nodiscard]] const telemetry::Session& telemetry_session()
        const noexcept {
        return telemetry_;
    }

private:
    /// Why Procedure II dropped an upload (kNone: delivered).
    enum class UploadDrop : std::uint8_t {
        kNone,
        kBadSignature,
        kUndecryptable,
        kAltered,  ///< opened, but not the transaction that was sent
    };
    /// One update's Procedure II result.
    struct Upload {
        chain::Transaction tx;
        std::size_t wire_bytes = 0;  ///< ciphertext bytes (0: plaintext)
        UploadDrop drop = UploadDrop::kNone;
    };

    /// E * ceil(|D_i| / B) batch steps for the delay model.
    [[nodiscard]] std::size_t batch_steps_of(std::size_t client_id) const;

    /// config.pool, or the process-wide pool.
    [[nodiscard]] support::ThreadPool& pool() const noexcept;

    /// Builds, signs and verifies `update`'s transaction; when
    /// `encrypting`, seals it to `miner` under the client's per-round
    /// encryption stream and opens it as the miner would.  Reads only
    /// const state, so uploads run concurrently on pool workers; it never
    /// logs (the caller reports drops after the join).
    [[nodiscard]] Upload upload(const fl::GradientUpdate& update,
                                std::uint64_t round, crypto::NodeId miner,
                                bool encrypting) const;

    /// The five procedures of one round, executed under the round's
    /// telemetry context; run_round() wraps it and derives record.wall
    /// from the harvest.
    void round_body(std::uint64_t round, BflRoundRecord& record);

    const ml::Model* model_;
    std::vector<fl::Client> clients_;
    ml::DatasetView test_set_;
    FairBflConfig config_;
    /// Procedure-I engine (per-client pack/workspace caches; engine choice
    /// comes from config.fl.batched_training).
    fl::LocalTrainer trainer_;
    /// Resolved strategy objects (config overrides or defaults).
    std::shared_ptr<const Aggregator> aggregator_;
    std::shared_ptr<const ConsensusEngine> consensus_;
    std::shared_ptr<const ContributionPolicy> contribution_;
    std::shared_ptr<const RewardPolicy> reward_;
    crypto::KeyStore keys_;
    chain::Blockchain chain_;
    incentive::RewardLedger ledger_;
    /// Quorum-or-deadline collection state machine + carryover store.
    RoundEngine engine_;
    /// Event-log session: all of this system's spans/counters route here,
    /// harvested once per round (keeps concurrent run_suite systems'
    /// events separated).
    telemetry::Session telemetry_;
    std::vector<float> weights_;
    std::uint64_t round_ = 0;
    /// Clients flagged low-contribution last round; under the discard
    /// strategy they sit out the next round (the paper's "client selection"
    /// reading of the discarding strategy).
    std::vector<std::size_t> benched_clients_;
};

}  // namespace fairbfl::core

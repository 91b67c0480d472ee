#include "core/fairbfl.hpp"

#include <algorithm>
#include <cmath>

#include "chain/mempool.hpp"
#include "crypto/hybrid.hpp"
#include "fl/sampling.hpp"
#include "support/logging.hpp"
#include "support/parallel.hpp"

namespace fairbfl::core {

namespace {

/// Seconds -> virtual-clock ns (the round engine's time unit).
VirtualTime sim_ns(double seconds) noexcept {
    return static_cast<VirtualTime>(seconds * 1e9);
}

}  // namespace

FairBfl::FairBfl(const ml::Model& model, std::vector<fl::Client> clients,
                 ml::DatasetView test_set, FairBflConfig config)
    : model_(&model),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      delays_(config.delay),
      trainer_(fl::LocalTrainer::Options{
          .batched = config.fl.batched_training, .pool = config.pool}),
      aggregator_(config.aggregator ? config.aggregator
                                    : make_aggregator("simple")),
      consensus_(make_consensus(config.consensus)),
      contribution_(config.contribution
                        ? config.contribution
                        : make_contribution_policy(config.incentive)),
      reward_(config.reward ? config.reward
                            : make_reward_policy(config.incentive.strategy)),
      keys_(config.fl.seed, config.key_bits),
      chain_(config.chain_id, config.key_bits != 0 ? &keys_ : nullptr),
      engine_(config.round),
      weights_(model.param_count(), 0.0F) {
    // The tightly coupled design models mining time stochastically; the
    // chain stores protocol-valid blocks without re-running the hash race.
    chain_.set_check_pow(false);
    std::vector<crypto::NodeId> node_ids;
    for (const auto& client : clients_) node_ids.push_back(client.id());
    // Miners get ids above the client range.  At least one miner id is
    // always registered: the mining stage signs the winner's block with
    // proxy id clients_.size(), and the upload stage addresses a proxy
    // miner, even when config.miners == 0.
    for (std::size_t k = 0; k < std::max<std::size_t>(config_.miners, 1); ++k)
        node_ids.push_back(static_cast<crypto::NodeId>(clients_.size() + k));
    keys_.register_nodes(node_ids, pool());

    auto rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x1417);
    model_->init_params(weights_, rng);
}

std::size_t FairBfl::batch_steps_of(std::size_t client_id) const {
    const std::size_t samples = clients_[client_id].num_samples();
    const std::size_t batch = std::max<std::size_t>(config_.fl.sgd.batch_size, 1);
    return config_.fl.sgd.epochs * ((samples + batch - 1) / batch);
}

support::ThreadPool& FairBfl::pool() const noexcept {
    return config_.pool != nullptr ? *config_.pool
                                   : support::ThreadPool::global();
}

FairBfl::Upload FairBfl::upload_one(const fl::GradientUpdate& update,
                                    std::uint64_t round, crypto::NodeId miner,
                                    bool encrypting) const {
    Upload out;
    out.tx = chain::make_gradient_tx(chain::TxKind::kLocalGradient,
                                     update.client, round, update.weights);
    chain::sign_transaction(out.tx, keys_);
    if (!chain::verify_transaction(out.tx, keys_)) {
        out.drop = UploadDrop::kBadSignature;
        return out;
    }
    if (!encrypting) return out;
    // The miner decrypts before treating the upload as a gradient; an
    // undecryptable or tampered upload is dropped, like a bad signature.
    auto enc_rng = support::Rng::fork(config_.fl.seed,
                                      0xE2C00000ULL + update.client, round);
    const crypto::HybridCiphertext ciphertext =
        chain::seal_upload(out.tx, keys_.public_key(miner), enc_rng);
    out.wire_bytes = ciphertext.total_bytes();
    const auto received =
        chain::open_upload(ciphertext, keys_.private_key(miner));
    if (!received)
        out.drop = UploadDrop::kUndecryptable;
    else if (!(*received == out.tx))
        out.drop = UploadDrop::kAltered;
    return out;
}

// Common-random-numbers discipline: every delay component draws from its
// own (seed, stream, round)-keyed fork, so two configurations of the same
// experiment (e.g. FAIR vs FAIR-Discard) see identical network and mining
// luck and differ only through real workload changes.  Each procedure
// forks the streams it draws from.

BflRoundRecord FairBfl::run_round() {
    const std::uint64_t round = round_++;
    BflRoundRecord record;
    record.fl.round = round;
    {
        // Every span/counter of the round -- including those emitted from
        // pool workers that inherit this context at their fan-out sites --
        // is tagged with this system's session and the round number.
        const telemetry::ContextScope scope(
            telemetry_.context(static_cast<std::uint32_t>(round)));
        RoundState state = select_clients(round, record);
        collect(state, record);
        exchange(state, record);
        if (!state.set.empty()) {
            // Procedure IV against w_r, which weights_ still holds.
            if (const auto report =
                    compute_global_update(state.set.updates(), weights_,
                                          record))
                ledger_.record(round, *report);
            const std::size_t settled = state.set.size();
            record.delay.t_gl = delays_.t_gl(
                settled, config_.enable_incentive ? settled + 1 : 0);
            mine(state, record);
        }
        resolve_late(state, record);

        // --- Metrics (over the set that actually shaped weights_).
        const auto& shaped = state.set.updates();
        record.fl.participants = shaped.size();
        for (const auto& u : shaped)
            record.fl.participant_ids.push_back(u.client);
        record.fl.test_accuracy = model_->accuracy(weights_, test_set_);
        if (!shaped.empty()) {
            double loss_sum = 0.0;
            for (const auto& u : shaped) loss_sum += u.local_loss;
            record.fl.mean_local_loss =
                loss_sum / static_cast<double>(shaped.size());
        }
        record.chain_height = chain_.height();
    }
    // All spans are closed (every fan-out joined inside its procedure),
    // so the harvest sees the complete round.
    record.stats = telemetry_.harvest(static_cast<std::uint32_t>(round));
    return record;
}

FairBfl::RoundState FairBfl::select_clients(std::uint64_t round,
                                            BflRoundRecord& record) {
    RoundState state;
    state.round = round;
    // --- Client selection (Algorithm 1 line 3), minus last round's bench.
    state.selected = fl::exclude_clients(
        fl::sample_clients(clients_.size(), config_.fl.client_ratio, round,
                           config_.fl.seed),
        benched_clients_);
    benched_clients_.clear();
    record.fl.selected = state.selected.size();

    state.steps.reserve(state.selected.size());
    for (const std::size_t id : state.selected)
        state.steps.push_back(batch_steps_of(id));
    // Per-client compute times, needed up front: each client's arrival
    // event fires at its *own* t_local + t_up slice, not the round max.
    state.local_seconds.reserve(state.selected.size());
    for (std::size_t i = 0; i < state.selected.size(); ++i)
        state.local_seconds.push_back(delays_.t_local_client(
            state.selected[i], state.steps[i], config_.fl.seed));

    // Retroactive settlement re-clusters against w_r, which the on-time
    // pass overwrites; keep a copy only when it can be needed.
    if (config_.round.engaged() &&
        config_.round.late_policy == LatePolicy::kRetroactive)
        state.round_start_weights = weights_;
    state.updates.resize(state.selected.size());
    return state;
}

void FairBfl::collect(RoundState& state, BflRoundRecord& record) {
    // Async mining races collection when the engine is engaged: empty
    // blocks are minted while the round's content is still in flight.
    // The race has its own stream so it never perturbs the t_bl draws.
    auto race_rng =
        support::Rng::fork(config_.fl.seed, /*stream=*/0xECE, state.round);
    MiningRaceSpec race;
    const MiningRaceSpec* race_ptr = nullptr;
    if (config_.stage_mining && config_.round.engaged() &&
        consensus_->name() == "async_pow") {
        race.mean_solve_seconds =
            static_cast<double>(config_.delay.difficulty) /
            config_.delay.miner_hashes_per_second;
        race.rng = &race_rng;
        race_ptr = &race;
    }

    // --- Procedures I + II as engine phases: local learning runs eagerly
    // in parallel (the physics), then upload() builds the delivery
    // schedule the event loop resolves.
    trainer_.ensure_capacity(clients_.size());
    state.outcome = engine_.collect(
        state.selected.size(),
        [&](std::size_t slot) { local_learning(state, slot); },
        [&] { return upload(state, record); }, config_.pool, race_ptr);
    const CollectOutcome& outcome = state.outcome;
    record.on_time_updates = outcome.on_time.size();
    record.late_updates = outcome.late.size();
    record.duplicate_updates_dropped = outcome.duplicates_dropped;
    record.quorum_needed = outcome.quorum_needed;
    record.deadline_fired = outcome.deadline_fired;
    record.wait_quorum_seconds = outcome.wait_quorum_seconds();
    record.empty_blocks_this_round = outcome.empty_blocks;
}

void FairBfl::local_learning(RoundState& state, std::size_t slot) {
    // --- Procedure I: one selected client trains on w_r (pool worker).
    const std::size_t id = state.selected[slot];
    const telemetry::ContextScope scope(
        telemetry::current_context().with_item(static_cast<std::uint32_t>(id)));
    state.updates[slot] = trainer_.train_one(clients_, id, weights_,
                                             config_.fl.sgd, state.round,
                                             config_.fl.seed);
}

std::vector<PendingDelivery> FairBfl::upload(RoundState& state,
                                             BflRoundRecord& record) {
    const std::uint64_t round = state.round;
    auto& updates = state.updates;
    record.delay.t_local =
        delays_.t_local(state.selected, state.steps, config_.fl.seed);

    // --- Adversary: forge some updates before they leave the clients.
    const AttackReport attack = apply_attack(updates, weights_, config_.attack,
                                             round, config_.fl.seed);
    record.attacker_clients = attack.attacker_clients;

    state.payload = updates.empty() ? 0 : updates[0].payload_bytes();
    std::size_t wire_payload = state.payload;

    // --- Procedure II: sign and upload to a uniformly random miner,
    // optionally under hybrid encryption to that miner.  Draw order
    // (every association first, one upload draw per update after the
    // uploads) matches the lockstep series exactly.
    auto assoc_rng =
        support::Rng::fork(config_.fl.seed, /*stream=*/0xA550C, round);
    auto up_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x755, round);
    const std::size_t miner_count = std::max<std::size_t>(config_.miners, 1);
    // Miner association: uniform random (paper §4.2).
    std::vector<std::size_t> miners(updates.size());
    for (auto& miner : miners)
        miner = static_cast<std::size_t>(assoc_rng.uniform_int(
            0, static_cast<std::int64_t>(miner_count) - 1));

    // Each upload's crypto is independent (the encryption stream is a
    // per-client fork), so it runs on the pool into its own slot.
    const bool encrypting =
        config_.encrypt_gradients && keys_.crypto_enabled();
    std::vector<Upload> uploads(updates.size());
    {
        const telemetry::Span span(telemetry::labels::round_uploads());
        const telemetry::Context ctx = telemetry::current_context();
        support::parallel_for(
            0, updates.size(),
            [&](std::size_t i) {
                const telemetry::ContextScope scope(ctx.with_item(
                    static_cast<std::uint32_t>(updates[i].client)));
                const telemetry::Span item(telemetry::labels::upload_client());
                uploads[i] = upload_one(
                    updates[i], round,
                    static_cast<crypto::NodeId>(clients_.size() + miners[i]),
                    encrypting);
                // Only the Assumption 2 ablation puts local gradients
                // on-chain; otherwise the verified transaction is done
                // with, and holding it would pin a payload per update.
                if (!config_.record_local_gradients)
                    uploads[i].tx = chain::Transaction{};
            },
            pool());
    }

    // Join: gather in update order on the driving thread.
    std::vector<bool> deliverable(updates.size(), false);
    for (std::size_t i = 0; i < updates.size(); ++i) {
        Upload& up = uploads[i];
        wire_payload = std::max(wire_payload, up.wire_bytes);
        if (up.drop == UploadDrop::kBadSignature) {
            FAIRBFL_LOG_WARN(
                "round %llu: dropping update with bad signature from "
                "client %u",
                static_cast<unsigned long long>(round), updates[i].client);
        } else if (up.drop == UploadDrop::kUndecryptable) {
            FAIRBFL_LOG_WARN(
                "round %llu: dropping undecryptable upload from %u",
                static_cast<unsigned long long>(round), updates[i].client);
        }
        if (up.drop != UploadDrop::kNone) continue;
        deliverable[i] = true;
        if (config_.record_local_gradients)
            state.gradient_txs.push_back(std::move(up.tx));
    }
    const std::vector<double> up_seconds =
        delays_.t_up_each(updates.size(), wire_payload, up_rng);
    double slowest_up = 0.0;
    for (const double s : up_seconds) slowest_up = std::max(slowest_up, s);
    record.delay.t_up = slowest_up;

    // --- The delivery schedule, fault plan applied.
    const support::FaultPlan* faults = config_.fault_plan.get();
    std::vector<PendingDelivery> deliveries;
    deliveries.reserve(updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
        if (!deliverable[i]) continue;
        const fl::NodeId client = updates[i].client;
        if (faults != nullptr && faults->dropped(round, client)) continue;
        const double factor =
            faults != nullptr ? faults->delay_factor(round, client) : 1.0;
        const double seconds =
            (state.local_seconds[i] + up_seconds[i]) * factor;
        deliveries.push_back({i, sim_ns(seconds), false});
        const std::size_t copies =
            faults != nullptr ? faults->duplicates(round, client) : 0;
        for (std::size_t c = 0; c < copies; ++c) {
            // Each replay trails the original by one more upload interval
            // -- deterministic, no fresh randomness.
            const double replay =
                seconds + static_cast<double>(c + 1) * up_seconds[i];
            deliveries.push_back({i, sim_ns(replay), true});
        }
    }
    return deliveries;
}

void FairBfl::exchange(RoundState& state, BflRoundRecord& record) {
    // --- Procedure III: miners exchange gradient sets until identical.
    // Membership is whatever actually arrived on time, plus prior rounds'
    // late joiners (GradientSet::add keeps the first copy per client, so
    // a fresh update beats a stale carryover).
    for (const std::size_t idx : state.outcome.on_time)
        state.set.add(std::move(state.updates[idx]));
    for (auto& carried : engine_.take_carryovers())
        if (state.set.add(std::move(carried))) ++record.carried_in_updates;
    state.set.canonicalize();
    if (config_.stage_exchange && config_.miners > 1) {
        auto ex_rng =
            support::Rng::fork(config_.fl.seed, /*stream=*/0x7E8, state.round);
        record.delay.t_ex = delays_.t_ex(
            config_.miners, state.payload * state.set.size(), ex_rng);
    }
}

std::optional<incentive::ContributionReport> FairBfl::compute_global_update(
    std::span<const fl::GradientUpdate> updates, std::span<const float> w_r,
    BflRoundRecord& record) {
    // --- Procedure IV: provisional combine (line 24), Algorithm 2
    // (line 26), reward settlement (line 27 / Eq. 1) -- each stage behind
    // its strategy object.
    std::vector<float> provisional;
    {
        const telemetry::Span span(telemetry::labels::round_aggregate());
        provisional = aggregator_->aggregate(updates);
    }
    // Only this round's forged updates that are in `updates` can be
    // caught; no such attacker reads 1.0, like a round without attackers.
    const std::vector<fl::NodeId> reached =
        attackers_in(updates, record.attacker_clients, record.fl.round);
    if (!config_.enable_incentive) {
        weights_ = std::move(provisional);
        record.detection_rate = reached.empty() ? 1.0 : 0.0;
        return std::nullopt;
    }
    // Cluster on effective gradients against w_r.  The index-build
    // sub-span and the index-bytes counter are emitted inside identify's
    // callees (cluster::make_index, cluster::IndexCache).
    incentive::ContributionReport report;
    {
        const telemetry::Span span(telemetry::labels::round_cluster());
        report = contribution_->identify(updates, provisional, w_r);
    }
    // An explicitly configured aggregator governs the settlement combine
    // as well; the default keeps Eq. 1 exactly.
    {
        const telemetry::Span span(telemetry::labels::round_aggregate());
        weights_ = reward_->settle(
            updates, report, config_.aggregator ? aggregator_.get() : nullptr);
    }
    record.round_reward_total = report.total_reward();
    record.low_contribution_clients = report.low_clients();
    record.detection_rate =
        detection_rate(reached, record.low_contribution_clients);
    if (reward_->benches_low_contributors())
        benched_clients_.assign(record.low_contribution_clients.begin(),
                                record.low_contribution_clients.end());
    return report;
}

void FairBfl::mine(RoundState& state, BflRoundRecord& record) {
    // --- Procedure V: the winner packs the block; consensus accepts it.
    if (!config_.stage_mining) return;
    const std::uint64_t round = state.round;
    const telemetry::Span span(telemetry::labels::round_mine());
    chain::Block block;
    block.header.index = chain_.tip().header.index + 1;
    block.header.prev_hash = chain_.tip().header.hash();
    block.header.difficulty = config_.delay.difficulty;
    block.header.timestamp_ms = round * 1000;

    const auto miner_id =
        static_cast<crypto::NodeId>(clients_.size());  // winner proxy id
    chain::Transaction global_tx = chain::make_gradient_tx(
        chain::TxKind::kGlobalUpdate, miner_id, round, weights_);
    chain::sign_transaction(global_tx, keys_);
    block.transactions.push_back(std::move(global_tx));
    for (const auto& entry : ledger_.history()) {
        if (entry.round != round) continue;
        chain::Transaction reward_tx =
            chain::make_reward_tx(miner_id, round, entry.client, entry.amount);
        chain::sign_transaction(reward_tx, keys_);
        block.transactions.push_back(std::move(reward_tx));
    }
    if (config_.record_local_gradients) {
        // Assumption 2 ablation: local gradients go on-chain too.
        for (auto& tx : state.gradient_txs)
            block.transactions.push_back(std::move(tx));
    }
    block.seal_transactions();

    const std::size_t block_bytes = block.size_bytes();
    if (config_.record_local_gradients) {
        // Over-capacity content splits across multiple sequential blocks
        // (queuing), and asynchronous mining may fork.
        chain::Mempool mempool(config_.delay.max_block_bytes);
        mempool.add_all(block.transactions);
        record.blocks_this_round = mempool.blocks_to_drain();
    } else {
        record.blocks_this_round = 1;
    }

    auto bl_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x7B1, round);
    const MiningOutcome mined = consensus_->mine(
        delays_, config_.miners, record.blocks_this_round,
        std::min(block_bytes, config_.delay.max_block_bytes), bl_rng);
    record.delay.t_bl = mined.seconds;
    record.forks_this_round = mined.forks;

    const chain::BlockVerdict verdict = chain_.submit(block);
    if (verdict != chain::BlockVerdict::kAccepted) {
        FAIRBFL_LOG_ERROR("round %llu: block rejected (%s)",
                          static_cast<unsigned long long>(round),
                          chain::to_string(verdict).c_str());
    }
}

void FairBfl::resolve_late(RoundState& state, BflRoundRecord& record) {
    // --- Late gradients (engaged configs only; the degenerate config has
    // none by construction).
    const std::vector<std::size_t>& late = state.outcome.late;
    if (late.empty()) return;
    if (state.set.empty() ||
        config_.round.late_policy != LatePolicy::kRetroactive) {
        // Next-round policy -- or nothing settled on time, so there is no
        // round to amend: the stragglers join the next round's set.
        std::vector<fl::GradientUpdate> carried;
        carried.reserve(late.size());
        for (const std::size_t idx : late)
            carried.push_back(std::move(state.updates[idx]));
        engine_.carry(std::move(carried));
        return;
    }
    // Retroactive settlement: re-run Procedure IV over on-time + late
    // against w_r and amend the ledger in place, preserving per-round
    // budget conservation.  The on-time block already sealed this round's
    // chain entry; the amended rewards are the ledger's (off-chain
    // settlement) view.
    for (const std::size_t idx : late)
        state.set.add(std::move(state.updates[idx]));
    state.set.canonicalize();
    if (const auto report = compute_global_update(
            state.set.updates(), state.round_start_weights, record))
        ledger_.amend_round(state.round, *report);
}

std::vector<BflRoundRecord> FairBfl::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.fl.rounds;
    std::vector<BflRoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::core

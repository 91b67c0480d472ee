// perfbench driver: the repo benchmark.  Generates one of three FAIR-BFL
// workloads from a seed, drives core::FairBfl::run_round() in a closed loop
// (one caller; the next round starts when the previous one returns),
// checks every output it can, and prints each metric by name with its unit.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench_driver --workload=fair_n256_simd --seed=1 --seconds=10 --trace=0
//
// --trace=0 measures with telemetry off and reports the end-to-end metrics.
// --trace=1 runs the same episodes untraced, then traced, and reports the
// per-layer metrics (layer = src/ module).  --tiny shrinks every workload
// for the smoke self-test.  README.md explains the workloads and metrics.
//
// Unit of work: an *episode* is one setup (environment synthesis +
// partition + FairBfl construction, key generation included) followed by a
// fixed number of rounds.  Episodes cycle through kCohorts seed-derived
// cohorts until --seconds elapse, so the quality outputs (accuracy,
// detection, simulated delay) depend on the seed only, never on how many
// rounds fit in the time.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "build_info.hpp"
#include "chain/transaction.hpp"
#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "core/strategies.hpp"
#include "crypto/hybrid.hpp"
#include "crypto/keystore.hpp"
#include "fl/sampling.hpp"
#include "support/cli.hpp"
#include "support/fault_plan.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "telemetry/telemetry.hpp"

using namespace fairbfl;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads.  README.md records why each one exists and which layer it
// stresses; the numbers here are the measured choices it explains.

/// Synthetic pixel noise.  At d=784 the library default (0.35) makes
/// accuracy read exactly 1.0; 1.0 keeps it at 0.95-0.99, where a
/// regression can show.
constexpr double kNoiseSigma = 1.0;

struct Workload {
    std::string name;
    std::size_t clients = 0;
    std::size_t feature_dim = 784;
    std::size_t samples_per_client = 25;
    const char* kernels = "scalar";
    std::string index = "exact";
    incentive::LowContributionStrategy strategy =
        incentive::LowContributionStrategy::kKeepAll;
    core::AttackConfig attack;
    std::size_t epochs = 5;
    double learning_rate = 0.01;
    std::size_t key_bits = 0;
    bool encrypt = false;
    double quorum = 1.0;
    core::LatePolicy late = core::LatePolicy::kNextRound;
    std::string consensus = "sync_pow";
    bool faults = false;
    support::FaultSpec fault_spec;
    std::size_t rounds = 8;  ///< rounds per episode
    /// Also prove the series is identical on a one-thread training pool.
    bool check_threads = false;
};

std::vector<Workload> workloads() {
    std::vector<Workload> all;

    Workload fair;
    fair.name = "fair_n256_simd";
    fair.clients = 256;
    fair.kernels = "simd";
    fair.index = "random_projection";
    fair.rounds = 10;
    all.push_back(fair);

    Workload attack;
    attack.name = "attack_n384_exact";
    attack.clients = 384;
    attack.kernels = "scalar";
    attack.index = "exact";
    attack.strategy = incentive::LowContributionStrategy::kDiscard;
    attack.attack.kind = core::AttackKind::kSignFlip;
    attack.attack.magnitude = 2.5;
    attack.attack.min_attackers = 32;
    attack.attack.max_attackers = 32;
    attack.epochs = 2;
    attack.learning_rate = 0.05;
    attack.rounds = 6;
    attack.check_threads = true;
    all.push_back(attack);

    Workload sig;
    sig.name = "signed_async_n64";
    sig.clients = 64;
    sig.kernels = "scalar";
    sig.index = "exact";
    sig.samples_per_client = 50;
    sig.key_bits = 512;
    sig.encrypt = true;
    sig.quorum = 0.8;
    sig.late = core::LatePolicy::kRetroactive;
    sig.consensus = "async_pow";
    sig.faults = true;
    sig.fault_spec.churn_rate = 0.02;
    sig.fault_spec.straggler_rate = 0.1;
    sig.fault_spec.duplicate_rate = 0.05;
    sig.rounds = 8;
    all.push_back(sig);
    return all;
}

/// Smoke-test sizes: the workload's configuration at toy n, d and rounds.
void shrink(Workload& w) {
    w.clients = std::min<std::size_t>(w.clients, 16);
    w.feature_dim = 32;
    w.rounds = 3;
    w.attack.min_attackers = std::min<std::size_t>(w.attack.min_attackers, 1);
    w.attack.max_attackers = std::min<std::size_t>(w.attack.max_attackers, 3);
}

// ---------------------------------------------------------------------------
// Output checks.  Every check that runs is counted; a failing check fails
// the operation (round or upload) it belongs to.

class Checks {
public:
    /// Records one evaluation of `name`; returns `ok`.
    bool record(const std::string& name, bool ok) {
        auto& entry = table_[name];
        ++entry.runs;
        if (!ok) {
            ++entry.failures;
            std::fprintf(stderr, "perfbench: check '%s' failed\n",
                         name.c_str());
        }
        return ok;
    }

    /// Records a check over a whole series (repeat, thread count, trace):
    /// a failure fails one operation of its own.
    void record_series(const std::string& name, bool ok) {
        if (!record(name, ok)) ++series_failures_;
    }
    [[nodiscard]] std::size_t series_failures() const noexcept {
        return series_failures_;
    }

    void print() const {
        for (const auto& [name, entry] : table_)
            std::printf("# check %s runs=%zu failed=%zu\n", name.c_str(),
                        entry.runs, entry.failures);
    }

private:
    struct Entry {
        std::size_t runs = 0;
        std::size_t failures = 0;
    };
    std::map<std::string, Entry> table_;
    std::size_t series_failures_ = 0;
};

// ---------------------------------------------------------------------------
// Series hashing (FNV-1a over the bytes of every quality output).

struct Fnv {
    std::uint64_t state = 0xcbf29ce484222325ULL;

    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void value(const T& v) {
        bytes(&v, sizeof v);
    }
    template <typename T>
    void values(const std::vector<T>& v) {
        value(v.size());
        if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
    }
};

void hash_record(Fnv& h, const core::BflRoundRecord& rec,
                 std::span<const float> weights) {
    h.value(rec.fl.round);
    h.value(rec.fl.test_accuracy);
    h.value(rec.fl.mean_local_loss);
    h.value(rec.fl.participants);
    h.value(rec.fl.selected);
    h.values(rec.fl.participant_ids);
    h.values(rec.attacker_clients);
    h.values(rec.low_contribution_clients);
    h.value(rec.detection_rate);
    h.value(rec.round_reward_total);
    h.value(rec.delay.total());
    h.value(rec.chain_height);
    h.value(rec.on_time_updates);
    h.value(rec.late_updates);
    h.value(rec.carried_in_updates);
    h.value(rec.duplicate_updates_dropped);
    h.value(rec.empty_blocks_this_round);
    h.bytes(weights.data(), weights.size_bytes());
}

// ---------------------------------------------------------------------------
// Incentive-layer timing: the default Algorithm-2 and Eq.-1 policies,
// wrapped so the driver times each call from outside.  Always installed
// (traced or not), so both runs take the same code path.

struct IncentiveClock {
    double identify_s = 0.0;
    double settle_s = 0.0;
    std::size_t calls = 0;
    std::size_t low_clients = 0;
    /// The most recent report's high-contribution count (budget check).
    std::size_t last_high = 0;
};

class TimedContribution final : public core::ContributionPolicy {
public:
    TimedContribution(std::shared_ptr<const core::ContributionPolicy> inner,
                      IncentiveClock& clock)
        : inner_(std::move(inner)), clock_(&clock) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }

    [[nodiscard]] incentive::ContributionReport identify(
        std::span<const fl::GradientUpdate> updates,
        std::span<const float> provisional_global,
        std::span<const float> reference) const override {
        const auto start = Clock::now();
        incentive::ContributionReport report =
            inner_->identify(updates, provisional_global, reference);
        clock_->identify_s += seconds_since(start);
        ++clock_->calls;
        clock_->low_clients += report.low_indices.size();
        clock_->last_high = report.high_indices.size();
        return report;
    }

private:
    std::shared_ptr<const core::ContributionPolicy> inner_;
    IncentiveClock* clock_;
};

class TimedReward final : public core::RewardPolicy {
public:
    TimedReward(std::shared_ptr<const core::RewardPolicy> inner,
                IncentiveClock& clock)
        : inner_(std::move(inner)), clock_(&clock) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }

    [[nodiscard]] std::vector<float> settle(
        std::span<const fl::GradientUpdate> updates,
        const incentive::ContributionReport& report,
        const core::Aggregator* aggregator) const override {
        const auto start = Clock::now();
        std::vector<float> weights = inner_->settle(updates, report, aggregator);
        clock_->settle_s += seconds_since(start);
        return weights;
    }

    [[nodiscard]] bool benches_low_contributors() const noexcept override {
        return inner_->benches_low_contributors();
    }

private:
    std::shared_ptr<const core::RewardPolicy> inner_;
    IncentiveClock* clock_;
};

// ---------------------------------------------------------------------------
// One episode.

core::EnvironmentConfig environment_config(const Workload& w,
                                           std::uint64_t seed) {
    core::EnvironmentConfig cfg;
    cfg.data.samples = w.samples_per_client * w.clients;
    cfg.data.feature_dim = w.feature_dim;
    cfg.data.noise_sigma = kNoiseSigma;
    cfg.data.seed = seed;
    cfg.partition.num_clients = w.clients;
    cfg.partition.seed = seed;
    return cfg;
}

std::shared_ptr<const support::FaultPlan> fault_plan(const Workload& w,
                                                     std::uint64_t seed) {
    if (!w.faults) return nullptr;
    return std::make_shared<support::FaultPlan>(support::FaultPlan::sampled(
        w.fault_spec, seed, w.rounds, static_cast<std::uint32_t>(w.clients)));
}

/// Layer seconds and counts of an episode's traced rounds, read from the
/// event log (and, for eval, timed by the driver).
struct TraceTotals {
    double local_s = 0.0;         ///< span round.local
    double client_train_s = 0.0;  ///< sum of span local.client
    double cluster_identify_s = 0.0;  ///< span cluster.identify
    double index_build_s = 0.0;   ///< span cluster.index_build
    double aggregate_s = 0.0;     ///< span round.aggregate (incl. settle)
    double mine_s = 0.0;          ///< span round.mine
    double eval_s = 0.0;          ///< driver-timed Model::accuracy
    std::uint64_t index_peak_bytes = 0;
    std::uint64_t engine_events = 0;
    std::uint64_t records = 0;

    TraceTotals& operator+=(const TraceTotals& o) {
        local_s += o.local_s;
        client_train_s += o.client_train_s;
        cluster_identify_s += o.cluster_identify_s;
        index_build_s += o.index_build_s;
        aggregate_s += o.aggregate_s;
        mine_s += o.mine_s;
        eval_s += o.eval_s;
        index_peak_bytes = std::max(index_peak_bytes, o.index_peak_bytes);
        engine_events += o.engine_events;
        records += o.records;
        return *this;
    }
};

struct EpisodeResult {
    double setup_s = 0.0;
    double environment_s = 0.0;  ///< build_environment part of setup
    std::vector<double> round_walls;
    std::vector<std::uint64_t> prefix_hashes;  ///< series hash after round r
    std::size_t updates = 0;        ///< sum of participants
    std::size_t uploads = 0;        ///< sum of selected (signed uploads)
    std::size_t block_txs = 0;      ///< transactions on the episode's blocks
    std::size_t late = 0;
    std::size_t carried = 0;
    double sim_delay_sum = 0.0;
    double detection_sum = 0.0;
    std::size_t attacked_rounds = 0;
    double final_accuracy = 0.0;
    std::size_t rounds_failed = 0;
    std::size_t uploads_lost = 0;
    IncentiveClock incentive;
    TraceTotals trace;
};

std::string_view dump_name_of(telemetry::Label id, const void* dump) {
    return static_cast<const telemetry::Dump*>(dump)->name_of(id);
}

EpisodeResult run_episode(const Workload& w, std::uint64_t seed,
                          support::ThreadPool& pool, std::size_t rounds,
                          bool traced, Checks& checks) {
    EpisodeResult out;

    const auto setup_start = Clock::now();
    const core::Environment env =
        core::build_environment(environment_config(w, seed));
    out.environment_s = seconds_since(setup_start);
    core::FairBflConfig cfg;
    cfg.fl.client_ratio = 1.0;
    cfg.fl.rounds = w.rounds;
    cfg.fl.seed = seed;
    cfg.fl.sgd.epochs = w.epochs;
    cfg.fl.sgd.learning_rate = w.learning_rate;
    cfg.miners = 2;
    cfg.incentive.index = w.index;
    cfg.incentive.strategy = w.strategy;
    cfg.attack = w.attack;
    cfg.key_bits = w.key_bits;
    cfg.encrypt_gradients = w.encrypt;
    cfg.consensus = w.consensus;
    cfg.round.quorum_fraction = w.quorum;
    cfg.round.late_policy = w.late;
    cfg.fault_plan = fault_plan(w, seed);
    cfg.pool = &pool;
    // Never set cfg.aggregator: that moves settlement off Eq. 1.
    cfg.contribution = std::make_shared<TimedContribution>(
        core::make_contribution_policy(cfg.incentive), out.incentive);
    cfg.reward = std::make_shared<TimedReward>(
        core::make_reward_policy(cfg.incentive.strategy), out.incentive);
    const auto system = std::make_unique<core::FairBfl>(
        *env.model, env.make_clients(), env.test, cfg);
    out.setup_s = seconds_since(setup_start);

    const std::uint32_t session = system->telemetry_session().id();
    const std::size_t base_height = system->blockchain().height();
    const double reward_base = cfg.incentive.reward_base;
    const bool benches = cfg.reward->benches_low_contributors();
    std::vector<std::size_t> benched;
    Fnv series;

    for (std::size_t r = 0; r < rounds; ++r) {
        if (traced) telemetry::capture_begin();
        core::BflRoundRecord rec;
        const auto start = Clock::now();
        bool threw = false;
        try {
            rec = system->run_round();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: round %zu threw: %s\n", r,
                         e.what());
            threw = true;
        }
        const double wall = seconds_since(start);
        telemetry::Dump dump;
        if (traced) dump = telemetry::capture_end();
        bool ok = checks.record("round_completes", !threw);
        if (threw) {
            ++out.rounds_failed;
            out.prefix_hashes.push_back(0);
            continue;
        }
        out.round_walls.push_back(wall);

        const auto weights = system->weights();
        ok &= checks.record("weights_finite",
                            std::all_of(weights.begin(), weights.end(),
                                        [](float x) { return std::isfinite(x); }));

        // Eq. 1 budget: the round's ledger entries pay exactly `base` when
        // any update was labelled high, nothing otherwise, and agree with
        // the record (retroactive amendments included).
        double paid = 0.0;
        for (const auto& entry : system->ledger().history())
            if (entry.round == rec.fl.round) paid += entry.amount;
        const double budget = out.incentive.last_high > 0 ? reward_base : 0.0;
        ok &= checks.record("reward_budget",
                            std::abs(paid - budget) <= 1e-9 &&
                                std::abs(paid - rec.round_reward_total) <= 1e-9);

        ok &= checks.record("chain_height",
                            rec.chain_height == base_height + r + 1);

        // Every selected client's upload is delivered (on time or late)
        // unless the fault plan drops it: signing, verification and the
        // hybrid round trip lose nothing on the honest path.
        auto selected = fl::exclude_clients(
            fl::sample_clients(w.clients, 1.0, rec.fl.round, seed), benched);
        std::size_t expected = selected.size();
        if (cfg.fault_plan)
            for (const std::size_t id : selected)
                if (cfg.fault_plan->dropped(rec.fl.round,
                                            static_cast<std::uint32_t>(id)))
                    --expected;
        const std::size_t delivered = rec.on_time_updates + rec.late_updates;
        if (!checks.record("uploads_delivered",
                           rec.fl.selected == selected.size() &&
                               delivered == expected)) {
            if (delivered < expected)
                out.uploads_lost += expected - delivered;
            else
                ok = false;
        }
        benched.clear();
        if (benches)
            for (const auto id : rec.low_contribution_clients)
                benched.push_back(id);

        if (traced) {
            const auto eval_start = Clock::now();
            const double accuracy = env.model->accuracy(weights, env.test);
            out.trace.eval_s += seconds_since(eval_start);
            ok &= checks.record("eval_matches",
                                accuracy == rec.fl.test_accuracy);

            const telemetry::RoundStats stats = telemetry::round_stats(
                dump.records, &dump_name_of, &dump, session,
                static_cast<std::uint32_t>(rec.fl.round));
            out.trace.local_s += stats.seconds_of("round.local");
            out.trace.client_train_s += stats.seconds_of("local.client");
            out.trace.cluster_identify_s += stats.seconds_of("cluster.identify");
            out.trace.index_build_s += stats.seconds_of("cluster.index_build");
            out.trace.aggregate_s += stats.seconds_of("round.aggregate");
            out.trace.mine_s += stats.seconds_of("round.mine");
            out.trace.index_peak_bytes = std::max(
                out.trace.index_peak_bytes, stats.max_of("cluster.index_bytes"));
            const auto events = stats.labels.find("engine.event");
            if (events != stats.labels.end())
                out.trace.engine_events += events->second.spans;
            out.trace.records += stats.records;
        }

        if (!ok) ++out.rounds_failed;
        out.updates += rec.fl.participants;
        out.uploads += rec.fl.selected;
        out.block_txs += system->blockchain().tip().transactions.size();
        out.late += rec.late_updates;
        out.carried += rec.carried_in_updates;
        out.sim_delay_sum += rec.delay.total();
        if (!rec.attacker_clients.empty()) {
            out.detection_sum += rec.detection_rate;
            ++out.attacked_rounds;
        }
        out.final_accuracy = rec.fl.test_accuracy;
        hash_record(series, rec, weights);
        out.prefix_hashes.push_back(series.state);
    }

    const bool chain_ok =
        system->blockchain().validate_full_chain() &&
        system->blockchain().height() == base_height + rounds;
    if (!checks.record("chain_valid", chain_ok)) ++out.rounds_failed;
    return out;
}

// ---------------------------------------------------------------------------
// Inputs fingerprint: changes whenever the seed changes the generated
// inputs (dataset, partition, fault plan).

std::uint64_t input_fingerprint(const Workload& w, std::uint64_t seed) {
    const core::Environment env =
        core::build_environment(environment_config(w, seed));
    Fnv h;
    for (std::size_t row = 0; row < env.dataset->size(); ++row) {
        const auto x = env.dataset->features_of(row);
        h.bytes(x.data(), x.size_bytes());
        h.value(env.dataset->label_of(row));
    }
    for (const auto& shard : env.shards) h.values(shard.indices());
    if (const auto plan = fault_plan(w, seed)) {
        for (std::uint64_t r = 0; r < w.rounds; ++r)
            for (std::uint32_t c = 0; c < w.clients; ++c) {
                h.value(plan->dropped(r, c));
                h.value(plan->delay_factor(r, c));
                h.value(plan->duplicates(r, c));
            }
    }
    return h.state;
}

// ---------------------------------------------------------------------------
// Crypto probes at the workload's key size and payload (traced run only).
// Key generation is timed once; the per-upload operations are sampled
// after every traced episode, so they see the same host conditions as the
// rounds they are charged against.

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

class CryptoProbe {
public:
    CryptoProbe(const Workload& w, std::uint64_t seed, std::size_t param_count)
        : workload_(&w),
          keys_(seed, w.key_bits),
          rng_(support::Rng::fork(seed, /*stream=*/0xBE7C)),
          gradient_(param_count) {
        if (w.key_bits == 0) return;
        const auto start = Clock::now();
        for (std::size_t id = 0; id < w.clients + 2; ++id)
            keys_.register_node(static_cast<crypto::NodeId>(id));
        keygen_s_ = seconds_since(start);
        for (auto& g : gradient_) g = static_cast<float>(rng_.normal(0.0, 0.1));
    }

    /// Times a few sign+verify (and, when the workload encrypts, hybrid
    /// round trips) of one gradient upload.
    void sample(Checks& checks) {
        if (workload_->key_bits == 0) return;
        const auto miner = static_cast<crypto::NodeId>(workload_->clients);
        bool ok = true;
        for (std::uint32_t i = 0; i < 8; ++i) {
            chain::Transaction tx = chain::make_gradient_tx(
                chain::TxKind::kLocalGradient, i, i, gradient_);
            auto start = Clock::now();
            chain::sign_transaction(tx, keys_);
            ok &= chain::verify_transaction(tx, keys_);
            sign_verify_us_.push_back(seconds_since(start) * 1e6);
            if (!workload_->encrypt) continue;
            start = Clock::now();
            const auto encoded = tx.encode();
            const auto ciphertext =
                crypto::hybrid_encrypt(keys_.public_key(miner), encoded, rng_);
            ok &= crypto::hybrid_decrypt(keys_.private_key(miner),
                                         ciphertext) == encoded;
            hybrid_rt_us_.push_back(seconds_since(start) * 1e6);
        }
        checks.record_series("crypto_probe_roundtrip", ok);
    }

    [[nodiscard]] double keygen_s() const { return keygen_s_; }
    [[nodiscard]] double sign_verify_us() const {
        return median(sign_verify_us_);
    }
    [[nodiscard]] double hybrid_rt_us() const { return median(hybrid_rt_us_); }

private:
    const Workload* workload_;
    crypto::KeyStore keys_;
    support::Rng rng_;
    std::vector<float> gradient_;
    double keygen_s_ = 0.0;
    std::vector<double> sign_verify_us_;
    std::vector<double> hybrid_rt_us_;
};

// ---------------------------------------------------------------------------
// Runs and reporting.

/// Cohorts per run.  Episode i runs cohort i % kCohorts on the inputs of
/// cohort_seed(seed, cohort); the quality metrics average the first
/// kCohorts episodes (four independent draws per seed rather than one, which
/// halves their seed-to-seed spread), and every later episode must repeat
/// its cohort's series exactly.
constexpr std::size_t kCohorts = 4;

std::uint64_t cohort_seed(std::uint64_t seed, std::size_t cohort) {
    return seed * kCohorts + cohort;
}

struct Quality {
    double final_accuracy = 0.0;
    double detection_rate = 0.0;
    double sim_delay_s = 0.0;
};

struct RunTotals {
    std::vector<EpisodeResult> episodes;

    /// Mean over the cohorts of each cohort's quality outputs.  Detection
    /// is 1.0 when no round had attackers (the paper's convention).
    [[nodiscard]] Quality quality(std::size_t rounds) const {
        Quality q;
        for (std::size_t c = 0; c < kCohorts; ++c) {
            const EpisodeResult& e = episodes[c];
            q.final_accuracy += e.final_accuracy / kCohorts;
            q.detection_rate +=
                (e.attacked_rounds > 0
                     ? e.detection_sum / static_cast<double>(e.attacked_rounds)
                     : 1.0) /
                kCohorts;
            q.sim_delay_s +=
                e.sim_delay_sum / static_cast<double>(rounds * kCohorts);
        }
        return q;
    }

    [[nodiscard]] std::vector<double> round_walls() const {
        std::vector<double> all;
        for (const auto& e : episodes)
            all.insert(all.end(), e.round_walls.begin(), e.round_walls.end());
        return all;
    }
};

/// Untraced episodes until `seconds` elapse, and at least one per cohort.
/// With `traced`, each episode is followed by its traced twin (same
/// cohort), collected there, and then by a crypto probe sample:
/// interleaving puts both runs and the probe under the same host
/// conditions, and the twin's series must equal the untraced one.
RunTotals run_for(const Workload& w, std::uint64_t seed, double seconds,
                  support::ThreadPool& pool, Checks& checks,
                  RunTotals* traced = nullptr, CryptoProbe* probe = nullptr) {
    RunTotals run;
    const auto start = Clock::now();
    do {
        const std::size_t i = run.episodes.size();
        const std::uint64_t cohort = cohort_seed(seed, i % kCohorts);
        telemetry::set_enabled(false);
        run.episodes.push_back(
            run_episode(w, cohort, pool, w.rounds, false, checks));
        if (i >= kCohorts)
            checks.record_series("series_repeat",
                                 run.episodes[i].prefix_hashes ==
                                     run.episodes[i - kCohorts].prefix_hashes);
        if (traced == nullptr) continue;
        telemetry::set_enabled(true);
        traced->episodes.push_back(
            run_episode(w, cohort, pool, w.rounds, true, checks));
        telemetry::set_enabled(false);
        checks.record_series("traced_equals_untraced",
                             traced->episodes[i].prefix_hashes ==
                                 run.episodes[i].prefix_hashes);
        if (probe != nullptr) probe->sample(checks);
    } while (run.episodes.size() < kCohorts || seconds_since(start) < seconds);
    return run;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
            std::string model = line.substr(colon + 1);
            model.erase(0, model.find_first_not_of(' '));
            return model;
        }
    }
    return "unknown";
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    for (const auto& m : metrics)
        std::printf("# metric %-26s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    std::printf("}}\n");
}

struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void add(const RunTotals& run) {
        for (const auto& e : run.episodes) {
            attempted += e.prefix_hashes.size() + e.uploads;
            failed += e.rounds_failed + e.uploads_lost;
        }
    }
};

}  // namespace

int main(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    const std::string workload_name = args.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 10.0);
    const auto trace = args.get_int("trace", 0);
    const bool tiny = args.get_flag("tiny");
    if (!args.finish("perfbench_driver")) return 2;

    const auto all = workloads();
    const auto found =
        std::find_if(all.begin(), all.end(),
                     [&](const Workload& w) { return w.name == workload_name; });
    if (found == all.end() || (trace != 0 && trace != 1) || seconds <= 0.0) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload=NAME --seed=N "
                     "--seconds=S --trace=0|1 [--tiny]\nworkloads:");
        for (const auto& w : all) std::fprintf(stderr, " %s", w.name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    Workload w = *found;
    if (tiny) shrink(w);

    // The workload fixes its kernel table: an inherited FAIRBFL_KERNELS
    // must not change what is measured.
    if (!support::simd::set_mode_name(w.kernels)) return 2;
    const unsigned threads =
        std::max(1U, std::thread::hardware_concurrency());
    support::ThreadPool pool(threads);

    const char* env_kernels = std::getenv("FAIRBFL_KERNELS");
    std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g "
                "trace=%lld tiny=%d\n",
                w.name.c_str(), seed, seconds, static_cast<long long>(trace),
                tiny ? 1 : 0);
    std::printf("# host cpu=\"%s\" nproc=%u pool_threads=%u "
                "kernels_requested=%s kernels_active=%s "
                "FAIRBFL_KERNELS=%s\n",
                cpu_model().c_str(), threads, pool.size(), w.kernels,
                support::simd::active_name(),
                env_kernels != nullptr ? env_kernels : "(unset)");
    std::printf("# build compiler=\"%s\" type=%s flags=\"%s\" git=%s\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                PERFBENCH_GIT_SHA);
    std::printf("# shape clients=%zu dim=%zu rounds_per_episode=%zu "
                "index=%s key_bits=%zu quorum=%g\n",
                w.clients, w.feature_dim, w.rounds, w.index.c_str(),
                w.key_bits, w.quorum);
    std::printf("# inputs fingerprint=%016" PRIx64 "\n",
                input_fingerprint(w, cohort_seed(seed, 0)));
    std::fflush(stdout);

    Checks checks;
    Tally tally;
    std::vector<Metric> metrics;

    // Determinism across pool sizes: a one-thread training pool must
    // reproduce the first rounds of the full pool's series bit for bit.
    const auto thread_check = [&](const RunTotals& run) {
        if (!w.check_threads) return;
        support::ThreadPool single(1);
        const std::size_t prefix = std::min<std::size_t>(2, w.rounds);
        RunTotals one_run;
        one_run.episodes.push_back(
            run_episode(w, cohort_seed(seed, 0), single, prefix, false,
                        checks));
        tally.add(one_run);
        const EpisodeResult& one = one_run.episodes.front();
        const auto& full = run.episodes.front().prefix_hashes;
        checks.record_series("series_threads",
                      one.prefix_hashes.size() == prefix &&
                          std::equal(one.prefix_hashes.begin(),
                                     one.prefix_hashes.end(), full.begin()));
    };

    if (trace == 0) {
        const RunTotals run = run_for(w, seed, seconds, pool, checks);
        thread_check(run);
        tally.add(run);

        const auto walls = run.round_walls();
        double wall_sum = 0.0;
        for (const double x : walls) wall_sum += x;
        std::vector<double> setups;
        std::size_t updates = 0;
        for (const auto& e : run.episodes) {
            setups.push_back(e.setup_s);
            updates += e.updates;
        }
        const Quality quality = run.quality(w.rounds);
        // The highest quantile with ten rounds above it (a view of the
        // tail; the bounded metric is the median).
        std::vector<double> sorted = walls;
        std::sort(sorted.begin(), sorted.end());
        std::printf("# samples rounds=%zu episodes=%zu; round_s tail: %.6f s "
                    "with 10 rounds above\n",
                    walls.size(), run.episodes.size(),
                    sorted.size() > 10 ? sorted[sorted.size() - 11] : 0.0);
        metrics = {
            {"setup_s", median(setups), "s"},
            {"round_s.p50", median(walls), "s"},
            {"updates_per_s",
             wall_sum > 0.0 ? static_cast<double>(updates) / wall_sum : 0.0,
             "1/s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"final_accuracy", quality.final_accuracy, "fraction"},
            {"detection_rate", quality.detection_rate, "fraction"},
            {"sim_delay_s", quality.sim_delay_s, "sim_s"},
        };
    } else {
        // Untraced and traced twins of each episode: the wall difference
        // is the tracing overhead.
        // Gradient size of the logistic model: 10 classes x (d + 1).
        CryptoProbe crypto(w, seed, (w.feature_dim + 1) * 10);
        RunTotals traced;
        const RunTotals plain =
            run_for(w, seed, seconds, pool, checks, &traced, &crypto);
        thread_check(plain);
        tally.add(plain);
        tally.add(traced);

        // Per-round means over the traced episodes.
        TraceTotals t;
        IncentiveClock inc;
        std::size_t uploads = 0;
        std::size_t block_txs = 0;
        std::size_t late = 0;
        std::size_t carried = 0;
        std::vector<double> environment;
        for (const auto& e : traced.episodes) {
            t += e.trace;
            inc.identify_s += e.incentive.identify_s;
            inc.settle_s += e.incentive.settle_s;
            inc.calls += e.incentive.calls;
            inc.low_clients += e.incentive.low_clients;
            uploads += e.uploads;
            block_txs += e.block_txs;
            late += e.late;
            carried += e.carried;
            environment.push_back(e.environment_s);
        }
        const auto traced_walls = traced.round_walls();
        const auto rounds = static_cast<double>(traced_walls.size());
        double wall_sum = 0.0;
        for (const double x : traced_walls) wall_sum += x;
        const auto per_round = [&](double total) {
            return rounds > 0 ? total / rounds : 0.0;
        };
        const double upload_s =
            (crypto.sign_verify_us() + crypto.hybrid_rt_us()) * 1e-6 *
            static_cast<double>(uploads);
        const double provisional_s = t.aggregate_s - inc.settle_s;
        const double attributed = t.local_s + inc.identify_s + inc.settle_s +
                                  provisional_s + t.mine_s + t.eval_s +
                                  upload_s;
        const double untraced_p50 = median(plain.round_walls());
        const double traced_p50 = median(traced_walls);
        std::printf("# samples untraced_rounds=%zu traced_rounds=%zu "
                    "traced_episodes=%zu\n",
                    plain.round_walls().size(), traced_walls.size(),
                    traced.episodes.size());
        std::printf("# round_s.p50 untraced=%.6f traced=%.6f s; traced "
                    "mean %.6f s\n",
                    untraced_p50, traced_p50, per_round(wall_sum));
        metrics = {
            {"fl.local_s", per_round(t.local_s), "s"},
            {"fl.client_train_s", per_round(t.client_train_s), "s"},
            {"fl.parallel_eff",
             t.local_s > 0.0 ? t.client_train_s /
                                   (t.local_s * static_cast<double>(
                                                    pool.size()))
                             : 0.0,
             "fraction"},
            {"ml.eval_s", per_round(t.eval_s), "s"},
            {"ml.dataset_s", median(environment), "s"},
            {"cluster.index_build_s", per_round(t.index_build_s), "s"},
            {"cluster.scan_s",
             per_round(t.cluster_identify_s - t.index_build_s), "s"},
            {"cluster.index_peak_bytes",
             static_cast<double>(t.index_peak_bytes), "bytes"},
            {"incentive.identify_s", per_round(inc.identify_s), "s"},
            {"incentive.settle_s", per_round(inc.settle_s), "s"},
            {"incentive.calls", per_round(static_cast<double>(inc.calls)),
             "count"},
            {"incentive.low_clients",
             per_round(static_cast<double>(inc.low_clients)), "count"},
            {"crypto.keygen_s", crypto.keygen_s(), "s"},
            {"crypto.sign_verify_us", crypto.sign_verify_us(), "us"},
            {"crypto.hybrid_rt_us", crypto.hybrid_rt_us(), "us"},
            {"crypto.uploads", per_round(static_cast<double>(uploads)),
             "count"},
            {"chain.mine_s", per_round(t.mine_s), "s"},
            {"chain.block_txs", per_round(static_cast<double>(block_txs)),
             "count"},
            {"core.aggregate_s", per_round(provisional_s), "s"},
            {"core.unattributed_s", per_round(wall_sum - attributed), "s"},
            {"core.late_updates", per_round(static_cast<double>(late)),
             "count"},
            {"core.carried_updates", per_round(static_cast<double>(carried)),
             "count"},
            {"core.engine_events",
             per_round(static_cast<double>(t.engine_events)), "count"},
            {"telemetry.overhead_pct",
             untraced_p50 > 0.0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                                : 0.0,
             "%"},
            {"telemetry.records", per_round(static_cast<double>(t.records)),
             "count"},
        };
    }

    tally.failed += checks.series_failures();
    checks.print();
    std::printf("# failed_share %.6g (%zu of %zu operations)\n",
                tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                          static_cast<double>(tally.attempted)
                                    : 0.0,
                tally.failed, tally.attempted);
    print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
}

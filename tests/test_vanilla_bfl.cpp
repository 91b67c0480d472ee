// Vanilla BFL baseline: gradients on-chain, worker-side aggregation,
// multi-block queuing, and the cost gap FAIR-BFL closes.

#include <gtest/gtest.h>

#include "core/fairbfl.hpp"
#include "core/vanilla_bfl.hpp"
#include "fl/aggregation.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"

namespace {

namespace core = fairbfl::core;
namespace ch = fairbfl::chain;
namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;

struct World {
    ml::Dataset data = ml::make_synthetic_mnist({.samples = 500,
                                                 .feature_dim = 8,
                                                 .num_classes = 4,
                                                 .seed = 101});
    std::unique_ptr<ml::Model> model = ml::make_logistic_regression(8, 4);
    std::vector<ml::DatasetView> shards;
    ml::DatasetView test;

    World() {
        const auto split = ml::train_test_split(data, 0.2, 101);
        test = split.test;
        ml::PartitionParams params;
        params.scheme = ml::PartitionScheme::kIid;
        params.num_clients = 8;
        params.seed = 101;
        shards = ml::partition(split.train, params);
    }
    [[nodiscard]] std::vector<fl::Client> clients() const {
        return fl::make_clients(*model, shards);
    }
};

core::VanillaBflConfig vanilla_config() {
    core::VanillaBflConfig config;
    config.fl.client_ratio = 0.5;
    config.fl.rounds = 8;
    config.fl.sgd.learning_rate = 0.05;
    config.fl.sgd.epochs = 2;
    config.fl.seed = 42;
    config.miners = 2;
    return config;
}

TEST(VanillaBfl, LearnsFromChainDerivedGlobals) {
    World world;
    auto config = vanilla_config();
    config.fl.rounds = 12;
    config.fl.sgd.epochs = 4;
    core::VanillaBfl system(*world.model, world.clients(), world.test,
                            config);
    const auto history = system.run();
    EXPECT_GT(history.back().fl.test_accuracy, 0.6);
    EXPECT_GT(history.back().fl.test_accuracy,
              history.front().fl.test_accuracy);
}

TEST(VanillaBfl, EveryLocalGradientIsOnChain) {
    World world;
    core::VanillaBfl system(*world.model, world.clients(), world.test,
                            vanilla_config());
    std::size_t expected = 0;
    std::size_t recorded = 0;
    for (int r = 0; r < 4; ++r) {
        const auto record = system.run_round();
        expected += record.fl.participants;
        recorded += record.gradient_txs_on_chain;
        EXPECT_EQ(record.gradient_txs_on_chain, record.fl.participants);
    }
    std::size_t on_chain = 0;
    const auto& chain = system.blockchain();
    for (std::size_t h = 1; h < chain.height(); ++h)
        for (const auto& tx : chain.at(h).transactions)
            if (tx.kind == ch::TxKind::kLocalGradient) ++on_chain;
    EXPECT_EQ(on_chain, expected);
    EXPECT_EQ(recorded, expected);
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(VanillaBfl, WeightsEqualMeanOfOnChainGradients) {
    World world;
    core::VanillaBfl system(*world.model, world.clients(), world.test,
                            vanilla_config());
    (void)system.run_round();

    std::vector<fl::GradientUpdate> from_chain;
    const auto& chain = system.blockchain();
    for (std::size_t h = 1; h < chain.height(); ++h) {
        for (const auto& tx : chain.at(h).transactions) {
            if (tx.kind != ch::TxKind::kLocalGradient || tx.round != 0)
                continue;
            fl::GradientUpdate u;
            u.client = tx.origin;
            u.weights = ch::parse_gradient_tx(tx);
            from_chain.push_back(std::move(u));
        }
    }
    ASSERT_FALSE(from_chain.empty());
    const auto mean = fl::simple_average(from_chain);
    ASSERT_EQ(mean.size(), system.weights().size());
    for (std::size_t i = 0; i < mean.size(); ++i)
        EXPECT_FLOAT_EQ(mean[i], system.weights()[i]);
}

TEST(VanillaBfl, SmallBlocksForceQueuing) {
    World world;
    auto config = vanilla_config();
    config.delay.max_block_bytes = 100;  // < one gradient transaction
    core::VanillaBfl system(*world.model, world.clients(), world.test,
                            config);
    const auto record = system.run_round();
    EXPECT_GE(record.blocks_this_round, record.fl.participants);
}

TEST(VanillaBfl, CostlierThanFairBflSameSetting) {
    // The headline gap: same clients, same rounds, same delay parameters.
    World vanilla_world;
    World fair_world;
    const auto vcfg = vanilla_config();
    core::VanillaBfl vanilla(*vanilla_world.model, vanilla_world.clients(),
                             vanilla_world.test, vcfg);
    core::FairBflConfig fcfg;
    fcfg.fl = vcfg.fl;
    fcfg.miners = vcfg.miners;
    fcfg.delay = vcfg.delay;
    core::FairBfl fair(*fair_world.model, fair_world.clients(),
                       fair_world.test, fcfg);

    double vanilla_delay = 0.0;
    double fair_delay = 0.0;
    for (int r = 0; r < 8; ++r) {
        vanilla_delay += vanilla.run_round().delay.total();
        fair_delay += fair.run_round().delay.total();
    }
    // Idle-mining waste alone guarantees a gap under common random numbers.
    EXPECT_GT(vanilla_delay, fair_delay);
}

TEST(VanillaBfl, NoContributionDefenseAgainstAttack) {
    // Vanilla BFL has no Algorithm 2: attackers skew the global unimpeded,
    // while FAIR-BFL with the discard strategy resists.
    World vanilla_world;
    World fair_world;
    auto vcfg = vanilla_config();
    vcfg.fl.client_ratio = 1.0;
    vcfg.attack.kind = core::AttackKind::kSignFlip;
    vcfg.attack.magnitude = 3.0;
    vcfg.attack.min_attackers = 2;
    vcfg.attack.max_attackers = 2;
    core::VanillaBfl vanilla(*vanilla_world.model, vanilla_world.clients(),
                             vanilla_world.test, vcfg);

    core::FairBflConfig fcfg;
    fcfg.fl = vcfg.fl;
    fcfg.attack = vcfg.attack;
    fcfg.incentive.strategy =
        fairbfl::incentive::LowContributionStrategy::kDiscard;
    core::FairBfl fair(*fair_world.model, fair_world.clients(),
                       fair_world.test, fcfg);

    double vanilla_acc = 0.0;
    double fair_acc = 0.0;
    for (int r = 0; r < 8; ++r) {
        vanilla_acc = vanilla.run_round().fl.test_accuracy;
        fair_acc = fair.run_round().fl.test_accuracy;
    }
    EXPECT_GT(fair_acc, vanilla_acc + 0.1);
}

}  // namespace

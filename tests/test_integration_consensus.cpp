// Integration: the chain FAIR-BFL rounds commit is auditable off-line.
//
// The FairBfl orchestrator commits each round's block to its canonical
// chain; an auditor who imports the exported chain must replay the same
// reward history the ledger settled.

#include <gtest/gtest.h>

#include "chain/storage.hpp"
#include "core/fairbfl.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"

namespace {

namespace core = fairbfl::core;
namespace ch = fairbfl::chain;
namespace ml = fairbfl::ml;
namespace fl = fairbfl::fl;

struct World {
    ml::Dataset data = ml::make_synthetic_mnist({.samples = 400,
                                                 .feature_dim = 8,
                                                 .num_classes = 4,
                                                 .seed = 91});
    std::unique_ptr<ml::Model> model = ml::make_logistic_regression(8, 4);
    std::vector<ml::DatasetView> shards;
    ml::DatasetView test;

    World() {
        const auto split = ml::train_test_split(data, 0.2, 91);
        test = split.test;
        ml::PartitionParams params;
        params.scheme = ml::PartitionScheme::kIid;
        params.num_clients = 8;
        params.seed = 91;
        shards = ml::partition(split.train, params);
    }
};

TEST(IntegrationConsensus, ExportedChainAuditableOnAnyReplica) {
    World world;
    core::FairBflConfig config;
    config.fl.client_ratio = 0.5;
    config.fl.rounds = 4;
    config.fl.seed = 92;
    config.chain_id = 0xAB;
    core::FairBfl system(*world.model, fl::make_clients(*world.model,
                                                        world.shards),
                         world.test, config);
    (void)system.run();

    // Export from the orchestrator, re-import as an auditor would, verify
    // the reward history replays identically.
    const auto bytes = ch::export_chain(system.blockchain());
    const auto audited = ch::import_chain(bytes, 0xAB);
    ASSERT_TRUE(audited.has_value());
    double replayed = 0.0;
    for (std::size_t h = 1; h < audited->height(); ++h) {
        for (const auto& tx : audited->at(h).transactions) {
            if (tx.kind == ch::TxKind::kReward)
                replayed += ch::parse_reward_tx(tx).amount;
        }
    }
    EXPECT_NEAR(replayed, system.ledger().grand_total(), 0.02);
}

}  // namespace

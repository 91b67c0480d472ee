// Attack models and the detection-rate metric.

#include <gtest/gtest.h>

#include "core/attacker.hpp"
#include "support/vecmath.hpp"

namespace {

namespace core = fairbfl::core;
namespace fl = fairbfl::fl;

std::vector<fl::GradientUpdate> make_updates(std::size_t n,
                                             std::size_t dim = 8) {
    std::vector<fl::GradientUpdate> updates(n);
    for (std::size_t i = 0; i < n; ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights.assign(dim, static_cast<float>(i) * 0.1F + 1.0F);
    }
    return updates;
}

TEST(Attacker, NoneLeavesUpdatesUntouched) {
    auto updates = make_updates(5);
    const auto original = updates;
    const std::vector<float> global(8, 1.0F);
    const auto report = core::apply_attack(updates, global,
                                           {.kind = core::AttackKind::kNone},
                                           0, 42);
    EXPECT_TRUE(report.attacker_clients.empty());
    EXPECT_EQ(updates, original);
}

TEST(Attacker, CountWithinConfiguredBounds) {
    const std::vector<float> global(8, 1.0F);
    core::AttackConfig config;
    config.kind = core::AttackKind::kSignFlip;
    config.min_attackers = 1;
    config.max_attackers = 3;
    for (std::uint64_t round = 0; round < 30; ++round) {
        auto updates = make_updates(10);
        const auto report = core::apply_attack(updates, global, config,
                                               round, 42);
        EXPECT_GE(report.attacker_clients.size(), 1U);
        EXPECT_LE(report.attacker_clients.size(), 3U);
    }
}

TEST(Attacker, CountClampedToUpdateCount) {
    const std::vector<float> global(8, 1.0F);
    core::AttackConfig config;
    config.kind = core::AttackKind::kSignFlip;
    config.min_attackers = 5;
    config.max_attackers = 9;
    auto updates = make_updates(3);
    const auto report = core::apply_attack(updates, global, config, 0, 42);
    EXPECT_LE(report.attacker_clients.size(), 3U);
}

TEST(Attacker, DeterministicPerRoundAndSeed) {
    const std::vector<float> global(8, 1.0F);
    core::AttackConfig config;
    config.kind = core::AttackKind::kGaussian;
    auto a = make_updates(10);
    auto b = make_updates(10);
    const auto ra = core::apply_attack(a, global, config, 4, 42);
    const auto rb = core::apply_attack(b, global, config, 4, 42);
    EXPECT_EQ(ra.attacker_clients, rb.attacker_clients);
    EXPECT_EQ(a, b);
    auto c = make_updates(10);
    const auto rc = core::apply_attack(c, global, config, 5, 42);
    // A different round reselects attackers (statistically different).
    EXPECT_TRUE(ra.attacker_clients != rc.attacker_clients || a != c);
}

TEST(Attacker, SignFlipInvertsDelta) {
    auto updates = make_updates(1);
    std::vector<float> global(8, 1.0F);
    updates[0].weights.assign(8, 1.5F);  // delta = +0.5
    core::AttackConfig config;
    config.kind = core::AttackKind::kSignFlip;
    config.magnitude = 2.0;
    config.min_attackers = 1;
    config.max_attackers = 1;
    (void)core::apply_attack(updates, global, config, 0, 42);
    // w = global - 2 * delta = 1.0 - 1.0 = 0.0.
    for (const float w : updates[0].weights) EXPECT_FLOAT_EQ(w, 0.0F);
}

TEST(Attacker, ScaleBoostsDelta) {
    auto updates = make_updates(1);
    std::vector<float> global(8, 1.0F);
    updates[0].weights.assign(8, 1.5F);
    core::AttackConfig config;
    config.kind = core::AttackKind::kScale;
    config.magnitude = 4.0;
    config.min_attackers = 1;
    config.max_attackers = 1;
    (void)core::apply_attack(updates, global, config, 0, 42);
    for (const float w : updates[0].weights) EXPECT_FLOAT_EQ(w, 3.0F);
}

TEST(Attacker, GaussianMovesWeights) {
    auto updates = make_updates(1);
    const auto original = updates[0].weights;
    const std::vector<float> global(8, 1.0F);
    core::AttackConfig config;
    config.kind = core::AttackKind::kGaussian;
    config.magnitude = 1.0;
    config.min_attackers = 1;
    config.max_attackers = 1;
    (void)core::apply_attack(updates, global, config, 0, 42);
    EXPECT_GT(fairbfl::support::squared_distance(updates[0].weights, original),
              0.0);
}

TEST(DetectionRate, Formula) {
    EXPECT_DOUBLE_EQ(core::detection_rate({}, {}), 1.0);       // vacuous
    EXPECT_DOUBLE_EQ(core::detection_rate({1, 2}, {}), 0.0);
    EXPECT_DOUBLE_EQ(core::detection_rate({1, 2}, {2}), 0.5);
    EXPECT_DOUBLE_EQ(core::detection_rate({1, 2}, {1, 2, 9}), 1.0);
    EXPECT_NEAR(core::detection_rate({3, 6, 2}, {2, 6}), 2.0 / 3.0, 1e-12);
}

TEST(DetectionRate, CountsOnlyAttackersWhoseForgedUpdateReachedAlgorithm2) {
    // Round 4's set: clients 0..4 fresh, client 5 carried from round 3.
    auto updates = make_updates(6);
    for (auto& u : updates) u.round = 4;
    updates[5].round = 3;
    // Attacker 7 was late or dropped; attacker 5's forged update is not
    // the carried one.  Only 3 and 1 reached Algorithm 2.
    const auto reached = core::attackers_in(updates, {7, 3, 5, 1}, 4);
    EXPECT_EQ(reached, (std::vector<fl::NodeId>{1, 3}));
    EXPECT_DOUBLE_EQ(core::detection_rate(reached, {3}), 0.5);
    EXPECT_TRUE(core::attackers_in(updates, {5, 7}, 4).empty());
}

}  // namespace

#include "core/attacker.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace fairbfl::core {

AttackReport apply_attack(std::span<fl::GradientUpdate> updates,
                          std::span<const float> reference_global,
                          const AttackConfig& config, std::uint64_t round,
                          std::uint64_t root_seed) {
    AttackReport report;
    if (config.kind == AttackKind::kNone || updates.empty()) return report;

    auto rng = support::Rng::fork(root_seed, /*stream=*/0xA77ACC, round);
    const std::size_t lo = std::min(config.min_attackers, updates.size());
    const std::size_t hi = std::min(config.max_attackers, updates.size());
    const auto count = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(std::max(lo, hi))));
    report.attacker_indices = rng.sample_indices(updates.size(), count);
    std::sort(report.attacker_indices.begin(), report.attacker_indices.end());

    for (const std::size_t idx : report.attacker_indices) {
        auto& weights = updates[idx].weights;
        report.attacker_clients.push_back(updates[idx].client);
        switch (config.kind) {
            case AttackKind::kSignFlip:
                // Invert the local progress: move *away* from where honest
                // training went, scaled up.
                for (std::size_t i = 0; i < weights.size(); ++i) {
                    const float delta = weights[i] - reference_global[i];
                    weights[i] = reference_global[i] -
                                 static_cast<float>(config.magnitude) * delta;
                }
                break;
            case AttackKind::kGaussian:
                for (auto& w : weights)
                    w += static_cast<float>(config.magnitude * rng.normal());
                break;
            case AttackKind::kScale:
                for (std::size_t i = 0; i < weights.size(); ++i) {
                    const float delta = weights[i] - reference_global[i];
                    weights[i] = reference_global[i] +
                                 static_cast<float>(config.magnitude) * delta;
                }
                break;
            case AttackKind::kNone:
                break;
        }
    }
    std::sort(report.attacker_clients.begin(), report.attacker_clients.end());
    return report;
}

std::vector<fl::NodeId> attackers_in(
    std::span<const fl::GradientUpdate> updates,
    const std::vector<fl::NodeId>& attackers, std::uint64_t round) {
    std::vector<fl::NodeId> reached;
    for (const auto& u : updates) {
        if (u.round == round &&
            std::find(attackers.begin(), attackers.end(), u.client) !=
                attackers.end())
            reached.push_back(u.client);
    }
    std::sort(reached.begin(), reached.end());
    return reached;
}

double detection_rate(const std::vector<fl::NodeId>& attackers,
                      const std::vector<fl::NodeId>& flagged) {
    if (attackers.empty()) return 1.0;
    std::size_t caught = 0;
    for (const auto id : attackers) {
        if (std::find(flagged.begin(), flagged.end(), id) != flagged.end())
            ++caught;
    }
    return static_cast<double>(caught) / static_cast<double>(attackers.size());
}

}  // namespace fairbfl::core

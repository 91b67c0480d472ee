#pragma once
// Malicious-client models (paper §5.4): attackers "modify the actual local
// gradients to skew the global model".
//
// Three forgery modes are provided; kSignFlip (gradient-ascent style) is
// the default used for Table 2.  Which clients attack in a round is drawn
// from a dedicated stream so attack placement is reproducible and
// independent of training noise.

#include <cstdint>
#include <span>
#include <vector>

#include "fl/gradient.hpp"

namespace fairbfl::core {

enum class AttackKind : std::uint8_t {
    kNone = 0,
    kSignFlip = 1,   ///< w <- global - scale * (w - global): inverted update
    kGaussian = 2,   ///< w <- w + sigma * N(0, I): random poison
    kScale = 3,      ///< w <- global + scale * (w - global): boosted update
};

struct AttackConfig {
    AttackKind kind = AttackKind::kNone;
    double magnitude = 3.0;        ///< scale / sigma depending on kind
    std::size_t min_attackers = 1; ///< per round, inclusive
    std::size_t max_attackers = 3; ///< per round, inclusive
};

/// Per-round attack outcome.
struct AttackReport {
    std::vector<fl::NodeId> attacker_clients;  ///< sorted ids (Table 2 col 3)
    std::vector<std::size_t> attacker_indices; ///< indices into the update set
};

/// Selects attackers among `updates` and forges their weight vectors in
/// place.  `reference_global` is the round's starting global weights (the
/// anchor the forgeries are built from).  No-op for AttackKind::kNone.
[[nodiscard]] AttackReport apply_attack(
    std::span<fl::GradientUpdate> updates,
    std::span<const float> reference_global, const AttackConfig& config,
    std::uint64_t round, std::uint64_t root_seed);

/// The `attackers` whose round-`round` (forged) update is among `updates`:
/// the ones Algorithm 2 saw and so could flag.  Attackers whose update was
/// late, dropped or carried to a later round are left out.  Sorted.
[[nodiscard]] std::vector<fl::NodeId> attackers_in(
    std::span<const fl::GradientUpdate> updates,
    const std::vector<fl::NodeId>& attackers, std::uint64_t round);

/// Detection rate of one round: |attackers ∩ flagged| / |attackers|
/// (1.0 when there were no attackers).
[[nodiscard]] double detection_rate(
    const std::vector<fl::NodeId>& attackers,
    const std::vector<fl::NodeId>& flagged);

}  // namespace fairbfl::core

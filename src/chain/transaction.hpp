#pragma once
// On-chain transaction types.
//
// Vanilla BFL records *every* local gradient as a transaction; FAIR-BFL
// (Assumption 2) records only the round's global gradient plus the reward
// list.  Both behaviours are expressible with the same Transaction type so
// the two frameworks are directly comparable.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chain/bytes.hpp"
#include "crypto/hybrid.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"

namespace fairbfl::chain {

using crypto::NodeId;

enum class TxKind : std::uint8_t {
    kLocalGradient = 0,  ///< vanilla BFL: one client's local gradient
    kGlobalUpdate = 1,   ///< FAIR-BFL: the round's aggregated global gradient
    kReward = 2,         ///< FAIR-BFL: <client, reward> pair (Algorithm 2)
    kPayload = 3,        ///< pure-blockchain mode: opaque application bytes
};

/// A transaction: typed payload + origin + signature.  The signature covers
/// the canonical encoding of (kind, origin, round, payload) -- see
/// signing_bytes().
struct Transaction {
    TxKind kind = TxKind::kPayload;
    NodeId origin = 0;        ///< authoring node (client or miner)
    std::uint64_t round = 0;  ///< communication round the tx belongs to
    Bytes payload;            ///< kind-specific body
    Bytes signature;          ///< RSA signature by `origin` (may be empty)

    /// Bytes covered by the signature (everything except the signature).
    [[nodiscard]] Bytes signing_bytes() const;
    /// Full canonical encoding (including signature).
    [[nodiscard]] Bytes encode() const;
    [[nodiscard]] static Transaction decode(ByteReader& reader);

    /// Transaction id: SHA-256 over the full encoding.
    [[nodiscard]] crypto::Digest id() const;
    /// Serialized size in bytes (drives block-capacity queuing).
    [[nodiscard]] std::size_t size_bytes() const;

    [[nodiscard]] bool operator==(const Transaction& rhs) const = default;
};

/// Builds a reward transaction carrying <client, amount> (amount in
/// fixed-point milli-units so the encoding stays integral).
[[nodiscard]] Transaction make_reward_tx(NodeId miner, std::uint64_t round,
                                         NodeId client, double amount);

/// Parses the reward payload back into (client, amount).
struct RewardInfo {
    NodeId client = 0;
    double amount = 0.0;
};
[[nodiscard]] RewardInfo parse_reward_tx(const Transaction& tx);

/// Builds a gradient-carrying transaction (local or global).  The gradient
/// is stored as a raw f32 vector.
[[nodiscard]] Transaction make_gradient_tx(TxKind kind, NodeId origin,
                                           std::uint64_t round,
                                           std::span<const float> gradient);

/// Extracts the gradient from a gradient-carrying transaction.
[[nodiscard]] std::vector<float> parse_gradient_tx(const Transaction& tx);

/// Signs `tx` in place with origin's key from the keystore.
void sign_transaction(Transaction& tx, const crypto::KeyStore& keys);

/// Verifies the signature against origin's public key (true when the
/// keystore has crypto disabled).
[[nodiscard]] bool verify_transaction(const Transaction& tx,
                                      const crypto::KeyStore& keys);

/// Client side of an encrypted upload (paper §4.2): `tx`'s full encoding
/// under hybrid encryption to the associated miner's key.
[[nodiscard]] crypto::HybridCiphertext seal_upload(
    const Transaction& tx, const crypto::RsaPublicKey& miner,
    support::Rng& rng);

/// Miner side: decrypts and decodes an upload.  nullopt when it cannot be
/// opened -- failed key unwrap, integrity-tag mismatch or an undecodable
/// body -- and the caller drops the upload.
[[nodiscard]] std::optional<Transaction> open_upload(
    const crypto::HybridCiphertext& ciphertext,
    const crypto::RsaPrivateKey& miner);

}  // namespace fairbfl::chain

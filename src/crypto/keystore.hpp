#pragma once
// Key registry for the BFL network (paper §4.2): "each client is assigned a
// unique private key according to its ID, and the corresponding public key
// will be held by the miners".

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "crypto/rsa.hpp"

namespace fairbfl::support {
class ThreadPool;
}  // namespace fairbfl::support

namespace fairbfl::crypto {

/// Identifier of a participant (client or miner) in the network.
using NodeId = std::uint32_t;

/// Holds every participant's key pair; miners query public keys, clients
/// query their own private key.  Key generation is deterministic from the
/// root seed so simulations are reproducible.
class KeyStore {
public:
    /// `key_bits == 0` disables cryptography entirely: signing returns empty
    /// signatures and verification always succeeds.  This models the paper's
    /// flexibility knob -- the crypto layer can be scaled out for pure-FL
    /// deployments without touching call sites.  Any other size must be
    /// able to sign: 0 < key_bits < kMinSigningKeyBits (344) throws
    /// std::invalid_argument.
    explicit KeyStore(std::uint64_t root_seed, std::size_t key_bits = 512);

    /// Creates (or returns the existing) key pair for `id`.
    void register_node(NodeId id);

    /// register_node for every id, generating the new key pairs in
    /// parallel on `pool`.  Each id draws from its own Rng fork, so the
    /// keys are identical to serial registration at any thread count.
    void register_nodes(std::span<const NodeId> ids, support::ThreadPool& pool);

    [[nodiscard]] bool has_node(NodeId id) const noexcept;
    [[nodiscard]] bool crypto_enabled() const noexcept { return key_bits_ != 0; }

    /// Public key lookup (throws std::out_of_range on unknown id when crypto
    /// is enabled).
    [[nodiscard]] const RsaPublicKey& public_key(NodeId id) const;

    /// Private key lookup.  Simulation-only convenience: the simulator
    /// plays every node in-process, so "the node's own key" lives here.  A
    /// real deployment would never centralize private keys.
    [[nodiscard]] const RsaPrivateKey& private_key(NodeId id) const;

    /// Signs `payload` with the node's private key; empty when disabled.
    [[nodiscard]] RsaSignature sign(NodeId id,
                                    std::span<const std::uint8_t> payload) const;

    /// Verifies a signature allegedly from `id`.  Always true when crypto is
    /// disabled; false for unknown ids.
    [[nodiscard]] bool verify(NodeId id, std::span<const std::uint8_t> payload,
                              std::span<const std::uint8_t> signature) const;

    [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

private:
    std::uint64_t root_seed_;
    std::size_t key_bits_;
    std::unordered_map<NodeId, RsaKeyPair> keys_;
};

}  // namespace fairbfl::crypto

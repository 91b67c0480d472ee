#include "crypto/keystore.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/parallel.hpp"

namespace fairbfl::crypto {

KeyStore::KeyStore(std::uint64_t root_seed, std::size_t key_bits)
    : root_seed_(root_seed), key_bits_(key_bits) {
    if (key_bits != 0 && key_bits < kMinSigningKeyBits)
        throw std::invalid_argument(
            "KeyStore: key_bits must be 0 (crypto off) or at least " +
            std::to_string(kMinSigningKeyBits) +
            " (a 32-byte digest plus 11 bytes of signature padding), got " +
            std::to_string(key_bits));
}

namespace {

RsaKeyPair keypair_for(std::uint64_t root_seed, std::size_t key_bits,
                       NodeId id) {
    // Stream 0x4B45 ("KE") namespaces key-generation randomness away from
    // the simulation streams.
    auto rng = support::Rng::fork(root_seed, 0x4B450000ULL + id);
    return generate_keypair(key_bits, rng);
}

}  // namespace

void KeyStore::register_node(NodeId id) {
    if (!crypto_enabled() || keys_.contains(id)) return;
    keys_.emplace(id, keypair_for(root_seed_, key_bits_, id));
}

void KeyStore::register_nodes(std::span<const NodeId> ids,
                              support::ThreadPool& pool) {
    if (!crypto_enabled()) return;
    std::vector<NodeId> fresh(ids.begin(), ids.end());
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    std::erase_if(fresh, [&](NodeId id) { return keys_.contains(id); });
    std::vector<RsaKeyPair> pairs(fresh.size());
    support::parallel_for(
        0, fresh.size(),
        [&](std::size_t i) {
            pairs[i] = keypair_for(root_seed_, key_bits_, fresh[i]);
        },
        pool);
    for (std::size_t i = 0; i < fresh.size(); ++i)
        keys_.emplace(fresh[i], std::move(pairs[i]));
}

bool KeyStore::has_node(NodeId id) const noexcept {
    return keys_.contains(id);
}

const RsaPublicKey& KeyStore::public_key(NodeId id) const {
    return keys_.at(id).pub;
}

const RsaPrivateKey& KeyStore::private_key(NodeId id) const {
    return keys_.at(id).priv;
}

RsaSignature KeyStore::sign(NodeId id,
                            std::span<const std::uint8_t> payload) const {
    if (!crypto_enabled()) return {};
    const auto it = keys_.find(id);
    if (it == keys_.end())
        throw std::out_of_range("KeyStore::sign: unknown node id");
    return sign_payload(it->second.priv, payload);
}

bool KeyStore::verify(NodeId id, std::span<const std::uint8_t> payload,
                      std::span<const std::uint8_t> signature) const {
    if (!crypto_enabled()) return true;
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    return verify_payload(it->second.pub, payload, signature);
}

}  // namespace fairbfl::crypto

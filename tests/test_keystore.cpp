// KeyStore: registration, per-node signing, disabled-crypto mode.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "crypto/keystore.hpp"
#include "support/parallel.hpp"

namespace {

using fairbfl::crypto::KeyStore;
using fairbfl::crypto::NodeId;

/// The 31,440-byte payload the golden signature covers: about the size of
/// one 7,850-parameter gradient transaction.
std::vector<std::uint8_t> pinned_payload() {
    std::vector<std::uint8_t> payload(31440);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xFF);
    return payload;
}

std::string hex_of(std::span<const std::uint8_t> bytes) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (const auto b : bytes) {
        out += kHex[b >> 4];
        out += kHex[b & 0xF];
    }
    return out;
}

std::vector<std::uint8_t> bytes_of(std::string_view s) {
    return {s.begin(), s.end()};
}

TEST(KeyStore, RegisterAndSign) {
    KeyStore store(42, 384);
    store.register_node(1);
    store.register_node(2);
    EXPECT_TRUE(store.has_node(1));
    EXPECT_FALSE(store.has_node(3));
    EXPECT_EQ(store.size(), 2U);

    const auto payload = bytes_of("w_{r+1} from client 1");
    const auto sig = store.sign(1, payload);
    EXPECT_TRUE(store.verify(1, payload, sig));
    // Signature from node 1 must not verify as node 2.
    EXPECT_FALSE(store.verify(2, payload, sig));
}

TEST(KeyStore, UnknownNodeVerifyFailsSignThrows) {
    KeyStore store(42, 384);
    const auto payload = bytes_of("x");
    EXPECT_THROW((void)store.sign(9, payload), std::out_of_range);
    EXPECT_FALSE(store.verify(9, payload, {}));
}

TEST(KeyStore, ReRegisterIsIdempotent) {
    KeyStore store(42, 384);
    store.register_node(5);
    const auto payload = bytes_of("stable key");
    const auto sig = store.sign(5, payload);
    store.register_node(5);  // must not rotate the key
    EXPECT_TRUE(store.verify(5, payload, sig));
    EXPECT_EQ(store.size(), 1U);
}

TEST(KeyStore, DeterministicAcrossInstances) {
    KeyStore a(7, 384);
    KeyStore b(7, 384);
    a.register_node(3);
    b.register_node(3);
    const auto payload = bytes_of("same seed, same key");
    EXPECT_TRUE(b.verify(3, payload, a.sign(3, payload)));
}

TEST(KeyStore, DifferentSeedsDifferentKeys) {
    KeyStore a(7, 384);
    KeyStore b(8, 384);
    a.register_node(3);
    b.register_node(3);
    const auto payload = bytes_of("cross-seed");
    EXPECT_FALSE(b.verify(3, payload, a.sign(3, payload)));
}

// Golden values captured before the Montgomery kernel and the CRT private
// path were rewritten: key generation and signing must stay byte-exact.
TEST(KeyStore, GoldenKeyAndSignaturePins) {
    KeyStore store(7, 512);
    store.register_node(3);
    const auto& priv = store.private_key(3);
    EXPECT_EQ(priv.n.to_hex(),
              "97110be198be179739b9da71c26e5bd1e810a4d75c0b949f215e5c9e7b98"
              "05ec9ea6608f68560302b16bd06452aa21d7e7569cc8331e090668204d00"
              "25cb0b25");
    EXPECT_EQ(priv.d.to_hex(),
              "8646cba5ca0be59230e86727c8e8294b8a18093db7fe3f2bb710560934d8"
              "ab2209c8a9eeba2918bb9c2e11a02f08d7498b179963114757488d2066ab"
              "913e575d");
    const auto payload = pinned_payload();
    const auto signature = store.sign(3, payload);
    EXPECT_EQ(hex_of(signature),
              "8d91a6cfe0697091a6871bd9344edf08d4a31b5932a4955e1ebbf23f4bd6"
              "c7dee55969eac5eb1d4cd5c1c092e6a7c1fb3b52c2a7bd16250b34806b3f"
              "c9c02e58");
    EXPECT_TRUE(store.verify(3, payload, signature));
}

TEST(KeyStore, ParallelRegistrationMatchesSerialAtAnyThreadCount) {
    // Duplicates and an already-registered id exercise the dedupe.
    const std::vector<NodeId> ids{4, 0, 9, 1, 4, 7, 2, 11, 3, 9};
    KeyStore serial(13, 384);
    for (const NodeId id : ids) serial.register_node(id);
    for (const unsigned threads : {1U, 4U}) {
        fairbfl::support::ThreadPool pool(threads);
        KeyStore store(13, 384);
        store.register_node(7);
        store.register_nodes(ids, pool);
        ASSERT_EQ(store.size(), serial.size()) << threads << " threads";
        for (const NodeId id : ids) {
            const auto& a = store.private_key(id);
            const auto& b = serial.private_key(id);
            EXPECT_EQ(a.n, b.n) << "node " << id << ", " << threads;
            EXPECT_EQ(a.d, b.d) << "node " << id << ", " << threads;
            EXPECT_EQ(a.qinv, b.qinv) << "node " << id << ", " << threads;
        }
    }
}

TEST(KeyStore, DisabledCryptoShortCircuits) {
    KeyStore store(42, 0);
    EXPECT_FALSE(store.crypto_enabled());
    store.register_node(1);  // no-op
    EXPECT_EQ(store.size(), 0U);
    const auto payload = bytes_of("anything");
    EXPECT_TRUE(store.sign(1, payload).empty());
    EXPECT_TRUE(store.verify(1, payload, {}));
    EXPECT_TRUE(store.verify(999, payload, bytes_of("junk")));
}

TEST(KeyStore, KeySizesThatCannotSignAreRejectedUpFront) {
    // A signature needs kMinSigningKeyBits (344): a 32-byte digest plus 11
    // bytes of EMSA padding.  Smaller sizes used to pass construction and
    // fail in the first sign() with std::length_error.
    EXPECT_EQ(fairbfl::crypto::kMinSigningKeyBits, 344U);
    EXPECT_NO_THROW(KeyStore(42, 0));  // crypto off stays legal
    for (const std::size_t bits : {8UL, 96UL, 128UL, 342UL, 343UL}) {
        try {
            KeyStore store(42, bits);
            ADD_FAILURE() << bits << " bits accepted";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("344"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(KeyStore, SmallestSigningKeySignsAndVerifies) {
    KeyStore store(42, 344);
    store.register_node(1);
    EXPECT_EQ(store.public_key(1).modulus_bytes(), 43U);
    const auto payload = pinned_payload();
    const auto signature = store.sign(1, payload);
    EXPECT_EQ(signature.size(), 43U);
    EXPECT_TRUE(store.verify(1, payload, signature));
}

}  // namespace

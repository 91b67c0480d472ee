// Hybrid encryption: round-trips, tamper rejection, wrong-key rejection,
// and gradient-sized payloads.

#include <gtest/gtest.h>

#include "chain/transaction.hpp"
#include "crypto/hybrid.hpp"
#include "crypto/keystore.hpp"

namespace {

namespace cr = fairbfl::crypto;
using fairbfl::support::Rng;

struct HybridFixture : ::testing::Test {
    Rng keygen_rng{1};
    cr::RsaKeyPair keys = cr::generate_keypair(512, keygen_rng);
    Rng msg_rng{2};
};

TEST_F(HybridFixture, RoundTripShortMessage) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_EQ(cr::hybrid_decrypt(keys.priv, ct), msg);
}

TEST_F(HybridFixture, RoundTripGradientSizedMessage) {
    // A 650-float gradient: far beyond raw RSA capacity.
    std::vector<std::uint8_t> msg(650 * 4);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 31);
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_EQ(ct.body.size(), msg.size());
    EXPECT_EQ(cr::hybrid_decrypt(keys.priv, ct), msg);
}

TEST_F(HybridFixture, EmptyMessage) {
    const std::vector<std::uint8_t> msg;
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_TRUE(cr::hybrid_decrypt(keys.priv, ct).empty());
}

TEST_F(HybridFixture, CiphertextHidesPlaintext) {
    const std::vector<std::uint8_t> msg(256, 0x00);  // all zeros
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    // The body must not be all zeros (keystream applied).
    std::size_t zeros = 0;
    for (const auto b : ct.body)
        if (b == 0) ++zeros;
    EXPECT_LT(zeros, 32U);  // ~1/256 of 256 bytes expected
}

TEST_F(HybridFixture, FreshKeyPerMessage) {
    const std::vector<std::uint8_t> msg{9, 9, 9};
    const auto ct1 = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    const auto ct2 = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_NE(ct1.wrapped_key, ct2.wrapped_key);
    EXPECT_NE(ct1.body, ct2.body);  // different keystream
}

TEST_F(HybridFixture, TamperedBodyRejected) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    ct.body[0] ^= 0x80;
    EXPECT_THROW((void)cr::hybrid_decrypt(keys.priv, ct),
                 std::runtime_error);
}

TEST_F(HybridFixture, TamperedTagRejected) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    ct.tag[5] ^= 0x01;
    EXPECT_THROW((void)cr::hybrid_decrypt(keys.priv, ct),
                 std::runtime_error);
}

TEST_F(HybridFixture, WrongPrivateKeyRejected) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    Rng other_rng(3);
    const auto other = cr::generate_keypair(512, other_rng);
    EXPECT_THROW((void)cr::hybrid_decrypt(other.priv, ct),
                 std::runtime_error);
}

/// hybrid_decrypt's message on a failed key unwrap ("" when it succeeds
/// or fails some other way).
std::string unwrap_error(const cr::RsaPrivateKey& key,
                         const cr::HybridCiphertext& ct) {
    try {
        (void)cr::hybrid_decrypt(key, ct);
    } catch (const std::runtime_error& err) {
        return err.what();
    }
    return "";
}

TEST_F(HybridFixture, WrappedKeyAtOrAboveModulusIsRejected) {
    // A wrapped-key integer >= n is hostile input: like verify_digest's
    // s >= n check, decrypt must reject it rather than reduce it mod n.
    const std::size_t width = keys.pub.modulus_bytes();
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    ct.wrapped_key = keys.pub.n.to_bytes_be(width);
    EXPECT_EQ(unwrap_error(keys.priv, ct), "hybrid_decrypt: key unwrap failed");

    // c + n decrypts to the genuine key when silently reduced; find a
    // ciphertext where c + n still fits the modulus width.
    const cr::BigUint limit = cr::BigUint(1) << (8 * width);
    for (int attempt = 0; attempt < 64; ++attempt) {
        auto fresh = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
        const cr::BigUint lifted =
            cr::BigUint::from_bytes_be(fresh.wrapped_key) + keys.pub.n;
        if (lifted >= limit) continue;
        fresh.wrapped_key = lifted.to_bytes_be(width);
        EXPECT_EQ(unwrap_error(keys.priv, fresh),
                  "hybrid_decrypt: key unwrap failed");
        return;
    }
    FAIL() << "no wrapped key with c + n below 2^(8 * width)";
}

TEST(HybridUpload, UnwrappableUploadIsDropped) {
    // The miner-side path FAIR-BFL's Procedure II takes: an upload whose
    // wrapped key equals the modulus cannot be opened, so it is dropped.
    cr::KeyStore store(7, 512);
    store.register_node(1);
    store.register_node(9);
    namespace ch = fairbfl::chain;
    const std::vector<float> gradient{0.5F, -1.25F, 3.0F};
    ch::Transaction tx =
        ch::make_gradient_tx(ch::TxKind::kLocalGradient, 1, 0, gradient);
    ch::sign_transaction(tx, store);
    Rng rng(4);
    auto ct = ch::seal_upload(tx, store.public_key(9), rng);
    const auto opened = ch::open_upload(ct, store.private_key(9));
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, tx);

    const auto& miner = store.public_key(9);
    ct.wrapped_key = miner.n.to_bytes_be(miner.modulus_bytes());
    EXPECT_EQ(unwrap_error(store.private_key(9), ct),
              "hybrid_decrypt: key unwrap failed");
    EXPECT_FALSE(ch::open_upload(ct, store.private_key(9)).has_value());
}

// Golden ciphertext captured before the Montgomery kernel and the CRT
// private path were rewritten.
TEST(HybridUpload, GoldenCiphertextPin) {
    cr::KeyStore store(7, 512);
    store.register_node(3);
    std::vector<std::uint8_t> payload(31440);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xFF);
    Rng rng(11);
    const auto ct = cr::hybrid_encrypt(store.public_key(3), payload, rng);
    EXPECT_EQ(cr::BigUint::from_bytes_be(ct.wrapped_key).to_hex(),
              "120cbff02557fdffbd30242029c5a40565bdf95d2ba4d1b4ea8ea72928fb"
              "91d6c1bfbb623c6bb759c57b5f1a0faf078095d0de38ad91982186ecd229"
              "7e411ed6");
    EXPECT_EQ(cr::to_hex(cr::Sha256::hash(ct.body)),
              "f44184e580bdd7d5f75040000d11c7e6d16ba2789cf430a6142b61e6c3ec"
              "6da8");
    EXPECT_EQ(cr::to_hex(ct.tag),
              "641f93a5c5d20a16cea5b7b5b3ff0d71c1e5b49cfcd8750948bfe0b9504b"
              "b22d");
    EXPECT_EQ(cr::hybrid_decrypt(store.private_key(3), ct), payload);
}

TEST_F(HybridFixture, TotalBytesAccounting) {
    const std::vector<std::uint8_t> msg(100, 7);
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_EQ(ct.total_bytes(),
              ct.wrapped_key.size() + ct.body.size() + ct.tag.size());
}

}  // namespace

// SHA-256 against FIPS 180-4 / NIST test vectors, plus incremental hashing.

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "crypto/sha256.hpp"

namespace {

using fairbfl::crypto::Digest;
using fairbfl::crypto::Sha256;
using fairbfl::crypto::to_hex;

TEST(Sha256, EmptyString) {
    EXPECT_EQ(to_hex(Sha256::hash(std::string_view{})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(to_hex(Sha256::hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(to_hex(Sha256::hash(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 hasher;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) hasher.update(chunk);
    EXPECT_EQ(to_hex(hasher.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    // Split the same message at awkward boundaries.
    const std::string msg =
        "The quick brown fox jumps over the lazy dog, repeatedly and "
        "at block boundaries 0123456789012345678901234567890123456789";
    const Digest whole = Sha256::hash(msg);
    for (const std::size_t split : {1UL, 55UL, 56UL, 63UL, 64UL, 65UL}) {
        Sha256 hasher;
        hasher.update(std::string_view(msg).substr(0, split));
        hasher.update(std::string_view(msg).substr(split));
        EXPECT_EQ(hasher.finish(), whole) << "split at " << split;
    }
}

TEST(Sha256, EmptyUpdatesAreNoOps) {
    // A default span has a null data(): update must not hand it to memcpy
    // (UBSan's nonnull check), and must leave the digest unchanged --
    // between non-empty updates, mid-block, and on a fresh hasher.
    const std::span<const std::uint8_t> empty;
    Sha256 split;
    split.update("ab");
    split.update(empty);
    split.update("c");
    EXPECT_EQ(to_hex(split.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    Sha256 only_empty;
    only_empty.update(empty);
    EXPECT_EQ(to_hex(only_empty.finish()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(to_hex(Sha256::hash(empty)),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, ResetReusesHasher) {
    Sha256 hasher;
    hasher.update("garbage");
    (void)hasher.finish();
    hasher.reset();
    hasher.update("abc");
    EXPECT_EQ(to_hex(hasher.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ExactBlockLengths) {
    // 55/56/64-byte messages exercise every padding branch.
    EXPECT_EQ(to_hex(Sha256::hash(std::string(55, 'x'))),
              to_hex(Sha256::hash(std::string(55, 'x'))));
    const Digest d56 = Sha256::hash(std::string(56, 'x'));
    const Digest d64 = Sha256::hash(std::string(64, 'x'));
    EXPECT_NE(to_hex(d56), to_hex(d64));
}

TEST(Sha256, Leading64BigEndian) {
    Digest digest{};
    digest[0] = 0x01;
    digest[7] = 0xFF;
    EXPECT_EQ(fairbfl::crypto::leading64(digest), 0x01000000000000FFULL);
}

TEST(Sha256, LeadingZeroBits) {
    Digest digest{};
    EXPECT_EQ(fairbfl::crypto::leading_zero_bits(digest), 256);
    digest[0] = 0x10;  // 0001 0000
    EXPECT_EQ(fairbfl::crypto::leading_zero_bits(digest), 3);
    digest[0] = 0x80;
    EXPECT_EQ(fairbfl::crypto::leading_zero_bits(digest), 0);
}

TEST(Sha256, AvalancheOnSingleBitFlip) {
    const Digest a = Sha256::hash("fairbfl");
    const Digest b = Sha256::hash("fairbfm");  // last char +1
    int differing_bits = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        unsigned x = static_cast<unsigned>(a[i] ^ b[i]);
        while (x != 0U) {
            differing_bits += static_cast<int>(x & 1U);
            x >>= 1U;
        }
    }
    EXPECT_GT(differing_bits, 80);  // ~128 expected
}

}  // namespace

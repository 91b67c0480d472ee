// SHA-256 against FIPS 180-4 / NIST test vectors, plus incremental hashing,
// plus memcmp identity of the portable and SHA-extension block compressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

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

// --- Block-compression variants ---------------------------------------------

namespace simd = fairbfl::support::simd;

constexpr std::uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// FIPS 180-4 padding: msg || 0x80 || zeros || 64-bit big-endian bit count.
std::vector<std::uint8_t> padded(std::span<const std::uint8_t> msg) {
    std::vector<std::uint8_t> out(msg.begin(), msg.end());
    out.push_back(0x80);
    while (out.size() % 64 != 56) out.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
    for (int i = 7; i >= 0; --i)
        out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    return out;
}

/// Digest of already padded blocks, compressed by `kernel` in calls of
/// `chunk` blocks each (0: all blocks in one call).
Digest digest_with(simd::Sha256Blocks kernel, const std::uint8_t* blocks,
                   std::size_t count, std::size_t chunk = 0) {
    std::uint32_t state[8] = {};
    std::memcpy(state, kInitialState, sizeof(state));
    if (chunk == 0) chunk = count;
    for (std::size_t done = 0; done < count;) {
        const std::size_t take = std::min(chunk, count - done);
        kernel(state, blocks + 64 * done, take);
        done += take;
    }
    Digest digest{};
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t b = 0; b < 4; ++b)
            digest[4 * i + b] =
                static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    return digest;
}

Digest digest_with(simd::Sha256Blocks kernel,
                   std::span<const std::uint8_t> msg, std::size_t chunk = 0) {
    const std::vector<std::uint8_t> blocks = padded(msg);
    return digest_with(kernel, blocks.data(), blocks.size() / 64, chunk);
}

std::vector<std::uint8_t> random_bytes(fairbfl::support::Rng& rng,
                                       std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng());
    return out;
}

bool same(const Digest& a, const Digest& b) {
    return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// The SHA-extension kernel when this binary has it and CPUID allows it.
simd::Sha256Blocks usable_sha_ni() {
    const simd::Sha256Blocks kernel = simd::detail::sha_ni_sha256_blocks();
    return kernel != nullptr && simd::cpu_supports_sha_ni() ? kernel : nullptr;
}

TEST(Sha256Variants, PortableMatchesNistVectors) {
    // The existing pins run through whichever variant serves; this holds
    // the portable reference itself to the FIPS 180-4 examples.
    const simd::Sha256Blocks portable = simd::detail::portable_sha256_blocks();
    const auto bytes = [](std::string_view s) {
        return std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    };
    EXPECT_EQ(to_hex(digest_with(portable, bytes(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(to_hex(digest_with(portable, bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        to_hex(digest_with(
            portable,
            bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Variants, ShaNiMatchesPortableOnEveryLength0To300) {
    const simd::Sha256Blocks sha_ni = usable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
    const simd::Sha256Blocks portable = simd::detail::portable_sha256_blocks();
    fairbfl::support::Rng rng(1401);
    for (std::size_t n = 0; n <= 300; ++n) {
        const auto msg = random_bytes(rng, n);
        EXPECT_TRUE(same(digest_with(sha_ni, msg), digest_with(portable, msg)))
            << "length " << n;
    }
}

TEST(Sha256Variants, ShaNiMatchesPortableOnWholeBlocks) {
    // 491 blocks is the size of one upload transaction's body.
    const simd::Sha256Blocks sha_ni = usable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
    const simd::Sha256Blocks portable = simd::detail::portable_sha256_blocks();
    fairbfl::support::Rng rng(1402);
    for (const std::size_t blocks : {1UL, 2UL, 491UL}) {
        const auto raw = random_bytes(rng, 64 * blocks);
        EXPECT_TRUE(same(digest_with(sha_ni, raw.data(), blocks),
                         digest_with(portable, raw.data(), blocks)))
            << blocks << " raw blocks";
        EXPECT_TRUE(same(digest_with(sha_ni, raw), digest_with(portable, raw)))
            << blocks << " blocks, padded";
    }
}

TEST(Sha256Variants, ShaNiMatchesPortableUnderRandomChunking) {
    const simd::Sha256Blocks sha_ni = usable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
    const simd::Sha256Blocks portable = simd::detail::portable_sha256_blocks();
    fairbfl::support::Rng rng(1403);
    for (int trial = 0; trial < 60; ++trial) {
        const auto msg = random_bytes(
            rng, static_cast<std::size_t>(rng.uniform_int(0, 70 * 1024)));
        const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, 40));
        EXPECT_TRUE(
            same(digest_with(sha_ni, msg, chunk), digest_with(portable, msg)))
            << "length " << msg.size() << ", " << chunk << "-block calls";
    }
}

TEST(Sha256Variants, ShaNiHandlesUnalignedSources) {
    const simd::Sha256Blocks sha_ni = usable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
    const simd::Sha256Blocks portable = simd::detail::portable_sha256_blocks();
    fairbfl::support::Rng rng(1404);
    const auto blocks = padded(random_bytes(rng, 1000));
    const std::size_t count = blocks.size() / 64;
    const Digest expected = digest_with(portable, blocks.data(), count);
    std::vector<std::uint8_t> buffer(blocks.size() + 16);
    for (std::size_t offset = 1; offset < 16; ++offset) {
        std::memcpy(buffer.data() + offset, blocks.data(), blocks.size());
        EXPECT_TRUE(
            same(digest_with(sha_ni, buffer.data() + offset, count), expected))
            << "offset " << offset;
    }
}

TEST(Sha256Variants, HasherMatchesPortableUnderRandomUpdateSplits) {
    // The hasher (whichever variant serves) against the portable one-shot,
    // with updates that start and end anywhere inside a block.
    const simd::Sha256Blocks portable = simd::detail::portable_sha256_blocks();
    fairbfl::support::Rng rng(1405);
    for (int trial = 0; trial < 60; ++trial) {
        const auto msg = random_bytes(
            rng, static_cast<std::size_t>(rng.uniform_int(0, 70 * 1024)));
        Sha256 hasher;
        std::size_t done = 0;
        while (done < msg.size()) {
            const auto take = std::min<std::size_t>(
                msg.size() - done,
                static_cast<std::size_t>(rng.uniform_int(0, 5000)));
            hasher.update(std::span(msg).subspan(done, take));
            done += take;
        }
        EXPECT_TRUE(same(hasher.finish(), digest_with(portable, msg)))
            << "length " << msg.size();
    }
}

TEST(Sha256Variants, ServedVariantFollowsCpuidNotKernelMode) {
    const char* expected = usable_sha_ni() != nullptr ? "sha_ni" : "portable";
    for (const simd::Mode mode :
         {simd::Mode::kSimd, simd::Mode::kAuto, simd::Mode::kScalar}) {
        simd::set_mode(mode);
        EXPECT_STREQ(simd::sha256_variant(), expected);
    }
}

}  // namespace

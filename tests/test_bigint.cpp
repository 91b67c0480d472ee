// BigUint arithmetic: identities, division invariants, modexp, primality.

#include <gtest/gtest.h>

#include "crypto/bigint.hpp"
#include "crypto/rsa.hpp"

namespace {

using fairbfl::crypto::BigUint;
using fairbfl::support::Rng;

TEST(BigUint, ZeroAndSmallValues) {
    BigUint zero;
    EXPECT_TRUE(zero.is_zero());
    EXPECT_EQ(zero.bit_length(), 0U);
    EXPECT_EQ(zero.to_hex(), "0");
    BigUint one(1);
    EXPECT_FALSE(one.is_zero());
    EXPECT_TRUE(one.is_odd());
    EXPECT_EQ(one.bit_length(), 1U);
}

TEST(BigUint, HexRoundTrip) {
    const std::string hex = "deadbeefcafebabe0123456789abcdef";
    EXPECT_EQ(BigUint::from_hex(hex).to_hex(), hex);
    EXPECT_EQ(BigUint::from_hex("0").to_hex(), "0");
    EXPECT_EQ(BigUint::from_hex("00000ff").to_hex(), "ff");
}

TEST(BigUint, FromHexRejectsGarbage) {
    EXPECT_THROW((void)BigUint::from_hex("xyz"), std::invalid_argument);
}

TEST(BigUint, BytesRoundTrip) {
    const std::vector<std::uint8_t> bytes{0x00, 0x01, 0xFF, 0x80, 0x7F};
    const BigUint v = BigUint::from_bytes_be(bytes);
    EXPECT_EQ(v.to_bytes_be(5), bytes);
    // Narrower width that still fits (leading 0x00 dropped).
    EXPECT_EQ(v.to_bytes_be(4),
              (std::vector<std::uint8_t>{0x01, 0xFF, 0x80, 0x7F}));
    EXPECT_THROW((void)v.to_bytes_be(3), std::length_error);
}

TEST(BigUint, ComparisonOrdering) {
    EXPECT_LT(BigUint(5), BigUint(7));
    EXPECT_GT(BigUint::from_hex("100000000"), BigUint(0xFFFFFFFFULL));
    EXPECT_EQ(BigUint(42), BigUint(42));
}

TEST(BigUint, AdditionCarriesAcrossLimbs) {
    const BigUint a(0xFFFFFFFFULL);
    const BigUint sum = a + BigUint(1);
    EXPECT_EQ(sum.to_hex(), "100000000");
    EXPECT_EQ((sum + sum).to_hex(), "200000000");
}

TEST(BigUint, SubtractionBorrows) {
    const BigUint a = BigUint::from_hex("100000000");
    EXPECT_EQ((a - BigUint(1)).to_hex(), "ffffffff");
    EXPECT_EQ((a - a).to_hex(), "0");
}

TEST(BigUint, MultiplicationKnownProduct) {
    const BigUint a = BigUint::from_hex("ffffffffffffffff");
    const BigUint b = BigUint::from_hex("ffffffffffffffff");
    EXPECT_EQ((a * b).to_hex(), "fffffffffffffffe0000000000000001");
    EXPECT_TRUE((a * BigUint{}).is_zero());
}

TEST(BigUint, ShiftsAreInverse) {
    const BigUint v = BigUint::from_hex("123456789abcdef");
    for (const std::size_t s : {1UL, 31UL, 32UL, 33UL, 100UL}) {
        EXPECT_EQ(((v << s) >> s), v) << "shift " << s;
    }
    EXPECT_TRUE((v >> 100).is_zero());
}

TEST(BigUint, DivModInvariant) {
    // a == q * b + r with r < b, across sizes.
    Rng rng(77);
    for (int i = 0; i < 50; ++i) {
        const BigUint a = BigUint::random_bits(200, rng);
        const BigUint b = BigUint::random_bits(
            static_cast<std::size_t>(rng.uniform_int(8, 150)), rng);
        const auto [q, r] = a.divmod(b);
        EXPECT_LT(r, b);
        EXPECT_EQ(q * b + r, a);
    }
}

TEST(BigUint, DivisionByZeroThrows) {
    EXPECT_THROW((void)BigUint(1).divmod(BigUint{}), std::domain_error);
}

TEST(BigUint, SingleLimbDivisionFastPath) {
    const BigUint a = BigUint::from_hex("123456789abcdef0123456789");
    const auto [q, r] = a.divmod(BigUint(1000));
    EXPECT_EQ(q * BigUint(1000) + r, a);
    EXPECT_LT(r, BigUint(1000));
}

TEST(BigUint, ModPowSmallKnown) {
    // 4^13 mod 497 = 445 (classic example).
    EXPECT_EQ(BigUint::mod_pow(BigUint(4), BigUint(13), BigUint(497)),
              BigUint(445));
    // Fermat: a^(p-1) = 1 mod p.
    EXPECT_EQ(BigUint::mod_pow(BigUint(7), BigUint(1008), BigUint(1009)),
              BigUint(1));
}

TEST(BigUint, ModPowEvenModulusFallback) {
    // 3^5 mod 16 = 243 mod 16 = 3 (non-Montgomery path).
    EXPECT_EQ(BigUint::mod_pow(BigUint(3), BigUint(5), BigUint(16)),
              BigUint(3));
}

TEST(BigUint, ModPowMatchesNaiveOnRandomInputs) {
    Rng rng(88);
    for (int i = 0; i < 20; ++i) {
        const auto base = static_cast<std::uint64_t>(rng.uniform_int(2, 1000));
        const auto exp = static_cast<std::uint64_t>(rng.uniform_int(0, 20));
        const auto mod =
            static_cast<std::uint64_t>(rng.uniform_int(3, 100000)) | 1ULL;
        std::uint64_t naive = 1 % mod;
        for (std::uint64_t e = 0; e < exp; ++e) naive = naive * base % mod;
        EXPECT_EQ(
            BigUint::mod_pow(BigUint(base), BigUint(exp), BigUint(mod)),
            BigUint(naive))
            << base << "^" << exp << " mod " << mod;
    }
}

/// Division-based square-and-multiply: the oracle the Montgomery kernel
/// must reproduce exactly.
BigUint reference_mod_pow(const BigUint& base, const BigUint& exponent,
                          const BigUint& modulus) {
    BigUint result = BigUint(1) % modulus;
    BigUint acc = base % modulus;
    for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
        if (exponent.bit(i)) result = (result * acc) % modulus;
        acc = (acc * acc) % modulus;
    }
    return result;
}

TEST(BigUint, ModPowMatchesDivisionReferenceAcrossWidths) {
    Rng rng(2024);
    // Odd 32-bit limb counts (96, 160, 1056 bits) leave the top 64-bit
    // Montgomery word half empty; 4096 bits is the widest key the tree
    // could ask for.
    for (const std::size_t bits :
         {96UL, 128UL, 160UL, 192UL, 255UL, 256UL, 512UL, 1024UL, 1056UL,
          2048UL, 4096UL}) {
        BigUint modulus = BigUint::random_bits(bits, rng);
        if (!modulus.is_odd()) modulus = modulus + BigUint(1);
        // Long exponents on the narrow moduli; the wide ones keep the
        // reference affordable.
        const std::size_t exp_bits = bits <= 1056 ? bits : 160;
        const BigUint exponent = BigUint::random_bits(exp_bits, rng);
        const BigUint below = BigUint::random_below(modulus, rng);
        const BigUint above = modulus + BigUint::random_bits(bits / 2, rng);
        const BigUint twice_wide = BigUint::random_bits(2 * bits + 7, rng);
        for (const BigUint& base :
             {below, above, twice_wide, modulus, modulus - BigUint(1),
              BigUint{}, BigUint(1), BigUint(2)}) {
            for (const BigUint& e :
                 {exponent, BigUint{}, BigUint(1), BigUint(2),
                  BigUint(65537), BigUint(0xF0F0F0F0ULL)}) {
                EXPECT_EQ(BigUint::mod_pow(base, e, modulus),
                          reference_mod_pow(base, e, modulus))
                    << bits << "-bit modulus, base " << base.to_hex()
                    << ", exponent " << e.to_hex();
            }
        }
    }
}

TEST(BigUint, ModPowEvenModuliMatchReference) {
    Rng rng(2025);
    for (const std::size_t bits : {64UL, 96UL, 512UL}) {
        BigUint modulus = BigUint::random_bits(bits, rng);
        if (modulus.is_odd()) modulus = modulus + BigUint(1);
        const BigUint base = BigUint::random_bits(bits + 3, rng);
        const BigUint exponent = BigUint::random_bits(bits, rng);
        EXPECT_EQ(BigUint::mod_pow(base, exponent, modulus),
                  reference_mod_pow(base, exponent, modulus))
            << bits;
    }
}

TEST(BigUint, CrtPrivateOpEqualsFullExponentiation) {
    for (const std::size_t bits : {96UL, 384UL, 512UL, 1024UL}) {
        Rng rng(bits + 1);
        const auto keys = fairbfl::crypto::generate_keypair(bits, rng);
        const auto& priv = keys.priv;
        EXPECT_EQ(priv.p * priv.q, priv.n);
        // Residues that stress Garner's recombination: zero, one, n - 1,
        // the factors themselves (m1 or m2 vanishes), and random values.
        std::vector<BigUint> inputs{BigUint{}, BigUint(1),
                                    priv.n - BigUint(1), priv.p, priv.q};
        for (int i = 0; i < 8; ++i)
            inputs.push_back(BigUint::random_below(priv.n, rng));
        for (const BigUint& m : inputs)
            EXPECT_EQ(fairbfl::crypto::private_op(priv, m),
                      BigUint::mod_pow(m, priv.d, priv.n))
                << bits << "-bit key, m = " << m.to_hex();
    }
}

TEST(BigUint, Gcd) {
    EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
    EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(5)), BigUint(1));
    EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(9)), BigUint(9));
}

TEST(BigUint, ModInverse) {
    // 3 * 4 = 12 = 1 mod 11.
    const auto inv = BigUint::mod_inverse(BigUint(3), BigUint(11));
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(*inv, BigUint(4));
    // Not coprime -> nullopt.
    EXPECT_FALSE(BigUint::mod_inverse(BigUint(6), BigUint(9)).has_value());
}

TEST(BigUint, ModInverseRandomRoundTrip) {
    Rng rng(99);
    const BigUint m = BigUint::from_hex("fffffffb");  // prime
    for (int i = 0; i < 30; ++i) {
        const BigUint a =
            BigUint(static_cast<std::uint64_t>(rng.uniform_int(2, 1 << 30)));
        const auto inv = BigUint::mod_inverse(a, m);
        ASSERT_TRUE(inv.has_value());
        EXPECT_EQ((a * *inv) % m, BigUint(1));
    }
}

TEST(BigUint, RandomBitsHasExactWidth) {
    Rng rng(11);
    for (const std::size_t bits : {8UL, 32UL, 33UL, 64UL, 127UL, 256UL}) {
        const BigUint v = BigUint::random_bits(bits, rng);
        EXPECT_EQ(v.bit_length(), bits);
    }
}

TEST(BigUint, RandomBelowIsBelow) {
    Rng rng(12);
    const BigUint bound = BigUint::from_hex("123456789");
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(BigUint::random_below(bound, rng), bound);
}

TEST(BigUint, PrimalityKnownValues) {
    Rng rng(13);
    for (const std::uint64_t p : {2ULL, 3ULL, 5ULL, 104729ULL, 1000003ULL})
        EXPECT_TRUE(BigUint::is_probable_prime(BigUint(p), 20, rng)) << p;
    for (const std::uint64_t c : {1ULL, 4ULL, 104730ULL, 1000001ULL,
                                  561ULL /* Carmichael */})
        EXPECT_FALSE(BigUint::is_probable_prime(BigUint(c), 20, rng)) << c;
}

TEST(BigUint, GeneratePrimeHasRequestedWidthAndIsPrime) {
    Rng rng(14);
    const BigUint p = BigUint::generate_prime(96, rng);
    EXPECT_EQ(p.bit_length(), 96U);
    EXPECT_TRUE(BigUint::is_probable_prime(p, 30, rng));
}

}  // namespace

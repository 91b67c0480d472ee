#include "crypto/rsa.hpp"

#include <stdexcept>
#include <utility>

namespace fairbfl::crypto {

namespace {

constexpr std::uint64_t kPublicExponent = 65537;

/// EMSA-PKCS1-v1.5 style encoding of a SHA-256 digest into `width` bytes:
/// 0x00 0x01 0xFF...0xFF 0x00 || digest.  Requires width >= digest + 11,
/// i.e. a modulus of at least kMinSigningKeyBits.
BigUint emsa_encode(const Digest& digest, std::size_t width) {
    if (8 * width < kMinSigningKeyBits)
        throw std::length_error("RSA modulus too small for EMSA encoding");
    std::vector<std::uint8_t> em(width, 0xFF);
    em[0] = 0x00;
    em[1] = 0x01;
    em[width - digest.size() - 1] = 0x00;
    std::copy(digest.begin(), digest.end(),
              em.begin() + static_cast<std::ptrdiff_t>(width - digest.size()));
    return BigUint::from_bytes_be(em);
}

}  // namespace

RsaKeyPair generate_keypair(std::size_t bits, support::Rng& rng) {
    if (bits < 96 || bits % 2 != 0)
        throw std::invalid_argument(
            "generate_keypair: modulus must be an even bit count >= 96");
    const BigUint e(kPublicExponent);
    const std::size_t half = bits / 2;
    for (;;) {
        const BigUint p = BigUint::generate_prime(half, rng);
        BigUint q = BigUint::generate_prime(half, rng);
        if (p == q) continue;
        const BigUint n = p * q;
        if (n.bit_length() != bits) continue;  // product lost a bit; retry
        const BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
        const auto d = BigUint::mod_inverse(e, phi);
        if (!d.has_value()) continue;  // gcd(e, phi) != 1; retry
        // p != q are both prime, so q is invertible mod p.
        BigUint qinv = *BigUint::mod_inverse(q, p);
        BigUint dp = *d % (p - BigUint(1));
        BigUint dq = *d % (q - BigUint(1));
        return RsaKeyPair{
            RsaPublicKey{n, e},
            RsaPrivateKey{.n = n,
                          .d = *d,
                          .p = p,
                          .q = std::move(q),
                          .dp = std::move(dp),
                          .dq = std::move(dq),
                          .qinv = std::move(qinv)}};
    }
}

BigUint private_op(const RsaPrivateKey& key, const BigUint& c) {
    // Garner: m1 = c^dp mod p, m2 = c^dq mod q,
    // m = m2 + q * (qinv * (m1 - m2) mod p).
    const BigUint m1 = BigUint::mod_pow(c, key.dp, key.p);
    const BigUint m2 = BigUint::mod_pow(c, key.dq, key.q);
    const BigUint m2_mod_p = m2 % key.p;
    const BigUint diff =
        m1 >= m2_mod_p ? m1 - m2_mod_p : m1 + key.p - m2_mod_p;
    return m2 + key.q * ((key.qinv * diff) % key.p);
}

RsaSignature sign_digest(const RsaPrivateKey& key, const Digest& digest) {
    const std::size_t width = key.modulus_bytes();
    const BigUint m = emsa_encode(digest, width);
    return private_op(key, m).to_bytes_be(width);
}

bool verify_digest(const RsaPublicKey& key, const Digest& digest,
                   std::span<const std::uint8_t> signature) {
    const std::size_t width = key.modulus_bytes();
    if (signature.size() != width) return false;
    const BigUint s = BigUint::from_bytes_be(signature);
    if (s >= key.n) return false;
    const BigUint m = BigUint::mod_pow(s, key.e, key.n);
    try {
        return m == emsa_encode(digest, width);
    } catch (const std::length_error&) {
        return false;
    }
}

RsaSignature sign_payload(const RsaPrivateKey& key,
                          std::span<const std::uint8_t> payload) {
    return sign_digest(key, Sha256::hash(payload));
}

bool verify_payload(const RsaPublicKey& key,
                    std::span<const std::uint8_t> payload,
                    std::span<const std::uint8_t> signature) {
    return verify_digest(key, Sha256::hash(payload), signature);
}

std::vector<std::uint8_t> encrypt(const RsaPublicKey& key,
                                  std::span<const std::uint8_t> message) {
    const std::size_t width = key.modulus_bytes();
    if (message.size() + 1 > width)
        throw std::length_error("RSA encrypt: message too long for modulus");
    // Prefix a 0x01 byte so leading zero bytes of the message survive the
    // integer round-trip.
    std::vector<std::uint8_t> padded;
    padded.reserve(message.size() + 1);
    padded.push_back(0x01);
    padded.insert(padded.end(), message.begin(), message.end());
    const BigUint m = BigUint::from_bytes_be(padded);
    if (m >= key.n) throw std::length_error("RSA encrypt: message >= modulus");
    return BigUint::mod_pow(m, key.e, key.n).to_bytes_be(width);
}

std::vector<std::uint8_t> decrypt(const RsaPrivateKey& key,
                                  std::span<const std::uint8_t> ciphertext) {
    if (ciphertext.size() != key.modulus_bytes())
        throw std::length_error("RSA decrypt: bad ciphertext length");
    const BigUint c = BigUint::from_bytes_be(ciphertext);
    // Like verify_digest's s >= n check: a ciphertext integer outside
    // [0, n) is malformed, never silently reduced.
    if (c >= key.n)
        throw std::runtime_error("RSA decrypt: ciphertext >= modulus");
    const BigUint m = private_op(key, c);
    std::vector<std::uint8_t> bytes =
        m.to_bytes_be((m.bit_length() + 7) / 8);
    if (bytes.empty() || bytes[0] != 0x01)
        throw std::runtime_error("RSA decrypt: padding marker missing");
    bytes.erase(bytes.begin());
    return bytes;
}

}  // namespace fairbfl::crypto

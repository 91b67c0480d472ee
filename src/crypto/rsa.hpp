#pragma once
// Textbook-RSA identity layer (paper §4.2 / Figure 2).
//
// Each client holds a private key derived from its ID; miners hold the
// matching public keys and verify every gradient transaction's signature
// before accepting it.  Signatures are RSASSA-PKCS1-v1.5-style over a
// SHA-256 digest (EMSA padding 0x00 0x01 0xFF.. 0x00 || digest).
//
// Private-key operations (signing, decryption) always run through the CRT
// parameters: two half-width exponentiations recombined by Garner's
// formula, about 4x cheaper than one full-width exponentiation.
//
// Key sizes default to 512 bits: in this *simulation* substrate the RSA
// layer exists to exercise the protocol path (sign -> verify -> reject on
// tamper), not to resist real adversaries.  Sizes up to 2048 bits work
// and are covered by tests.

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/sha256.hpp"
#include "support/rng.hpp"

namespace fairbfl::crypto {

struct RsaPublicKey {
    BigUint n;  ///< modulus
    BigUint e;  ///< public exponent (65537)

    /// Modulus size in whole bytes (ceil).
    [[nodiscard]] std::size_t modulus_bytes() const {
        return (n.bit_length() + 7) / 8;
    }
};

struct RsaPrivateKey {
    BigUint n;     ///< modulus
    BigUint d;     ///< private exponent
    BigUint p;     ///< first prime factor of n
    BigUint q;     ///< second prime factor of n
    BigUint dp;    ///< d mod (p - 1)
    BigUint dq;    ///< d mod (q - 1)
    BigUint qinv;  ///< q^{-1} mod p

    [[nodiscard]] std::size_t modulus_bytes() const {
        return (n.bit_length() + 7) / 8;
    }
};

struct RsaKeyPair {
    RsaPublicKey pub;
    RsaPrivateKey priv;
};

/// Generates an RSA key pair with a modulus of exactly `bits` bits
/// (p and q are bits/2-bit primes; regenerated until the product has the
/// requested width and e is invertible).  Deterministic given `rng`.
[[nodiscard]] RsaKeyPair generate_keypair(std::size_t bits, support::Rng& rng);

/// The raw private-key operation c^d mod n, computed by CRT from the
/// factors.  Requires c < n.
[[nodiscard]] BigUint private_op(const RsaPrivateKey& key, const BigUint& c);

/// An RSA signature: the integer s = EMSA(digest)^d mod n, serialized
/// big-endian at modulus width.
using RsaSignature = std::vector<std::uint8_t>;

/// Smallest modulus that can carry a signature: the EMSA encoding needs the
/// 32-byte digest plus 11 bytes of padding, 43 bytes in all.
inline constexpr std::size_t kMinSigningKeyBits =
    8 * (std::tuple_size_v<Digest> + 11);

/// Signs a SHA-256 digest.  Throws std::length_error when the modulus is
/// narrower than kMinSigningKeyBits.
[[nodiscard]] RsaSignature sign_digest(const RsaPrivateKey& key,
                                       const Digest& digest);

/// Verifies a signature over a SHA-256 digest.  Constant-shape: returns
/// false on any mismatch (wrong key, tampered message, malformed length).
[[nodiscard]] bool verify_digest(const RsaPublicKey& key, const Digest& digest,
                                 std::span<const std::uint8_t> signature);

/// Convenience: sign/verify a raw byte payload (hashes internally).
[[nodiscard]] RsaSignature sign_payload(const RsaPrivateKey& key,
                                        std::span<const std::uint8_t> payload);
[[nodiscard]] bool verify_payload(const RsaPublicKey& key,
                                  std::span<const std::uint8_t> payload,
                                  std::span<const std::uint8_t> signature);

/// Raw RSA encryption of a short message (must be numerically < n).  The
/// paper mentions gradients "can be encrypted using RSA"; in practice one
/// encrypts a symmetric key -- this primitive models that handshake.
[[nodiscard]] std::vector<std::uint8_t> encrypt(
    const RsaPublicKey& key, std::span<const std::uint8_t> message);
/// Throws std::length_error on a wrong-length ciphertext and
/// std::runtime_error when its integer is >= n or the padding marker is
/// missing.
[[nodiscard]] std::vector<std::uint8_t> decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext);

}  // namespace fairbfl::crypto

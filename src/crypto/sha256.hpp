#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for block hashing, the proof-of-work puzzle (paper Eq. 4:
// H(nonce + Block) < Target), Merkle trees, and as the digest inside RSA
// signatures (Figure 2).
//
// Buffering and padding live here; the 64-byte block compression is
// support::simd::sha256_blocks(), which runs on the x86 SHA extensions
// when CPUID reports them and on the portable FIPS 180-4 loop otherwise.
// The choice is made once per process, by CPUID alone (no mode, flag or
// environment variable), and cannot show in the output: both variants
// compute the same integer rounds, so every digest -- and every
// signature, block hash and PoW result built on one -- is identical.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace fairbfl::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    Sha256() noexcept { reset(); }

    void reset() noexcept;
    void update(std::span<const std::uint8_t> data) noexcept;
    void update(std::string_view text) noexcept;
    /// Finalizes and returns the digest.  The hasher must be reset() before
    /// reuse.
    [[nodiscard]] Digest finish() noexcept;

    /// One-shot helpers.
    [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data) noexcept;
    [[nodiscard]] static Digest hash(std::string_view text) noexcept;

private:
    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffer_len_ = 0;
    std::uint64_t total_bits_ = 0;
};

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string to_hex(const Digest& digest);

/// Interprets the first 8 bytes of the digest as a big-endian integer;
/// used to compare a block hash against the PoW target (Eq. 4).
[[nodiscard]] std::uint64_t leading64(const Digest& digest) noexcept;

/// Number of leading zero bits of the digest (a convenience for difficulty
/// assertions in tests).
[[nodiscard]] int leading_zero_bits(const Digest& digest) noexcept;

}  // namespace fairbfl::crypto

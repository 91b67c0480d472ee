#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "support/simd.hpp"

namespace fairbfl::crypto {

void Sha256::reset() noexcept {
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    buffer_len_ = 0;
    total_bits_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
    // An empty span may carry a null data(); memcpy from null is undefined
    // even for zero bytes, so there is nothing to do and nothing to touch.
    if (data.empty()) return;
    total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
    std::size_t offset = 0;
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(data.size(), 64 - buffer_len_);
        std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset += take;
        if (buffer_len_ == 64) {
            support::simd::sha256_blocks(state_.data(), buffer_.data(), 1);
            buffer_len_ = 0;
        }
    }
    // Every whole block of the caller's data in one call, so the kernel
    // keeps the state in registers across them.
    const std::size_t blocks = (data.size() - offset) / 64;
    if (blocks > 0) {
        support::simd::sha256_blocks(state_.data(), data.data() + offset,
                                     blocks);
        offset += blocks * 64;
    }
    if (offset < data.size()) {
        buffer_len_ = data.size() - offset;
        std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
    }
}

void Sha256::update(std::string_view text) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Digest Sha256::finish() noexcept {
    const std::uint64_t bits = total_bits_;
    // Padding: 0x80, zeros, then the 64-bit big-endian bit count.
    const std::uint8_t pad_start = 0x80;
    update(std::span<const std::uint8_t>(&pad_start, 1));
    total_bits_ -= 8;  // padding is not message content
    static constexpr std::array<std::uint8_t, 64> zeros{};
    while (buffer_len_ != 56) {
        const std::size_t gap = buffer_len_ < 56 ? 56 - buffer_len_
                                                 : 64 - buffer_len_ + 56;
        const std::size_t take = std::min<std::size_t>(gap, 64);
        update(std::span<const std::uint8_t>(zeros.data(), take));
        total_bits_ -= static_cast<std::uint64_t>(take) * 8;
    }
    std::array<std::uint8_t, 8> length_bytes{};
    for (int i = 0; i < 8; ++i)
        length_bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    update(length_bytes);

    Digest digest{};
    for (std::size_t i = 0; i < 8; ++i) {
        digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return digest;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finish();
}

Digest Sha256::hash(std::string_view text) noexcept {
    Sha256 hasher;
    hasher.update(text);
    return hasher.finish();
}

std::string to_hex(const Digest& digest) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (const std::uint8_t byte : digest) {
        out += kHex[byte >> 4];
        out += kHex[byte & 0xF];
    }
    return out;
}

std::uint64_t leading64(const Digest& digest) noexcept {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value = (value << 8) | digest[static_cast<std::size_t>(i)];
    return value;
}

int leading_zero_bits(const Digest& digest) noexcept {
    int zeros = 0;
    for (const std::uint8_t byte : digest) {
        if (byte == 0) {
            zeros += 8;
            continue;
        }
        zeros += std::countl_zero(byte);
        break;
    }
    return zeros;
}

}  // namespace fairbfl::crypto

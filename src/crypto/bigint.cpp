#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace fairbfl::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

BigUint::BigUint(std::uint64_t value) {
    if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
    if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigUint::trim() noexcept {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_hex(std::string_view hex) {
    BigUint out;
    if (hex.empty()) return out;
    out.limbs_.assign((hex.size() + 7) / 8, 0);
    std::size_t bit = 0;
    for (std::size_t i = hex.size(); i-- > 0;) {
        const char c = hex[i];
        std::uint32_t nibble = 0;
        if (c >= '0' && c <= '9') nibble = static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') nibble = static_cast<std::uint32_t>(c - 'A' + 10);
        else throw std::invalid_argument("BigUint::from_hex: non-hex digit");
        out.limbs_[bit / 32] |= nibble << (bit % 32);
        bit += 4;
    }
    out.trim();
    return out;
}

BigUint BigUint::from_bytes_be(std::span<const std::uint8_t> bytes) {
    BigUint out;
    out.limbs_.assign((bytes.size() + 3) / 4, 0);
    std::size_t shift = 0;
    for (std::size_t i = bytes.size(); i-- > 0;) {
        out.limbs_[shift / 32] |=
            static_cast<std::uint32_t>(bytes[i]) << (shift % 32);
        shift += 8;
    }
    out.trim();
    return out;
}

std::string BigUint::to_hex() const {
    if (is_zero()) return "0";
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(limbs_.size() * 8);
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int nib = 7; nib >= 0; --nib) {
            out += kHex[(limbs_[i] >> (4 * nib)) & 0xF];
        }
    }
    const auto first = out.find_first_not_of('0');
    return out.substr(first);
}

std::vector<std::uint8_t> BigUint::to_bytes_be(std::size_t width) const {
    if (bit_length() > width * 8)
        throw std::length_error("BigUint::to_bytes_be: value wider than width");
    std::vector<std::uint8_t> bytes(width, 0);
    for (std::size_t i = 0; i < width; ++i) {
        const std::size_t shift = 8 * i;
        const std::size_t limb = shift / 32;
        if (limb >= limbs_.size()) break;
        bytes[width - 1 - i] =
            static_cast<std::uint8_t>(limbs_[limb] >> (shift % 32));
    }
    return bytes;
}

std::size_t BigUint::bit_length() const noexcept {
    if (limbs_.empty()) return 0;
    const std::uint32_t top = limbs_.back();
    std::size_t bits = (limbs_.size() - 1) * 32;
    return bits + (32U - static_cast<std::size_t>(std::countl_zero(top)));
}

bool BigUint::bit(std::size_t i) const noexcept {
    const std::size_t limb = i / 32;
    if (limb >= limbs_.size()) return false;
    return (limbs_[limb] >> (i % 32)) & 1U;
}

std::uint64_t BigUint::low_u64() const noexcept {
    std::uint64_t v = limbs_.empty() ? 0 : limbs_[0];
    if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    return v;
}

std::strong_ordering BigUint::operator<=>(const BigUint& rhs) const noexcept {
    if (limbs_.size() != rhs.limbs_.size())
        return limbs_.size() <=> rhs.limbs_.size();
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
    }
    return std::strong_ordering::equal;
}

BigUint BigUint::operator+(const BigUint& rhs) const {
    BigUint out;
    const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
    out.limbs_.reserve(n + 1);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = carry;
        if (i < limbs_.size()) sum += limbs_[i];
        if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
        out.limbs_.push_back(static_cast<std::uint32_t>(sum));
        carry = sum >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
    return out;
}

BigUint BigUint::operator-(const BigUint& rhs) const {
    assert(*this >= rhs && "BigUint subtraction would underflow");
    BigUint out;
    out.limbs_.reserve(limbs_.size());
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
        if (i < rhs.limbs_.size())
            diff -= static_cast<std::int64_t>(rhs.limbs_[i]);
        if (diff < 0) {
            diff += static_cast<std::int64_t>(kBase);
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.limbs_.push_back(static_cast<std::uint32_t>(diff));
    }
    out.trim();
    return out;
}

BigUint BigUint::operator*(const BigUint& rhs) const {
    if (is_zero() || rhs.is_zero()) return {};
    BigUint out;
    out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::uint64_t carry = 0;
        const std::uint64_t a = limbs_[i];
        for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
            std::uint64_t cur = out.limbs_[i + j] + a * rhs.limbs_[j] + carry;
            out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
        }
        std::size_t k = i + rhs.limbs_.size();
        while (carry) {
            const std::uint64_t cur = out.limbs_[k] + carry;
            out.limbs_[k] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
            ++k;
        }
    }
    out.trim();
    return out;
}

BigUint BigUint::operator<<(std::size_t bits) const {
    if (is_zero() || bits == 0) {
        BigUint out = *this;
        return out;
    }
    const std::size_t limb_shift = bits / 32;
    const std::size_t bit_shift = bits % 32;
    BigUint out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i])
                                << bit_shift;
        out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
        out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
    }
    out.trim();
    return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
    const std::size_t limb_shift = bits / 32;
    if (limb_shift >= limbs_.size()) return {};
    const std::size_t bit_shift = bits % 32;
    BigUint out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
        std::uint64_t v =
            static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
            v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
                 << (32 - bit_shift);
        }
        out.limbs_[i] = static_cast<std::uint32_t>(v);
    }
    out.trim();
    return out;
}

BigUintDivMod BigUint::divmod(const BigUint& divisor) const {
    if (divisor.is_zero()) throw std::domain_error("BigUint division by zero");
    if (*this < divisor) return {BigUint{}, *this};

    // Single-limb divisor fast path.
    if (divisor.limbs_.size() == 1) {
        const std::uint64_t d = divisor.limbs_[0];
        BigUint quotient;
        quotient.limbs_.assign(limbs_.size(), 0);
        std::uint64_t rem = 0;
        for (std::size_t i = limbs_.size(); i-- > 0;) {
            const std::uint64_t cur = (rem << 32) | limbs_[i];
            quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
            rem = cur % d;
        }
        quotient.trim();
        return {std::move(quotient), BigUint(rem)};
    }

    // Knuth TAOCP vol.2 Algorithm D with base 2^32.
    const int shift = std::countl_zero(divisor.limbs_.back());
    const BigUint u = *this << static_cast<std::size_t>(shift);
    const BigUint v = divisor << static_cast<std::size_t>(shift);
    const std::size_t n = v.limbs_.size();
    const std::size_t m = u.limbs_.size() - n;

    std::vector<std::uint32_t> un(u.limbs_);
    un.push_back(0);  // u has m+n+1 digits after normalization
    const std::vector<std::uint32_t>& vn = v.limbs_;

    BigUint quotient;
    quotient.limbs_.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        // Estimate qhat = (un[j+n]*B + un[j+n-1]) / vn[n-1].
        const std::uint64_t numerator =
            (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
        std::uint64_t qhat = numerator / vn[n - 1];
        std::uint64_t rhat = numerator % vn[n - 1];
        while (qhat >= kBase ||
               qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
            --qhat;
            rhat += vn[n - 1];
            if (rhat >= kBase) break;
        }

        // Multiply-subtract qhat * v from u[j .. j+n].
        std::int64_t borrow = 0;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t product = qhat * vn[i] + carry;
            carry = product >> 32;
            std::int64_t diff = static_cast<std::int64_t>(un[i + j]) -
                                static_cast<std::int64_t>(product & 0xFFFFFFFF) -
                                borrow;
            if (diff < 0) {
                diff += static_cast<std::int64_t>(kBase);
                borrow = 1;
            } else {
                borrow = 0;
            }
            un[i + j] = static_cast<std::uint32_t>(diff);
        }
        std::int64_t top = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
        if (top < 0) {
            // qhat was one too large: add v back once.
            --qhat;
            std::uint64_t carry2 = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t sum = static_cast<std::uint64_t>(un[i + j]) +
                                          vn[i] + carry2;
                un[i + j] = static_cast<std::uint32_t>(sum);
                carry2 = sum >> 32;
            }
            top += static_cast<std::int64_t>(carry2) +
                   static_cast<std::int64_t>(kBase);
        }
        un[j + n] = static_cast<std::uint32_t>(top);
        quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
    }
    quotient.trim();

    BigUint remainder;
    remainder.limbs_.assign(un.begin(),
                            un.begin() + static_cast<std::ptrdiff_t>(n));
    remainder.trim();
    remainder = remainder >> static_cast<std::size_t>(shift);
    return {std::move(quotient), std::move(remainder)};
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic (odd modulus), used by mod_pow.

namespace {
using Word = std::uint64_t;
using Wide = unsigned __int128;
constexpr std::size_t kWindowBits = 4;
constexpr std::size_t kWindowSize = std::size_t{1} << kWindowBits;
}  // namespace

/// Fixed-width Montgomery context for an odd modulus N of k 64-bit words,
/// R = 2^(64k).  Products use 128-bit intermediates (CIOS), and every
/// buffer -- the 16-entry window table included -- is sized once at
/// construction, so the exponentiation loop never touches the heap.
class Montgomery64 {
public:
    explicit Montgomery64(const BigUint& modulus)
        : k_((modulus.limbs_.size() + 1) / 2),
          n_(k_),
          r2_(k_),
          scratch_(k_ + 2),
          table_(kWindowSize * k_),
          acc_(k_) {
        load(modulus, n_.data());
        // -N^{-1} mod 2^64 by Newton iteration: n0 * n0 = 1 mod 8 seeds
        // three correct bits, and each step doubles them.
        const Word n0 = n_[0];
        Word inv = n0;
        for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
        nprime_ = ~inv + 1;
        // R^2 mod N converts into Montgomery form.
        load((BigUint(1) << (128 * k_)) % modulus, r2_.data());
    }

    /// base^exponent mod N for base < N and a non-zero exponent.
    /// Left-to-right fixed 4-bit windows: table[d] = base^d * R for
    /// d = 1..15, then per window four squarings and at most one multiply.
    /// The top window is never zero, so table[0] is never read.
    [[nodiscard]] BigUint pow(const BigUint& base, const BigUint& exponent) {
        const std::size_t k = k_;
        Word* table = table_.data();
        Word* acc = acc_.data();
        load(base, acc);
        mul(acc, r2_.data(), table + k);
        for (std::size_t d = 2; d < kWindowSize; ++d)
            mul(table + (d - 1) * k, table + k, table + d * k);

        const std::size_t windows =
            (exponent.bit_length() + kWindowBits - 1) / kWindowBits;
        std::copy_n(table + window(exponent, windows - 1) * k, k, acc);
        for (std::size_t w = windows - 1; w-- > 0;) {
            for (std::size_t s = 0; s < kWindowBits; ++s) mul(acc, acc, acc);
            const std::size_t digit = window(exponent, w);
            if (digit != 0) mul(acc, table + digit * k, acc);
        }
        // Out of Montgomery form: multiply by plain 1 (table[0] is free).
        load(BigUint(1), table);
        mul(acc, table, acc);
        return from_words(acc_);
    }

private:
    /// out = a * b * R^{-1} mod N for a, b < N; out may alias a or b.
    void mul(const Word* a, const Word* b, Word* out) noexcept {
        const std::size_t k = k_;
        const Word* n = n_.data();
        Word* t = scratch_.data();
        std::fill(t, t + k + 2, 0);
        for (std::size_t i = 0; i < k; ++i) {
            // t += a * b[i]
            const Word bi = b[i];
            Word carry = 0;
            for (std::size_t j = 0; j < k; ++j) {
                const Wide cur = static_cast<Wide>(a[j]) * bi + t[j] + carry;
                t[j] = static_cast<Word>(cur);
                carry = static_cast<Word>(cur >> 64);
            }
            Wide cur = static_cast<Wide>(t[k]) + carry;
            t[k] = static_cast<Word>(cur);
            t[k + 1] = static_cast<Word>(cur >> 64);
            // t = (t + m * N) / 2^64 with m chosen to clear the low word.
            const Word m = t[0] * nprime_;
            cur = static_cast<Wide>(m) * n[0] + t[0];
            carry = static_cast<Word>(cur >> 64);
            for (std::size_t j = 1; j < k; ++j) {
                cur = static_cast<Wide>(m) * n[j] + t[j] + carry;
                t[j - 1] = static_cast<Word>(cur);
                carry = static_cast<Word>(cur >> 64);
            }
            cur = static_cast<Wide>(t[k]) + carry;
            t[k - 1] = static_cast<Word>(cur);
            t[k] = t[k + 1] + static_cast<Word>(cur >> 64);
        }
        // t < 2N: one conditional subtraction lands in [0, N).
        bool ge = t[k] != 0;
        if (!ge) {
            ge = true;
            for (std::size_t j = k; j-- > 0;) {
                if (t[j] != n[j]) {
                    ge = t[j] > n[j];
                    break;
                }
            }
        }
        if (!ge) {
            std::copy_n(t, k, out);
            return;
        }
        Word borrow = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const Wide diff = static_cast<Wide>(t[j]) - n[j] - borrow;
            out[j] = static_cast<Word>(diff);
            borrow = static_cast<Word>(diff >> 64) & 1U;
        }
    }

    /// The 4-bit exponent digit w (bits 4w .. 4w+3).  Windows never
    /// straddle a 32-bit limb.
    [[nodiscard]] static std::size_t window(const BigUint& exponent,
                                            std::size_t w) noexcept {
        const std::size_t bit = w * kWindowBits;
        return (exponent.limbs_[bit / 32] >> (bit % 32)) & (kWindowSize - 1);
    }

    /// Writes `value` (< 2^(64k)) into k little-endian words.
    void load(const BigUint& value, Word* out) const noexcept {
        std::fill(out, out + k_, 0);
        for (std::size_t i = 0; i < value.limbs_.size(); ++i)
            out[i / 2] |= static_cast<Word>(value.limbs_[i]) << (32 * (i % 2));
    }

    [[nodiscard]] static BigUint from_words(std::span<const Word> words) {
        BigUint out;
        out.limbs_.resize(2 * words.size());
        for (std::size_t i = 0; i < words.size(); ++i) {
            out.limbs_[2 * i] = static_cast<std::uint32_t>(words[i]);
            out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(words[i] >> 32);
        }
        out.trim();
        return out;
    }

    std::size_t k_;
    std::vector<Word> n_;
    std::vector<Word> r2_;
    std::vector<Word> scratch_;  ///< k + 2 words of CIOS accumulator
    std::vector<Word> table_;    ///< kWindowSize entries of k words
    std::vector<Word> acc_;
    Word nprime_ = 0;
};

BigUint BigUint::mod_pow(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus) {
    if (modulus.is_zero()) throw std::domain_error("mod_pow: zero modulus");
    if (modulus == BigUint(1)) return {};
    if (exponent.is_zero()) return BigUint(1);

    if (modulus.is_odd())
        return Montgomery64(modulus).pow(base % modulus, exponent);

    // Generic square-and-multiply with division-based reduction.
    BigUint result(1);
    BigUint acc = base % modulus;
    const std::size_t bits = exponent.bit_length();
    for (std::size_t i = 0; i < bits; ++i) {
        if (exponent.bit(i)) result = (result * acc) % modulus;
        if (i + 1 < bits) acc = (acc * acc) % modulus;
    }
    return result;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
    while (!b.is_zero()) {
        BigUint r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

std::optional<BigUint> BigUint::mod_inverse(const BigUint& a,
                                            const BigUint& m) {
    // Extended Euclid over non-negative values: track (old_r, r) and signed
    // Bezout coefficient for a as (sign, magnitude) pairs.
    BigUint old_r = a % m;
    BigUint r = m;
    BigUint old_s(1);
    BigUint s;
    bool old_s_neg = false;
    bool s_neg = false;

    while (!r.is_zero()) {
        const auto [q, rem] = old_r.divmod(r);
        old_r = std::move(r);
        r = rem;

        // new_s = old_s - q * s  (signed arithmetic on magnitudes)
        BigUint qs = q * s;
        BigUint new_s;
        bool new_s_neg = false;
        if (old_s_neg == s_neg) {
            if (old_s >= qs) {
                new_s = old_s - qs;
                new_s_neg = old_s_neg;
            } else {
                new_s = qs - old_s;
                new_s_neg = !old_s_neg;
            }
        } else {
            new_s = old_s + qs;
            new_s_neg = old_s_neg;
        }
        old_s = std::move(s);
        old_s_neg = s_neg;
        s = std::move(new_s);
        s_neg = new_s_neg;
    }

    if (old_r != BigUint(1)) return std::nullopt;  // not coprime
    BigUint inverse = old_s % m;
    if (old_s_neg && !inverse.is_zero()) inverse = m - inverse;
    return inverse;
}

BigUint BigUint::random_bits(std::size_t bits, support::Rng& rng) {
    if (bits == 0) return {};
    BigUint out;
    out.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : out.limbs_)
        limb = static_cast<std::uint32_t>(rng());
    // Zero the excess bits, then force the top bit so the width is exact.
    const std::size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
    std::uint32_t mask = top_bits == 32
                             ? 0xFFFFFFFFU
                             : ((1U << top_bits) - 1U);
    out.limbs_.back() &= mask;
    out.limbs_.back() |= 1U << (top_bits - 1);
    out.trim();
    return out;
}

BigUint BigUint::random_below(const BigUint& bound, support::Rng& rng) {
    if (bound.is_zero())
        throw std::domain_error("random_below: zero bound");
    const std::size_t bits = bound.bit_length();
    for (;;) {
        BigUint candidate;
        candidate.limbs_.assign((bits + 31) / 32, 0);
        for (auto& limb : candidate.limbs_)
            limb = static_cast<std::uint32_t>(rng());
        const std::size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
        const std::uint32_t mask =
            top_bits == 32 ? 0xFFFFFFFFU : ((1U << top_bits) - 1U);
        candidate.limbs_.back() &= mask;
        candidate.trim();
        if (candidate < bound) return candidate;
    }
}

bool BigUint::is_probable_prime(const BigUint& n, int rounds,
                                support::Rng& rng) {
    static constexpr std::uint32_t kSmallPrimes[] = {
        2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103};
    if (n < BigUint(2)) return false;
    for (const std::uint32_t p : kSmallPrimes) {
        if (n.limbs_.size() == 1 && n.limbs_[0] == p) return true;
        // Single-limb remainder, most significant limb first.
        std::uint64_t rem = 0;
        for (std::size_t i = n.limbs_.size(); i-- > 0;)
            rem = ((rem << 32) | n.limbs_[i]) % p;
        if (rem == 0) return false;
    }

    // n - 1 = d * 2^s with d odd.
    const BigUint n_minus_1 = n - BigUint(1);
    BigUint d = n_minus_1;
    std::size_t s = 0;
    while (!d.is_odd()) {
        d = d >> 1;
        ++s;
    }

    const BigUint two(2);
    const BigUint n_minus_3 = n - BigUint(3);
    for (int round = 0; round < rounds; ++round) {
        const BigUint a = random_below(n_minus_3, rng) + two;  // a in [2, n-2]
        BigUint x = mod_pow(a, d, n);
        if (x == BigUint(1) || x == n_minus_1) continue;
        bool witness = true;
        for (std::size_t i = 1; i < s; ++i) {
            x = (x * x) % n;
            if (x == n_minus_1) {
                witness = false;
                break;
            }
        }
        if (witness) return false;
    }
    return true;
}

BigUint BigUint::generate_prime(std::size_t bits, support::Rng& rng,
                                int mr_rounds) {
    if (bits < 8)
        throw std::invalid_argument("generate_prime: need >= 8 bits");
    for (;;) {
        BigUint candidate = random_bits(bits, rng);
        // Force odd.
        candidate.limbs_[0] |= 1U;
        if (is_probable_prime(candidate, mr_rounds, rng)) return candidate;
    }
}

}  // namespace fairbfl::crypto

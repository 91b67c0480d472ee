// SHA-256 block compression on the x86 SHA extensions -- the only TU in the
// tree compiled with -msha -msse4.1 (CMake sets the flags on exactly this
// file).  An exact kernel (see "Exact kernels" in simd.hpp): SHA-256 is
// integer arithmetic, so SHA256RNDS2/MSG1/MSG2 compute the very words the
// portable loop in simd.cpp computes, and every digest is identical.
// tests/test_sha256.cpp holds the two variants to memcmp equality.
//
// The instructions keep the eight working variables as two vectors, ABEF
// and CDGH (a in the high lane), and take W[t] + K[t] four rounds at a time.
//
// When the build cannot enable the SHA extensions (non-x86 target, flags
// rejected), the guard below compiles this TU down to a null kernel and
// sha256_blocks() stays on the portable loop.

#include "support/simd.hpp"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace fairbfl::support::simd {

namespace {

inline __m128i load(const void* p) noexcept {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// Rounds t..t+3: `w` holds W[t..t+3], `k` points at K[t].
inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w,
                        const std::uint32_t* k) noexcept {
    __m128i wk = _mm_add_epi32(w, load(k));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);  // now ABEF after 2 rounds
    wk = _mm_shuffle_epi32(wk, 0x0E);               // W+K[t+2], W+K[t+3]
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);  // ABEF after 4 rounds
}

/// W[t..t+3] from w16 = W[t-16..t-13], w12 = W[t-12..t-9],
/// w8 = W[t-8..t-5] and w4 = W[t-4..t-1].
inline __m128i schedule(__m128i w16, __m128i w12, __m128i w8,
                        __m128i w4) noexcept {
    const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                          _mm_alignr_epi8(w4, w8, 4));
    return _mm_sha256msg2_epu32(partial, w4);
}

void sha_ni_blocks(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count) {
    // Message words are big-endian: reverse the bytes of each 32-bit lane.
    const __m128i byte_swap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    const std::uint32_t* k = detail::kSha256RoundConstants;

    // (a b c d), (e f g h) -> ABEF, CDGH.
    const __m128i cdab = _mm_shuffle_epi32(load(state), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; count > 0; --count, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w0 = _mm_shuffle_epi8(load(blocks), byte_swap);
        __m128i w1 = _mm_shuffle_epi8(load(blocks + 16), byte_swap);
        __m128i w2 = _mm_shuffle_epi8(load(blocks + 32), byte_swap);
        __m128i w3 = _mm_shuffle_epi8(load(blocks + 48), byte_swap);
        four_rounds(abef, cdgh, w0, k);
        four_rounds(abef, cdgh, w1, k + 4);
        four_rounds(abef, cdgh, w2, k + 8);
        four_rounds(abef, cdgh, w3, k + 12);
        for (std::size_t t = 16; t < 64; t += 16) {
            w0 = schedule(w0, w1, w2, w3);
            four_rounds(abef, cdgh, w0, k + t);
            w1 = schedule(w1, w2, w3, w0);
            four_rounds(abef, cdgh, w1, k + t + 4);
            w2 = schedule(w2, w3, w0, w1);
            four_rounds(abef, cdgh, w2, k + t + 8);
            w3 = schedule(w3, w0, w1, w2);
            four_rounds(abef, cdgh, w3, k + t + 12);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF, CDGH -> (a b c d), (e f g h).
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace

namespace detail {
Sha256Blocks sha_ni_sha256_blocks() noexcept { return sha_ni_blocks; }
}  // namespace detail

}  // namespace fairbfl::support::simd

#else  // !(__SHA__ && __SSE4_1__)

namespace fairbfl::support::simd::detail {
Sha256Blocks sha_ni_sha256_blocks() noexcept { return nullptr; }
}  // namespace fairbfl::support::simd::detail

#endif

#include "support/simd.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <iterator>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace fairbfl::support::simd {

namespace {

// --- The pinned scalar kernels --------------------------------------------
// Byte-for-byte the accumulation orders of the pre-dispatch vecmath.cpp
// bodies; every committed fixed-seed series was produced by these loops.
// vecmath.cpp now routes through the table, so THIS file is the reference
// implementation -- never reassociate anything here.

double scalar_dot(const float* x, const float* y, std::size_t n) {
    // Strictly left-to-right: training and theta depend on these bits.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double scalar_dot_blocked(const float* x, const float* y, std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);
        a1 += static_cast<double>(x[i + 1]) * static_cast<double>(y[i + 1]);
        a2 += static_cast<double>(x[i + 2]) * static_cast<double>(y[i + 2]);
        a3 += static_cast<double>(x[i + 3]) * static_cast<double>(y[i + 3]);
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; i < n; ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double scalar_squared_distance(const float* x, const float* y,
                               std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

double scalar_squared_distance_blocked(const float* x, const float* y,
                                       std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double d0 =
            static_cast<double>(x[i]) - static_cast<double>(y[i]);
        const double d1 =
            static_cast<double>(x[i + 1]) - static_cast<double>(y[i + 1]);
        const double d2 =
            static_cast<double>(x[i + 2]) - static_cast<double>(y[i + 2]);
        const double d3 =
            static_cast<double>(x[i + 3]) - static_cast<double>(y[i + 3]);
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; i < n; ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

void scalar_axpy(float alpha, const float* x, float* y, std::size_t n) {
    // Elementwise, so the 4-way unroll is bit-identical to the plain loop.
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        y[i] += alpha * x[i];
        y[i + 1] += alpha * x[i + 1];
        y[i + 2] += alpha * x[i + 2];
        y[i + 3] += alpha * x[i + 3];
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_gemv(const float* a, std::size_t rows, std::size_t cols,
                 const float* x, const float* bias, float* out) {
    const float* base = a;
    const float* xp = x;
    std::size_t r = 0;
    // Four rows at a time: four independent left-to-right double chains
    // hide the FP-add latency that serializes a single `dot`.  The inner
    // loop is unrolled by two columns; each chain still receives its
    // products strictly in column order, so every row is bit-identical to
    // a lone `dot`.
    for (; r + 4 <= rows; r += 4) {
        const float* a0 = base + r * cols;
        const float* a1 = a0 + cols;
        const float* a2 = a1 + cols;
        const float* a3 = a2 + cols;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        std::size_t j = 0;
        for (; j + 2 <= cols; j += 2) {
            const double x0 = static_cast<double>(xp[j]);
            const double x1 = static_cast<double>(xp[j + 1]);
            s0 += static_cast<double>(a0[j]) * x0;
            s0 += static_cast<double>(a0[j + 1]) * x1;
            s1 += static_cast<double>(a1[j]) * x0;
            s1 += static_cast<double>(a1[j + 1]) * x1;
            s2 += static_cast<double>(a2[j]) * x0;
            s2 += static_cast<double>(a2[j + 1]) * x1;
            s3 += static_cast<double>(a3[j]) * x0;
            s3 += static_cast<double>(a3[j + 1]) * x1;
        }
        for (; j < cols; ++j) {
            const double xj = static_cast<double>(xp[j]);
            s0 += static_cast<double>(a0[j]) * xj;
            s1 += static_cast<double>(a1[j]) * xj;
            s2 += static_cast<double>(a2[j]) * xj;
            s3 += static_cast<double>(a3[j]) * xj;
        }
        if (bias == nullptr) {
            out[r] = static_cast<float>(s0);
            out[r + 1] = static_cast<float>(s1);
            out[r + 2] = static_cast<float>(s2);
            out[r + 3] = static_cast<float>(s3);
        } else {
            out[r] = bias[r] + static_cast<float>(s0);
            out[r + 1] = bias[r + 1] + static_cast<float>(s1);
            out[r + 2] = bias[r + 2] + static_cast<float>(s2);
            out[r + 3] = bias[r + 3] + static_cast<float>(s3);
        }
    }
    if (r + 2 <= rows) {
        // Two-row tail block: still two interleaved chains instead of
        // falling back to the latency-bound single dot.
        const float* a0 = base + r * cols;
        const float* a1 = a0 + cols;
        double s0 = 0.0, s1 = 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double xj = static_cast<double>(xp[j]);
            s0 += static_cast<double>(a0[j]) * xj;
            s1 += static_cast<double>(a1[j]) * xj;
        }
        if (bias == nullptr) {
            out[r] = static_cast<float>(s0);
            out[r + 1] = static_cast<float>(s1);
        } else {
            out[r] = bias[r] + static_cast<float>(s0);
            out[r + 1] = bias[r + 1] + static_cast<float>(s1);
        }
        r += 2;
    }
    if (r < rows) {
        const double s = scalar_dot(base + r * cols, x, cols);
        out[r] = bias == nullptr ? static_cast<float>(s)
                                 : bias[r] + static_cast<float>(s);
    }
}

void scalar_gemv_transpose_accumulate(const float* a, std::size_t rows,
                                      std::size_t cols, const float* d,
                                      float* out) {
    for (std::size_t r = 0; r < rows; ++r) {
        const float dr = d[r];
        const float* row = a + r * cols;
        for (std::size_t j = 0; j < cols; ++j) out[j] += dr * row[j];
    }
}

void scalar_outer_accumulate(const float* d, const float* x,
                             std::size_t rows, std::size_t cols, float* y) {
    for (std::size_t r = 0; r < rows; ++r)
        scalar_axpy(d[r], x, y + r * cols, cols);
}

void scalar_dot_and_norm(const float* x, const float* y, std::size_t n,
                         double* dot_out, double* x_norm2_out) {
    // Two independent strict chains; identical to calling dot() twice, so
    // the scalar cosine batch kernel keeps its pinned bits.
    *dot_out = scalar_dot(x, y, n);
    *x_norm2_out = scalar_dot(x, x, n);
}

// --- The exact 2x4 squared-distance tile (portable variant) ---------------
// Eight calls of the scalar blocked kernel: bit-identical by construction,
// and exactly what a CPU without AVX2 ran per pair before the tile existed.

void portable_tile(const float* x0, const float* x1, const float* const* y,
                   std::size_t n, double* out) {
    const float* const x[2] = {x0, x1};
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            out[4 * r + c] = scalar_squared_distance_blocked(x[r], y[c], n);
}

// --- SHA-256 block compression (portable variant) --------------------------
// The FIPS 180-4 loop the hasher has always run, now over `count` blocks
// per call; the SHA-extension variant in simd_sha.cpp must match it digest
// for digest.

void portable_sha256(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t count) {
    const std::uint32_t* k = detail::kSha256RoundConstants;
    for (; count > 0; --count, blocks += 64) {
        std::array<std::uint32_t, 64> w;
        for (std::size_t i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
                   (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
                   (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
                   static_cast<std::uint32_t>(blocks[4 * i + 3]);
        }
        for (std::size_t i = 16; i < 64; ++i) {
            const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                                     std::rotr(w[i - 15], 18) ^
                                     (w[i - 15] >> 3);
            const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                                     std::rotr(w[i - 2], 19) ^
                                     (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (std::size_t i = 0; i < 64; ++i) {
            const std::uint32_t s1 =
                std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + k[i] + w[i];
            const std::uint32_t s0 =
                std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

/// The SHA-256 variant for this CPU, resolved once.
Sha256Blocks served_sha256() noexcept {
    // CPUID only: the variants agree digest for digest, so Mode has no say.
    static const Sha256Blocks kernel = [] {
        const Sha256Blocks sha_ni = detail::sha_ni_sha256_blocks();
        return sha_ni != nullptr && cpu_supports_sha_ni() ? sha_ni
                                                          : portable_sha256;
    }();
    return kernel;
}

constexpr KernelTable kScalarTable = {
    scalar_dot,
    scalar_dot_blocked,
    scalar_squared_distance,
    scalar_squared_distance_blocked,
    scalar_axpy,
    scalar_gemv,
    scalar_gemv_transpose_accumulate,
    scalar_outer_accumulate,
    scalar_dot_and_norm,
    "scalar",
};

// --- Dispatch state --------------------------------------------------------

std::atomic<const KernelTable*> g_active{nullptr};

// Regression note (PR 9): publish() used to emit the kernels.dispatch
// telemetry counter directly, which made support depend on telemetry --
// the one upward edge in the tree, now rejected by the layer-deps
// analyzer.  The breadcrumb survives as an observer telemetry.cpp
// installs via set_dispatch_observer().
std::atomic<DispatchObserver> g_observer{nullptr};

const KernelTable* resolve(Mode mode) noexcept {
    if (mode != Mode::kScalar && cpu_supports_avx2_fma()) {
        const KernelTable* avx2 = detail::avx2_table();
        if (avx2 != nullptr) return avx2;
    }
    return &kScalarTable;
}

void publish(const KernelTable* table) noexcept {
    const KernelTable* previous = g_active.exchange(table);
    if (previous == table) return;
    // The one-time dispatch breadcrumb: perf artifacts read the observer-
    // fed counter to attribute a run to the table that served it.
    if (DispatchObserver observer =
            g_observer.load(std::memory_order_acquire)) {
        observer(table->name);
    }
}

// The one spelling of each Mode, indexed by its value: the env variable,
// set_mode_name() and requested_mode_name() all go through it.
constexpr const char* kModeNames[] = {"scalar", "simd", "auto"};
static_assert(std::size(kModeNames) ==
              static_cast<std::size_t>(Mode::kAuto) + 1);

bool parse_mode(const char* name, Mode* mode) noexcept {
    if (name == nullptr) return false;
    for (std::size_t m = 0; m < std::size(kModeNames); ++m) {
        if (std::strcmp(name, kModeNames[m]) == 0) {
            *mode = static_cast<Mode>(m);
            return true;
        }
    }
    return false;
}

std::atomic<Mode> g_requested{Mode::kScalar};

const KernelTable* resolve_from_env() noexcept {
    Mode mode = Mode::kScalar;  // unset/unknown: the pinned default
    (void)parse_mode(std::getenv("FAIRBFL_KERNELS"), &mode);
    g_requested.store(mode, std::memory_order_relaxed);
    const KernelTable* table = resolve(mode);
    // First-use race: both writers store the same resolved pointer, so
    // losing the exchange is harmless; publish() de-dups the telemetry.
    publish(table);
    return table;
}

}  // namespace

bool cpu_supports_avx2_fma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool cpu_supports_sha_ni() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
        (ecx & bit_SSE4_1) == 0)
        return false;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx & bit_SHA) != 0;
#else
    return false;
#endif
}

void set_dispatch_observer(DispatchObserver observer) noexcept {
    g_observer.store(observer, std::memory_order_release);
    if (observer != nullptr) {
        // Replay: dispatch may have resolved before the observer's TU
        // finished static init; both orders must yield the breadcrumb.
        const KernelTable* table = g_active.load(std::memory_order_acquire);
        if (table != nullptr) observer(table->name);
    }
}

void set_mode(Mode mode) noexcept {
    g_requested.store(mode, std::memory_order_relaxed);
    publish(resolve(mode));
}

bool set_mode_name(const char* name) noexcept {
    Mode mode = Mode::kScalar;
    if (!parse_mode(name, &mode)) return false;
    set_mode(mode);
    return true;
}

const char* requested_mode_name() noexcept {
    (void)active();  // first use: resolve FAIRBFL_KERNELS
    return kModeNames[static_cast<std::size_t>(
        g_requested.load(std::memory_order_relaxed))];
}

const KernelTable& active() noexcept {
    const KernelTable* table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) table = resolve_from_env();
    return *table;
}

const char* active_name() noexcept { return active().name; }

SquaredDistanceTile squared_distance_tile() noexcept {
    // CPUID only: the variants agree bit for bit, so Mode has no say.
    static const SquaredDistanceTile tile = [] {
        const SquaredDistanceTile avx2 = detail::avx2_squared_distance_tile();
        return avx2 != nullptr && cpu_supports_avx2_fma()
                   ? avx2
                   : portable_tile;
    }();
    return tile;
}

void sha256_blocks(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count) noexcept {
    served_sha256()(state, blocks, count);
}

const char* sha256_variant() noexcept {
    return served_sha256() == portable_sha256 ? "portable" : "sha_ni";
}

namespace detail {
const std::uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
Sha256Blocks portable_sha256_blocks() noexcept { return portable_sha256; }
const KernelTable& scalar_table() noexcept { return kScalarTable; }
SquaredDistanceTile portable_squared_distance_tile() noexcept {
    return portable_tile;
}
}  // namespace detail

}  // namespace fairbfl::support::simd

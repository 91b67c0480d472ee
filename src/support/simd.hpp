#pragma once
// Runtime-dispatched kernel table behind the vecmath/gemv/projection entry
// points, plus the CPUID-dispatched exact kernels (the squared-distance
// tile and the SHA-256 block compression).
//
// The scalar kernels in vecmath.cpp are bit-pinned: fixed-seed series,
// the batched==reference training equivalence, and the reward hex pins
// all depend on their exact accumulation order.  A SIMD+FMA variant
// necessarily rounds differently (fused multiply-adds skip the
// intermediate rounding; wide accumulators reassociate the chain), so the
// fast path cannot hide behind the bit-pin convention.  Instead the two
// live side by side in a function-pointer table:
//
//   * "scalar" -- the pinned reference kernels, byte-for-byte the loops
//     that produced every committed fixed-seed series.  The default: a
//     process that never opts in behaves exactly like the pre-dispatch
//     build on every ISA.
//   * "avx2"   -- AVX2+FMA variants (src/support/simd_avx2.cpp, compiled
//     with -mavx2 -mfma in its own TU).  Reduction kernels keep double
//     accumulation (floats widened before the FMA) but run four doubles
//     per chain; elementwise float kernels run eight lanes.  Covered by
//     the tolerance-based parity harness (tests/test_kernel_parity.cpp),
//     never by bit pins.
//
// Selection: FAIRBFL_KERNELS=scalar|simd|auto in the environment, or
// set_mode()/set_mode_name() from a CLI flag (--kernels= on fairbfl_sim /
// bench_perf_round).  "simd" and "auto" both probe CPUID at runtime and
// fall back to scalar when AVX2+FMA is absent -- the only difference is
// intent ("simd" is an explicit request benches use; "auto" is the
// deploy-anywhere spelling).  The resolved decision is emitted once as
// the "kernels.dispatch" telemetry counter (0 = scalar, 1 = avx2) so
// perf artifacts can attribute a fast run to the table that served it.
//
// Exact kernels are the one exception to the table.  A kernel whose every
// variant performs the scalar reference's operations in the scalar
// reference's order -- same widenings, same separate multiply and add
// (never FMA), same partial sums, same combine -- has a single rounding,
// so the scalar/simd choice has nothing to decide.  Such a kernel lives
// outside the KernelTable, is dispatched by CPUID alone (never by
// FAIRBFL_KERNELS or set_mode()), and is held to memcmp equality with the
// scalar reference, not to a tolerance.  There are two today: the 2x4
// squared-distance tile below, whose AVX2 lanes are exactly the four
// partial sums of the scalar table's squared_distance_blocked, and the
// SHA-256 block compression, whose x86 SHA-extension variant
// (simd_sha.cpp) computes the same FIPS 180-4 integer rounds as the
// portable loop, so every digest is identical whichever variant serves.
//
// docs/ARCHITECTURE.md ("Kernel dispatch & the tolerance-pin convention")
// carries the how-to for adding another variant.

#include <cstddef>
#include <cstdint>

namespace fairbfl::support::simd {

/// Requested dispatch policy (what the user asked for, not necessarily
/// what the CPU can serve -- see active()).
enum class Mode {
    kScalar = 0,  ///< pinned reference kernels, bit-identical everywhere
    kSimd = 1,    ///< widest supported table (scalar when CPU lacks AVX2+FMA)
    kAuto = 2,    ///< same probe as kSimd; the deploy-anywhere default knob
};

/// One resolved kernel set.  Raw pointers + sizes (not spans) so the
/// `-march`-gated TU needs nothing from the rest of the tree and the
/// indirect call stays a plain function pointer.
struct KernelTable {
    /// Strict left-to-right double-chain dot (training/theta discipline).
    /// The avx2 variant reassociates -- callers opted out of bit pins.
    double (*dot)(const float* x, const float* y, std::size_t n);
    /// Blocked dot: reassociated in every table (comparison-only).
    double (*dot_blocked)(const float* x, const float* y, std::size_t n);
    /// Strict squared Euclidean distance.
    double (*squared_distance)(const float* x, const float* y,
                               std::size_t n);
    /// Blocked squared distance (comparison-only consumers).
    double (*squared_distance_blocked)(const float* x, const float* y,
                                       std::size_t n);
    /// y += alpha * x (elementwise; exact in every table).
    void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
    /// Row-major rows x cols matrix-vector product; bias may be null.
    void (*gemv)(const float* a, std::size_t rows, std::size_t cols,
                 const float* x, const float* bias, float* out);
    /// out[j] += sum_r d[r] * a[r * cols + j], r applied in order.
    void (*gemv_transpose_accumulate)(const float* a, std::size_t rows,
                                      std::size_t cols, const float* d,
                                      float* out);
    /// Row r of y += d[r] * x.
    void (*outer_accumulate)(const float* d, const float* x,
                             std::size_t rows, std::size_t cols, float* y);
    /// Fused pass for the batched cosine kernel: *dot_out = dot(x, y) and
    /// *x_norm2_out = dot(x, x) in one traversal of x.
    void (*dot_and_norm)(const float* x, const float* y, std::size_t n,
                         double* dot_out, double* x_norm2_out);
    /// Diagnostic name ("scalar", "avx2") -- perf JSON `kernels` key.
    const char* name;
};

/// True when this CPU can run the AVX2+FMA table (always false off x86).
[[nodiscard]] bool cpu_supports_avx2_fma() noexcept;

/// Selects the table for `mode` (probing the CPU for kSimd/kAuto) and
/// makes it the active one.  Thread-safe; emits the dispatch telemetry
/// counter on every change of the resolved table.
void set_mode(Mode mode) noexcept;

/// set_mode from a CLI/environment spelling ("scalar" | "simd" | "auto").
/// Returns false (and changes nothing) for an unknown name.
bool set_mode_name(const char* name) noexcept;

/// The active kernel table.  First use resolves FAIRBFL_KERNELS from the
/// environment (unset or unrecognized -> scalar, the pinned default);
/// set_mode()/set_mode_name() override it for the rest of the process.
[[nodiscard]] const KernelTable& active() noexcept;

/// Name of the active table ("scalar" / "avx2") for headers and logs.
[[nodiscard]] const char* active_name() noexcept;

/// Spelling of the Mode the active table was resolved from ("scalar" |
/// "simd" | "auto"): the last set_mode(), else FAIRBFL_KERNELS (unset or
/// unknown -> "scalar").  The requested side of perf headers.
[[nodiscard]] const char* requested_mode_name() noexcept;

/// Notified with the table name whenever dispatch publishes a different
/// kernel table.  Must be noexcept: it can fire from whichever thread
/// first touches the dispatch state.
using DispatchObserver = void (*)(const char* table_name) noexcept;

/// Installs the dispatch observer (nullptr clears it) and, when a table
/// is already published, replays the current name so a late registration
/// still sees it.  Upward-dependency firewall: support must not include
/// telemetry (layer-deps), so the telemetry breadcrumb for kernel
/// dispatch registers itself through this hook instead (telemetry.cpp).
void set_dispatch_observer(DispatchObserver observer) noexcept;

/// Exact 2x4 squared-distance tile: out[4 * r + c] is the scalar table's
/// squared_distance_blocked(x_r, y[c], n) for r in {0, 1} (x_0 = x0,
/// x_1 = x1) and c in [0, 4), bit for bit.  In the AVX2 variant each row
/// load is shared by four columns and each column load by both rows.  y
/// holds four column pointers, each to n floats.
using SquaredDistanceTile = void (*)(const float* x0, const float* x1,
                                     const float* const* y, std::size_t n,
                                     double* out);

/// The tile variant for this CPU: AVX2 when CPUID reports it (and the
/// binary carries the AVX2 TU), else the portable variant (eight calls of
/// the scalar blocked kernel).  Resolved on first call; Mode never enters
/// into it (see "Exact kernels" above).
[[nodiscard]] SquaredDistanceTile squared_distance_tile() noexcept;

/// True when this CPU has the x86 SHA extensions and SSE4.1 (CPUID leaf 7
/// EBX bit 29, leaf 1 ECX bit 19); always false off x86.
[[nodiscard]] bool cpu_supports_sha_ni() noexcept;

/// Exact SHA-256 block compression (FIPS 180-4 section 6.2.2): folds
/// `count` consecutive 64-byte blocks starting at `blocks` (any alignment)
/// into the eight working words of `state`.
using Sha256Blocks = void (*)(std::uint32_t state[8],
                              const std::uint8_t* blocks, std::size_t count);

/// Compresses `count` blocks into `state` on the variant this CPU serves:
/// the SHA-extension kernel when CPUID reports it (and the binary carries
/// the SHA TU), else the portable loop.  Resolved on first call; Mode never
/// enters into it (see "Exact kernels" above).
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count) noexcept;

/// Name of the variant sha256_blocks() serves ("sha_ni" / "portable").
[[nodiscard]] const char* sha256_variant() noexcept;

namespace detail {
/// The FIPS 180-4 round constants K[0..63], shared by both SHA-256 variants.
extern const std::uint32_t kSha256RoundConstants[64];
/// The portable SHA-256 compression (any CPU); the reference the SHA
/// extension kernel is tested against.
[[nodiscard]] Sha256Blocks portable_sha256_blocks() noexcept;
/// The SHA-extension compression, or nullptr when this binary was built
/// without the -msha -msse4.1 TU.  Callers must still check
/// cpu_supports_sha_ni().
[[nodiscard]] Sha256Blocks sha_ni_sha256_blocks() noexcept;
/// The portable tile (any CPU): eight scalar blocked-kernel calls.
[[nodiscard]] SquaredDistanceTile portable_squared_distance_tile() noexcept;
/// The AVX2 tile, or nullptr when this binary was built without the
/// AVX2 TU.  Callers must still check cpu_supports_avx2_fma().
[[nodiscard]] SquaredDistanceTile avx2_squared_distance_tile() noexcept;
/// The AVX2+FMA table, or nullptr when this binary was built without the
/// -mavx2 -mfma TU (non-x86 targets, compilers without the flags).  Lives
/// in simd_avx2.cpp so only that TU needs the wide-ISA flags.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
/// The pinned scalar table (always available; the reference the parity
/// harness measures divergence against).
[[nodiscard]] const KernelTable& scalar_table() noexcept;
}  // namespace detail

}  // namespace fairbfl::support::simd

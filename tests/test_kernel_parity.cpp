// Kernel-dispatch parity harness (support/simd.hpp).
//
// The exact 2x4 squared-distance tile sits outside the table and is held
// to the strictest standard of all: memcmp equality with four calls of the
// scalar blocked kernel, for every variant this CPU can run.
//
// The scalar table is *bit-pinned*: its loops must match the strict
// reference accumulation orders that produced every committed fixed-seed
// series, so the first test re-states those loops locally and demands
// exact equality.  The AVX2+FMA table is *tolerance-pinned*: FMA skips
// intermediate roundings and the wide accumulators reassociate the chain,
// so the harness bounds its element-wise divergence from scalar instead
// -- with the analytic error model (double accumulation over float
// products) setting the bound, not a hand-tuned epsilon.  End-to-end, a
// Table-2 attack scenario must produce detection within 2% of the scalar
// run when the simd table serves every kernel.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace {

namespace simd = fairbfl::support::simd;
using fairbfl::support::Rng;

/// Restores the pinned scalar table on scope exit: dispatch is process
/// state, and every other test in the suite assumes the scalar default.
struct ScopedKernelMode {
    explicit ScopedKernelMode(simd::Mode mode) { simd::set_mode(mode); }
    ~ScopedKernelMode() { simd::set_mode(simd::Mode::kScalar); }
};

std::vector<float> random_vector(std::size_t n, Rng& rng) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
}

/// Strict left-to-right double chain -- the pinned reference for dot.
double reference_dot(const std::vector<float>& x,
                     const std::vector<float>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double reference_squared_distance(const std::vector<float>& x,
                                  const std::vector<float>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

/// Analytic divergence bound for a reassociated double-accumulator
/// reduction over float products: a few n * eps_double of the magnitude
/// sum, padded well clear of the constant factors.
double reduction_tolerance(double magnitude_sum, std::size_t n) {
    return 1e-13 * magnitude_sum * static_cast<double>(n + 16) + 1e-14;
}

const std::size_t kSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 64, 100, 1000};

TEST(ScalarTable, MatchesPinnedReferenceLoopsBitForBit) {
    const simd::KernelTable& table = simd::detail::scalar_table();
    EXPECT_STREQ(table.name, "scalar");
    Rng rng(21);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        EXPECT_EQ(table.dot(x.data(), y.data(), n), reference_dot(x, y));
        EXPECT_EQ(table.squared_distance(x.data(), y.data(), n),
                  reference_squared_distance(x, y));
        // axpy is elementwise: any unroll must stay bit-identical.
        std::vector<float> got = y;
        table.axpy(0.37F, x.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i], y[i] + 0.37F * x[i]);
        // The fused kernel must equal two separate strict chains.
        double d = 0.0;
        double norm2 = 0.0;
        table.dot_and_norm(x.data(), y.data(), n, &d, &norm2);
        EXPECT_EQ(d, reference_dot(x, y));
        EXPECT_EQ(norm2, reference_dot(x, x));
    }
    // Every gemv row is contractually bit-identical to a lone dot.
    const std::size_t rows = 7;
    const std::size_t cols = 33;
    const auto a = random_vector(rows * cols, rng);
    const auto x = random_vector(cols, rng);
    std::vector<float> out(rows);
    table.gemv(a.data(), rows, cols, x.data(), nullptr, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
        const std::vector<float> row(a.begin() + r * cols,
                                     a.begin() + (r + 1) * cols);
        EXPECT_EQ(out[r], static_cast<float>(reference_dot(row, x))) << r;
    }
}

TEST(Dispatch, ScalarIsTheDefaultAndUnknownNamesAreRejected) {
    simd::set_mode(simd::Mode::kScalar);
    EXPECT_STREQ(simd::active_name(), "scalar");
    EXPECT_FALSE(simd::set_mode_name("avx512"));
    EXPECT_FALSE(simd::set_mode_name(nullptr));
    EXPECT_STREQ(simd::active_name(), "scalar");  // unchanged on rejection
    EXPECT_TRUE(simd::set_mode_name("auto"));
    if (!simd::cpu_supports_avx2_fma() ||
        simd::detail::avx2_table() == nullptr) {
        EXPECT_STREQ(simd::active_name(), "scalar");  // graceful fallback
    }
    simd::set_mode(simd::Mode::kScalar);
}

TEST(Dispatch, RequestedModeNameFollowsTheLastRequest) {
    // The requested side of perf headers: what was asked for, whatever
    // table the CPU could serve.
    EXPECT_TRUE(simd::set_mode_name("auto"));
    EXPECT_STREQ(simd::requested_mode_name(), "auto");
    simd::set_mode(simd::Mode::kSimd);
    EXPECT_STREQ(simd::requested_mode_name(), "simd");
    EXPECT_FALSE(simd::set_mode_name("avx512"));
    EXPECT_STREQ(simd::requested_mode_name(), "simd");  // unchanged
    simd::set_mode(simd::Mode::kScalar);
    EXPECT_STREQ(simd::requested_mode_name(), "scalar");
}

TEST(KernelParity, Avx2WithinAnalyticToleranceOfScalar) {
    const simd::KernelTable* avx2 = simd::detail::avx2_table();
    if (avx2 == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";
    const simd::KernelTable& scalar = simd::detail::scalar_table();
    Rng rng(22);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        std::vector<float> ax(n);
        std::vector<float> ay(n);
        for (std::size_t i = 0; i < n; ++i) {
            ax[i] = std::fabs(x[i]);
            ay[i] = std::fabs(y[i]);
        }
        const double dot_scale = scalar.dot(ax.data(), ay.data(), n);
        EXPECT_NEAR(avx2->dot(x.data(), y.data(), n),
                    scalar.dot(x.data(), y.data(), n),
                    reduction_tolerance(dot_scale, n))
            << "n=" << n;
        EXPECT_NEAR(avx2->squared_distance(x.data(), y.data(), n),
                    scalar.squared_distance(x.data(), y.data(), n),
                    reduction_tolerance(
                        scalar.squared_distance(x.data(), y.data(), n) * 4.0 +
                            1.0,
                        n))
            << "n=" << n;
        // Element-wise: one fused rounding vs two float roundings differ
        // by an ulp of the *operands* -- the result can cancel toward
        // zero, so the bound scales with |y| + |a x|, not with it.
        std::vector<float> got = y;
        std::vector<float> want = y;
        avx2->axpy(1.7F, x.data(), got.data(), n);
        scalar.axpy(1.7F, x.data(), want.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double operand_mag = std::fabs(static_cast<double>(y[i])) +
                                       std::fabs(1.7 * x[i]);
            EXPECT_NEAR(got[i], want[i], 2.4e-7 * operand_mag + 1e-9)
                << "n=" << n << " i=" << i;
        }
        double avx2_dot = 0.0;
        double avx2_norm = 0.0;
        double scalar_dot = 0.0;
        double scalar_norm = 0.0;
        avx2->dot_and_norm(x.data(), y.data(), n, &avx2_dot, &avx2_norm);
        scalar.dot_and_norm(x.data(), y.data(), n, &scalar_dot, &scalar_norm);
        EXPECT_NEAR(avx2_dot, scalar_dot, reduction_tolerance(dot_scale, n));
        EXPECT_NEAR(avx2_norm, scalar_norm,
                    reduction_tolerance(scalar_norm, n));
    }
    // gemv: per-row divergence bounded like a lone dot.
    const std::size_t rows = 9;
    const std::size_t cols = 129;
    const auto a = random_vector(rows * cols, rng);
    const auto x = random_vector(cols, rng);
    const auto bias = random_vector(rows, rng);
    std::vector<float> got(rows);
    std::vector<float> want(rows);
    avx2->gemv(a.data(), rows, cols, x.data(), bias.data(), got.data());
    scalar.gemv(a.data(), rows, cols, x.data(), bias.data(), want.data());
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_NEAR(got[r], want[r],
                    1e-4 * std::fabs(static_cast<double>(want[r])) + 1e-5)
            << r;
    // Accumulate kernels: element-wise float FMA against the scalar loop.
    std::vector<float> gt(cols, 0.25F);
    std::vector<float> wt(cols, 0.25F);
    const auto d = random_vector(rows, rng);
    avx2->gemv_transpose_accumulate(a.data(), rows, cols, d.data(), gt.data());
    scalar.gemv_transpose_accumulate(a.data(), rows, cols, d.data(),
                                     wt.data());
    for (std::size_t j = 0; j < cols; ++j)
        EXPECT_NEAR(gt[j], wt[j],
                    1e-5 * std::fabs(static_cast<double>(wt[j])) + 1e-6)
            << j;
    std::vector<float> go(rows * cols, 0.5F);
    std::vector<float> wo(rows * cols, 0.5F);
    avx2->outer_accumulate(d.data(), x.data(), rows, cols, go.data());
    scalar.outer_accumulate(d.data(), x.data(), rows, cols, wo.data());
    for (std::size_t i = 0; i < rows * cols; ++i)
        EXPECT_NEAR(go[i], wo[i],
                    1e-5 * std::fabs(static_cast<double>(wo[i])) + 1e-6)
            << i;
}

// The end-to-end gate: a Table-2 attack scenario served entirely by the
// simd table must detect within 2% of the pinned scalar run.  (The
// incremental index cache is active in both runs -- the contribution
// policy installs it -- so this also covers "simd kernels + incremental
// index enabled" from the acceptance criteria.)
TEST(KernelParity, DetectionWithin2PercentOfScalarOnAttackScenario) {
    if (simd::detail::avx2_table() == nullptr ||
        !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";

    fairbfl::core::EnvironmentConfig env_config;
    env_config.data.samples = 800;
    env_config.data.seed = 17;
    env_config.partition.scheme =
        fairbfl::ml::PartitionScheme::kLabelShards;
    env_config.partition.num_clients = 40;
    env_config.partition.seed = 17;
    const fairbfl::core::Environment env =
        fairbfl::core::build_environment(env_config);

    auto detection = [&](simd::Mode mode) {
        const ScopedKernelMode scoped(mode);
        fairbfl::core::FairBflConfig config;
        config.fl.client_ratio = 1.0;
        config.fl.rounds = 6;
        config.fl.seed = 17;
        config.attack.kind = fairbfl::core::AttackKind::kSignFlip;
        config.attack.magnitude = 3.0;
        config.attack.min_attackers = 2;
        config.attack.max_attackers = 4;
        // Sketch engaged (41 points > 2k = 32) and maintained across
        // rounds by the policy-installed IndexCache, so the simd leg runs
        // the full "simd kernels + incremental index" configuration.
        config.incentive.index = "random_projection";
        config.incentive.index_params.projection_dims = 16;
        fairbfl::core::FairBfl system(*env.model, env.make_clients(),
                                      env.test, config);
        double rate = 0.0;
        for (std::size_t r = 0; r < config.fl.rounds; ++r)
            rate += system.run_round().detection_rate;
        return rate / static_cast<double>(config.fl.rounds);
    };

    const double scalar_rate = detection(simd::Mode::kScalar);
    EXPECT_GT(scalar_rate, 0.5);  // the defense itself must be working
    EXPECT_NEAR(detection(simd::Mode::kSimd), scalar_rate, 0.02);
}

// --- The exact squared-distance tile ---------------------------------------

/// Every tile variant this binary can run here: the portable one always,
/// the AVX2 lanes when the TU is built and CPUID allows them.
std::vector<std::pair<std::string, simd::SquaredDistanceTile>>
tile_variants() {
    std::vector<std::pair<std::string, simd::SquaredDistanceTile>> out = {
        {"portable", simd::detail::portable_squared_distance_tile()}};
    const simd::SquaredDistanceTile avx2 =
        simd::detail::avx2_squared_distance_tile();
    if (avx2 != nullptr && simd::cpu_supports_avx2_fma())
        out.emplace_back("avx2", avx2);
    return out;
}

/// memcmp of one tile call against the scalar blocked kernel per pair.
::testing::AssertionResult tile_matches_reference(
    simd::SquaredDistanceTile tile, const float* x0, const float* x1,
    const std::array<const float*, 4>& y, std::size_t n) {
    std::array<double, 8> got{};
    tile(x0, x1, y.data(), n, got.data());
    const auto reference =
        simd::detail::scalar_table().squared_distance_blocked;
    const float* const x[2] = {x0, x1};
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            const double want = reference(x[r], y[c], n);
            if (std::memcmp(&got[4 * r + c], &want, sizeof want) != 0) {
                std::ostringstream bits;
                bits << std::hexfloat << got[4 * r + c] << " vs reference "
                     << want;
                return ::testing::AssertionFailure()
                       << "pair (" << r << "," << c << ") n=" << n
                       << ": tile " << bits.str();
            }
        }
    }
    return ::testing::AssertionSuccess();
}

std::vector<std::vector<float>> random_rows(std::size_t count, std::size_t n,
                                            Rng& rng) {
    std::vector<std::vector<float>> rows;
    for (std::size_t r = 0; r < count; ++r)
        rows.push_back(random_vector(n, rng));
    return rows;
}

TEST(ExactTile, EveryVariantMatchesBlockedReferenceBitForBit) {
    // Dimensions straddle the 4-wide body: pure tail (1-3), exact blocks
    // (4, 8), block + tail (5, 7, 7851) and production widths.
    Rng rng(31);
    for (const auto& [name, tile] : tile_variants()) {
        for (const std::size_t n :
             {1, 2, 3, 4, 5, 7, 8, 650, 7850, 7851}) {
            const auto rows = random_rows(6, n, rng);
            EXPECT_TRUE(tile_matches_reference(
                tile, rows[0].data(), rows[1].data(),
                {rows[2].data(), rows[3].data(), rows[4].data(),
                 rows[5].data()},
                n))
                << name;
        }
    }
}

TEST(ExactTile, ZeroRowsAndExtremeMagnitudes) {
    Rng rng(33);
    const std::size_t n = 23;
    // Magnitudes log-uniform over [1e-30, 1e30] with random signs: squares
    // span ~1e-60..1e60, well inside double range, so every partial sum
    // is a real rounding problem rather than an overflow.
    auto extreme = [&] {
        std::vector<float> v(n);
        for (auto& x : v) {
            const double mag = std::pow(10.0, rng.uniform(-30.0, 30.0));
            x = static_cast<float>(rng.uniform() < 0.5 ? -mag : mag);
        }
        return v;
    };
    const std::vector<float> zero(n, 0.0F);
    const auto a = extreme();
    const auto b = extreme();
    const auto c = extreme();
    const auto d = random_vector(n, rng);
    for (const auto& [name, tile] : tile_variants()) {
        EXPECT_TRUE(tile_matches_reference(
            tile, zero.data(), a.data(),
            {b.data(), zero.data(), c.data(), d.data()}, n))
            << name;
        EXPECT_TRUE(tile_matches_reference(
            tile, a.data(), b.data(),
            {c.data(), d.data(), zero.data(), a.data()}, n))
            << name;
    }
}

TEST(ExactTile, NonFiniteEntriesMatchReference) {
    // A row holding +inf, -inf and NaN among finite values, as a tile row
    // and as a tile column against finite partners.  Each pair's squares
    // are then +inf or the input's quiet NaN (never inf - inf), so the
    // reference bits -- NaN payload included -- are well defined.
    Rng rng(34);
    const std::size_t n = 13;
    auto bad = random_vector(n, rng);
    bad[1] = std::numeric_limits<float>::infinity();
    bad[6] = -std::numeric_limits<float>::infinity();
    bad[5] = std::numeric_limits<float>::quiet_NaN();   // 4-wide body
    bad[12] = std::numeric_limits<float>::quiet_NaN();  // scalar tail
    auto inf_only = random_vector(n, rng);
    inf_only[2] = -std::numeric_limits<float>::infinity();
    const auto rows = random_rows(4, n, rng);
    for (const auto& [name, tile] : tile_variants()) {
        EXPECT_TRUE(tile_matches_reference(
            tile, rows[0].data(), bad.data(),
            {rows[1].data(), rows[2].data(), rows[3].data(),
             inf_only.data()},
            n))
            << name;
        EXPECT_TRUE(tile_matches_reference(
            tile, rows[0].data(), inf_only.data(),
            {bad.data(), rows[1].data(), rows[2].data(), rows[3].data()},
            n))
            << name;
        std::array<double, 8> got{};
        const std::array<const float*, 4> y = {rows[1].data(), bad.data(),
                                               inf_only.data(),
                                               rows[2].data()};
        tile(rows[0].data(), bad.data(), y.data(), n, got.data());
        EXPECT_TRUE(std::isnan(got[1]));  // finite vs NaN row
        EXPECT_TRUE(std::isinf(got[2]));  // finite vs inf row
        EXPECT_TRUE(std::isnan(got[4]));  // NaN row vs finite
    }
}

TEST(ExactTile, DispatchIgnoresKernelMode) {
    // The tile has one rounding, so FAIRBFL_KERNELS / set_mode have
    // nothing to choose: the resolved variant is CPUID's pick alone.
    const simd::SquaredDistanceTile under_scalar = [] {
        const ScopedKernelMode scoped(simd::Mode::kScalar);
        return simd::squared_distance_tile();
    }();
    const simd::SquaredDistanceTile under_simd = [] {
        const ScopedKernelMode scoped(simd::Mode::kSimd);
        return simd::squared_distance_tile();
    }();
    EXPECT_EQ(under_scalar, under_simd);
    EXPECT_EQ(under_scalar, tile_variants().back().second);
}

}  // namespace

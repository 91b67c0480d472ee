#include "cluster/distance.hpp"

#include <array>
#include <cmath>

#include "support/parallel.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::cluster {

double distance(Metric metric, std::span<const float> a,
                std::span<const float> b) noexcept {
    switch (metric) {
        case Metric::kCosine:
            return support::cosine_distance(a, b);
        case Metric::kEuclidean:
            return std::sqrt(support::squared_distance(a, b));
    }
    return 0.0;
}

DistanceMatrix::DistanceMatrix(Metric metric,
                               std::span<const std::vector<float>> points,
                               support::ThreadPool& pool)
    : metric_(metric),
      n_(points.size()),
      values_(points.size() * points.size(), 0.0) {
    if (n_ < 2) return;
    const auto store = [this](std::size_t i, std::size_t j, double d) {
        values_[i * n_ + j] = d;
        values_[j * n_ + i] = d;
    };

    if (metric_ == Metric::kCosine) {
        norms_ = support::norms_of(points, pool);
        // Row-parallel upper triangle; task i owns every (i, j > i) pair
        // and its mirror slot, so writes never overlap.
        support::parallel_for(
            0, n_ - 1,
            [&](std::size_t i) {
                for (std::size_t j = i + 1; j < n_; ++j)
                    store(i, j,
                          support::cosine_distance_cached(
                              points[i], points[j], norms_[i], norms_[j]));
            },
            pool);
        return;
    }

    // Euclidean: task t owns rows (2t, 2t + 1) of the upper triangle and
    // their mirror slots.  Columns past the pair go through the 2x4 tile;
    // the pair itself and the < 4 columns a tile grid leaves over take the
    // per-pair reference, which the tile matches bit for bit.  The pool
    // claims tasks in ascending t, so the longest rows start first.  (When
    // n is odd, the last row has no pair to its right and no task.)
    const auto sq_to = [&](std::size_t i, std::size_t j) {
        return support::squared_distance_blocked_reference(points[i],
                                                           points[j]);
    };
    support::parallel_for(
        0, n_ / 2,
        [&](std::size_t t) {
            const std::size_t i = 2 * t;
            store(i, i + 1, std::sqrt(sq_to(i, i + 1)));
            std::size_t j = i + 2;
            for (; j + 4 <= n_; j += 4) {
                const std::array<std::span<const float>, 4> cols = {
                    points[j], points[j + 1], points[j + 2], points[j + 3]};
                std::array<double, 8> sq;
                support::squared_distance_tile(points[i], points[i + 1], cols,
                                               sq);
                for (std::size_t c = 0; c < 4; ++c) {
                    store(i, j + c, std::sqrt(sq[c]));
                    store(i + 1, j + c, std::sqrt(sq[4 + c]));
                }
            }
            for (; j < n_; ++j) {
                store(i, j, std::sqrt(sq_to(i, j)));
                store(i + 1, j, std::sqrt(sq_to(i + 1, j)));
            }
        },
        pool);
}

}  // namespace fairbfl::cluster

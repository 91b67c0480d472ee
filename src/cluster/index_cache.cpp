#include "cluster/index_cache.hpp"

#include <utility>

#include "support/vecmath.hpp"
#include "telemetry/telemetry.hpp"

namespace fairbfl::cluster {

namespace {

/// Backend-identity fields: a cached index can only serve a request that
/// would have built it identically.  refresh_threshold is deliberately
/// not compared -- it tunes the drift scan, not the index contents.
bool params_compatible(const IndexParams& a, const IndexParams& b) noexcept {
    return a.metric == b.metric && a.projection_dims == b.projection_dims &&
           a.seed == b.seed;
}

bool shape_compatible(std::span<const std::vector<float>> points,
                      const std::vector<std::vector<float>>& cached) noexcept {
    if (points.size() != cached.size() || points.empty()) return false;
    return points[0].size() == cached[0].size();
}

/// Per-point drift flags: moved when the squared L2 drift reaches
/// threshold^2 times the squared norm of the cached point.  `>=` so a
/// zero threshold flags every point (including unchanged ones), making
/// update() recompute everything -- the bit-for-bit rebuild equivalence
/// the incremental tests pin.  Blocked kernels: drift detection is
/// comparison-only, never pinned arithmetic.
std::vector<std::uint8_t> drift_flags(
    std::span<const std::vector<float>> points,
    const std::vector<std::vector<float>>& cached, double threshold) {
    std::vector<std::uint8_t> moved(points.size(), 0);
    const double t2 = threshold * threshold;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double drift2 =
            support::squared_distance_blocked(points[i], cached[i]);
        const double scale2 = support::dot_blocked(cached[i], cached[i]);
        moved[i] = drift2 >= t2 * scale2 ? 1 : 0;
    }
    return moved;
}

}  // namespace

std::unique_ptr<GradientIndex> IndexCache::acquire(
    std::string_view key, std::span<const std::vector<float>> points,
    const IndexParams& params, support::ThreadPool& pool) {
    Entry entry;
    {
        support::MutexLock lock(mutex_);
        entry = std::exchange(entry_, Entry{});
    }
    if (entry.index != nullptr && entry.key == key &&
        params_compatible(entry.params, params) &&
        shape_compatible(points, entry.points)) {
        const std::vector<std::uint8_t> moved =
            drift_flags(points, entry.points, params.refresh_threshold);
        // Same instrumentation as make_index: the update *is* this
        // round's index-build work, so perf artifacts keep reading
        // seconds.index_build / index_peak_bytes unchanged.
        telemetry::Span span(telemetry::labels::index_build());
        const bool updated = entry.index->update(points, moved, pool);
        span.close();
        if (updated) {
            telemetry::counter_max(telemetry::labels::index_bytes(),
                                   entry.index->storage_bytes());
            telemetry::counter_add(telemetry::labels::index_reuse(), 1);
            return std::move(entry.index);
        }
    }
    return make_index(key, points, params, pool);
}

void IndexCache::release(std::string_view key,
                         std::vector<std::vector<float>> points,
                         const IndexParams& params,
                         std::unique_ptr<GradientIndex> index) {
    if (index == nullptr || !index->supports_update()) return;
    Entry entry{std::string(key), params, std::move(points),
                std::move(index)};
    support::MutexLock lock(mutex_);
    entry_ = std::move(entry);
}

}  // namespace fairbfl::cluster

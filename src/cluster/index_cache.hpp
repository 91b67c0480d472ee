#pragma once
// Cross-round GradientIndex cache: the incremental-maintenance seam of
// Algorithm 2.
//
// Every round used to rebuild its neighborhood index from scratch even
// though converged federated gradients drift slowly between rounds.  The
// cache keeps the previous round's index, detects which points actually
// moved (relative L2 drift against the stored point set,
// IndexParams::refresh_threshold), and asks the backend to update()
// itself -- re-sketching only the movers -- instead of rebuilding.
//
// Only backends with supports_update() are ever stored.  The exact and
// lazy backends rebuild every round exactly as before, so the bit-pinned
// fixed-seed series are untouched; with refresh_threshold == 0 the
// updatable backends re-sketch everything and stay bit-identical to a
// rebuild too (the equivalence tests/test_incremental_index.cpp pins).
//
// Thread safety: the entry is mutex-guarded (support/sync.hpp; the
// raw-sync lint forbids std primitives here).  An acquired entry is taken
// *out* of the cache -- the O(n d) drift scan and O(moved d k) update run
// outside the lock -- and put back on release.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/index.hpp"
#include "support/sync.hpp"

namespace fairbfl::cluster {

/// One-entry cross-round cache of an updatable GradientIndex backend.
class IndexCache {
public:
    /// Returns an index serving `points` under (key, params): the cached
    /// index update()d in place when it is compatible (same backend
    /// key, same params, same point-set shape), a fresh make_index build
    /// otherwise.  Both paths are instrumented exactly like make_index
    /// ("cluster.index_build" span, index-bytes counter), so perf
    /// artifacts stay comparable; reuses additionally bump the
    /// "cluster.index_reuse" counter.
    /// \param key    make_index backend name.
    /// \param points the round's point set (updates + provisional global).
    /// \param params backend tuning; refresh_threshold drives the drift
    ///               detection.
    /// \param pool   carries build/update fan-out.
    [[nodiscard]] std::unique_ptr<GradientIndex> acquire(
        std::string_view key, std::span<const std::vector<float>> points,
        const IndexParams& params,
        support::ThreadPool& pool = support::ThreadPool::global());

    /// Stores the index (and the point set it reflects) for next round's
    /// acquire.  Indexes that cannot update() are dropped -- rebuilding
    /// them is the pinned behavior.  `points` is consumed; pass the
    /// round's point vector by move.
    void release(std::string_view key, std::vector<std::vector<float>> points,
                 const IndexParams& params,
                 std::unique_ptr<GradientIndex> index);

private:
    struct Entry {
        std::string key;
        IndexParams params;
        std::vector<std::vector<float>> points;  ///< set the index reflects
        std::unique_ptr<GradientIndex> index;
    };

    support::Mutex mutex_;
    Entry entry_ GUARDED_BY(mutex_);
};

}  // namespace fairbfl::cluster

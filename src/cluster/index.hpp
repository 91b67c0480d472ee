#pragma once
// GradientIndex: the pluggable neighborhood/distance API of Algorithm 2.
//
// The paper parameterizes contribution identification on "any suitable
// clustering algorithm"; this header parameterizes it on the *geometry
// backend* as well.  Every consumer of pairwise gradient distances --
// suggest_eps, the DBSCAN neighbourhood scan, k-means++ seeding, the
// nearest-cluster fallback -- queries this interface instead of reading a
// dense cluster::DistanceMatrix, so exact and approximate backends are
// interchangeable per round:
//
//   * "exact"              -- wraps DistanceMatrix; O(n^2 d) build,
//                             O(n^2) doubles.  Bit-for-bit identical to the
//                             dense-matrix pipeline it replaced.
//   * "lazy"               -- no build at all; every query computes the
//                             exact metric distance from the borrowed
//                             points, O(d) each.  Right when the algorithm
//                             touches O(n) distances (k-means++ seeding),
//                             wasteful for dense O(n^2) scans.
//   * "random_projection"  -- projects the d-dim gradients to k dims once
//                             (O(n d k), support/projection.hpp), then runs
//                             exact O(n^2 k) queries in sketch space.  The
//                             LSH/random-projection direction of ROADMAP's
//                             cluster-stage item.
//
// Index distances are comparison-only by contract (eps thresholds,
// argmins).  Anything that feeds rewards or training -- e.g. the theta
// scores -- must keep using the exact kernels; consumers may reuse index
// entries for such paths only when exact() is true.
//
// make_index() is the one way to build a backend by name
// (`fairbfl_sim --index=...`): a fixed table, the make_aggregator idiom of
// core/strategies.cpp.  It also owns the sketch's cost break-even, so a
// "random_projection" request below it is served by "exact".

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/distance.hpp"
#include "support/parallel.hpp"
#include "support/projection.hpp"

namespace fairbfl::cluster {

/// Tuning knobs shared by the built-in backends.  `metric` is the geometry
/// the index answers queries in; Algorithm 2 derives it from the clustering
/// algorithm's configuration at build time.
struct IndexParams {
    Metric metric = Metric::kCosine;
    /// "random_projection": sketch dimensionality k.  Build is O(n d k);
    /// distortion shrinks as O(sqrt(log n / k)).
    std::size_t projection_dims = 48;
    /// Seed for the projection matrix.  Affects index internals only,
    /// never the round's Rng streams.
    std::uint64_t seed = 42;
    /// Incremental maintenance (IndexCache): relative L2 drift of a point
    /// between rounds above which update() re-sketches it.  0 re-sketches
    /// every point each round -- bit-identical to a from-scratch rebuild,
    /// the equivalence the incremental tests pin.  Converged federated
    /// gradients drift slowly, so a small threshold skips most of the
    /// O(n d k) re-sketch work late in training.
    double refresh_threshold = 0.02;
};

/// Read-only neighborhood structure over one round's point set (the n
/// client updates plus the provisional global).  Implementations are
/// immutable after construction and safe to query from multiple threads.
/// A backend may borrow the point storage it was built over ("lazy" does);
/// callers keep the points alive for the index's lifetime.
class GradientIndex {
public:
    virtual ~GradientIndex() = default;

    /// make_index() name / diagnostic label of the backend.
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    [[nodiscard]] virtual std::size_t size() const noexcept = 0;
    [[nodiscard]] virtual Metric metric() const noexcept = 0;

    /// Index distance between points i and j.  Symmetric, zero diagonal.
    /// Approximate backends answer in their own geometry (sketch space);
    /// values are mutually comparable within one index but not across
    /// backends.
    /// \param i first point ordinal, in [0, size()).
    /// \param j second point ordinal, in [0, size()).
    [[nodiscard]] virtual double distance(std::size_t i,
                                          std::size_t j) const = 0;

    /// Points j (ascending, self included) with distance(i, j) <= eps --
    /// the DBSCAN neighbourhood query.
    /// \param i   query point ordinal.
    /// \param eps neighbourhood radius, in this index's own geometry.
    [[nodiscard]] virtual std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const;

    /// The candidate nearest to i under the index distance; the first
    /// candidate wins ties (callers pass candidates in ascending order to
    /// keep argmin tie-breaks deterministic).  Requires a non-empty
    /// candidate set.
    /// \param i          query point ordinal.
    /// \param candidates point ordinals to rank, ascending for stable
    ///                   tie-breaks; must be non-empty.
    [[nodiscard]] virtual std::size_t nearest_of(
        std::size_t i, std::span<const std::size_t> candidates) const;

    /// Fills out[j] = distance(i, j) for every j (out.size() == size()) --
    /// the row query behind suggest_eps's k-distance sample.
    /// \param i   query point ordinal.
    /// \param out destination row; must hold exactly size() entries.
    virtual void distances_from(std::size_t i, std::span<double> out) const;

    /// The k-th order statistic (0-based, self-distance included) of point
    /// i's full distance row -- suggest_eps's k-distance query.  The
    /// default materializes the row and selects; backends with a cheaper
    /// pruned search override it, and because an order statistic is a
    /// *value* (independent of scan order), any override must return the
    /// bit-identical double.
    /// \param i query point ordinal.
    /// \param k order statistic, in [0, size()).
    [[nodiscard]] virtual double kth_distance(std::size_t i,
                                              std::size_t k) const;

    /// True when update() can maintain this index across rounds instead of
    /// a from-scratch rebuild.  False for the exact backends: rebuilding
    /// them is the bit-pinned behavior the fixed-seed series rely on.
    [[nodiscard]] virtual bool supports_update() const noexcept {
        return false;
    }

    /// Incrementally re-points the index at `points` (same cardinality and
    /// dimensionality as the build set), re-sketching only the positions
    /// flagged in `moved`.  Returns false -- leaving the index unusable for
    /// the new round, caller must rebuild -- when the backend cannot
    /// update (the default).
    /// With every position flagged the result is bit-identical to a
    /// from-scratch rebuild over `points` (same params/seed).
    /// \param points the new round's point set; same n and d as the build.
    /// \param moved  per-point flags (nonzero = re-sketch), one per point.
    /// \param pool   carries the re-sketch fan-out.
    [[nodiscard]] virtual bool update(
        std::span<const std::vector<float>> points,
        std::span<const std::uint8_t> moved,
        support::ThreadPool& pool = support::ThreadPool::global());

    /// True when distance() is the exact pairwise metric (no projection
    /// error).  Exactness-sensitive consumers (the theta scores) may reuse
    /// index entries only under this flag.
    [[nodiscard]] virtual bool exact() const noexcept { return false; }

    /// True when the index holds precomputed rows, making distances_from a
    /// copy rather than a recompute.  Consumers with a cheaper batch
    /// kernel of their own (the fused theta path) should read the index
    /// back only when this is set.
    [[nodiscard]] virtual bool precomputed_rows() const noexcept {
        return false;
    }

    /// Bytes of storage this index owns beyond the borrowed points: the
    /// dense matrix, or the sketches and their projection.  Zero for
    /// backends that precompute nothing ("lazy").  Reported as
    /// `index_peak_bytes` in perf artifacts.
    [[nodiscard]] virtual std::size_t storage_bytes() const noexcept {
        return 0;
    }
};

/// The dense exact backend: a DistanceMatrix behind the index API.  Every
/// query is a row scan in ascending-j order -- the exact access pattern of
/// the pre-index DBSCAN scan / argmin fallback, so labels and tie-breaks
/// are unchanged bit-for-bit given the same matrix.
class ExactIndex final : public GradientIndex {
public:
    /// Builds the pairwise matrix over `points` (the O(n^2 d) job, row
    /// fan-out on `pool`).
    /// \param metric geometry of every stored distance.
    /// \param points the round's point set; not borrowed (values copied
    ///               into the matrix during the build).
    /// \param pool   carries the row fan-out; values are identical for
    ///               any pool size.
    ExactIndex(Metric metric, std::span<const std::vector<float>> points,
               support::ThreadPool& pool = support::ThreadPool::global())
        : matrix_(metric, points, pool) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "exact";
    }
    [[nodiscard]] std::size_t size() const noexcept override {
        return matrix_.size();
    }
    [[nodiscard]] Metric metric() const noexcept override {
        return matrix_.metric();
    }
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override {
        return matrix_.at(i, j);
    }
    [[nodiscard]] std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const override;
    [[nodiscard]] std::size_t nearest_of(
        std::size_t i,
        std::span<const std::size_t> candidates) const override;
    void distances_from(std::size_t i, std::span<double> out) const override;
    [[nodiscard]] bool exact() const noexcept override { return true; }
    [[nodiscard]] bool precomputed_rows() const noexcept override {
        return true;
    }
    /// The dense n x n value table plus the cached per-point norms.
    [[nodiscard]] std::size_t storage_bytes() const noexcept override {
        return (matrix_.size() * matrix_.size() + matrix_.norms().size()) *
               sizeof(double);
    }

private:
    DistanceMatrix matrix_;
};

/// Zero-build exact backend: borrows the point storage and computes the
/// metric distance on every query (O(d) each, nothing precomputed).  The
/// right trade when the clustering algorithm touches O(n) distances --
/// k-means++ seeding reads one column per seed -- where any precomputed
/// structure costs more to build than it ever returns.  A dense DBSCAN
/// scan over this backend degenerates to the full O(n^2 d) recompute;
/// prefer "exact" there.
class LazyIndex final : public GradientIndex {
public:
    /// Borrows `points`; the caller keeps them alive for the index's
    /// lifetime.
    /// \param metric geometry every query computes in.
    /// \param points the round's point set, borrowed.
    LazyIndex(Metric metric,
              std::span<const std::vector<float>> points) noexcept
        : metric_(metric), points_(points) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "lazy";
    }
    [[nodiscard]] std::size_t size() const noexcept override {
        return points_.size();
    }
    [[nodiscard]] Metric metric() const noexcept override { return metric_; }
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override {
        if (i == j) return 0.0;
        return cluster::distance(metric_, points_[i], points_[j]);
    }
    [[nodiscard]] bool exact() const noexcept override { return true; }

private:
    Metric metric_ = Metric::kCosine;
    std::span<const std::vector<float>> points_;  ///< borrowed
};

/// Johnson-Lindenstrauss backend: one seeded Gaussian projection to
/// params.projection_dims, then exact queries over the sketches.  Build
/// O(n d k) beats the exact O(n^2 d) whenever k << d and n >> k
/// (gradients are d ~ 10^4, k ~ 48); make_index() serves requests below
/// that break-even with an ExactIndex instead, so a constructed
/// RandomProjectionIndex always sketches.
///
/// The index stores the n x k sketch rows (plus their cached L2 norms)
/// and answers every query on demand in O(k) -- no O(n^2) matrix is ever
/// materialized.  Under the Euclidean metric the norm cache also powers a
/// *banded* neighbourhood query: points are kept sorted by sketch norm,
/// and |  ||a|| - ||b||  | <= ||a - b|| restricts a radius-eps scan (and
/// the pruned k-distance search) to the norm band around the query,
/// breaking the dense O(n^2 k) sweep on separated data.  The cached
/// projection matrix makes the index incrementally updatable across
/// rounds (see GradientIndex::update).
class RandomProjectionIndex final : public GradientIndex {
public:
    /// Projects the points to sketches.
    /// \param points the round's point set; not borrowed after the build.
    /// \param params projection_dims (k), seed, and the query metric.
    /// \param pool   carries the projection fan-out.
    RandomProjectionIndex(
        std::span<const std::vector<float>> points, const IndexParams& params,
        support::ThreadPool& pool = support::ThreadPool::global());

    [[nodiscard]] std::string_view name() const noexcept override {
        return "random_projection";
    }
    [[nodiscard]] std::size_t size() const noexcept override { return n_; }
    [[nodiscard]] Metric metric() const noexcept override { return metric_; }
    /// Sketch-space distance, computed on demand with exactly the kernels
    /// DistanceMatrix would apply to the sketches.
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override;
    [[nodiscard]] std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const override;
    /// Pruned k-distance: expands a norm-ordered band around the query
    /// until the norm-difference lower bound proves the remaining points
    /// cannot enter the k smallest.  Bit-identical to the default's order
    /// statistic (Euclidean metric; delegates otherwise).
    [[nodiscard]] double kth_distance(std::size_t i,
                                      std::size_t k) const override;
    [[nodiscard]] std::size_t storage_bytes() const noexcept override;

    [[nodiscard]] bool supports_update() const noexcept override {
        return n_ > 0;
    }
    /// Re-projects the moved rows through the cached matrix and refreshes
    /// their norms; O(moved * d k) instead of the full O(n d k) build.
    [[nodiscard]] bool update(
        std::span<const std::vector<float>> points,
        std::span<const std::uint8_t> moved,
        support::ThreadPool& pool =
            support::ThreadPool::global()) override;

    /// Sketch dimensionality actually used (0 when n == 0).
    [[nodiscard]] std::size_t sketch_dims() const noexcept {
        return sketch_dims_;
    }

private:
    /// Re-sorts norm_order_ after the norms changed (build and update).
    void sort_by_norm();
    /// Indices of norm_order_ whose norm lies within [lo, hi].
    [[nodiscard]] std::pair<std::size_t, std::size_t> norm_band(
        double lo, double hi) const;

    Metric metric_ = Metric::kCosine;
    std::size_t n_ = 0;
    std::size_t sketch_dims_ = 0;
    std::vector<std::vector<float>> sketches_;  ///< n x k sketch rows
    std::vector<double> norms_;        ///< sketch L2 norms (band + cosine)
    std::vector<std::size_t> norm_order_;  ///< point ids ascending by norm
    support::ProjectionMatrix projection_;  ///< cached for update()
};

/// Builds the backend `name` -- "exact", "lazy" or "random_projection" --
/// over `points`.  A "random_projection" request at or below the sketch's
/// cost break-even (n <= 2k, or d <= k) gets an ExactIndex: there the
/// dense build is cheaper than the projection and exact besides, and the
/// index reports exact() so the theta read-back reuses its rows.  Every
/// build is instrumented: a "cluster.index_build" telemetry span plus a
/// "cluster.index_bytes" max-counter of the result's storage_bytes().
/// Throws std::out_of_range listing index_names() on an unknown name.
/// The backend may borrow `points` (see GradientIndex); keep them alive.
/// \param name   backend name, one of index_names().
/// \param points the round's point set (updates + provisional global).
/// \param params backend tuning; `metric` selects the geometry.
/// \param pool   carries whatever fan-out the backend's build does.
[[nodiscard]] std::unique_ptr<GradientIndex> make_index(
    std::string_view name, std::span<const std::vector<float>> points,
    const IndexParams& params,
    support::ThreadPool& pool = support::ThreadPool::global());

/// Names accepted by make_index, in table order.
[[nodiscard]] std::vector<std::string_view> index_names();

}  // namespace fairbfl::cluster

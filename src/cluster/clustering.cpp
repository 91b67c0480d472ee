#include "cluster/clustering.hpp"

#include <stdexcept>
#include <string>

#include "cluster/dbscan.hpp"
#include "cluster/kmeans.hpp"
#include "support/cli.hpp"

namespace fairbfl::cluster {

namespace {

/// Single source of truth for the algorithms: make_clustering and
/// clustering_names both read this table.
struct ClusteringEntry {
    std::string_view name;
    std::unique_ptr<ClusteringAlgorithm> (*make)(const DbscanParams& dbscan,
                                                 const KMeansParams& kmeans);
};

constexpr ClusteringEntry kClusterings[] = {
    {"dbscan",
     [](const DbscanParams& dbscan,
        const KMeansParams&) -> std::unique_ptr<ClusteringAlgorithm> {
         return std::make_unique<Dbscan>(dbscan);
     }},
    {"kmeans",
     [](const DbscanParams&,
        const KMeansParams& kmeans) -> std::unique_ptr<ClusteringAlgorithm> {
         return std::make_unique<KMeans>(kmeans);
     }},
};

}  // namespace

std::unique_ptr<ClusteringAlgorithm> make_clustering(
    std::string_view name, const DbscanParams& dbscan,
    const KMeansParams& kmeans) {
    for (const auto& entry : kClusterings) {
        if (entry.name == name) return entry.make(dbscan, kmeans);
    }
    throw std::out_of_range("unknown clustering algorithm '" +
                            std::string(name) + "' (known: " +
                            support::join_names(clustering_names()) + ")");
}

std::vector<std::string_view> clustering_names() {
    std::vector<std::string_view> names;
    names.reserve(std::size(kClusterings));
    for (const auto& entry : kClusterings) names.push_back(entry.name);
    return names;
}

}  // namespace fairbfl::cluster

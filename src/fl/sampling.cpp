#include "fl/sampling.hpp"

#include <algorithm>
#include <cmath>

#include "support/rng.hpp"

namespace fairbfl::fl {

std::vector<std::size_t> sample_clients(std::size_t n, double ratio,
                                        std::uint64_t round,
                                        std::uint64_t root_seed) {
    ratio = std::clamp(ratio, 0.0, 1.0);
    auto k = static_cast<std::size_t>(
        std::ceil(ratio * static_cast<double>(n)));
    if (k == 0) k = 1;
    k = std::min(k, n);
    // Stream 0x5E1 namespaces selection randomness.
    auto rng = support::Rng::fork(root_seed, /*stream=*/0x5E1, round);
    auto sample = rng.sample_indices(n, k);
    std::sort(sample.begin(), sample.end());
    return sample;
}

std::vector<std::size_t> exclude_clients(
    std::vector<std::size_t> selected,
    const std::vector<std::size_t>& excluded) {
    std::erase_if(selected, [&](std::size_t id) {
        return std::find(excluded.begin(), excluded.end(), id) !=
               excluded.end();
    });
    return selected;
}

}  // namespace fairbfl::fl

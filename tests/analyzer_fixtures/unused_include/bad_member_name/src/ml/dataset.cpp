// BAD: csv.hpp is included, but the only names this file shares with it
// are CsvWriter's members and parameters (`end`, `out`), which a file
// can spell without the header.
#include "support/csv.hpp"

#include <vector>

namespace demo::ml {

std::vector<int> batches(const std::vector<int>& features) {
    std::vector<int> out;
    out.insert(out.end(), features.begin(), features.end());
    return out;
}

}  // namespace demo::ml

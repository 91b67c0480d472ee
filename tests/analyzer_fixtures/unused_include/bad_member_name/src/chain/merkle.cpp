// BAD: cli.hpp is included, but `finish` is only a CliArgs member there,
// and the hasher's own finish() is what this file calls.
#include "support/cli.hpp"

namespace demo::chain {

struct Hasher {
    int state = 0;
    int finish() const { return state; }
};

int hash_leaf(const Hasher& hasher) { return hasher.finish(); }

}  // namespace demo::chain

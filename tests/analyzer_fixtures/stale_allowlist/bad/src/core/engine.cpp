// The stale exempt_paths entry for src/core/ covers this file, which
// gives catch-swallow nothing to suppress: the catch-all rethrows.
int risky();

int guarded() {
    try {
        return risky();
    } catch (...) {
        throw;
    }
}

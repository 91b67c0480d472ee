// CLEAN: the sanctioned spelling of the bad tree's Holder -- the
// annotated wrapper instead of std::mutex / std::lock_guard.
#include "support/sync.hpp"

struct Holder {
    demo::support::Mutex mu;
    int value = 0;

    void set(int v) {
        demo::support::MutexLock lock(mu);
        value = v;
    }
};

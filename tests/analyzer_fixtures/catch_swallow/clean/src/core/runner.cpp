// CLEAN: the near-miss shapes of a swallow -- a catch-all that rethrows
// and one that captures the exception for a later rethrow.
#include <exception>

int risky();

struct Runner {
    bool saw_error = false;
    std::exception_ptr deferred;

    int run() {
        try {
            return risky();
        } catch (...) {
            saw_error = true;
            throw;  // rethrow: not a swallow
        }
    }

    int run_deferred() {
        try {
            return risky();
        } catch (...) {
            deferred = std::current_exception();  // rethrown by the caller
            return -1;
        }
    }
};

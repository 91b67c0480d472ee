// Live entries: a std::mutex for the raw-sync exemption and a condvar
// wait for the scheduler path.
#include <condition_variable>
#include <mutex>

namespace demo::support {

struct CondVar {
    std::mutex mu;
    std::condition_variable cv;

    void wait(std::unique_lock<std::mutex>& lock) { cv.wait(lock); }
};

}  // namespace demo::support

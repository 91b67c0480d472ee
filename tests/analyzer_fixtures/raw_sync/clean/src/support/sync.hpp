// CLEAN: the same std primitives, but under the exempt src/support/ layer
// that wraps them with capability annotations.
#include <mutex>

namespace demo::support {

class Mutex {
public:
    void Lock() { mu_.lock(); }
    void Unlock() { mu_.unlock(); }

private:
    std::mutex mu_;
};

class MutexLock {
public:
    explicit MutexLock(Mutex& mu) : mu_(mu) { mu_.Lock(); }
    ~MutexLock() { mu_.Unlock(); }

private:
    Mutex& mu_;
};

}  // namespace demo::support

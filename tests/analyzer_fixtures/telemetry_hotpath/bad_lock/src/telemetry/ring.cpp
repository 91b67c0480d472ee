// BAD: an emission root takes a support::MutexLock.  The lock is flagged
// at its declarator whatever the guard variable is called.
namespace demo::support {
class Mutex {};
class MutexLock {
public:
    explicit MutexLock(Mutex& mu);
};
}  // namespace demo::support

demo::support::Mutex g_ring_mutex;
long g_max = 0;

void counter_max(long value) {
    demo::support::MutexLock guard(g_ring_mutex);
    if (value > g_max) g_max = value;
}

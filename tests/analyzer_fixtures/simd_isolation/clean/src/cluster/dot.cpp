// CLEAN: the bad tree's dot product reached through the dispatch layer
// instead of open-coded intrinsics.
namespace demo::support {
void mul8(const float* x, const float* y, float* out);
}

double dispatched_dot(const float* x, const float* y) {
    float lanes[8];
    demo::support::mul8(x, y, lanes);
    double acc = 0.0;
    for (const float v : lanes) acc += v;
    return acc;
}

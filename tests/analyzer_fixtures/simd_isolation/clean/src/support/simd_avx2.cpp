// CLEAN: intrinsics inside the exempt src/support/simd* dispatch layer.
#include <immintrin.h>

namespace demo::support {

void mul8(const float* x, const float* y, float* out) {
    _mm256_storeu_ps(out, _mm256_mul_ps(_mm256_loadu_ps(x),
                                        _mm256_loadu_ps(y)));
}

}  // namespace demo::support

/**
 * @file
 * Vectorized host primitives for the hot inner loops: dot product,
 * FMA-accumulate and squared-L2 distance over contiguous float spans.
 *
 * The instruction set is chosen once at compile time (AVX2 > SSE2 >
 * NEON > scalar), so results are deterministic for a given build: lane
 * partial sums are folded in a fixed order and the scalar tail is
 * handled identically everywhere.  Different ISAs may differ in the
 * last float bits (different accumulation orders) — callers that need
 * cross-build bit-stability must stick to one binary, which is the same
 * contract the analytic cost model already has.
 *
 * The portable baseline build (no -march flags) uses SSE2 on x86-64 and
 * NEON on aarch64; AVX2/FMA engage automatically when the compiler is
 * allowed to emit them.
 */
#pragma once

#include <cstddef>

#if defined(__AVX2__)
#include <immintrin.h>
#define VQLLM_SIMD_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#include <emmintrin.h>
#define VQLLM_SIMD_SSE2 1
#elif defined(__aarch64__)
// vaddvq_f32 needs aarch64; 32-bit ARM falls back to scalar.
#include <arm_neon.h>
#define VQLLM_SIMD_NEON 1
#endif

namespace vqllm::simd {

/** @return name of the compiled-in instruction set. */
inline const char *
activeIsa()
{
#if defined(VQLLM_SIMD_AVX2)
    return "avx2";
#elif defined(VQLLM_SIMD_SSE2)
    return "sse2";
#elif defined(VQLLM_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

/** Rows per squaredDistances8 call (one 8-float block per coordinate). */
inline constexpr std::size_t kRowLanes = 8;

#if defined(VQLLM_SIMD_AVX2)

namespace detail {
inline float
hsum256(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}
} // namespace detail

/** @return sum_i a[i] * b[i]. */
inline float
dot(const float *a, const float *b, std::size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 va = _mm256_loadu_ps(a + i);
        __m256 vb = _mm256_loadu_ps(b + i);
#if defined(__FMA__)
        acc = _mm256_fmadd_ps(va, vb, acc);
#else
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
#endif
    }
    float sum = detail::hsum256(acc);
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

/** @return sum_i (a[i] - b[i])^2. */
inline float
squaredDistance(const float *a, const float *b, std::size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                 _mm256_loadu_ps(b + i));
#if defined(__FMA__)
        acc = _mm256_fmadd_ps(d, d, acc);
#else
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
#endif
    }
    float sum = detail::hsum256(acc);
    for (; i < n; ++i) {
        float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

/** acc[i] += s * x[i] for i in [0, n). */
inline void
fmaInto(float *acc, const float *x, float s, std::size_t n)
{
    __m256 vs = _mm256_set1_ps(s);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 va = _mm256_loadu_ps(acc + i);
        __m256 vx = _mm256_loadu_ps(x + i);
#if defined(__FMA__)
        va = _mm256_fmadd_ps(vx, vs, va);
#else
        va = _mm256_add_ps(va, _mm256_mul_ps(vx, vs));
#endif
        _mm256_storeu_ps(acc + i, va);
    }
    for (; i < n; ++i)
        acc[i] += s * x[i];
}

/**
 * out[l] = sum_d (q[d] - rows[d * kRowLanes + l])^2 for l in [0, 8):
 * one query against eight rows stored coordinate-major, lane-parallel
 * with no horizontal sum.  The summation order differs from
 * squaredDistance (last bits may differ), so callers use it as a filter.
 */
inline void
squaredDistances8(const float *q, const float *rows, std::size_t dim,
                  float *out)
{
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t d = 0; d < dim; ++d) {
        __m256 t = _mm256_sub_ps(_mm256_set1_ps(q[d]),
                                 _mm256_loadu_ps(rows + d * kRowLanes));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(t, t));
    }
    _mm256_storeu_ps(out, acc);
}

#elif defined(VQLLM_SIMD_SSE2)

namespace detail {
inline float
hsum128(__m128 v)
{
    __m128 s = _mm_add_ps(v, _mm_movehl_ps(v, v));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}
} // namespace detail

inline float
dot(const float *a, const float *b, std::size_t n)
{
    __m128 acc = _mm_setzero_ps();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(a + i),
                                         _mm_loadu_ps(b + i)));
    float sum = detail::hsum128(acc);
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

inline float
squaredDistance(const float *a, const float *b, std::size_t n)
{
    __m128 acc = _mm_setzero_ps();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
        acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    float sum = detail::hsum128(acc);
    for (; i < n; ++i) {
        float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

inline void
fmaInto(float *acc, const float *x, float s, std::size_t n)
{
    __m128 vs = _mm_set1_ps(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(acc + i,
                      _mm_add_ps(_mm_loadu_ps(acc + i),
                                 _mm_mul_ps(_mm_loadu_ps(x + i), vs)));
    for (; i < n; ++i)
        acc[i] += s * x[i];
}

/**
 * out[l] = sum_d (q[d] - rows[d * kRowLanes + l])^2 for l in [0, 8):
 * one query against eight rows stored coordinate-major, lane-parallel
 * with no horizontal sum.  The summation order differs from
 * squaredDistance (last bits may differ), so callers use it as a filter.
 */
inline void
squaredDistances8(const float *q, const float *rows, std::size_t dim,
                  float *out)
{
    __m128 lo = _mm_setzero_ps();
    __m128 hi = _mm_setzero_ps();
    for (std::size_t d = 0; d < dim; ++d) {
        __m128 qd = _mm_set1_ps(q[d]);
        __m128 tl = _mm_sub_ps(qd, _mm_loadu_ps(rows + d * kRowLanes));
        __m128 th = _mm_sub_ps(qd, _mm_loadu_ps(rows + d * kRowLanes + 4));
        lo = _mm_add_ps(lo, _mm_mul_ps(tl, tl));
        hi = _mm_add_ps(hi, _mm_mul_ps(th, th));
    }
    _mm_storeu_ps(out, lo);
    _mm_storeu_ps(out + 4, hi);
}

#elif defined(VQLLM_SIMD_NEON)

inline float
dot(const float *a, const float *b, std::size_t n)
{
    float32x4_t acc = vdupq_n_f32(0.0f);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = vmlaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
    float sum = vaddvq_f32(acc);
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

inline float
squaredDistance(const float *a, const float *b, std::size_t n)
{
    float32x4_t acc = vdupq_n_f32(0.0f);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
        acc = vmlaq_f32(acc, d, d);
    }
    float sum = vaddvq_f32(acc);
    for (; i < n; ++i) {
        float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

inline void
fmaInto(float *acc, const float *x, float s, std::size_t n)
{
    float32x4_t vs = vdupq_n_f32(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(acc + i,
                  vmlaq_f32(vld1q_f32(acc + i), vld1q_f32(x + i), vs));
    for (; i < n; ++i)
        acc[i] += s * x[i];
}

/**
 * out[l] = sum_d (q[d] - rows[d * kRowLanes + l])^2 for l in [0, 8):
 * one query against eight rows stored coordinate-major, lane-parallel
 * with no horizontal sum.  The summation order differs from
 * squaredDistance (last bits may differ), so callers use it as a filter.
 */
inline void
squaredDistances8(const float *q, const float *rows, std::size_t dim,
                  float *out)
{
    float32x4_t lo = vdupq_n_f32(0.0f);
    float32x4_t hi = vdupq_n_f32(0.0f);
    for (std::size_t d = 0; d < dim; ++d) {
        float32x4_t qd = vdupq_n_f32(q[d]);
        float32x4_t tl = vsubq_f32(qd, vld1q_f32(rows + d * kRowLanes));
        float32x4_t th =
            vsubq_f32(qd, vld1q_f32(rows + d * kRowLanes + 4));
        lo = vmlaq_f32(lo, tl, tl);
        hi = vmlaq_f32(hi, th, th);
    }
    vst1q_f32(out, lo);
    vst1q_f32(out + 4, hi);
}

#else // scalar fallback

inline float
dot(const float *a, const float *b, std::size_t n)
{
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

inline float
squaredDistance(const float *a, const float *b, std::size_t n)
{
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

inline void
fmaInto(float *acc, const float *x, float s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += s * x[i];
}

/**
 * out[l] = sum_d (q[d] - rows[d * kRowLanes + l])^2 for l in [0, 8):
 * one query against eight rows stored coordinate-major, lane-parallel
 * with no horizontal sum.  The summation order differs from
 * squaredDistance (last bits may differ), so callers use it as a filter.
 */
inline void
squaredDistances8(const float *q, const float *rows, std::size_t dim,
                  float *out)
{
    for (std::size_t l = 0; l < kRowLanes; ++l)
        out[l] = 0.0f;
    for (std::size_t d = 0; d < dim; ++d)
        for (std::size_t l = 0; l < kRowLanes; ++l) {
            float t = q[d] - rows[d * kRowLanes + l];
            out[l] += t * t;
        }
}

#endif

} // namespace vqllm::simd

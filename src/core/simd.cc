#include "core/simd.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RINGCNN_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace ringcnn::simd {

// ---- integer kernels: generic builds ---------------------------------------
//
// Every integer lane op below wraps mod 2^32 exactly like its AVX2
// counterpart: additions, subtractions and left shifts go through
// uint32, right shifts are arithmetic, and clamps happen before the
// narrowing to int16 (so AVX2's saturating pack never saturates).

namespace {

/** shift_round_saturate's shift on one int32 lane, split into the
 *  branch-free form both builds share: ((v + add) >> right) << left. */
struct LaneShift
{
    int32_t add = 0;
    int right = 0, left = 0;
};

LaneShift
lane_shift(int shift)
{
    LaneShift s;
    if (shift > 0) {
        s.add = static_cast<int32_t>(UINT32_C(1) << (shift - 1));
        s.right = shift;
    } else {
        s.left = -shift;
    }
    return s;
}

inline int32_t
wrap_add(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) +
                                static_cast<uint32_t>(b));
}

inline int32_t
wrap_sub(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) -
                                static_cast<uint32_t>(b));
}

inline int32_t
wrap_shl(int32_t v, int s)
{
    return static_cast<int32_t>(static_cast<uint32_t>(v) << s);
}

inline int32_t
apply_shift(int32_t v, const LaneShift& s)
{
    return wrap_shl(wrap_add(v, s.add) >> s.right, s.left);
}

inline int16_t
saturate(int32_t v, int32_t lo, int32_t hi)
{
    return static_cast<int16_t>(std::clamp(v, lo, hi));
}

int32_t
code_max(int bits)
{
    return (INT32_C(1) << (bits - 1)) - 1;
}

/** quant::shift_round_saturate in int64, clamped to [lo, hi]. */
inline int64_t
srs_i64(int64_t v, int shift, int64_t lo, int64_t hi)
{
    if (shift > 0) {
        v = (v + (INT64_C(1) << (shift - 1))) >> shift;
    } else if (shift < 0) {
        v = static_cast<int64_t>(static_cast<uint64_t>(v) << -shift);
    }
    return std::clamp(v, lo, hi);
}

/** Shifts for which the aligned add's int32 lanes are exact: an int16
 *  code shifted left by up to 16 or right (after the rounding add) by
 *  up to 31 stays inside int32. */
inline bool
add_shift_in_i32(int s)
{
    return s >= -16 && s <= 31;
}

/** fracs whose scale 2^-frac and every product with an int16 code are
 *  normal floats, so the float product is exact. */
inline bool
dequantize_in_float(int frac)
{
    return frac >= -111 && frac <= 126;
}

/** quant::wht_inplace's traversal on wrapping int32 lanes. */
void
wht_i32(int32_t* x, int n)
{
    for (int len = 1; len < n; len <<= 1) {
        for (int i = 0; i < n; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                const int32_t a = x[j];
                const int32_t b = x[j + len];
                x[j] = wrap_add(a, b);
                x[j + len] = wrap_sub(a, b);
            }
        }
    }
}

/** Widest tuple the directional kernels take. */
constexpr int kMaxTuple = 16;

}  // namespace

namespace detail {

void
madd_rows_i16_generic(int32_t* dst, const int16_t* src,
                      const int64_t* offsets, const int16_t* coeffs,
                      int ntaps, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        uint32_t acc = static_cast<uint32_t>(dst[i]);
        for (int t = 0; t < ntaps; ++t) {
            const int16_t* p = src + 2 * (offsets[t] + i);
            // One vpmaddwd lane: each 16x16 product is exact in int32.
            acc += static_cast<uint32_t>(static_cast<int32_t>(p[0]) *
                                         coeffs[2 * t]) +
                   static_cast<uint32_t>(static_cast<int32_t>(p[1]) *
                                         coeffs[2 * t + 1]);
        }
        dst[i] = static_cast<int32_t>(acc);
    }
}

void
requant_i32_i16_generic(int16_t* dst, const int32_t* src, int64_t len,
                        int shift, int bits, bool relu_first)
{
    const LaneShift s = lane_shift(shift);
    const int32_t hi = code_max(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        int32_t v = src[i];
        if (relu_first && v < 0) v = 0;
        dst[i] = saturate(apply_shift(v, s), lo, hi);
    }
}

void
dir_relu_otf_i32_i16_generic(int16_t* const* dst, const int32_t* const* src,
                             int n, const int* align, const int* shift,
                             int bits, int64_t len)
{
    LaneShift s[kMaxTuple];
    for (int j = 0; j < n; ++j) s[j] = lane_shift(shift[j]);
    const int32_t hi = code_max(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        int32_t t[kMaxTuple];
        for (int j = 0; j < n; ++j) t[j] = wrap_shl(src[j][i], align[j]);
        wht_i32(t, n);
        for (int j = 0; j < n; ++j) t[j] = std::max(t[j], 0);
        wht_i32(t, n);
        for (int j = 0; j < n; ++j) {
            dst[j][i] = saturate(apply_shift(t[j], s[j]), lo, hi);
        }
    }
}

void
dir_relu_qfirst_i32_i16_generic(int16_t* const* dst,
                                const int32_t* const* src, int n,
                                const int* pre, const int* mid,
                                const int* out, int bits, int64_t len)
{
    LaneShift sp[kMaxTuple], sm[kMaxTuple], so[kMaxTuple];
    for (int j = 0; j < n; ++j) {
        sp[j] = lane_shift(pre[j]);
        sm[j] = lane_shift(mid[j]);
        so[j] = lane_shift(out[j]);
    }
    const int32_t hi = code_max(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        int32_t y[kMaxTuple];
        for (int j = 0; j < n; ++j) {
            y[j] = std::clamp(apply_shift(src[j][i], sp[j]), lo, hi);
        }
        wht_i32(y, n);
        for (int j = 0; j < n; ++j) {
            y[j] = std::max(std::clamp(apply_shift(y[j], sm[j]), lo, hi), 0);
        }
        wht_i32(y, n);
        for (int j = 0; j < n; ++j) {
            dst[j][i] = saturate(apply_shift(y[j], so[j]), lo, hi);
        }
    }
}

// The scalar quantizer computes llround(ldexp(x, frac)) after a
// saturating compare. Here the scaling is one multiply by 2^frac in
// double, exact for every product that is a normal double (a float
// input has at most 24 significant bits); frac is clamped to the normal
// exponent range first, which changes no result (with |x| < 2^128 any
// frac <= -1022 rounds every input to 0, and with |x| >= 2^-149 any
// frac >= 1023 saturates every nonzero input). Clamping to the code
// range before rounding matches the compare-then-llround order, and
// trunc(v + copysign(0.5, v)) is llround's half-away-from-zero rounding
// — the addition is exact for every v that can round to a nonzero
// code, since v has at most 24 significant bits and |v| <= 2^15.
void
quantize_f32_i16_generic(int16_t* dst, const float* src, int64_t len,
                         int frac, int bits)
{
    const double scale = std::ldexp(1.0, std::clamp(frac, -1022, 1023));
    const double hi = static_cast<double>(code_max(bits));
    const double lo = -hi - 1.0;
    for (int64_t i = 0; i < len; ++i) {
        const double v = static_cast<double>(src[i]) * scale;
        if (std::isnan(v)) {
            dst[i] = 0;
            continue;
        }
        const double c = std::min(std::max(v, lo), hi);
        dst[i] = static_cast<int16_t>(std::trunc(c + std::copysign(0.5, c)));
    }
}

void
lerp_cols_i16_i32_generic(int32_t* dst, const int16_t* src,
                          const int32_t* cols, const int16_t* wts,
                          int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        const int16_t* p = src + cols[i];
        // One vpmaddwd lane: each 16x16 product is exact in int32.
        dst[i] = static_cast<int32_t>(
            static_cast<uint32_t>(static_cast<int32_t>(p[0]) * wts[2 * i]) +
            static_cast<uint32_t>(static_cast<int32_t>(p[1]) *
                                  wts[2 * i + 1]));
    }
}

void
lerp_rows_i32_i16_generic(int16_t* dst, const int32_t* a, const int32_t* b,
                          int32_t wa, int32_t wb, int64_t len, int shift,
                          int bits)
{
    const LaneShift s = lane_shift(shift);
    const int32_t hi = code_max(bits), lo = -hi - 1;
    const uint32_t ua = static_cast<uint32_t>(wa);
    const uint32_t ub = static_cast<uint32_t>(wb);
    for (int64_t i = 0; i < len; ++i) {
        const int32_t v = static_cast<int32_t>(
            ua * static_cast<uint32_t>(a[i]) + ub * static_cast<uint32_t>(b[i]));
        dst[i] = saturate(apply_shift(v, s), lo, hi);
    }
}

void
add_aligned_i16_generic(int16_t* dst, const int16_t* a, const int16_t* b,
                        int64_t len, int sa, int sb, int bits)
{
    const int64_t hi = code_max(bits), lo = -hi - 1;
    const int64_t hi2 = code_max(bits + 2), lo2 = -hi2 - 1;
    for (int64_t i = 0; i < len; ++i) {
        const int64_t va = srs_i64(a[i], sa, lo2, hi2);
        const int64_t vb = srs_i64(b[i], sb, lo2, hi2);
        dst[i] = static_cast<int16_t>(std::clamp(va + vb, lo, hi));
    }
}

void
dequantize_i16_f32_generic(float* dst, const int16_t* src, int64_t len,
                           int frac)
{
    if (!dequantize_in_float(frac)) {
        const double scale = std::ldexp(1.0, -frac);
        for (int64_t i = 0; i < len; ++i) {
            dst[i] = static_cast<float>(src[i] * scale);
        }
        return;
    }
    const float scale = std::ldexp(1.0f, -frac);
    for (int64_t i = 0; i < len; ++i) {
        dst[i] = static_cast<float>(src[i]) * scale;
    }
}

}  // namespace detail

namespace {

void
axpy_generic(float* dst, const float* src, float a, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) dst[i] += a * src[i];
}

// The reductions keep 8 independent lane accumulators and combine them
// with a fixed tree (see simd.h); the AVX2 versions perform the exact
// same additions on real lanes, so the two dispatch targets agree bit
// for bit.
float
reduce8(const float* lanes)
{
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

float
dot_generic(const float* a, const float* b, int64_t len)
{
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) lanes[j] += a[i + j] * b[i + j];
    }
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += a[i] * b[i];
    return acc;
}

float
sum_generic(const float* src, int64_t len)
{
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) lanes[j] += src[i + j];
    }
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += src[i];
    return acc;
}

// Blocked plane reduction (see simd.h): 8 float lanes per 256-element
// block, block results accumulated in double. The AVX2 version runs
// the same lanes on real vectors and the same reduce8 tree per block.
void
plane_sums_generic(const float* src, int64_t len, double* sum, double* asum)
{
    double ts = 0.0, ta = 0.0;
    int64_t i = 0;
    while (i < len) {
        const int64_t blk = len - i < 256 ? len - i : 256;
        float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        float alanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        int64_t j = 0;
        for (; j + 8 <= blk; j += 8) {
            for (int l = 0; l < 8; ++l) {
                const float v = src[i + j + l];
                lanes[l] += v;
                alanes[l] += std::fabs(v);
            }
        }
        float s = reduce8(lanes);
        float a = reduce8(alanes);
        for (; j < blk; ++j) {
            const float v = src[i + j];
            s += v;
            a += std::fabs(v);
        }
        ts += static_cast<double>(s);
        ta += static_cast<double>(a);
        i += blk;
    }
    *sum = ts;
    *asum = ta;
}

// std::fabs clears the sign bit (also of -0.0 and NaN), matching the
// AVX2 andnot mask lane for lane.
float
asum_generic(const float* src, int64_t len)
{
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) lanes[j] += std::fabs(src[i + j]);
    }
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += std::fabs(src[i]);
    return acc;
}

}  // namespace

// The fused multi-source kernels perform, per element, exactly the
// operation sequence of the equivalent multiply/axpy call chain (ascending
// term order, mul then add, no FMA), so every build and dispatch target
// produces identical bits — and identical bits to the unfused chain.
namespace detail {

void
axpy_rows_f32_generic(float* dst, const float* const* srcs,
                      const float* coeffs, int ntaps, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        float acc = dst[i];
        for (int t = 0; t < ntaps; ++t) acc += coeffs[t] * srcs[t][i];
        dst[i] = acc;
    }
}

void
matvec_rows_f32_generic(float* dst, const float* const* srcs,
                        const float* coeffs, int ntaps, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        float acc = coeffs[0] * srcs[0][i];
        for (int t = 1; t < ntaps; ++t) acc += coeffs[t] * srcs[t][i];
        dst[i] = acc;
    }
}

void
dir_relu_f32_generic(float* const* dst, const float* const* src, int n,
                     const float* u, const float* v, int64_t len,
                     uint8_t* const* mask)
{
    for (int64_t i = 0; i < len; ++i) {
        float x[kMaxTuple], t[kMaxTuple];
        for (int j = 0; j < n; ++j) x[j] = src[j][i];
        for (int k = 0; k < n; ++k) {
            const float* vk = v + k * n;
            float acc = vk[0] * x[0];
            for (int j = 1; j < n; ++j) acc += vk[j] * x[j];
            const bool pos = acc > 0.0f;
            t[k] = pos ? acc : 0.0f;
            if (mask != nullptr) mask[k][i] = pos ? 1 : 0;
        }
        for (int k = 0; k < n; ++k) {
            const float* uk = u + k * n;
            float acc = uk[0] * t[0];
            for (int j = 1; j < n; ++j) acc += uk[j] * t[j];
            dst[k][i] = acc;
        }
    }
}

}  // namespace detail

namespace {

// Max over |a-b| is exact arithmetic (fabs and max introduce no
// rounding), so the reduction order is free and the dispatch targets
// agree bit for bit on NaN-free inputs with no lane contract.
float
max_abs_diff_f32_generic(const float* a, const float* b, int64_t len)
{
    float m = 0.0f;
    for (int64_t i = 0; i < len; ++i) {
        const float d = std::fabs(a[i] - b[i]);
        if (d > m) m = d;
    }
    return m;
}

int
max_abs_diff_i8_generic(const int8_t* a, const int8_t* b, int64_t len)
{
    int m = 0;
    for (int64_t i = 0; i < len; ++i) {
        int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        if (d < 0) d = -d;
        if (d > m) m = d;
    }
    return m;
}

#ifdef RINGCNN_X86_DISPATCH

// Explicit 8-wide AVX2 rows. Deliberately mul+add rather than FMA: the
// x86-64 baseline scalar/SSE code cannot fuse, so keeping the same
// rounding here makes the fp32 path produce identical bits no matter
// which implementation the runtime dispatch picks.
__attribute__((target("avx2"))) void
axpy_avx2(float* dst, const float* src, float a, int64_t len)
{
    const __m256 va = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 s = _mm256_loadu_ps(src + i);
        const __m256 d = _mm256_loadu_ps(dst + i);
        _mm256_storeu_ps(dst + i, _mm256_add_ps(d, _mm256_mul_ps(va, s)));
    }
    for (; i < len; ++i) dst[i] += a * src[i];
}

// The vector accumulator's 8 lanes are exactly the 8 generic lanes
// (lane j holds elements j, j+8, ...); mul+add, no FMA, and the same
// reduce8 tree on the extracted lanes keep the bits identical to the
// generic build.
__attribute__((target("avx2"))) float
dot_avx2(const float* a, const float* b, int64_t len)
{
    __m256 vacc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        vacc = _mm256_add_ps(vacc, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                 _mm256_loadu_ps(b + i)));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vacc);
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += a[i] * b[i];
    return acc;
}

__attribute__((target("avx2"))) float
sum_avx2(const float* src, int64_t len)
{
    __m256 vacc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        vacc = _mm256_add_ps(vacc, _mm256_loadu_ps(src + i));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vacc);
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += src[i];
    return acc;
}

__attribute__((target("avx2"))) void
plane_sums_avx2(const float* src, int64_t len, double* sum, double* asum)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    double ts = 0.0, ta = 0.0;
    int64_t i = 0;
    while (i < len) {
        const int64_t blk = len - i < 256 ? len - i : 256;
        __m256 vs = _mm256_setzero_ps();
        __m256 va = _mm256_setzero_ps();
        int64_t j = 0;
        for (; j + 8 <= blk; j += 8) {
            const __m256 v = _mm256_loadu_ps(src + i + j);
            vs = _mm256_add_ps(vs, v);
            va = _mm256_add_ps(va, _mm256_andnot_ps(sign, v));
        }
        float lanes[8], alanes[8];
        _mm256_storeu_ps(lanes, vs);
        _mm256_storeu_ps(alanes, va);
        float s = reduce8(lanes);
        float a = reduce8(alanes);
        for (; j < blk; ++j) {
            const float v = src[i + j];
            s += v;
            a += std::fabs(v);
        }
        ts += static_cast<double>(s);
        ta += static_cast<double>(a);
        i += blk;
    }
    *sum = ts;
    *asum = ta;
}

__attribute__((target("avx2"))) float
asum_avx2(const float* src, int64_t len)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    __m256 vacc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        vacc = _mm256_add_ps(vacc,
                             _mm256_andnot_ps(sign, _mm256_loadu_ps(src + i)));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vacc);
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += std::fabs(src[i]);
    return acc;
}

// Register-tiled rows. One tile runs the whole tap loop over B blocks of
// 8 columns: blocks 0..B-2 at col, col+8, ... and block B-1 at `last`
// (either the next 8 columns or, when 8 does not divide len, the tail
// block anchored at len-8). Each tap's broadcast feeds B independent
// accumulator chains, so with B = 8 the FP-add latency is covered and
// port throughput, not the serial add chain, bounds the loop. Every
// lane sees the generic loop's op sequence: the overwriting form starts
// from the first product, the accumulating form from dst, and both add
// the remaining products in ascending tap order (mul+add, no FMA).
//
// Overlapped tail lanes: the overwriting form recomputes the values
// the other blocks store (a pure function of the sources), so the tail
// block is stored whole. The accumulating form stores only the tail's
// last 8 - `skip` lanes — the others were (or, within this tile, will
// be) written by another block, and may already hold their final sums.
template <int B, bool kAccumulate>
__attribute__((target("avx2"))) inline void
rows_tile_avx2(float* dst, const float* const* srcs, const float* coeffs,
               int ntaps, int64_t col, int64_t last, int skip)
{
    const auto at = [col, last](int j) {
        return j < B - 1 ? col + 8 * j : last;
    };
    __m256 acc[B];
    int t = 0;
    if (kAccumulate) {
#pragma GCC unroll 8
        for (int j = 0; j < B; ++j) acc[j] = _mm256_loadu_ps(dst + at(j));
    } else {
        const __m256 c = _mm256_set1_ps(coeffs[0]);
        const float* s = srcs[0];
#pragma GCC unroll 8
        for (int j = 0; j < B; ++j) {
            acc[j] = _mm256_mul_ps(c, _mm256_loadu_ps(s + at(j)));
        }
        t = 1;
    }
    for (; t < ntaps; ++t) {
        const __m256 c = _mm256_set1_ps(coeffs[t]);
        const float* s = srcs[t];
#pragma GCC unroll 8
        for (int j = 0; j < B; ++j) {
            acc[j] = _mm256_add_ps(acc[j],
                                   _mm256_mul_ps(c, _mm256_loadu_ps(s + at(j))));
        }
    }
#pragma GCC unroll 8
    for (int j = 0; j < B - 1; ++j) _mm256_storeu_ps(dst + at(j), acc[j]);
    if (kAccumulate && skip > 0) {
        const __m256i keep = _mm256_cmpgt_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(skip - 1));
        _mm256_maskstore_ps(dst + last, keep, acc[B - 1]);
    } else {
        _mm256_storeu_ps(dst + last, acc[B - 1]);
    }
}

template <bool kAccumulate>
__attribute__((target("avx2"))) void
rows_avx2(float* dst, const float* const* srcs, const float* coeffs,
          int ntaps, int64_t len)
{
    if (len < 8) {
        if (kAccumulate) {
            detail::axpy_rows_f32_generic(dst, srcs, coeffs, ntaps, len);
        } else {
            detail::matvec_rows_f32_generic(dst, srcs, coeffs, ntaps, len);
        }
        return;
    }
    int64_t i = 0;
    for (; i + 64 <= len; i += 64) {
        rows_tile_avx2<8, kAccumulate>(dst, srcs, coeffs, ntaps, i, i + 56,
                                       0);
    }
    if (i == len) return;
    // The remainder as ONE tile: its full blocks plus the tail block.
    const int full = static_cast<int>((len - i) / 8);
    const int rem = static_cast<int>((len - i) % 8);
    const int blocks = full + (rem > 0 ? 1 : 0);
    const int64_t last = rem > 0 ? len - 8 : i + 8 * (full - 1);
    const int skip = rem > 0 ? 8 - rem : 0;
    switch (blocks) {
#define RINGCNN_ROW_TILE(B)                                                  \
    case B:                                                                  \
        return rows_tile_avx2<B, kAccumulate>(dst, srcs, coeffs, ntaps, i,  \
                                              last, skip);
        RINGCNN_ROW_TILE(1)
        RINGCNN_ROW_TILE(2)
        RINGCNN_ROW_TILE(3)
        RINGCNN_ROW_TILE(4)
        RINGCNN_ROW_TILE(5)
        RINGCNN_ROW_TILE(6)
        RINGCNN_ROW_TILE(7)
        RINGCNN_ROW_TILE(8)
#undef RINGCNN_ROW_TILE
    }
}

/**
 * y_k = m[k][0]*x_0 + m[k][1]*x_1 + ... for one 8-lane block of each
 * x_j: the multiply first, then ascending-j adds.
 */
template <int N>
__attribute__((target("avx2"))) inline void
tuple_matvec_avx2(const __m256* x, __m256* y, const float* m)
{
#pragma GCC unroll 16
    for (int k = 0; k < N; ++k) {
        __m256 acc = _mm256_mul_ps(_mm256_set1_ps(m[k * N]), x[0]);
#pragma GCC unroll 16
        for (int j = 1; j < N; ++j) {
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(_mm256_set1_ps(m[k * N + j]), x[j]));
        }
        y[k] = acc;
    }
}

/** One 8-column block of dir_relu_f32 on N-tuples; `lanes` < 8 runs
 *  masked (maskload reads, and maskstore writes, only those lanes). */
template <int N>
__attribute__((target("avx2"))) inline void
dir_relu_block_avx2(float* const* dst, const float* const* src,
                    const float* u, const float* v, int64_t i, int lanes,
                    uint8_t* const* mask)
{
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(lanes), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256 x[N], t[N];
#pragma GCC unroll 16
    for (int j = 0; j < N; ++j) {
        x[j] = lanes == 8 ? _mm256_loadu_ps(src[j] + i)
                          : _mm256_maskload_ps(src[j] + i, live);
    }
    tuple_matvec_avx2<N>(x, t, v);
    const __m256 zero = _mm256_setzero_ps();
#pragma GCC unroll 16
    for (int k = 0; k < N; ++k) {
        if (mask != nullptr) {
            const int bits =
                _mm256_movemask_ps(_mm256_cmp_ps(t[k], zero, _CMP_GT_OQ));
            for (int l = 0; l < lanes; ++l) mask[k][i + l] = (bits >> l) & 1;
        }
        // max_ps(a, b) is a > b ? a : b — exactly the rectifier, with
        // -0 and NaN lanes taking the +0 operand.
        t[k] = _mm256_max_ps(t[k], zero);
    }
    tuple_matvec_avx2<N>(t, x, u);
#pragma GCC unroll 16
    for (int k = 0; k < N; ++k) {
        if (lanes == 8) {
            _mm256_storeu_ps(dst[k] + i, x[k]);
        } else {
            _mm256_maskstore_ps(dst[k] + i, live, x[k]);
        }
    }
}

template <int N>
__attribute__((target("avx2"))) void
dir_relu_avx2_n(float* const* dst, const float* const* src, const float* u,
                const float* v, int64_t len, uint8_t* const* mask)
{
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        dir_relu_block_avx2<N>(dst, src, u, v, i, 8, mask);
    }
    if (i < len) {
        dir_relu_block_avx2<N>(dst, src, u, v, i, static_cast<int>(len - i),
                               mask);
    }
}

__attribute__((target("avx2"))) void
dir_relu_avx2(float* const* dst, const float* const* src, int n,
              const float* u, const float* v, int64_t len,
              uint8_t* const* mask)
{
    switch (n) {
    case 1: return dir_relu_avx2_n<1>(dst, src, u, v, len, mask);
    case 2: return dir_relu_avx2_n<2>(dst, src, u, v, len, mask);
    case 4: return dir_relu_avx2_n<4>(dst, src, u, v, len, mask);
    case 8: return dir_relu_avx2_n<8>(dst, src, u, v, len, mask);
    case 16: return dir_relu_avx2_n<16>(dst, src, u, v, len, mask);
    default:
        detail::dir_relu_f32_generic(dst, src, n, u, v, len, mask);
    }
}

__attribute__((target("avx2"))) float
max_abs_diff_f32_avx2(const float* a, const float* b, int64_t len)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    __m256 vmax = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i));
        vmax = _mm256_max_ps(vmax, _mm256_andnot_ps(sign, d));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vmax);
    float m = 0.0f;
    for (int j = 0; j < 8; ++j) {
        if (lanes[j] > m) m = lanes[j];
    }
    for (; i < len; ++i) {
        const float d = std::fabs(a[i] - b[i]);
        if (d > m) m = d;
    }
    return m;
}

// Signed bytes have no vector abs-of-difference; XOR with 0x80 maps
// int8 to uint8 preserving differences ((a+128)-(b+128) = a-b), where
// max(subs_epu8(x,y), subs_epu8(y,x)) is the exact |x-y| — saturation
// never fires on whichever direction is the true nonnegative one.
__attribute__((target("avx2"))) int
max_abs_diff_i8_avx2(const int8_t* a, const int8_t* b, int64_t len)
{
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    __m256i vmax = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            bias);
        const __m256i y = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)),
            bias);
        const __m256i d = _mm256_max_epu8(_mm256_subs_epu8(x, y),
                                          _mm256_subs_epu8(y, x));
        vmax = _mm256_max_epu8(vmax, d);
    }
    uint8_t lanes[32];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), vmax);
    int m = 0;
    for (int j = 0; j < 32; ++j) {
        if (lanes[j] > m) m = lanes[j];
    }
    for (; i < len; ++i) {
        int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        if (d < 0) d = -d;
        if (d > m) m = d;
    }
    return m;
}

// ---- integer kernels: AVX2 builds -----------------------------------------

/** Stores 8 int32 lanes already clamped to int16 as 8 int16 codes. */
__attribute__((target("avx2"))) inline void
store_i16x8(int16_t* dst, __m256i v)
{
    const __m256i p = _mm256_permute4x64_epi64(_mm256_packs_epi32(v, v), 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm256_castsi256_si128(p));
}

__attribute__((target("avx2"))) inline __m256i
load_i32x8(const int32_t* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/** Broadcast of one (int16, int16) weight pair as a 32-bit word. */
__attribute__((target("avx2"))) inline __m256i
pair_word(const int16_t* c)
{
    int32_t w;
    std::memcpy(&w, c, sizeof w);
    return _mm256_set1_epi32(w);
}

/** LaneShift on 8 lanes: ((v + add) >> right) << left. */
struct LaneShiftX8
{
    __m256i add;
    __m128i right, left;
};

__attribute__((target("avx2"))) inline LaneShiftX8
lane_shift_x8(int shift)
{
    const LaneShift s = lane_shift(shift);
    return {_mm256_set1_epi32(s.add), _mm_cvtsi32_si128(s.right),
            _mm_cvtsi32_si128(s.left)};
}

__attribute__((target("avx2"))) inline __m256i
apply_shift_x8(__m256i v, const LaneShiftX8& s)
{
    return _mm256_sll_epi32(
        _mm256_sra_epi32(_mm256_add_epi32(v, s.add), s.right), s.left);
}

__attribute__((target("avx2"))) inline __m256i
clamp_x8(__m256i v, __m256i lo, __m256i hi)
{
    return _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
}

// 32 outputs per block: four independent accumulators, one broadcast
// per weight pair, four loads + vpmaddwd + add per tap. The < 8 tail
// runs masked (maskload never touches the lanes it leaves out), so no
// lane past len is read or written.
__attribute__((target("avx2"))) void
madd_rows_i16_avx2(int32_t* dst, const int16_t* src, const int64_t* offsets,
                   const int16_t* coeffs, int ntaps, int64_t len)
{
    int64_t i = 0;
    for (; i + 32 <= len; i += 32) {
        __m256i a0 = load_i32x8(dst + i);
        __m256i a1 = load_i32x8(dst + i + 8);
        __m256i a2 = load_i32x8(dst + i + 16);
        __m256i a3 = load_i32x8(dst + i + 24);
        for (int t = 0; t < ntaps; ++t) {
            const __m256i c = pair_word(coeffs + 2 * t);
            const int32_t* p = reinterpret_cast<const int32_t*>(
                src + 2 * (offsets[t] + i));
            a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(load_i32x8(p), c));
            a1 = _mm256_add_epi32(a1,
                                  _mm256_madd_epi16(load_i32x8(p + 8), c));
            a2 = _mm256_add_epi32(a2,
                                  _mm256_madd_epi16(load_i32x8(p + 16), c));
            a3 = _mm256_add_epi32(a3,
                                  _mm256_madd_epi16(load_i32x8(p + 24), c));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 8), a1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 16), a2);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 24), a3);
    }
    for (; i + 8 <= len; i += 8) {
        __m256i a = load_i32x8(dst + i);
        for (int t = 0; t < ntaps; ++t) {
            const int32_t* p = reinterpret_cast<const int32_t*>(
                src + 2 * (offsets[t] + i));
            a = _mm256_add_epi32(
                a, _mm256_madd_epi16(load_i32x8(p), pair_word(coeffs + 2 * t)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a);
    }
    if (i < len) {
        const __m256i mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int32_t>(len - i)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        __m256i a = _mm256_maskload_epi32(dst + i, mask);
        for (int t = 0; t < ntaps; ++t) {
            const int* p = reinterpret_cast<const int*>(
                src + 2 * (offsets[t] + i));
            a = _mm256_add_epi32(
                a, _mm256_madd_epi16(_mm256_maskload_epi32(p, mask),
                                     pair_word(coeffs + 2 * t)));
        }
        _mm256_maskstore_epi32(dst + i, mask, a);
    }
}

__attribute__((target("avx2"))) void
requant_i32_i16_avx2(int16_t* dst, const int32_t* src, int64_t len,
                     int shift, int bits, bool relu_first)
{
    const LaneShiftX8 s = lane_shift_x8(shift);
    const __m256i hi = _mm256_set1_epi32(code_max(bits));
    const __m256i lo = _mm256_set1_epi32(-code_max(bits) - 1);
    // max(v, 0) is the ReLU; max(v, INT32_MIN) the identity.
    const __m256i floor = _mm256_set1_epi32(relu_first ? 0 : INT32_MIN);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256i v = _mm256_max_epi32(load_i32x8(src + i), floor);
        store_i16x8(dst + i, clamp_x8(apply_shift_x8(v, s), lo, hi));
    }
    detail::requant_i32_i16_generic(dst + i, src + i, len - i, shift, bits,
                                    relu_first);
}

/** quant::wht_inplace's traversal on N vectors of 8 lanes. */
template <int N>
__attribute__((target("avx2"))) inline void
wht_x8(__m256i* x)
{
    for (int len = 1; len < N; len <<= 1) {
        for (int i = 0; i < N; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                const __m256i a = x[j];
                const __m256i b = x[j + len];
                x[j] = _mm256_add_epi32(a, b);
                x[j + len] = _mm256_sub_epi32(a, b);
            }
        }
    }
}

template <int N>
__attribute__((target("avx2"))) void
dir_relu_otf_avx2_n(int16_t* const* dst, const int32_t* const* src,
                    const int* align, const int* shift, int bits,
                    int64_t len)
{
    __m128i al[N];
    LaneShiftX8 s[N];
    for (int j = 0; j < N; ++j) {
        al[j] = _mm_cvtsi32_si128(align[j]);
        s[j] = lane_shift_x8(shift[j]);
    }
    const __m256i hi = _mm256_set1_epi32(code_max(bits));
    const __m256i lo = _mm256_set1_epi32(-code_max(bits) - 1);
    const __m256i zero = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        __m256i t[N];
        for (int j = 0; j < N; ++j) {
            t[j] = _mm256_sll_epi32(load_i32x8(src[j] + i), al[j]);
        }
        wht_x8<N>(t);
        for (int j = 0; j < N; ++j) t[j] = _mm256_max_epi32(t[j], zero);
        wht_x8<N>(t);
        for (int j = 0; j < N; ++j) {
            store_i16x8(dst[j] + i, clamp_x8(apply_shift_x8(t[j], s[j]), lo, hi));
        }
    }
    if (i < len) {
        const int32_t* st[N];
        int16_t* dt[N];
        for (int j = 0; j < N; ++j) {
            st[j] = src[j] + i;
            dt[j] = dst[j] + i;
        }
        detail::dir_relu_otf_i32_i16_generic(dt, st, N, align, shift, bits,
                                             len - i);
    }
}

template <int N>
__attribute__((target("avx2"))) void
dir_relu_qfirst_avx2_n(int16_t* const* dst, const int32_t* const* src,
                       const int* pre, const int* mid, const int* out,
                       int bits, int64_t len)
{
    LaneShiftX8 sp[N], sm[N], so[N];
    for (int j = 0; j < N; ++j) {
        sp[j] = lane_shift_x8(pre[j]);
        sm[j] = lane_shift_x8(mid[j]);
        so[j] = lane_shift_x8(out[j]);
    }
    const __m256i hi = _mm256_set1_epi32(code_max(bits));
    const __m256i lo = _mm256_set1_epi32(-code_max(bits) - 1);
    const __m256i zero = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        __m256i y[N];
        for (int j = 0; j < N; ++j) {
            y[j] = clamp_x8(apply_shift_x8(load_i32x8(src[j] + i), sp[j]), lo,
                            hi);
        }
        wht_x8<N>(y);
        for (int j = 0; j < N; ++j) {
            y[j] = _mm256_max_epi32(
                clamp_x8(apply_shift_x8(y[j], sm[j]), lo, hi), zero);
        }
        wht_x8<N>(y);
        for (int j = 0; j < N; ++j) {
            store_i16x8(dst[j] + i, clamp_x8(apply_shift_x8(y[j], so[j]), lo, hi));
        }
    }
    if (i < len) {
        const int32_t* st[N];
        int16_t* dt[N];
        for (int j = 0; j < N; ++j) {
            st[j] = src[j] + i;
            dt[j] = dst[j] + i;
        }
        detail::dir_relu_qfirst_i32_i16_generic(dt, st, N, pre, mid, out,
                                                bits, len - i);
    }
}

__attribute__((target("avx2"))) void
dir_relu_otf_avx2(int16_t* const* dst, const int32_t* const* src, int n,
                  const int* align, const int* shift, int bits, int64_t len)
{
    switch (n) {
    case 1: return dir_relu_otf_avx2_n<1>(dst, src, align, shift, bits, len);
    case 2: return dir_relu_otf_avx2_n<2>(dst, src, align, shift, bits, len);
    case 4: return dir_relu_otf_avx2_n<4>(dst, src, align, shift, bits, len);
    case 8: return dir_relu_otf_avx2_n<8>(dst, src, align, shift, bits, len);
    case 16:
        return dir_relu_otf_avx2_n<16>(dst, src, align, shift, bits, len);
    default:
        detail::dir_relu_otf_i32_i16_generic(dst, src, n, align, shift, bits,
                                             len);
    }
}

__attribute__((target("avx2"))) void
dir_relu_qfirst_avx2(int16_t* const* dst, const int32_t* const* src, int n,
                     const int* pre, const int* mid, const int* out, int bits,
                     int64_t len)
{
    switch (n) {
    case 1:
        return dir_relu_qfirst_avx2_n<1>(dst, src, pre, mid, out, bits, len);
    case 2:
        return dir_relu_qfirst_avx2_n<2>(dst, src, pre, mid, out, bits, len);
    case 4:
        return dir_relu_qfirst_avx2_n<4>(dst, src, pre, mid, out, bits, len);
    case 8:
        return dir_relu_qfirst_avx2_n<8>(dst, src, pre, mid, out, bits, len);
    case 16:
        return dir_relu_qfirst_avx2_n<16>(dst, src, pre, mid, out, bits, len);
    default:
        detail::dir_relu_qfirst_i32_i16_generic(dst, src, n, pre, mid, out,
                                                bits, len);
    }
}

/** Four doubles through the generic quantizer's steps; returns the
 *  int32 codes (NaN lanes 0). */
__attribute__((target("avx2"))) inline __m128i
quantize_pd(__m256d v, __m256d lo, __m256d hi)
{
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256d ordered = _mm256_cmp_pd(v, v, _CMP_ORD_Q);
    const __m256d c = _mm256_min_pd(_mm256_max_pd(v, lo), hi);
    const __m256d half =
        _mm256_or_pd(_mm256_set1_pd(0.5), _mm256_and_pd(c, sign));
    const __m256d r = _mm256_round_pd(_mm256_add_pd(c, half),
                                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    return _mm256_cvttpd_epi32(_mm256_and_pd(r, ordered));
}

__attribute__((target("avx2"))) void
quantize_f32_i16_avx2(int16_t* dst, const float* src, int64_t len, int frac,
                      int bits)
{
    const __m256d scale =
        _mm256_set1_pd(std::ldexp(1.0, std::clamp(frac, -1022, 1023)));
    const __m256d hi = _mm256_set1_pd(static_cast<double>(code_max(bits)));
    const __m256d lo =
        _mm256_set1_pd(-static_cast<double>(code_max(bits)) - 1.0);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 f = _mm256_loadu_ps(src + i);
        const __m256d d0 =
            _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(f)), scale);
        const __m256d d1 =
            _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(f, 1)), scale);
        const __m256i q = _mm256_setr_m128i(quantize_pd(d0, lo, hi),
                                            quantize_pd(d1, lo, hi));
        store_i16x8(dst + i, q);
    }
    detail::quantize_f32_i16_generic(dst + i, src + i, len - i, frac, bits);
}

/** Stores 16 int32 lanes already clamped to int16 as 16 int16 codes. */
__attribute__((target("avx2"))) inline void
store_i16x16(int16_t* dst, __m256i lo8, __m256i hi8)
{
    const __m256i p =
        _mm256_permute4x64_epi64(_mm256_packs_epi32(lo8, hi8), 0xd8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), p);
}

// Each lane gathers the 32-bit word at src + cols[i]: the code pair
// (src[cols[i]], src[cols[i] + 1]), which vpmaddwd blends with its
// weight pair.
__attribute__((target("avx2"))) void
lerp_cols_i16_i32_avx2(int32_t* dst, const int16_t* src, const int32_t* cols,
                       const int16_t* wts, int64_t len)
{
    const int* base = reinterpret_cast<const int*>(src);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256i pairs = _mm256_i32gather_epi32(
            base, load_i32x8(cols + i), sizeof(int16_t));
        const __m256i w =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wts + 2 * i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_madd_epi16(pairs, w));
    }
    detail::lerp_cols_i16_i32_generic(dst + i, src, cols + i, wts + 2 * i,
                                      len - i);
}

/** The blend of lerp_rows_i32_i16 on 8 lanes from a + j and b + j. */
__attribute__((target("avx2"))) inline __m256i
lerp_x8(const int32_t* a, const int32_t* b, __m256i ca, __m256i cb,
        const LaneShiftX8& s, __m256i lo, __m256i hi)
{
    const __m256i v = _mm256_add_epi32(_mm256_mullo_epi32(load_i32x8(a), ca),
                                       _mm256_mullo_epi32(load_i32x8(b), cb));
    return clamp_x8(apply_shift_x8(v, s), lo, hi);
}

__attribute__((target("avx2"))) void
lerp_rows_i32_i16_avx2(int16_t* dst, const int32_t* a, const int32_t* b,
                       int32_t wa, int32_t wb, int64_t len, int shift,
                       int bits)
{
    const LaneShiftX8 s = lane_shift_x8(shift);
    const __m256i hi = _mm256_set1_epi32(code_max(bits));
    const __m256i lo = _mm256_set1_epi32(-code_max(bits) - 1);
    const __m256i ca = _mm256_set1_epi32(wa);
    const __m256i cb = _mm256_set1_epi32(wb);
    int64_t i = 0;
    for (; i + 16 <= len; i += 16) {
        store_i16x16(dst + i, lerp_x8(a + i, b + i, ca, cb, s, lo, hi),
                     lerp_x8(a + i + 8, b + i + 8, ca, cb, s, lo, hi));
    }
    for (; i + 8 <= len; i += 8) {
        store_i16x8(dst + i, lerp_x8(a + i, b + i, ca, cb, s, lo, hi));
    }
    detail::lerp_rows_i32_i16_generic(dst + i, a + i, b + i, wa, wb, len - i,
                                      shift, bits);
}

/** Shift/clamp bounds of add_aligned_i16 on 8 lanes. */
struct AddAlignX8
{
    LaneShiftX8 sa, sb;
    __m256i lo, hi;    ///< the output code range
    __m256i lo2, hi2;  ///< the aligned operands' range (bits + 2)
};

/** Eight codes of each operand, widened: both aligned to bits + 2,
 *  added, and saturated to bits. */
__attribute__((target("avx2"))) inline __m256i
add_aligned_x8(__m128i ca, __m128i cb, const AddAlignX8& k)
{
    const __m256i va = clamp_x8(
        apply_shift_x8(_mm256_cvtepi16_epi32(ca), k.sa), k.lo2, k.hi2);
    const __m256i vb = clamp_x8(
        apply_shift_x8(_mm256_cvtepi16_epi32(cb), k.sb), k.lo2, k.hi2);
    return clamp_x8(_mm256_add_epi32(va, vb), k.lo, k.hi);
}

__attribute__((target("avx2"))) void
add_aligned_i16_avx2(int16_t* dst, const int16_t* a, const int16_t* b,
                     int64_t len, int sa, int sb, int bits)
{
    if (!add_shift_in_i32(sa) || !add_shift_in_i32(sb)) {
        detail::add_aligned_i16_generic(dst, a, b, len, sa, sb, bits);
        return;
    }
    const AddAlignX8 k{lane_shift_x8(sa),
                       lane_shift_x8(sb),
                       _mm256_set1_epi32(-code_max(bits) - 1),
                       _mm256_set1_epi32(code_max(bits)),
                       _mm256_set1_epi32(-code_max(bits + 2) - 1),
                       _mm256_set1_epi32(code_max(bits + 2))};
    int64_t i = 0;
    for (; i + 16 <= len; i += 16) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        store_i16x16(dst + i,
                     add_aligned_x8(_mm256_castsi256_si128(va),
                                    _mm256_castsi256_si128(vb), k),
                     add_aligned_x8(_mm256_extracti128_si256(va, 1),
                                    _mm256_extracti128_si256(vb, 1), k));
    }
    detail::add_aligned_i16_generic(dst + i, a + i, b + i, len - i, sa, sb,
                                    bits);
}

/** Eight codes times an exact float scale. */
__attribute__((target("avx2"))) inline __m256
dequantize_x8(__m128i c, __m256 scale)
{
    return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(c)), scale);
}

__attribute__((target("avx2"))) void
dequantize_i16_f32_avx2(float* dst, const int16_t* src, int64_t len, int frac)
{
    if (!dequantize_in_float(frac)) {
        detail::dequantize_i16_f32_generic(dst, src, len, frac);
        return;
    }
    const __m256 scale = _mm256_set1_ps(std::ldexp(1.0f, -frac));
    int64_t i = 0;
    for (; i + 16 <= len; i += 16) {
        const __m256i c =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_ps(dst + i,
                         dequantize_x8(_mm256_castsi256_si128(c), scale));
        _mm256_storeu_ps(dst + i + 8,
                         dequantize_x8(_mm256_extracti128_si256(c, 1), scale));
    }
    detail::dequantize_i16_f32_generic(dst + i, src + i, len - i, frac);
}

bool
have_avx2()
{
    return __builtin_cpu_supports("avx2");
}

#endif  // RINGCNN_X86_DISPATCH

using AxpyFn = void (*)(float*, const float*, float, int64_t);
using DotFn = float (*)(const float*, const float*, int64_t);
using SumFn = float (*)(const float*, int64_t);
using RowsFn = void (*)(float*, const float* const*, const float*, int,
                        int64_t);
using DirF32Fn = void (*)(float* const*, const float* const*, int,
                          const float*, const float*, int64_t,
                          uint8_t* const*);
using PlaneSumsFn = void (*)(const float*, int64_t, double*, double*);
using MaxAbsDiffFn = float (*)(const float*, const float*, int64_t);
using MaxAbsDiffI8Fn = int (*)(const int8_t*, const int8_t*, int64_t);
using MaddRowsFn = void (*)(int32_t*, const int16_t*, const int64_t*,
                            const int16_t*, int, int64_t);
using RequantFn = void (*)(int16_t*, const int32_t*, int64_t, int, int, bool);
using DirOtfFn = void (*)(int16_t* const*, const int32_t* const*, int,
                          const int*, const int*, int, int64_t);
using DirQfirstFn = void (*)(int16_t* const*, const int32_t* const*, int,
                             const int*, const int*, const int*, int,
                             int64_t);
using QuantizeFn = void (*)(int16_t*, const float*, int64_t, int, int);
using LerpColsFn = void (*)(int32_t*, const int16_t*, const int32_t*,
                            const int16_t*, int64_t);
using LerpFn = void (*)(int16_t*, const int32_t*, const int32_t*, int32_t,
                        int32_t, int64_t, int, int);
using AddAlignedFn = void (*)(int16_t*, const int16_t*, const int16_t*,
                              int64_t, int, int, int);
using DequantizeFn = void (*)(float*, const int16_t*, int64_t, int);

struct Dispatch
{
    AxpyFn axpy = axpy_generic;
    DotFn dot = dot_generic;
    SumFn sum = sum_generic;
    SumFn asum = asum_generic;
    PlaneSumsFn plane_sums = plane_sums_generic;
    RowsFn axpy_rows = detail::axpy_rows_f32_generic;
    RowsFn matvec_rows = detail::matvec_rows_f32_generic;
    DirF32Fn dir_f32 = detail::dir_relu_f32_generic;
    MaxAbsDiffFn max_abs_diff = max_abs_diff_f32_generic;
    MaxAbsDiffI8Fn max_abs_diff_i8 = max_abs_diff_i8_generic;
    MaddRowsFn madd_rows = detail::madd_rows_i16_generic;
    RequantFn requant = detail::requant_i32_i16_generic;
    DirOtfFn dir_otf = detail::dir_relu_otf_i32_i16_generic;
    DirQfirstFn dir_qfirst = detail::dir_relu_qfirst_i32_i16_generic;
    QuantizeFn quantize = detail::quantize_f32_i16_generic;
    LerpColsFn lerp_cols = detail::lerp_cols_i16_i32_generic;
    LerpFn lerp = detail::lerp_rows_i32_i16_generic;
    AddAlignedFn add_aligned = detail::add_aligned_i16_generic;
    DequantizeFn dequantize = detail::dequantize_i16_f32_generic;
    const char* isa = "generic";

    Dispatch()
    {
#ifdef RINGCNN_X86_DISPATCH
        if (have_avx2()) {
            axpy = axpy_avx2;
            dot = dot_avx2;
            sum = sum_avx2;
            asum = asum_avx2;
            plane_sums = plane_sums_avx2;
            axpy_rows = rows_avx2<true>;
            matvec_rows = rows_avx2<false>;
            dir_f32 = dir_relu_avx2;
            max_abs_diff = max_abs_diff_f32_avx2;
            max_abs_diff_i8 = max_abs_diff_i8_avx2;
            madd_rows = madd_rows_i16_avx2;
            requant = requant_i32_i16_avx2;
            dir_otf = dir_relu_otf_avx2;
            dir_qfirst = dir_relu_qfirst_avx2;
            quantize = quantize_f32_i16_avx2;
            lerp_cols = lerp_cols_i16_i32_avx2;
            lerp = lerp_rows_i32_i16_avx2;
            add_aligned = add_aligned_i16_avx2;
            dequantize = dequantize_i16_f32_avx2;
            isa = "avx2";
        }
#endif
    }
};

const Dispatch&
dispatch()
{
    static const Dispatch d;
    return d;
}

}  // namespace

// ---- fp32 row-kernel resolvers (see simd.h) --------------------------------
//
// The atomics start at these resolver thunks; the first call per kernel
// swaps in the dispatched implementation and forwards, so the steady
// state is one relaxed load + indirect call with no init guard.

namespace {

void
axpy_resolver(float* dst, const float* src, float a, int64_t len)
{
    const AxpyFn f = dispatch().axpy;
    detail::axpy_f32_impl.store(f, std::memory_order_relaxed);
    f(dst, src, a, len);
}

float
dot_resolver(const float* a, const float* b, int64_t len)
{
    const DotFn f = dispatch().dot;
    detail::dot_f32_impl.store(f, std::memory_order_relaxed);
    return f(a, b, len);
}

float
sum_resolver(const float* src, int64_t len)
{
    const SumFn f = dispatch().sum;
    detail::sum_f32_impl.store(f, std::memory_order_relaxed);
    return f(src, len);
}

float
asum_resolver(const float* src, int64_t len)
{
    const SumFn f = dispatch().asum;
    detail::asum_f32_impl.store(f, std::memory_order_relaxed);
    return f(src, len);
}

}  // namespace

namespace detail {
std::atomic<AxpyFn> axpy_f32_impl{axpy_resolver};
std::atomic<DotFn> dot_f32_impl{dot_resolver};
std::atomic<SumFn> sum_f32_impl{sum_resolver};
std::atomic<SumFn> asum_f32_impl{asum_resolver};
}  // namespace detail

void
plane_sums_f32(const float* src, int64_t len, double* sum, double* asum)
{
    dispatch().plane_sums(src, len, sum, asum);
}

void
axpy_rows_f32(float* dst, const float* const* srcs, const float* coeffs,
              int ntaps, int64_t len)
{
    if (ntaps <= 0) return;
    dispatch().axpy_rows(dst, srcs, coeffs, ntaps, len);
}

void
matvec_rows_f32(float* dst, const float* const* srcs, const float* coeffs,
                int ntaps, int64_t len)
{
    dispatch().matvec_rows(dst, srcs, coeffs, ntaps, len);
}

void
dir_relu_f32(float* const* dst, const float* const* src, int n,
             const float* u, const float* v, int64_t len, uint8_t* const* mask)
{
    dispatch().dir_f32(dst, src, n, u, v, len, mask);
}

void
madd_rows_i16(int32_t* dst, const int16_t* src, const int64_t* offsets,
              const int16_t* coeffs, int ntaps, int64_t len)
{
    if (ntaps <= 0) return;
    dispatch().madd_rows(dst, src, offsets, coeffs, ntaps, len);
}

void
requant_i32_i16(int16_t* dst, const int32_t* src, int64_t len, int shift,
                int bits, bool relu_first)
{
    dispatch().requant(dst, src, len, shift, bits, relu_first);
}

void
dir_relu_otf_i32_i16(int16_t* const* dst, const int32_t* const* src, int n,
                     const int* align, const int* shift, int bits,
                     int64_t len)
{
    dispatch().dir_otf(dst, src, n, align, shift, bits, len);
}

void
dir_relu_qfirst_i32_i16(int16_t* const* dst, const int32_t* const* src,
                        int n, const int* pre, const int* mid,
                        const int* out, int bits, int64_t len)
{
    dispatch().dir_qfirst(dst, src, n, pre, mid, out, bits, len);
}

void
quantize_f32_i16(int16_t* dst, const float* src, int64_t len, int frac,
                 int bits)
{
    dispatch().quantize(dst, src, len, frac, bits);
}

void
lerp_cols_i16_i32(int32_t* dst, const int16_t* src, const int32_t* cols,
                  const int16_t* wts, int64_t len)
{
    dispatch().lerp_cols(dst, src, cols, wts, len);
}

void
lerp_rows_i32_i16(int16_t* dst, const int32_t* a, const int32_t* b,
                  int32_t wa, int32_t wb, int64_t len, int shift, int bits)
{
    dispatch().lerp(dst, a, b, wa, wb, len, shift, bits);
}

void
add_aligned_i16(int16_t* dst, const int16_t* a, const int16_t* b, int64_t len,
                int sa, int sb, int bits)
{
    dispatch().add_aligned(dst, a, b, len, sa, sb, bits);
}

void
dequantize_i16_f32(float* dst, const int16_t* src, int64_t len, int frac)
{
    dispatch().dequantize(dst, src, len, frac);
}

float
max_abs_diff_f32(const float* a, const float* b, int64_t len)
{
    return dispatch().max_abs_diff(a, b, len);
}

int
max_abs_diff_i8(const int8_t* a, const int8_t* b, int64_t len)
{
    return dispatch().max_abs_diff_i8(a, b, len);
}

const char*
active_isa()
{
    return dispatch().isa;
}

}  // namespace ringcnn::simd

/**
 * @file
 * Vector-friendly float32, int16 and int32 primitives for the conv hot
 * loops.
 *
 * Every heavy inner loop of the fp32 engine path reduces to the
 * stride-1 row kernel
 *
 *   axpy_f32:  dst[i] += a * src[i]     (conv taps, reconstruction)
 *
 * its fused multi-source forms (axpy_rows_f32, matvec_rows_f32), and
 * the per-column directional ReLU of the fH epilogue (dir_relu_f32).
 * The training backward passes add two row *reductions* with a fixed
 * 8-lane accumulation contract (see dot_f32 below):
 *
 *   dot_f32:   sum_i a[i] * b[i]        (weight gradients)
 *   sum_f32:   sum_i src[i]             (bias gradients)
 *
 * The quantized path keeps activations as int16 codes and accumulates
 * in int32 lanes:
 *
 *   madd_rows_i16:   dst[i] += sum_t <src pair, weight pair>  (conv rows,
 *                    two taps per vpmaddwd lane op)
 *   requant_i32_i16, dir_relu_*_i32_i16: fused conv epilogues, int32
 *                    accumulators in, saturated int16 codes out
 *   quantize_f32_i16: float image -> int16 codes (QFormat::quantize)
 *   lerp_cols_i16_i32, lerp_rows_i32_i16, add_aligned_i16,
 *   dequantize_i16_f32: the non-conv steps — the bilinear upsampler's
 *                    horizontal and vertical passes, residual and branch
 *                    adds, int16 codes -> float output
 *
 * The generic builds are plain loops the compiler auto-vectorizes at
 * -O2/-O3 (verified by the perf_ringconv fp32 microbenchmarks). On
 * x86-64 GCC/Clang additionally compile explicit AVX2 versions via the
 * target attribute — no -mavx2 flag needed — and dispatch at runtime
 * with __builtin_cpu_supports, so one binary runs the widest ISA the
 * machine has. On AArch64, NEON is baseline and the plain loops
 * vectorize to it directly.
 *
 * Determinism: the float kernels perform one multiply and one add per
 * element in index order with no reassociation, and the AVX2 path
 * deliberately avoids FMA contraction, so every dispatch target
 * produces identical bits; the generic builds of the fp32 row and
 * directional kernels are exposed in simd::detail so tests can pin
 * that. The fp32 engine is pinned against the fp64 oracle
 * ring_conv_fast() to float rounding.
 *
 * The integer kernels compute in wrapping int32 lanes (the generic
 * builds go through uint32, matching AVX2's add/sub/shift lanes), so
 * every dispatch target produces identical bits unconditionally; the
 * generic builds are exposed in simd::detail so tests can pin that.
 * They equal the int64 fixed-point oracle whenever the true values fit
 * int32 — the quantized conv planner proves that bound statically
 * before picking this path.
 */
#ifndef RINGCNN_CORE_SIMD_H
#define RINGCNN_CORE_SIMD_H

#include <atomic>
#include <cmath>
#include <cstdint>

namespace ringcnn::simd {

namespace detail {

// The fp32 row kernels are wrapped by inline functions with two
// properties the training kernels' short rows need:
//  - rows below a small threshold run a plain inline loop — the
//    per-row indirect call (and its code-gen barrier) costs more than
//    the row itself on 8..16-pixel patches, and the arithmetic is
//    element-wise, so every implementation produces identical bits;
//  - longer rows go through a self-resolving atomic function pointer
//    (relaxed loads compile to a plain move): the first call swaps in
//    the dispatched AVX2/generic implementation, after which there is
//    no static-init guard on the row path.
using AxpyFn = void (*)(float*, const float*, float, int64_t);
using DotFn = float (*)(const float*, const float*, int64_t);
using SumFn = float (*)(const float*, int64_t);
extern std::atomic<AxpyFn> axpy_f32_impl;
extern std::atomic<DotFn> dot_f32_impl;
extern std::atomic<SumFn> sum_f32_impl;
extern std::atomic<SumFn> asum_f32_impl;

/** Rows shorter than this run inline (element-wise kernels only). */
constexpr int64_t kInlineRow = 16;

}  // namespace detail

/** dst[i] += a * src[i] for i in [0, len). */
inline void axpy_f32(float* dst, const float* src, float a, int64_t len)
{
    if (len < detail::kInlineRow) {
        for (int64_t i = 0; i < len; ++i) dst[i] += a * src[i];
        return;
    }
    detail::axpy_f32_impl.load(std::memory_order_relaxed)(dst, src, a, len);
}

/**
 * Returns sum_i a[i] * b[i] for i in [0, len) — the shifted-row inner
 * product of the training backward-weights pass.
 *
 * Reduction order is part of the contract: both dispatch targets keep 8
 * independent lane accumulators over the stride-8 index grid (lane j
 * sums elements j, j+8, j+16, ...), combine them with the fixed tree
 * ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then fold the < 8 tail
 * elements in sequentially. Identical bits on every backend, and under
 * any row banding the callers keep fixed. (The inline len < 8 shortcut
 * IS that contract: zero full blocks reduce to +0.0f, then the tail
 * folds sequentially.)
 */
inline float dot_f32(const float* a, const float* b, int64_t len)
{
    if (len < 8) {
        float acc = 0.0f;
        for (int64_t i = 0; i < len; ++i) acc += a[i] * b[i];
        return acc;
    }
    return detail::dot_f32_impl.load(std::memory_order_relaxed)(a, b, len);
}

/**
 * Returns sum_i src[i] for i in [0, len) — the row-sum reduction of the
 * bias gradient. Same 8-lane reduction contract as dot_f32.
 */
inline float sum_f32(const float* src, int64_t len)
{
    if (len < 8) {
        float acc = 0.0f;
        for (int64_t i = 0; i < len; ++i) acc += src[i];
        return acc;
    }
    return detail::sum_f32_impl.load(std::memory_order_relaxed)(src, len);
}

/**
 * Returns sum_i |src[i]| for i in [0, len) — the magnitude-bound
 * reduction of the ABFT checksum's rounding tolerance. Same 8-lane
 * reduction contract as dot_f32.
 */
inline float asum_f32(const float* src, int64_t len)
{
    if (len < 8) {
        float acc = 0.0f;
        for (int64_t i = 0; i < len; ++i) acc += std::fabs(src[i]);
        return acc;
    }
    return detail::asum_f32_impl.load(std::memory_order_relaxed)(src, len);
}

/**
 * One-pass plane reduction: *sum = sum_i src[i] and *asum =
 * sum_i |src[i]| over [0, len), read once. Both accumulate in 8 float
 * lanes flushed to a double accumulator every 256 elements, so the
 * rounding error stays O(32 eps) RELATIVE regardless of len — the ABFT
 * checksum's whole-plane reductions need that length-independence.
 * Within each block the lane/tree contract of dot_f32 applies, and the
 * two dispatch targets agree bit for bit.
 */
void plane_sums_f32(const float* src, int64_t len, double* sum,
                    double* asum);

/**
 * Fused multi-source accumulation: for each i in [0, len),
 *
 *   dst[i] = (...((dst[i] + c[0]*srcs[0][i]) + c[1]*srcs[1][i])...)
 *
 * with one multiply and one add per term, in ascending term order — the
 * exact per-element operation sequence of `ntaps` successive axpy_f32
 * calls, but in ONE pass over dst. The conv band kernels use this to
 * accumulate every (ci, ky, kx) tap of an output row while the
 * accumulator stays in registers: per-tap axpy traffic (load dst + store
 * dst per tap) collapses to one load and one store per row. The AVX2
 * build register-tiles up to 8 blocks of 8 columns per tap loop (the
 * last block anchored at len-8 when 8 does not divide len), so each
 * tap's broadcast feeds 8 independent add chains instead of one.
 * Bit-identical to the unfused call sequence on every dispatch target
 * (elementwise mul+add, no FMA, no reassociation). ntaps == 0 is a
 * no-op.
 */
void axpy_rows_f32(float* dst, const float* const* srcs,
                   const float* coeffs, int ntaps, int64_t len);

/**
 * Overwriting variant: dst[i] = c[0]*srcs[0][i] + c[1]*srcs[1][i] + ...
 * in ascending term order — the per-element sequence of one multiply
 * followed by ntaps-1 axpy_f32 calls, fused into one pass, with the same
 * register tiling. Requires ntaps >= 1; dst must not alias a source. The
 * engine's conv rows and input transforms use this shape.
 */
void matvec_rows_f32(float* dst, const float* const* srcs,
                     const float* coeffs, int ntaps, int64_t len);

/**
 * Directional ReLU over one n-tuple of rows (n <= 16), y = U fcw(V x):
 * for each i in [0, len), with x_j = src[j][i],
 *
 *   t_k = v[k][0]*x_0 + v[k][1]*x_1 + ...   (multiply first, ascending j)
 *   t_k = t_k > 0 ? t_k : +0                (so -0 and NaN give +0)
 *   dst[k][i] = u[k][0]*t_0 + u[k][1]*t_1 + ...
 *
 * u and v are row-major n x n. Each column's n values stay in registers
 * between the two products, so dst may alias src (the fused conv
 * epilogue runs in place). When `mask` is non-null, mask[k][i] is set to
 * 1 where t_k > 0 and 0 elsewhere (the training backward's gate).
 * Identical bits on every dispatch target.
 */
void dir_relu_f32(float* const* dst, const float* const* src, int n,
                  const float* u, const float* v, int64_t len,
                  uint8_t* const* mask);

/**
 * Paired-tap int16 conv row: for each i in [0, len),
 *
 *   dst[i] += sum_t ( src[2*(offsets[t]+i)]   * coeffs[2*t]
 *                   + src[2*(offsets[t]+i)+1] * coeffs[2*t+1] )
 *
 * `src` holds int16 codes interleaved in pairs (two input channels per
 * 32-bit word) and `coeffs` the matching weight pairs, so each term is
 * one vpmaddwd lane: both 16x16 products are exact in int32 and their
 * sum, like every accumulation here, wraps mod 2^32. `offsets` are in
 * pair words. One pass over dst per row, however many taps; ntaps == 0
 * is a no-op. Identical bits on every dispatch target for all inputs.
 */
void madd_rows_i16(int32_t* dst, const int16_t* src, const int64_t* offsets,
                   const int16_t* coeffs, int ntaps, int64_t len);

/**
 * Requant epilogue on int32 lanes: dst[i] = shift_round_saturate(
 * relu_first ? max(src[i], 0) : src[i], shift, bits) as an int16 code,
 * with the rounding add and a left shift wrapping mod 2^32. Equals the
 * int64 quant::shift_round_saturate whenever |src| + 2^(shift-1) (or
 * |src| * 2^-shift) fits int32. Requires -31 <= shift <= 31 and
 * 1 <= bits <= 16.
 */
void requant_i32_i16(int16_t* dst, const int32_t* src, int64_t len,
                     int shift, int bits, bool relu_first);

/**
 * Fig. 8 on-the-fly directional ReLU over n int32 accumulator rows
 * (n a power of two <= 16): per pixel, t_j = src[j][i] << align[j],
 * Hadamard butterfly, rectify, butterfly, then dst[j][i] =
 * shift_round_saturate(t_j, shift[j], bits) — the operation sequence of
 * quant::onthefly_directional_relu on wrapping int32 lanes. Requires
 * 0 <= align[j] <= 31, |shift[j]| <= 31 and 1 <= bits <= 16.
 */
void dir_relu_otf_i32_i16(int16_t* const* dst, const int32_t* const* src,
                          int n, const int* align, const int* shift,
                          int bits, int64_t len);

/**
 * Quantize-first directional ReLU (the paper's ablation) over n int32
 * accumulator rows: y_j = srs(src[j][i], pre[j]), butterfly, y_j =
 * max(srs(y_j, mid[j]), 0), butterfly, dst[j][i] = srs(y_j, out[j]),
 * where srs is shift_round_saturate to `bits` — the QDirReluNode
 * quantize-first sequence on wrapping int32 lanes. Same requirements
 * as dir_relu_otf_i32_i16 on n, the shifts and bits.
 */
void dir_relu_qfirst_i32_i16(int16_t* const* dst,
                             const int32_t* const* src, int n,
                             const int* pre, const int* mid, const int* out,
                             int bits, int64_t len);

/**
 * dst[i] = QFormat{bits, frac}.quantize(src[i]) for i in [0, len):
 * round half away from zero, saturate to `bits` (2..16), NaN -> 0 —
 * bit-identical to the scalar quantizer for every float input,
 * including +-Inf, +-0, exact halves and subnormals, and for every
 * frac.
 */
void quantize_f32_i16(int16_t* dst, const float* src, int64_t len, int frac,
                      int bits);

/**
 * Column blend of one int16 row, the horizontal pass of the separable
 * fixed-point bilinear upsampler: for each i in [0, len),
 *
 *   dst[i] = src[cols[i]] * wts[2*i] + src[cols[i] + 1] * wts[2*i + 1]
 *
 * — one vpmaddwd lane over a gathered pair of neighbouring codes, both
 * 16x16 products exact in int32 and their sum wrapping mod 2^32 (exact
 * whenever it fits). Every cols[i] + 1 must index src. Identical bits
 * on every dispatch target for all inputs.
 */
void lerp_cols_i16_i32(int32_t* dst, const int16_t* src, const int32_t* cols,
                       const int16_t* wts, int64_t len);

/**
 * Two-row blend on int32 lanes, the vertical pass of the separable
 * fixed-point bilinear upsampler: dst[i] = shift_round_saturate(
 * wa * a[i] + wb * b[i], shift, bits) as an int16 code, with the
 * products, the sum, the rounding add and a left shift wrapping mod
 * 2^32. Equals the int64 quant::shift_round_saturate whenever
 * |wa * a[i]| + |wb * b[i]| fits int32 and, as for requant_i32_i16,
 * that bound plus 2^(shift-1) (or times 2^-shift) fits too. Same
 * requirements on shift and bits as requant_i32_i16.
 */
void lerp_rows_i32_i16(int16_t* dst, const int32_t* a, const int32_t* b,
                       int32_t wa, int32_t wb, int64_t len, int shift,
                       int bits);

/**
 * Aligned add of two int16 code rows onto one output format:
 *
 *   dst[i] = srs(srs(a[i], sa, bits + 2) + srs(b[i], sb, bits + 2), 0, bits)
 *
 * where srs is quant::shift_round_saturate — the per-element formula of
 * the QResidualNode / QTwoBranchNode oracle. Exact (int64-equal) for
 * every |sa|, |sb| <= 63 and 1 <= bits <= 16: the AVX2 build runs int32
 * lanes when -16 <= sa, sb <= 31, where |code| <= 2^15 keeps every
 * intermediate inside int32, and the generic int64 loop otherwise.
 * dst may alias a or b (the element is read before it is written).
 */
void add_aligned_i16(int16_t* dst, const int16_t* a, const int16_t* b,
                     int64_t len, int sa, int sb, int bits);

/**
 * dst[i] = float(src[i] * 2^-frac) for i in [0, len): the dequantizer's
 * double product rounded to float (QuantizedModel::dequantize). For
 * -111 <= frac <= 126 the scale 2^-frac and every product with a code
 * (|code| <= 2^15) are normal floats and the product is exact, so the
 * kernel multiplies in float lanes; outside that range it keeps the
 * double product. Bit-identical to the double product on every dispatch
 * target for every frac.
 */
void dequantize_i16_f32(float* dst, const int16_t* src, int64_t len,
                        int frac);

namespace detail {
// The portable builds of the row and integer kernels above (the
// dispatch fallback), exposed so tests can pin the vector builds
// against them.
void axpy_rows_f32_generic(float* dst, const float* const* srcs,
                           const float* coeffs, int ntaps, int64_t len);
void matvec_rows_f32_generic(float* dst, const float* const* srcs,
                             const float* coeffs, int ntaps, int64_t len);
void dir_relu_f32_generic(float* const* dst, const float* const* src, int n,
                          const float* u, const float* v, int64_t len,
                          uint8_t* const* mask);
void madd_rows_i16_generic(int32_t* dst, const int16_t* src,
                           const int64_t* offsets, const int16_t* coeffs,
                           int ntaps, int64_t len);
void requant_i32_i16_generic(int16_t* dst, const int32_t* src, int64_t len,
                             int shift, int bits, bool relu_first);
void dir_relu_otf_i32_i16_generic(int16_t* const* dst,
                                  const int32_t* const* src, int n,
                                  const int* align, const int* shift,
                                  int bits, int64_t len);
void dir_relu_qfirst_i32_i16_generic(int16_t* const* dst,
                                     const int32_t* const* src, int n,
                                     const int* pre, const int* mid,
                                     const int* out, int bits, int64_t len);
void quantize_f32_i16_generic(int16_t* dst, const float* src, int64_t len,
                              int frac, int bits);
void lerp_cols_i16_i32_generic(int32_t* dst, const int16_t* src,
                               const int32_t* cols, const int16_t* wts,
                               int64_t len);
void lerp_rows_i32_i16_generic(int16_t* dst, const int32_t* a,
                               const int32_t* b, int32_t wa, int32_t wb,
                               int64_t len, int shift, int bits);
void add_aligned_i16_generic(int16_t* dst, const int16_t* a, const int16_t* b,
                             int64_t len, int sa, int sb, int bits);
void dequantize_i16_f32_generic(float* dst, const int16_t* src, int64_t len,
                                int frac);
}  // namespace detail

/**
 * Returns max_i |a[i] - b[i]| for i in [0, len) (0 when len <= 0) — the
 * temporal-delta reduction of the streaming video fast path: a tile
 * whose input differs from the cached reference by at most the skip
 * threshold reuses its cached output.
 *
 * Unlike the summing reductions, max over |a-b| is exact (no rounding,
 * order-independent), so every dispatch target returns identical bits
 * with no lane contract needed — provided the inputs are free of NaN.
 * NaN elements are not part of the contract (the AVX2 max and the
 * scalar compare disagree on NaN propagation); tile pixels are finite.
 */
float max_abs_diff_f32(const float* a, const float* b, int64_t len);

/**
 * Returns max_i |a[i] - b[i]| for int8 rows (0 when len <= 0), exact in
 * [0, 255] — the quantized-path twin of max_abs_diff_f32, measured in
 * quantization steps so "delta <= 1 step" is a direct skip test.
 */
int max_abs_diff_i8(const int8_t* a, const int8_t* b, int64_t len);

/** Name of the dispatched implementation: "avx2" or "generic". */
const char* active_isa();

}  // namespace ringcnn::simd

#endif  // RINGCNN_CORE_SIMD_H

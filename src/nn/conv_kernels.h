/**
 * @file
 * Dense convolution kernels ("same" padding, stride 1) used by the
 * training layers — the fp32 hot path of every conv2d_forward /
 * backward call `train_on_task` makes.
 *
 * The default path runs tap-ordered row kernels over core/simd.h
 * (axpy_f32 rows for the forward and input-gradient passes, dot_f32 /
 * sum_f32 reductions for the weight and bias gradients) and
 * parallelizes across output (forward, weight-grad) or input
 * (input-grad) channels on the persistent util::ThreadPool. Per-channel
 * arithmetic order is fixed, so results are bit-identical under every
 * thread count and dispatched ISA; the forward and input-gradient
 * passes are additionally bit-identical to the scalar reference loops
 * (same per-element multiply/add sequence, no FMA contraction). The
 * weight/bias gradients reduce in float 8-lane order instead of the
 * reference's scalar double accumulator, so they match the reference
 * only to fp32 rounding — tests/test_train_kernels.cc pins both
 * contracts.
 *
 * TrainKernelOptions::strict_reference keeps the original scalar loops
 * selectable (the training-side oracle, as ring_conv_fast() is on the
 * inference side): set it to reproduce seed-era training bit for bit.
 * Correctness of the reference is pinned to tensor/image_ops.h conv2d
 * by unit tests; the SIMD path is pinned to the reference.
 */
#ifndef RINGCNN_NN_CONV_KERNELS_H
#define RINGCNN_NN_CONV_KERNELS_H

#include "core/linalg.h"
#include "tensor/tensor.h"

namespace ringcnn::nn {

/**
 * Process-wide knobs for the training conv kernels. Free functions
 * can't thread an options struct through the Layer API, so the flags
 * live here; set them before entering a training/bench region (they
 * are read at call time and are not synchronized against concurrent
 * writers).
 */
struct TrainKernelOptions
{
    /**
     * Run the original scalar loops (double-precision weight/bias
     * gradient accumulation, single-threaded). nn::train_on_task also
     * consults this flag and falls back to its sequential
     * one-sample-at-a-time batch walk, so a strict run reproduces the
     * seed trainer's per-step losses bit for bit.
     */
    bool strict_reference = false;
    /** Worker threads for the channel-parallel kernels; 0 = auto
     *  (RINGCNN_THREADS, then hardware concurrency). */
    int threads = 0;
    /**
     * Run the training-side DirectionalReLU forward/backward as the
     * seed's per-pixel double-precision loops instead of the float row
     * kernels below. Separate from strict_reference because — unlike
     * the conv kernels — the float form CHANGES FORWARD BITS vs the
     * seed (double accumulators per pixel vs float rows), so it needs
     * its own escape hatch; strict_reference implies it regardless, so
     * a strict run still reproduces seed losses exactly.
     */
    bool strict_directional = false;
};

/** The mutable process-wide options instance. */
TrainKernelOptions& train_kernel_options();

/**
 * Forward convolution: out = conv(x, w) + bias, "same" padding.
 * @param out preallocated [Co][H][W]; overwritten.
 * @param fuse_relu apply max(0, ·) to each output row while it is hot
 *        (the executor's Conv2d+ReLU epilogue fusion). Applied on both
 *        kernel paths.
 */
void conv2d_forward(const Tensor& x, const Tensor& w,
                    const std::vector<float>& bias, Tensor& out,
                    bool fuse_relu = false);

/**
 * Depthwise ("per-channel") forward convolution, "same" padding:
 * out[c] = conv(x[c], w[c]) + bias[c]. Weights are [C][1][K][K].
 * Channel-parallel on the pool; per channel it performs exactly the
 * operations of conv2d_forward on the single-channel slice, so it is
 * bit-identical to DepthwiseConv2d's slice-by-slice Layer::forward —
 * without that path's per-channel slice copies and allocations. The
 * model executor's compiled DepthwiseConv2d step calls this.
 * @param out preallocated [C][H][W]; overwritten.
 */
void depthwise_conv2d_forward(const Tensor& x, const Tensor& w,
                              const std::vector<float>& bias, Tensor& out);

/**
 * Input gradient: grad_x = conv^T(w, grad_out).
 * @param grad_x preallocated [Ci][H][W]; overwritten.
 */
void conv2d_backward_input(const Tensor& w, const Tensor& grad_out,
                           Tensor& grad_x);

/**
 * Weight/bias gradients, ACCUMULATED into grad_w / grad_b.
 * Shapes: grad_w [Co][Ci][K][K], grad_b length Co (may be empty to skip).
 *
 * @param pair_mask optional [Co][Ci] row-major mask: channel pairs with
 *        mask 0 are skipped entirely — their grad_w tap blocks are left
 *        untouched. RingConv2d passes the ring's structural-sparsity
 *        pattern here (the expansion of eq. (4) is identically zero at
 *        1 - 1/n of the (i, j) block positions for the paper's RI
 *        rings, so their real-weight gradients are never read by the
 *        fold back onto the ring degrees of freedom). Pass nullptr for
 *        a dense conv.
 */
void conv2d_backward_weights(const Tensor& x, const Tensor& grad_out,
                             Tensor& grad_w, std::vector<float>& grad_b,
                             const uint8_t* pair_mask = nullptr);

/**
 * Directional ReLU forward, y -> U fcw(V y) per n-tuple (Section
 * III-E): the training forward and the executor's unfused step. Each
 * tuple's n planes run through simd::dir_relu_f32, the kernel the
 * engine's fused fH epilogue uses, so fused and unfused plans agree bit
 * for bit. Tuple-parallel on the pool with a fixed per-element order,
 * so results are bit-deterministic under every thread count; vs the
 * seed path they differ by float rounding (see
 * TrainKernelOptions::strict_directional). Keeps no scratch, so
 * concurrent calls from independent threads share no state.
 *
 * @param u,v   n x n transforms (n = v.cols()); C % n == 0.
 * @param out   overwritten ([C][H][W], reset by the callee). May alias
 *        x — each column is read before it is rewritten.
 * @param mask  when non-null, resized to numel and set to 1 where the
 *        rectifier passed (same flat layout the seed backward uses).
 */
void directional_relu_forward(const Tensor& x, const Matd& u, const Matd& v,
                              Tensor& out, std::vector<uint8_t>* mask);

/**
 * Matching backward: grad = V^T masked(U^T grad_out) per n-tuple, as
 * float row kernels (simd::matvec_rows_f32) over the forward's
 * rectification mask, with the forward's determinism. Row scratch lives
 * in thread-local storage sized once per calling thread, so concurrent
 * calls from independent threads never share state; nested fan-out
 * inside one call hands each pool worker its own band of the caller's
 * buffer.
 */
void directional_relu_backward(const Tensor& grad_out, const Matd& u,
                               const Matd& v,
                               const std::vector<uint8_t>& mask,
                               Tensor& grad);

}  // namespace ringcnn::nn

#endif  // RINGCNN_NN_CONV_KERNELS_H

/**
 * @file
 * Reference image/convolution kernels on CHW tensors.
 *
 * These are the golden, obviously-correct implementations that the nn
 * layers, the fast ring convolutions, and the fixed-point simulator are
 * all tested against. The layout moves (pixel shuffle and unshuffle,
 * channel pad and crop) live in tensor/layout_ops.h, one copy for both
 * element types.
 */
#ifndef RINGCNN_TENSOR_IMAGE_OPS_H
#define RINGCNN_TENSOR_IMAGE_OPS_H

#include "tensor/tensor.h"

namespace ringcnn {

/**
 * 2-D convolution (actually cross-correlation, the CNN convention).
 *
 * @param x      input feature map, CHW with C == Ci.
 * @param w      weights, [Co][Ci][K][K] with odd K.
 * @param bias   per-output-channel bias of length Co (may be empty).
 * @param pad    symmetric zero padding; pad == K/2 keeps spatial size.
 * @return       output feature map, [Co][H_out][W_out].
 */
Tensor conv2d(const Tensor& x, const Tensor& w,
              const std::vector<float>& bias, int pad);

/** conv2d with "same" padding (pad = K/2). */
Tensor conv2d_same(const Tensor& x, const Tensor& w,
                   const std::vector<float>& bias);

/** Mean squared error between two equally-shaped tensors. */
double mse(const Tensor& a, const Tensor& b);

/** Largest element-wise |a - b| between two equally-shaped tensors. */
double max_abs_diff(const Tensor& a, const Tensor& b);

/**
 * Peak signal-to-noise ratio in dB for signals with the given peak value
 * (1.0 for normalized images). Returns +inf for identical inputs.
 */
double psnr(const Tensor& a, const Tensor& b, double peak = 1.0);

/** Clamps every element into [lo, hi]. */
Tensor clamp(const Tensor& x, float lo, float hi);

/**
 * Nearest-neighbour upsampling by integer factor r:
 * [C][H][W] -> [C][H*r][W*r].
 */
Tensor upsample_nearest(const Tensor& x, int r);

/**
 * Box-filter downsampling by integer factor r (average of each r x r
 * block): [C][H*r][W*r] -> [C][H][W]. Used as the SR degradation
 * operator in place of bicubic.
 */
Tensor downsample_box(const Tensor& x, int r);

/** Bilinear upsampling by integer factor r (align_corners = false). */
Tensor upsample_bilinear(const Tensor& x, int r);

/** Allocation-free upsample_bilinear into a caller buffer (reset() to
 *  the output shape, capacity reused) — the model executor's compiled
 *  UpsampleBilinearLayer step. The allocating version wraps this. */
void upsample_bilinear_into(const Tensor& x, int r, Tensor& out);

}  // namespace ringcnn

#endif  // RINGCNN_TENSOR_IMAGE_OPS_H

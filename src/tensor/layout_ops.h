/**
 * @file
 * The layout moves that join ring convolutions: pixel shuffle and
 * unshuffle, channel pad and channel crop. One copy of each over CHW
 * planes, templated on the element type — float for the fp32 executor
 * and layers, int16_t for the int8 executor's code arena — so both
 * precisions run the same index math. The scalar QNode walk in
 * quant/quant_model.cc keeps its own copy as the independent oracle.
 *
 * Each kernel reads an input of shape `in` and writes every element of
 * a caller buffer already sized to its output shape. None allocates,
 * and none may run in place.
 */
#ifndef RINGCNN_TENSOR_LAYOUT_OPS_H
#define RINGCNN_TENSOR_LAYOUT_OPS_H

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "tensor/tensor.h"

namespace ringcnn::layout {

/** [C][H][W] -> [C/(r*r)][H*r][W*r]. */
inline Shape
pixel_shuffle_shape(const Shape& in, int r)
{
    return {in[0] / (r * r), in[1] * r, in[2] * r};
}

/** [C][H][W] -> [C*r*r][H/r][W/r], floored: rows and columns past the
 *  last whole r x r block are dropped. */
inline Shape
pixel_unshuffle_shape(const Shape& in, int r)
{
    return {in[0] * r * r, in[1] / r, in[2] / r};
}

/** One output row of pixel_shuffle: out[i*r + dx] = src[dx*plane + i]
 *  for the r source rows of one dy. R > 0 fixes r at compile time so
 *  the interleave vectorizes; R == 0 takes r at run time. */
template <int R, class T>
void
pixel_shuffle_row(const T* src, int64_t plane, int w, int r, T* out)
{
    if constexpr (R > 0) r = R;
    for (int i = 0; i < w; ++i) {
        for (int dx = 0; dx < r; ++dx) out[i * r + dx] = src[dx * plane + i];
    }
}

/** Depth-to-space: input channel (c*r + dy)*r + dx lands on rows
 *  y*r + dy and columns x*r + dx of output channel c. Output rows are
 *  written in order, each once and contiguously. */
template <class T>
void
pixel_shuffle(const T* x, const Shape& in, int r, T* out)
{
    assert(in[0] % (r * r) == 0);
    const int c = in[0] / (r * r), h = in[1], w = in[2];
    const int64_t plane = static_cast<int64_t>(h) * w;
    auto row = r == 2   ? pixel_shuffle_row<2, T>
               : r == 4 ? pixel_shuffle_row<4, T>
                        : pixel_shuffle_row<0, T>;
    for (int oc = 0; oc < c; ++oc) {
        for (int y = 0; y < h; ++y) {
            for (int dy = 0; dy < r; ++dy, out += static_cast<int64_t>(w) * r) {
                row(x + (oc * r + dy) * r * plane + static_cast<int64_t>(y) * w,
                    plane, w, r, out);
            }
        }
    }
}

/** Space-to-depth, the inverse of pixel_shuffle on whole blocks: output
 *  channel (c*r + dy)*r + dx holds rows y*r + dy and columns x*r + dx
 *  of input channel c. Source rows advance by the input's own width, so
 *  a width r does not divide loses only its partial last block. */
template <class T>
void
pixel_unshuffle(const T* x, const Shape& in, int r, T* out)
{
    const int c = in[0], hi = in[1], wi = in[2];
    const int h = hi / r, w = wi / r;
    const int64_t plane = static_cast<int64_t>(hi) * wi;
    for (int ic = 0; ic < c; ++ic) {
        for (int dy = 0; dy < r; ++dy) {
            for (int dx = 0; dx < r; ++dx) {
                const T* src = x + ic * plane + dy * wi + dx;
                for (int y = 0; y < h; ++y, src += r * wi, out += w) {
                    for (int i = 0; i < w; ++i) out[i] = src[i * r];
                }
            }
        }
    }
}

/** Copies the input's channels and zero-fills up to exactly `want`
 *  (>= C) channels of the same plane. */
template <class T>
void
channel_pad(const T* x, const Shape& in, int want, T* out)
{
    assert(want >= in[0]);
    const int64_t plane = static_cast<int64_t>(in[1]) * in[2];
    std::copy(x, x + in[0] * plane, out);
    std::fill(out + in[0] * plane, out + want * plane, T(0));
}

/** Keeps the first `keep` (<= C) channels. */
template <class T>
void
crop_channels(const T* x, const Shape& in, int keep, T* out)
{
    assert(keep <= in[0]);
    std::copy(x, x + keep * (static_cast<int64_t>(in[1]) * in[2]), out);
}

}  // namespace ringcnn::layout

#endif  // RINGCNN_TENSOR_LAYOUT_OPS_H

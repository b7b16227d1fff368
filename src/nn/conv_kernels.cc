#include "nn/conv_kernels.h"

#include <algorithm>
#include <cassert>

#include "core/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ringcnn::nn {

TrainKernelOptions&
train_kernel_options()
{
    static TrainKernelOptions opts;
    return opts;
}

namespace {

// ---- scalar reference loops (the seed implementation) ----------------------
//
// Kept verbatim as the strict_reference path: double-precision
// weight/bias gradient accumulators, single-threaded, the exact
// operation order seed-era training ran. The SIMD paths below are
// pinned against these in tests/test_train_kernels.cc.

void
forward_reference(const Tensor& x, const Tensor& w,
                  const std::vector<float>& bias, Tensor& out)
{
    const int ci = x.dim(0), h = x.dim(1), wd = x.dim(2);
    const int co = w.dim(0), k = w.dim(2), pad = k / 2;

    for (int oc = 0; oc < co; ++oc) {
        float* out_ch = out.data() + static_cast<size_t>(oc) * h * wd;
        const float b = bias.empty() ? 0.0f : bias[static_cast<size_t>(oc)];
        std::fill(out_ch, out_ch + static_cast<size_t>(h) * wd, b);
    }
    for (int oc = 0; oc < co; ++oc) {
        float* out_ch = out.data() + static_cast<size_t>(oc) * h * wd;
        for (int ic = 0; ic < ci; ++ic) {
            const float* x_ch = x.data() + static_cast<size_t>(ic) * h * wd;
            const float* w_tap =
                w.data() + (static_cast<size_t>(oc) * ci + ic) * k * k;
            for (int ky = 0; ky < k; ++ky) {
                const int y_lo = std::max(0, pad - ky);
                const int y_hi = std::min(h, h + pad - ky);
                for (int kx = 0; kx < k; ++kx) {
                    const float wv = w_tap[static_cast<size_t>(ky) * k + kx];
                    if (wv == 0.0f) continue;
                    const int x_lo = std::max(0, pad - kx);
                    const int x_hi = std::min(wd, wd + pad - kx);
                    const int shift_y = ky - pad, shift_x = kx - pad;
                    for (int y = y_lo; y < y_hi; ++y) {
                        float* orow = out_ch + static_cast<size_t>(y) * wd;
                        const float* irow = x_ch +
                            static_cast<size_t>(y + shift_y) * wd + shift_x;
                        for (int xx = x_lo; xx < x_hi; ++xx) {
                            orow[xx] += wv * irow[xx];
                        }
                    }
                }
            }
        }
    }
}

void
backward_input_reference(const Tensor& w, const Tensor& grad_out,
                         Tensor& grad_x)
{
    const int co = w.dim(0), ci = w.dim(1), k = w.dim(2), pad = k / 2;
    const int h = grad_out.dim(1), wd = grad_out.dim(2);
    grad_x.fill(0.0f);
    // grad_x[ic][iy][ix] += w[oc][ic][ky][kx] * go[oc][iy - ky + pad][ix - kx + pad]
    for (int oc = 0; oc < co; ++oc) {
        const float* go_ch =
            grad_out.data() + static_cast<size_t>(oc) * h * wd;
        for (int ic = 0; ic < ci; ++ic) {
            float* gx_ch = grad_x.data() + static_cast<size_t>(ic) * h * wd;
            const float* w_tap =
                w.data() + (static_cast<size_t>(oc) * ci + ic) * k * k;
            for (int ky = 0; ky < k; ++ky) {
                const int sy = pad - ky;  // oy = iy + sy
                const int y_lo = std::max(0, -sy);
                const int y_hi = std::min(h, h - sy);
                for (int kx = 0; kx < k; ++kx) {
                    const float wv = w_tap[static_cast<size_t>(ky) * k + kx];
                    if (wv == 0.0f) continue;
                    const int sx = pad - kx;
                    const int x_lo = std::max(0, -sx);
                    const int x_hi = std::min(wd, wd - sx);
                    for (int iy = y_lo; iy < y_hi; ++iy) {
                        float* gxrow = gx_ch + static_cast<size_t>(iy) * wd;
                        const float* gorow = go_ch +
                            static_cast<size_t>(iy + sy) * wd + sx;
                        for (int ix = x_lo; ix < x_hi; ++ix) {
                            gxrow[ix] += wv * gorow[ix];
                        }
                    }
                }
            }
        }
    }
}

void
backward_weights_reference(const Tensor& x, const Tensor& grad_out,
                           Tensor& grad_w, std::vector<float>& grad_b,
                           const uint8_t* pair_mask)
{
    const int ci = x.dim(0), h = x.dim(1), wd = x.dim(2);
    const int co = grad_out.dim(0), k = grad_w.dim(2), pad = k / 2;

    if (!grad_b.empty()) {
        for (int oc = 0; oc < co; ++oc) {
            const float* go_ch =
                grad_out.data() + static_cast<size_t>(oc) * h * wd;
            double acc = 0.0;
            for (int i = 0; i < h * wd; ++i) acc += go_ch[i];
            grad_b[static_cast<size_t>(oc)] += static_cast<float>(acc);
        }
    }
    for (int oc = 0; oc < co; ++oc) {
        const float* go_ch =
            grad_out.data() + static_cast<size_t>(oc) * h * wd;
        for (int ic = 0; ic < ci; ++ic) {
            if (pair_mask != nullptr &&
                pair_mask[static_cast<size_t>(oc) * ci + ic] == 0) {
                continue;
            }
            const float* x_ch = x.data() + static_cast<size_t>(ic) * h * wd;
            float* gw_tap =
                grad_w.data() + (static_cast<size_t>(oc) * ci + ic) * k * k;
            for (int ky = 0; ky < k; ++ky) {
                const int y_lo = std::max(0, pad - ky);
                const int y_hi = std::min(h, h + pad - ky);
                for (int kx = 0; kx < k; ++kx) {
                    const int x_lo = std::max(0, pad - kx);
                    const int x_hi = std::min(wd, wd + pad - kx);
                    const int shift_y = ky - pad, shift_x = kx - pad;
                    double acc = 0.0;
                    for (int y = y_lo; y < y_hi; ++y) {
                        const float* gorow =
                            go_ch + static_cast<size_t>(y) * wd;
                        const float* irow = x_ch +
                            static_cast<size_t>(y + shift_y) * wd + shift_x;
                        for (int xx = x_lo; xx < x_hi; ++xx) {
                            acc += static_cast<double>(gorow[xx]) * irow[xx];
                        }
                    }
                    gw_tap[static_cast<size_t>(ky) * k + kx] +=
                        static_cast<float>(acc);
                }
            }
        }
    }
}

// ---- SIMD row-kernel paths -------------------------------------------------
//
// Same tap order as the reference per output element (so the pure
// multiply/add passes stay bit-identical to it), rows through the
// dispatched simd kernels, channels across the persistent pool. Each
// task owns whole output channels, so no two workers ever write the
// same cache line and any thread count produces the same bits.

void
forward_simd(const Tensor& x, const Tensor& w,
             const std::vector<float>& bias, Tensor& out, bool fuse_relu,
             int threads)
{
    const int ci = x.dim(0), h = x.dim(1), wd = x.dim(2);
    const int co = w.dim(0), k = w.dim(2), pad = k / 2;
    const int64_t plane = static_cast<int64_t>(h) * wd;

    util::parallel_for(
        co,
        [&](int64_t oc) {
            float* out_ch = out.data() + static_cast<size_t>(oc) * plane;
            const float b =
                bias.empty() ? 0.0f : bias[static_cast<size_t>(oc)];
            std::fill(out_ch, out_ch + plane, b);
            for (int ic = 0; ic < ci; ++ic) {
                const float* x_ch =
                    x.data() + static_cast<size_t>(ic) * plane;
                const float* w_tap =
                    w.data() + (static_cast<size_t>(oc) * ci + ic) * k * k;
                for (int ky = 0; ky < k; ++ky) {
                    const int y_lo = std::max(0, pad - ky);
                    const int y_hi = std::min(h, h + pad - ky);
                    for (int kx = 0; kx < k; ++kx) {
                        const float wv =
                            w_tap[static_cast<size_t>(ky) * k + kx];
                        if (wv == 0.0f) continue;
                        const int x_lo = std::max(0, pad - kx);
                        const int x_hi = std::min(wd, wd + pad - kx);
                        const int shift_y = ky - pad;
                        if (x_lo == 0 && x_hi == wd) {
                            // Center-column taps (kx == pad, and every
                            // tap of a 1x1 conv) span full rows, so the
                            // whole y range is contiguous in src AND
                            // dst: one long kernel call instead of one
                            // per row. Element-wise, so bit-identical.
                            simd::axpy_f32(
                                out_ch + static_cast<size_t>(y_lo) * wd,
                                x_ch +
                                    static_cast<size_t>(y_lo + shift_y) * wd,
                                wv,
                                static_cast<int64_t>(y_hi - y_lo) * wd);
                            continue;
                        }
                        const int shift_x = kx - pad;
                        for (int y = y_lo; y < y_hi; ++y) {
                            simd::axpy_f32(
                                out_ch + static_cast<size_t>(y) * wd + x_lo,
                                x_ch +
                                    static_cast<size_t>(y + shift_y) * wd +
                                    shift_x + x_lo,
                                wv, x_hi - x_lo);
                        }
                    }
                }
            }
            if (fuse_relu) {
                // Same predicate as the standalone ReLU kernels (x > 0
                // keeps x, else exact +0.0f) so fusion never changes a
                // bit, -0.0 included.
                for (int64_t i = 0; i < plane; ++i) {
                    out_ch[i] = out_ch[i] > 0.0f ? out_ch[i] : 0.0f;
                }
            }
        },
        threads);
}

void
backward_input_simd(const Tensor& w, const Tensor& grad_out, Tensor& grad_x,
                    int threads)
{
    const int co = w.dim(0), ci = w.dim(1), k = w.dim(2), pad = k / 2;
    const int h = grad_out.dim(1), wd = grad_out.dim(2);
    const int64_t plane = static_cast<int64_t>(h) * wd;

    // ic is the outer (parallel) loop here — each task owns one grad_x
    // channel — with the oc/ky/kx tap order unchanged from the
    // reference, so every grad_x element still accumulates its terms in
    // the reference's sequence and the pass stays bit-identical to it.
    util::parallel_for(
        ci,
        [&](int64_t ic) {
            float* gx_ch = grad_x.data() + static_cast<size_t>(ic) * plane;
            std::fill(gx_ch, gx_ch + plane, 0.0f);
            for (int oc = 0; oc < co; ++oc) {
                const float* go_ch =
                    grad_out.data() + static_cast<size_t>(oc) * plane;
                const float* w_tap =
                    w.data() + (static_cast<size_t>(oc) * ci + ic) * k * k;
                for (int ky = 0; ky < k; ++ky) {
                    const int sy = pad - ky;  // oy = iy + sy
                    const int y_lo = std::max(0, -sy);
                    const int y_hi = std::min(h, h - sy);
                    for (int kx = 0; kx < k; ++kx) {
                        const float wv =
                            w_tap[static_cast<size_t>(ky) * k + kx];
                        if (wv == 0.0f) continue;
                        const int sx = pad - kx;
                        const int x_lo = std::max(0, -sx);
                        const int x_hi = std::min(wd, wd - sx);
                        if (x_lo == 0 && x_hi == wd) {
                            // Full-width tap: contiguous y range, one
                            // long row (see forward_simd).
                            simd::axpy_f32(
                                gx_ch + static_cast<size_t>(y_lo) * wd,
                                go_ch + static_cast<size_t>(y_lo + sy) * wd,
                                wv,
                                static_cast<int64_t>(y_hi - y_lo) * wd);
                            continue;
                        }
                        for (int iy = y_lo; iy < y_hi; ++iy) {
                            simd::axpy_f32(
                                gx_ch + static_cast<size_t>(iy) * wd + x_lo,
                                go_ch + static_cast<size_t>(iy + sy) * wd +
                                    sx + x_lo,
                                wv, x_hi - x_lo);
                        }
                    }
                }
            }
        },
        threads);
}

void
backward_weights_simd(const Tensor& x, const Tensor& grad_out, Tensor& grad_w,
                      std::vector<float>& grad_b, const uint8_t* pair_mask,
                      int threads)
{
    const int ci = x.dim(0), h = x.dim(1), wd = x.dim(2);
    const int co = grad_out.dim(0), k = grad_w.dim(2), pad = k / 2;
    const int64_t plane = static_cast<int64_t>(h) * wd;
    const bool with_bias = !grad_b.empty();

    // One task per output channel: it owns the grad_w[oc] block and
    // grad_b[oc]. Rows reduce through dot_f32/sum_f32 (float 8-lane
    // order — the one deliberate numerics change vs the double-
    // accumulator reference); the per-row partials then add in double,
    // which costs one add per row and recovers most of the reference's
    // headroom on tall images.
    util::parallel_for(
        co,
        [&](int64_t oc) {
            const float* go_ch =
                grad_out.data() + static_cast<size_t>(oc) * plane;
            if (with_bias) {
                grad_b[static_cast<size_t>(oc)] += simd::sum_f32(go_ch,
                                                                 plane);
            }
            for (int ic = 0; ic < ci; ++ic) {
                if (pair_mask != nullptr &&
                    pair_mask[static_cast<size_t>(oc) * ci + ic] == 0) {
                    continue;
                }
                const float* x_ch =
                    x.data() + static_cast<size_t>(ic) * plane;
                float* gw_tap = grad_w.data() +
                                (static_cast<size_t>(oc) * ci + ic) * k * k;
                for (int ky = 0; ky < k; ++ky) {
                    const int y_lo = std::max(0, pad - ky);
                    const int y_hi = std::min(h, h + pad - ky);
                    for (int kx = 0; kx < k; ++kx) {
                        const int x_lo = std::max(0, pad - kx);
                        const int x_hi = std::min(wd, wd + pad - kx);
                        const int shift_y = ky - pad, shift_x = kx - pad;
                        double acc = 0.0;
                        if (x_lo == 0 && x_hi == wd) {
                            // Full-width tap: one long dot over the
                            // contiguous y range (see forward_simd).
                            acc = simd::dot_f32(
                                go_ch + static_cast<size_t>(y_lo) * wd,
                                x_ch +
                                    static_cast<size_t>(y_lo + shift_y) * wd,
                                static_cast<int64_t>(y_hi - y_lo) * wd);
                        } else {
                            for (int y = y_lo; y < y_hi; ++y) {
                                acc += simd::dot_f32(
                                    go_ch + static_cast<size_t>(y) * wd +
                                        x_lo,
                                    x_ch +
                                        static_cast<size_t>(y + shift_y) *
                                            wd +
                                        shift_x + x_lo,
                                    x_hi - x_lo);
                            }
                        }
                        gw_tap[static_cast<size_t>(ky) * k + kx] +=
                            static_cast<float>(acc);
                    }
                }
            }
        },
        threads);
}

}  // namespace

void
conv2d_forward(const Tensor& x, const Tensor& w,
               const std::vector<float>& bias, Tensor& out, bool fuse_relu)
{
    assert(w.dim(1) == x.dim(0) && out.dim(0) == w.dim(0) &&
           out.dim(1) == x.dim(1) && out.dim(2) == x.dim(2));
    const TrainKernelOptions& opts = train_kernel_options();
    if (opts.strict_reference) {
        forward_reference(x, w, bias, out);
        if (fuse_relu) {
            float* o = out.data();
            for (int64_t i = 0; i < out.numel(); ++i) {
                o[i] = o[i] > 0.0f ? o[i] : 0.0f;
            }
        }
        return;
    }
    forward_simd(x, w, bias, out, fuse_relu, opts.threads);
}

void
depthwise_conv2d_forward(const Tensor& x, const Tensor& w,
                         const std::vector<float>& bias, Tensor& out)
{
    assert(w.dim(0) == x.dim(0) && w.dim(1) == 1 &&
           out.dim(0) == x.dim(0) && out.dim(1) == x.dim(1) &&
           out.dim(2) == x.dim(2));
    const int h = x.dim(1), wd = x.dim(2);
    const int k = w.dim(2), pad = k / 2;
    const int64_t plane = static_cast<int64_t>(h) * wd;
    const TrainKernelOptions& opts = train_kernel_options();

    // One task per channel; per channel the tap loop is the ci == 1
    // case of forward_simd / forward_reference (which are bit-identical
    // to each other), so this matches the layer's slice walk exactly.
    util::parallel_for(
        x.dim(0),
        [&](int64_t c) {
            float* out_ch = out.data() + static_cast<size_t>(c) * plane;
            const float b =
                bias.empty() ? 0.0f : bias[static_cast<size_t>(c)];
            std::fill(out_ch, out_ch + plane, b);
            const float* x_ch = x.data() + static_cast<size_t>(c) * plane;
            const float* w_tap =
                w.data() + static_cast<size_t>(c) * k * k;
            for (int ky = 0; ky < k; ++ky) {
                const int y_lo = std::max(0, pad - ky);
                const int y_hi = std::min(h, h + pad - ky);
                for (int kx = 0; kx < k; ++kx) {
                    const float wv = w_tap[static_cast<size_t>(ky) * k + kx];
                    if (wv == 0.0f) continue;
                    const int x_lo = std::max(0, pad - kx);
                    const int x_hi = std::min(wd, wd + pad - kx);
                    const int shift_y = ky - pad, shift_x = kx - pad;
                    for (int y = y_lo; y < y_hi; ++y) {
                        simd::axpy_f32(
                            out_ch + static_cast<size_t>(y) * wd + x_lo,
                            x_ch + static_cast<size_t>(y + shift_y) * wd +
                                shift_x + x_lo,
                            wv, x_hi - x_lo);
                    }
                }
            }
        },
        opts.threads);
}

void
conv2d_backward_input(const Tensor& w, const Tensor& grad_out, Tensor& grad_x)
{
    assert(grad_out.dim(0) == w.dim(0) && grad_x.dim(0) == w.dim(1));
    const TrainKernelOptions& opts = train_kernel_options();
    if (opts.strict_reference) {
        backward_input_reference(w, grad_out, grad_x);
        return;
    }
    backward_input_simd(w, grad_out, grad_x, opts.threads);
}

void
conv2d_backward_weights(const Tensor& x, const Tensor& grad_out,
                        Tensor& grad_w, std::vector<float>& grad_b,
                        const uint8_t* pair_mask)
{
    assert(grad_w.dim(0) == grad_out.dim(0) && grad_w.dim(1) == x.dim(0));
    assert(grad_b.empty() ||
           static_cast<int>(grad_b.size()) == grad_out.dim(0));
    const TrainKernelOptions& opts = train_kernel_options();
    if (opts.strict_reference) {
        // The seed loops computed every channel pair; keep that here so
        // strict mode reproduces the seed path's behavior (and cost)
        // exactly. Skipping structurally-masked pairs would not change
        // any downstream gradient — the fold onto the ring degrees of
        // freedom never reads them — which is precisely why the SIMD
        // path may skip them.
        backward_weights_reference(x, grad_out, grad_w, grad_b, nullptr);
        return;
    }
    backward_weights_simd(x, grad_out, grad_w, grad_b, pair_mask,
                          opts.threads);
}

namespace {

constexpr int kMaxTuple = 16;

/** Float copy of the n x n transform, or of its transpose. */
void
to_float(const Matd& m, int n, float* dst, bool transpose)
{
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            dst[i * n + j] =
                static_cast<float>(transpose ? m.at(j, i) : m.at(i, j));
        }
    }
}

}  // namespace

void
directional_relu_forward(const Tensor& x, const Matd& u, const Matd& v,
                         Tensor& out, std::vector<uint8_t>* mask)
{
    const int n = v.cols();
    const int c = x.dim(0), h = x.dim(1), w = x.dim(2);
    RINGCNN_CHECK(n <= kMaxTuple && c % n == 0,
                  "directional ReLU tuple mismatch");
    out.reset(x.shape());
    if (mask != nullptr) mask->assign(static_cast<size_t>(x.numel()), 0);
    float uf[kMaxTuple * kMaxTuple], vf[kMaxTuple * kMaxTuple];
    to_float(u, n, uf, false);
    to_float(v, n, vf, false);

    // One task per tuple: its n planes are one simd::dir_relu_f32 pass,
    // the kernel the engine's fused epilogue runs — so fused and unfused
    // plans agree bit for bit.
    const int64_t plane = static_cast<int64_t>(h) * w;
    util::parallel_for(
        c / n,
        [&](int64_t t) {
            const float* src[kMaxTuple];
            float* dst[kMaxTuple];
            uint8_t* gate[kMaxTuple];
            for (int j = 0; j < n; ++j) {
                const int64_t at = (t * n + j) * plane;
                src[j] = x.data() + at;
                dst[j] = out.data() + at;
                gate[j] = mask != nullptr ? mask->data() + at : nullptr;
            }
            simd::dir_relu_f32(dst, src, n, uf, vf, plane,
                               mask != nullptr ? gate : nullptr);
        },
        train_kernel_options().threads);
}

void
directional_relu_backward(const Tensor& grad_out, const Matd& u,
                          const Matd& v, const std::vector<uint8_t>& mask,
                          Tensor& grad)
{
    static thread_local std::vector<float> tl_scratch;
    std::vector<float>& scratch = tl_scratch;
    const int n = v.cols();
    const int c = grad_out.dim(0), h = grad_out.dim(1), w = grad_out.dim(2);
    RINGCNN_CHECK(n <= kMaxTuple && c % n == 0,
                  "directional ReLU tuple mismatch");
    RINGCNN_CHECK(mask.size() == static_cast<size_t>(grad_out.numel()),
                  "directional ReLU backward needs the forward's mask");
    grad.reset(grad_out.shape());
    float uft[kMaxTuple * kMaxTuple], vft[kMaxTuple * kMaxTuple];
    to_float(u, n, uft, true);
    to_float(v, n, vft, true);

    const TrainKernelOptions& opts = train_kernel_options();
    const int workers = util::resolve_threads(opts.threads);
    const size_t band = static_cast<size_t>(n) * w;
    if (scratch.size() < static_cast<size_t>(workers) * band) {
        scratch.resize(static_cast<size_t>(workers) * band);
    }

    // dL/dr = U^T dL/dz gated by the mask, then dL/dy = V^T (gated):
    // the same fused row structure as the forward, with the transposed
    // transforms. Computing the masked-out lanes and zeroing them gives
    // exactly the seed's "skip the sum" value.
    util::parallel_for_worker(
        c / n,
        [&](int worker, int64_t t) {
            float* rows_r = scratch.data() + static_cast<size_t>(worker) * band;
            const float* srcs[kMaxTuple];
            const float* rsrcs[kMaxTuple];
            for (int i = 0; i < n; ++i) {
                rsrcs[i] = rows_r + static_cast<size_t>(i) * w;
            }
            for (int y = 0; y < h; ++y) {
                for (int j = 0; j < n; ++j) {
                    srcs[j] = grad_out.data() +
                              (static_cast<int64_t>(t * n + j) * h + y) * w;
                }
                for (int i = 0; i < n; ++i) {
                    float* gi = rows_r + static_cast<size_t>(i) * w;
                    simd::matvec_rows_f32(gi, srcs, uft + i * n, n, w);
                    const uint8_t* mrow =
                        mask.data() +
                        (static_cast<int64_t>(t * n + i) * h + y) * w;
                    for (int xx = 0; xx < w; ++xx) {
                        if (mrow[xx] == 0) gi[xx] = 0.0f;
                    }
                }
                for (int i = 0; i < n; ++i) {
                    float* grow = grad.data() +
                        (static_cast<int64_t>(t * n + i) * h + y) * w;
                    simd::matvec_rows_f32(grow, rsrcs, vft + i * n, n, w);
                }
            }
        },
        opts.threads);
}

}  // namespace ringcnn::nn

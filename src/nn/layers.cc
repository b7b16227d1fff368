#include "nn/layer.h"

#include <cmath>

#include "core/ring_conv_engine.h"
#include "nn/conv_kernels.h"
#include "tensor/image_ops.h"
#include "tensor/layout_ops.h"

namespace ringcnn::nn {

// ---- Conv2d ------------------------------------------------------------

Conv2d::Conv2d(int ci, int co, int k, std::mt19937& rng, float init_scale)
    : ci_(ci), co_(co), k_(k),
      w_({co, ci, k, k}), gw_({co, ci, k, k}),
      b_(static_cast<size_t>(co), 0.0f), gb_(static_cast<size_t>(co), 0.0f)
{
    const float stddev =
        init_scale * std::sqrt(2.0f / (static_cast<float>(ci) * k * k));
    w_.randn(rng, stddev);
}

Tensor
Conv2d::forward(const Tensor& x, bool train)
{
    if (train) x_cache_ = x;
    Tensor out({co_, x.dim(1), x.dim(2)});
    conv2d_forward(x, w_, b_, out);
    return out;
}

Tensor
Conv2d::backward(const Tensor& grad_out)
{
    conv2d_backward_weights(x_cache_, grad_out, gw_, gb_);
    Tensor grad_x({ci_, grad_out.dim(1), grad_out.dim(2)});
    conv2d_backward_input(w_, grad_out, grad_x);
    return grad_x;
}

void
Conv2d::collect_params(std::vector<ParamRef>& out)
{
    out.push_back({&w_.vec(), &gw_.vec(), "conv.w"});
    out.push_back({&b_, &gb_, "conv.b"});
}

Shape
Conv2d::out_shape(const Shape& in) const
{
    return {co_, in[1], in[2]};
}

int64_t
Conv2d::macs(const Shape& in) const
{
    return static_cast<int64_t>(co_) * ci_ * k_ * k_ * in[1] * in[2];
}

std::unique_ptr<Layer>
Conv2d::clone() const
{
    auto c = std::make_unique<Conv2d>(*this);
    c->x_cache_ = Tensor();
    return c;
}

// ---- RingConv2d ----------------------------------------------------------

RingConv2d::RingConv2d(const Ring& ring, int ci_t, int co_t, int k,
                       std::mt19937& rng, float init_scale)
    : ring_(&ring), ci_t_(ci_t), co_t_(co_t), k_(k),
      g_(co_t, ci_t, k, ring.n), gg_(co_t, ci_t, k, ring.n),
      b_(static_cast<size_t>(co_t) * ring.n, 0.0f),
      gb_(static_cast<size_t>(co_t) * ring.n, 0.0f)
{
    // He init matched to the expanded real fan-in: each expanded entry
    // is +/- one ring component, so component stddev = real stddev.
    // (A row-density-aware variant was evaluated and trained strictly
    // worse across every ring at our schedules; see EXPERIMENTS.md.)
    const float stddev = init_scale *
        std::sqrt(2.0f / (static_cast<float>(ci_t) * ring.n * k * k));
    std::normal_distribution<float> dist(0.0f, stddev);
    for (auto& v : g_.w) v = dist(rng);

    // Structural-sparsity mask of the real expansion (see layer.h):
    // the (i, j) pattern of one n x n block, tiled over every tuple
    // pair. Built once — it depends only on the ring.
    const int n = ring.n;
    std::vector<uint8_t> block(static_cast<size_t>(n) * n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            for (int kk = 0; kk < n; ++kk) {
                if (ring.mult.at(i, kk, j) != 0) {
                    block[static_cast<size_t>(i) * n + j] = 1;
                    break;
                }
            }
        }
    }
    struct_mask_.assign(
        static_cast<size_t>(co_t) * n * ci_t * n, 0);
    const size_t row = static_cast<size_t>(ci_t) * n;
    for (int oc = 0; oc < co_t * n; ++oc) {
        for (int ic = 0; ic < ci_t * n; ++ic) {
            struct_mask_[static_cast<size_t>(oc) * row + ic] =
                block[static_cast<size_t>(oc % n) * n + ic % n];
        }
    }
}

const RingConvEngine&
RingConv2d::inference_engine()
{
    if (!engine_ || engine_version_ != param_version_) {
        if (engine_) {
            engine_->set_weights(g_, b_);  // keeps the ring transforms
        } else {
            engine_ = std::make_shared<RingConvEngine>(*ring_, g_, b_);
        }
        engine_version_ = param_version_;
#ifndef NDEBUG
        engine_fingerprint_ = weights_fingerprint(g_, b_);
#endif
    }
    // Debug cross-check: a changed fingerprint under an unchanged
    // version counter means some writer skipped ParamRef::mark_dirty().
    assert(engine_fingerprint_ == weights_fingerprint(g_, b_) &&
           "RingConv2d params mutated without mark_dirty()");
    return *engine_;
}

Tensor
RingConv2d::forward(const Tensor& x, bool train)
{
    // Inference runs FRCONV through the cached engine; training keeps
    // the isomorphic real expansion the backward pass differentiates
    // through (Section IV-B).
    if (!train) return inference_engine().run(x);
    x_cache_ = x;
    expand_to_real_into(*ring_, g_, w_real_);
    Tensor out({co_t_ * ring_->n, x.dim(1), x.dim(2)});
    conv2d_forward(x, w_real_, b_, out);
    return out;
}

Tensor
RingConv2d::backward(const Tensor& grad_out)
{
    // Scratch reuse: gw_real_scratch_ keeps its capacity across
    // samples, and the fold back onto the ring degrees of freedom
    // accumulates straight into gg_ — the only per-call allocation left
    // is the grad_x the Layer API returns by value.
    gw_real_scratch_.reset({co_t_ * ring_->n, ci_t_ * ring_->n, k_, k_});
    gw_real_scratch_.fill(0.0f);
    gb_scratch_.assign(b_.size(), 0.0f);
    conv2d_backward_weights(x_cache_, grad_out, gw_real_scratch_,
                            gb_scratch_, struct_mask_.data());
    for (size_t i = 0; i < gb_.size(); ++i) gb_[i] += gb_scratch_[i];
    project_from_real_grad_accum(*ring_, gw_real_scratch_, gg_);
    Tensor grad_x({ci_t_ * ring_->n, grad_out.dim(1), grad_out.dim(2)});
    conv2d_backward_input(w_real_, grad_out, grad_x);
    return grad_x;
}

void
RingConv2d::collect_params(std::vector<ParamRef>& out)
{
    out.push_back({&g_.w, &gg_.w, "ringconv.g", &param_version_});
    out.push_back({&b_, &gb_, "ringconv.b", &param_version_});
}

Shape
RingConv2d::out_shape(const Shape& in) const
{
    return {co_t_ * ring_->n, in[1], in[2]};
}

int64_t
RingConv2d::macs(const Shape& in) const
{
    // Fast-algorithm multiplication count: m per tuple pair per tap.
    return static_cast<int64_t>(co_t_) * ci_t_ * k_ * k_ * ring_->fast.m() *
           in[1] * in[2];
}

std::unique_ptr<Layer>
RingConv2d::clone() const
{
    auto c = std::make_unique<RingConv2d>(*this);
    c->x_cache_ = Tensor();
    c->w_real_ = Tensor();
    c->gw_real_scratch_ = Tensor();
    c->gb_scratch_.clear();
    c->engine_.reset();
    c->engine_version_ = 0;
    c->engine_fingerprint_ = 0;
    return c;
}

// ---- ReLU ----------------------------------------------------------------

Tensor
ReLU::forward(const Tensor& x, bool train)
{
    Tensor out = x;
    if (train) mask_.assign(static_cast<size_t>(x.numel()), 0);
    for (int64_t i = 0; i < out.numel(); ++i) {
        if (out[i] > 0.0f) {
            if (train) mask_[static_cast<size_t>(i)] = 1;
        } else {
            out[i] = 0.0f;
        }
    }
    return out;
}

Tensor
ReLU::backward(const Tensor& grad_out)
{
    Tensor grad = grad_out;
    for (int64_t i = 0; i < grad.numel(); ++i) {
        if (!mask_[static_cast<size_t>(i)]) grad[i] = 0.0f;
    }
    return grad;
}

// ---- DirectionalReLU -------------------------------------------------------

DirectionalReLU::DirectionalReLU(Matd u, Matd v)
    : u_(std::move(u)), v_(std::move(v)), n_(v_.cols())
{
    assert(u_.rows() == n_ && u_.cols() == n_ && v_.rows() == n_);
}

Tensor
DirectionalReLU::forward(const Tensor& x, bool train)
{
    const TrainKernelOptions& ko = train_kernel_options();
    if (!ko.strict_reference && !ko.strict_directional) {
        Tensor out;
        directional_relu_forward(x, u_, v_, out, train ? &mask_ : nullptr);
        return out;
    }
    const int c = x.dim(0), h = x.dim(1), w = x.dim(2);
    assert(c % n_ == 0);
    Tensor out({c, h, w});
    if (train) mask_.assign(static_cast<size_t>(x.numel()), 0);
    std::vector<double> y(static_cast<size_t>(n_)), r(static_cast<size_t>(n_));
    for (int t = 0; t < c / n_; ++t) {
        for (int yy = 0; yy < h; ++yy) {
            for (int xx = 0; xx < w; ++xx) {
                for (int i = 0; i < n_; ++i) {
                    y[static_cast<size_t>(i)] = x.at(t * n_ + i, yy, xx);
                }
                for (int i = 0; i < n_; ++i) {
                    double acc = 0.0;
                    for (int j = 0; j < n_; ++j) {
                        acc += v_.at(i, j) * y[static_cast<size_t>(j)];
                    }
                    const bool pos = acc > 0.0;
                    r[static_cast<size_t>(i)] = pos ? acc : 0.0;
                    if (train && pos) {
                        const int64_t flat =
                            (static_cast<int64_t>(t * n_ + i) * h + yy) * w + xx;
                        mask_[static_cast<size_t>(flat)] = 1;
                    }
                }
                for (int i = 0; i < n_; ++i) {
                    double acc = 0.0;
                    for (int j = 0; j < n_; ++j) {
                        acc += u_.at(i, j) * r[static_cast<size_t>(j)];
                    }
                    out.at(t * n_ + i, yy, xx) = static_cast<float>(acc);
                }
            }
        }
    }
    return out;
}

Tensor
DirectionalReLU::backward(const Tensor& grad_out)
{
    const TrainKernelOptions& ko = train_kernel_options();
    if (!ko.strict_reference && !ko.strict_directional) {
        Tensor grad;
        directional_relu_backward(grad_out, u_, v_, mask_, grad);
        return grad;
    }
    const int c = grad_out.dim(0), h = grad_out.dim(1), w = grad_out.dim(2);
    Tensor grad({c, h, w});
    std::vector<double> gz(static_cast<size_t>(n_)), gr(static_cast<size_t>(n_));
    for (int t = 0; t < c / n_; ++t) {
        for (int yy = 0; yy < h; ++yy) {
            for (int xx = 0; xx < w; ++xx) {
                for (int i = 0; i < n_; ++i) {
                    gz[static_cast<size_t>(i)] = grad_out.at(t * n_ + i, yy, xx);
                }
                // dL/dr = U^t dL/dz, gated by the rectification mask.
                for (int i = 0; i < n_; ++i) {
                    const int64_t flat =
                        (static_cast<int64_t>(t * n_ + i) * h + yy) * w + xx;
                    double acc = 0.0;
                    if (mask_[static_cast<size_t>(flat)]) {
                        for (int j = 0; j < n_; ++j) {
                            acc += u_.at(j, i) * gz[static_cast<size_t>(j)];
                        }
                    }
                    gr[static_cast<size_t>(i)] = acc;
                }
                // dL/dy = V^t (masked)
                for (int i = 0; i < n_; ++i) {
                    double acc = 0.0;
                    for (int j = 0; j < n_; ++j) {
                        acc += v_.at(j, i) * gr[static_cast<size_t>(j)];
                    }
                    grad.at(t * n_ + i, yy, xx) = static_cast<float>(acc);
                }
            }
        }
    }
    return grad;
}

// ---- PixelShuffle / PixelUnshuffle ----------------------------------------

Tensor
PixelShuffle::forward(const Tensor& x, bool train)
{
    (void)train;
    Tensor out(out_shape(x.shape()));
    layout::pixel_shuffle(x.data(), x.shape(), r_, out.data());
    return out;
}

Tensor
PixelShuffle::backward(const Tensor& grad_out)
{
    Tensor grad(layout::pixel_unshuffle_shape(grad_out.shape(), r_));
    layout::pixel_unshuffle(grad_out.data(), grad_out.shape(), r_,
                            grad.data());
    return grad;
}

Shape
PixelShuffle::out_shape(const Shape& in) const
{
    return layout::pixel_shuffle_shape(in, r_);
}

Tensor
PixelUnshuffle::forward(const Tensor& x, bool train)
{
    (void)train;
    Tensor out(out_shape(x.shape()));
    layout::pixel_unshuffle(x.data(), x.shape(), r_, out.data());
    return out;
}

Tensor
PixelUnshuffle::backward(const Tensor& grad_out)
{
    Tensor grad(layout::pixel_shuffle_shape(grad_out.shape(), r_));
    layout::pixel_shuffle(grad_out.data(), grad_out.shape(), r_,
                          grad.data());
    return grad;
}

Shape
PixelUnshuffle::out_shape(const Shape& in) const
{
    return layout::pixel_unshuffle_shape(in, r_);
}

// ---- ChannelPad -------------------------------------------------------------

Tensor
ChannelPad::forward(const Tensor& x, bool train)
{
    (void)train;
    in_channels_ = x.dim(0);
    const Shape os = out_shape(x.shape());
    if (os[0] == in_channels_) return x;
    Tensor out(os);
    layout::channel_pad(x.data(), x.shape(), os[0], out.data());
    return out;
}

Tensor
ChannelPad::backward(const Tensor& grad_out)
{
    if (grad_out.dim(0) == in_channels_) return grad_out;
    Tensor grad({in_channels_, grad_out.dim(1), grad_out.dim(2)});
    layout::crop_channels(grad_out.data(), grad_out.shape(), in_channels_,
                          grad.data());
    return grad;
}

Shape
ChannelPad::out_shape(const Shape& in) const
{
    const int want = (in[0] + multiple_ - 1) / multiple_ * multiple_;
    return {want, in[1], in[2]};
}

// ---- CropChannels -----------------------------------------------------------

Tensor
CropChannels::forward(const Tensor& x, bool train)
{
    (void)train;
    in_channels_ = x.dim(0);
    if (in_channels_ == keep_) return x;
    Tensor out(out_shape(x.shape()));
    layout::crop_channels(x.data(), x.shape(), keep_, out.data());
    return out;
}

Tensor
CropChannels::backward(const Tensor& grad_out)
{
    if (in_channels_ == keep_) return grad_out;
    Tensor grad({in_channels_, grad_out.dim(1), grad_out.dim(2)});
    layout::channel_pad(grad_out.data(), grad_out.shape(), in_channels_,
                        grad.data());
    return grad;
}

Shape
CropChannels::out_shape(const Shape& in) const
{
    return {keep_, in[1], in[2]};
}

// ---- UpsampleBilinearLayer -----------------------------------------------

Tensor
UpsampleBilinearLayer::forward(const Tensor& x, bool train)
{
    if (train) in_shape_ = x.shape();
    return upsample_bilinear(x, r_);
}

Tensor
UpsampleBilinearLayer::backward(const Tensor& grad_out)
{
    // Exact adjoint: scatter each output gradient to its 4 source taps
    // with the interpolation weights used by the forward pass.
    const int c = in_shape_[0], h = in_shape_[1], w = in_shape_[2];
    const int ho = grad_out.dim(1), wo = grad_out.dim(2);
    Tensor grad({c, h, w});
    const float scale = 1.0f / static_cast<float>(r_);
    for (int ic = 0; ic < c; ++ic) {
        for (int oy = 0; oy < ho; ++oy) {
            float sy = (oy + 0.5f) * scale - 0.5f;
            sy = std::max(0.0f, std::min(sy, static_cast<float>(h - 1)));
            const int y0 = static_cast<int>(sy);
            const int y1 = std::min(y0 + 1, h - 1);
            const float fy = sy - static_cast<float>(y0);
            for (int ox = 0; ox < wo; ++ox) {
                float sx = (ox + 0.5f) * scale - 0.5f;
                sx = std::max(0.0f, std::min(sx, static_cast<float>(w - 1)));
                const int x0 = static_cast<int>(sx);
                const int x1 = std::min(x0 + 1, w - 1);
                const float fx = sx - static_cast<float>(x0);
                const float g = grad_out.at(ic, oy, ox);
                grad.at(ic, y0, x0) += (1 - fy) * (1 - fx) * g;
                grad.at(ic, y0, x1) += (1 - fy) * fx * g;
                grad.at(ic, y1, x0) += fy * (1 - fx) * g;
                grad.at(ic, y1, x1) += fy * fx * g;
            }
        }
    }
    return grad;
}

Shape
UpsampleBilinearLayer::out_shape(const Shape& in) const
{
    return {in[0], in[1] * r_, in[2] * r_};
}

// ---- DepthwiseConv2d -------------------------------------------------------

DepthwiseConv2d::DepthwiseConv2d(int c, int k, std::mt19937& rng)
    : c_(c), k_(k), w_({c, 1, k, k}), gw_({c, 1, k, k}),
      b_(static_cast<size_t>(c), 0.0f), gb_(static_cast<size_t>(c), 0.0f)
{
    const float stddev = std::sqrt(2.0f / static_cast<float>(k * k));
    w_.randn(rng, stddev);
}

Tensor
DepthwiseConv2d::forward(const Tensor& x, bool train)
{
    if (train) x_cache_ = x;
    const int h = x.dim(1), wd = x.dim(2);
    Tensor out({c_, h, wd});
    // One single-channel convolution per channel.
    for (int c = 0; c < c_; ++c) {
        Tensor xc({1, h, wd});
        std::copy(x.data() + static_cast<size_t>(c) * h * wd,
                  x.data() + static_cast<size_t>(c + 1) * h * wd, xc.data());
        Tensor wc({1, 1, k_, k_});
        std::copy(w_.data() + static_cast<size_t>(c) * k_ * k_,
                  w_.data() + static_cast<size_t>(c + 1) * k_ * k_,
                  wc.data());
        Tensor oc({1, h, wd});
        conv2d_forward(xc, wc, {b_[static_cast<size_t>(c)]}, oc);
        std::copy(oc.data(), oc.data() + static_cast<size_t>(h) * wd,
                  out.data() + static_cast<size_t>(c) * h * wd);
    }
    return out;
}

Tensor
DepthwiseConv2d::backward(const Tensor& grad_out)
{
    const int h = grad_out.dim(1), wd = grad_out.dim(2);
    Tensor grad_x({c_, h, wd});
    for (int c = 0; c < c_; ++c) {
        Tensor xc({1, h, wd});
        std::copy(x_cache_.data() + static_cast<size_t>(c) * h * wd,
                  x_cache_.data() + static_cast<size_t>(c + 1) * h * wd,
                  xc.data());
        Tensor go({1, h, wd});
        std::copy(grad_out.data() + static_cast<size_t>(c) * h * wd,
                  grad_out.data() + static_cast<size_t>(c + 1) * h * wd,
                  go.data());
        Tensor gw({1, 1, k_, k_});
        std::vector<float> gb{0.0f};
        conv2d_backward_weights(xc, go, gw, gb);
        for (int i = 0; i < k_ * k_; ++i) {
            gw_.data()[static_cast<size_t>(c) * k_ * k_ + i] += gw.data()[i];
        }
        gb_[static_cast<size_t>(c)] += gb[0];
        Tensor wc({1, 1, k_, k_});
        std::copy(w_.data() + static_cast<size_t>(c) * k_ * k_,
                  w_.data() + static_cast<size_t>(c + 1) * k_ * k_,
                  wc.data());
        Tensor gx({1, h, wd});
        conv2d_backward_input(wc, go, gx);
        std::copy(gx.data(), gx.data() + static_cast<size_t>(h) * wd,
                  grad_x.data() + static_cast<size_t>(c) * h * wd);
    }
    return grad_x;
}

void
DepthwiseConv2d::collect_params(std::vector<ParamRef>& out)
{
    out.push_back({&w_.vec(), &gw_.vec(), "dwconv.w"});
    out.push_back({&b_, &gb_, "dwconv.b"});
}

int64_t
DepthwiseConv2d::macs(const Shape& in) const
{
    return static_cast<int64_t>(c_) * k_ * k_ * in[1] * in[2];
}

std::unique_ptr<Layer>
DepthwiseConv2d::clone() const
{
    auto c = std::make_unique<DepthwiseConv2d>(*this);
    c->x_cache_ = Tensor();
    return c;
}

// ---- Sequential --------------------------------------------------------------

Tensor
Sequential::forward(const Tensor& x, bool train)
{
    Tensor cur = x;
    for (auto& l : layers_) cur = l->forward(cur, train);
    return cur;
}

Tensor
Sequential::backward(const Tensor& grad_out)
{
    Tensor cur = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        cur = (*it)->backward(cur);
    }
    return cur;
}

void
Sequential::collect_params(std::vector<ParamRef>& out)
{
    for (auto& l : layers_) l->collect_params(out);
}

Shape
Sequential::out_shape(const Shape& in) const
{
    Shape cur = in;
    for (const auto& l : layers_) cur = l->out_shape(cur);
    return cur;
}

int64_t
Sequential::macs(const Shape& in) const
{
    Shape cur = in;
    int64_t total = 0;
    for (const auto& l : layers_) {
        total += l->macs(cur);
        cur = l->out_shape(cur);
    }
    return total;
}

std::unique_ptr<Layer>
Sequential::clone() const
{
    auto s = std::make_unique<Sequential>();
    for (const auto& l : layers_) s->add(l->clone());
    return s;
}

// ---- TwoBranchAdd -----------------------------------------------------------

Tensor
TwoBranchAdd::forward(const Tensor& x, bool train)
{
    Tensor y = main_->forward(x, train);
    y += skip_->forward(x, train);
    return y;
}

Tensor
TwoBranchAdd::backward(const Tensor& grad_out)
{
    Tensor gx = main_->backward(grad_out);
    gx += skip_->backward(grad_out);
    return gx;
}

void
TwoBranchAdd::collect_params(std::vector<ParamRef>& out)
{
    main_->collect_params(out);
    skip_->collect_params(out);
}

Shape
TwoBranchAdd::out_shape(const Shape& in) const
{
    return main_->out_shape(in);
}

int64_t
TwoBranchAdd::macs(const Shape& in) const
{
    return main_->macs(in) + skip_->macs(in);
}

// ---- Residual ------------------------------------------------------------------

Tensor
Residual::forward(const Tensor& x, bool train)
{
    Tensor y = body_->forward(x, train);
    y += x;
    return y;
}

Tensor
Residual::backward(const Tensor& grad_out)
{
    Tensor gx = body_->backward(grad_out);
    gx += grad_out;
    return gx;
}

void
Residual::collect_params(std::vector<ParamRef>& out)
{
    body_->collect_params(out);
}

Shape
Residual::out_shape(const Shape& in) const
{
    return in;
}

int64_t
Residual::macs(const Shape& in) const
{
    return body_->macs(in);
}

}  // namespace ringcnn::nn

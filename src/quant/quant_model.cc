#include "quant/quant_model.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/ring_conv.h"
#include "core/ring_conv_engine.h"
#include "nn/executor.h"
#include "quant/quant_executor.h"

namespace ringcnn::quant {

namespace {

// The integer butterfly and tuple-log helpers live in quant/qformat.h
// (ceil_log2, wht_inplace) so the executor's fused epilogue shares the
// exact arithmetic of this oracle.

double
abs_max_of(const std::vector<Tensor>& xs)
{
    double m = 0.0;
    for (const auto& t : xs) m = std::max<double>(m, t.abs_max());
    return m;
}

/** Per-channel-group abs max: group(c) = c % n (component-wise Q). */
std::vector<double>
group_abs_max(const std::vector<Tensor>& xs, int n)
{
    std::vector<double> m(static_cast<size_t>(n), 0.0);
    for (const auto& t : xs) {
        const int c = t.dim(0), h = t.dim(1), w = t.dim(2);
        for (int ch = 0; ch < c; ++ch) {
            double& slot = m[static_cast<size_t>(ch % n)];
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    slot = std::max<double>(slot, std::fabs(t.at(ch, y, x)));
                }
            }
        }
    }
    return m;
}

}  // namespace

// ---- Node method definitions ------------------------------------------------

QAct
QSeq::forward(const QAct& x) const
{
    QAct cur = x;
    for (const auto& n : nodes) cur = n->forward(cur);
    return cur;
}

QAct
QConvNode::forward(const QAct& x) const
{
        const int h = x.shape[1], wd = x.shape[2], pad = k / 2;
        QAct out;
        out.shape = {co, h, wd};
        out.v.assign(static_cast<size_t>(co) * h * wd, 0);
        out.frac = out_frac;
        for (int oc = 0; oc < co; ++oc) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < wd; ++xx) {
                    int64_t acc = bias[static_cast<size_t>(oc)];
                    for (int ic = 0; ic < ci; ++ic) {
                        const int32_t* wt =
                            &w[(static_cast<size_t>(oc) * ci + ic) * k * k];
                        for (int ky = 0; ky < k; ++ky) {
                            const int iy = y + ky - pad;
                            if (iy < 0 || iy >= h) continue;
                            for (int kx = 0; kx < k; ++kx) {
                                const int ix = xx + kx - pad;
                                if (ix < 0 || ix >= wd) continue;
                                const int32_t wv =
                                    wt[static_cast<size_t>(ky) * k + kx];
                                if (wv != 0) {
                                    acc += static_cast<int64_t>(wv) *
                                           x.at(ic, iy, ix);
                                }
                            }
                        }
                    }
                    out.at(oc, y, xx) = acc;
                }
            }
        }
        return out;
    }

QAct
QRequantNode::forward(const QAct& x) const
{
        QAct out;
        out.shape = x.shape;
        out.frac = target;
        out.v.resize(x.v.size());
        const int h = x.shape[1], wd = x.shape[2];
        for (int c = 0; c < x.channels(); ++c) {
            const int shift =
                x.frac[static_cast<size_t>(c)] - target[static_cast<size_t>(c)];
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < wd; ++xx) {
                    int64_t v = x.at(c, y, xx);
                    if (relu_first && v < 0) v = 0;
                    out.at(c, y, xx) = shift_round_saturate(v, shift, bits);
                }
            }
        }
        return out;
    }

QAct
QDirReluNode::forward(const QAct& x) const
{
        const int c = x.channels(), h = x.shape[1], wd = x.shape[2];
        QAct out;
        out.shape = x.shape;
        out.frac = out_frac;
        out.v.resize(x.v.size());
        std::vector<int64_t> y(static_cast<size_t>(n));
        std::vector<int64_t> z(static_cast<size_t>(n));
        std::vector<int> ny(static_cast<size_t>(n)), nx(static_cast<size_t>(n));
        const int log2n = ceil_log2(n);
        for (int t = 0; t < c / n; ++t) {
            for (int i = 0; i < n; ++i) {
                ny[static_cast<size_t>(i)] = x.frac[static_cast<size_t>(t * n + i)];
                nx[static_cast<size_t>(i)] =
                    out_frac[static_cast<size_t>(t * n + i)];
            }
            for (int yy = 0; yy < h; ++yy) {
                for (int xx = 0; xx < wd; ++xx) {
                    if (onthefly) {
                        for (int i = 0; i < n; ++i) {
                            y[static_cast<size_t>(i)] = x.at(t * n + i, yy, xx);
                        }
                        onthefly_directional_relu(y, ny, nx, n, z, bits);
                    } else {
                        // Conventional pipeline: quantize the wide conv
                        // output to 8-bit, transform, re-quantize, rectify,
                        // transform, quantize to the output format.
                        for (int i = 0; i < n; ++i) {
                            const int pf =
                                pre_frac[static_cast<size_t>(t * n + i)];
                            y[static_cast<size_t>(i)] = shift_round_saturate(
                                x.at(t * n + i, yy, xx),
                                ny[static_cast<size_t>(i)] - pf, bits);
                        }
                        // first transform at pre_frac (uniform by
                        // construction), quantize to mid format, rectify
                        wht_inplace(y.data(), n);
                        for (int i = 0; i < n; ++i) {
                            const int pf = pre_frac[static_cast<size_t>(t * n)];
                            const int mf =
                                mid_frac[static_cast<size_t>(t * n + i)];
                            int64_t v = shift_round_saturate(
                                y[static_cast<size_t>(i)], pf - mf, bits);
                            y[static_cast<size_t>(i)] = v > 0 ? v : 0;
                        }
                        wht_inplace(y.data(), n);
                        for (int i = 0; i < n; ++i) {
                            const int mf = mid_frac[static_cast<size_t>(t * n)];
                            z[static_cast<size_t>(i)] = shift_round_saturate(
                                y[static_cast<size_t>(i)],
                                mf - nx[static_cast<size_t>(i)] + log2n, bits);
                        }
                    }
                    for (int i = 0; i < n; ++i) {
                        out.at(t * n + i, yy, xx) = z[static_cast<size_t>(i)];
                    }
                }
            }
        }
        return out;
    }

QAct
QPixelShuffleNode::forward(const QAct& x) const
{
        const int c = x.channels() / (r * r), h = x.shape[1], w = x.shape[2];
        QAct out;
        out.shape = {c, h * r, w * r};
        out.v.resize(x.v.size());
        out.frac.resize(static_cast<size_t>(c));
        for (int oc = 0; oc < c; ++oc) {
            out.frac[static_cast<size_t>(oc)] =
                x.frac[static_cast<size_t>(oc * r * r)];
            for (int dy = 0; dy < r; ++dy) {
                for (int dx = 0; dx < r; ++dx) {
                    const int ic = (oc * r + dy) * r + dx;
                    for (int y = 0; y < h; ++y) {
                        for (int xx = 0; xx < w; ++xx) {
                            out.at(oc, y * r + dy, xx * r + dx) =
                                x.at(ic, y, xx);
                        }
                    }
                }
            }
        }
        return out;
    }

QAct
QPixelUnshuffleNode::forward(const QAct& x) const
{
        const int c = x.channels(), h = x.shape[1] / r, w = x.shape[2] / r;
        QAct out;
        out.shape = {c * r * r, h, w};
        out.v.resize(static_cast<size_t>(shape_numel(out.shape)));
        out.frac.resize(static_cast<size_t>(c) * r * r);
        for (int ic = 0; ic < c; ++ic) {
            for (int dy = 0; dy < r; ++dy) {
                for (int dx = 0; dx < r; ++dx) {
                    const int oc = (ic * r + dy) * r + dx;
                    out.frac[static_cast<size_t>(oc)] =
                        x.frac[static_cast<size_t>(ic)];
                    for (int y = 0; y < h; ++y) {
                        for (int xx = 0; xx < w; ++xx) {
                            out.at(oc, y, xx) =
                                x.at(ic, y * r + dy, xx * r + dx);
                        }
                    }
                }
            }
        }
        return out;
    }

QAct
QPadNode::forward(const QAct& x) const
{
        const int c = x.channels();
        if (want == c) return x;
        QAct out;
        out.shape = {want, x.shape[1], x.shape[2]};
        out.v.assign(static_cast<size_t>(want) * x.shape[1] * x.shape[2], 0);
        out.frac.assign(static_cast<size_t>(want), x.frac[0]);
        for (int ch = 0; ch < c; ++ch) {
            out.frac[static_cast<size_t>(ch)] = x.frac[static_cast<size_t>(ch)];
        }
        std::copy(x.v.begin(), x.v.end(), out.v.begin());
        return out;
    }

QAct
QCropNode::forward(const QAct& x) const
{
        if (x.channels() == keep) return x;
        QAct out;
        out.shape = {keep, x.shape[1], x.shape[2]};
        out.v.assign(x.v.begin(),
                     x.v.begin() + static_cast<int64_t>(keep) * x.shape[1] *
                                       x.shape[2]);
        out.frac.assign(x.frac.begin(), x.frac.begin() + keep);
        return out;
    }

/** Aligns two 8-bit activations to a target format and adds. */
static QAct
add_aligned(const QAct& a, const QAct& b, const std::vector<int>& target,
            int bits)
{
    assert(a.shape == b.shape);
    QAct out;
    out.shape = a.shape;
    out.frac = target;
    out.v.resize(a.v.size());
    const int h = a.shape[1], w = a.shape[2];
    for (int c = 0; c < a.channels(); ++c) {
        const int sa = a.frac[static_cast<size_t>(c)] - target[static_cast<size_t>(c)];
        const int sb = b.frac[static_cast<size_t>(c)] - target[static_cast<size_t>(c)];
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                const int64_t va =
                    shift_round_saturate(a.at(c, y, x), sa, bits + 2);
                const int64_t vb =
                    shift_round_saturate(b.at(c, y, x), sb, bits + 2);
                out.at(c, y, x) =
                    shift_round_saturate(va + vb, 0, bits);
            }
        }
    }
    return out;
}

QAct
QResidualNode::forward(const QAct& x) const
{
        const QAct y = body->forward(x);
        return add_aligned(x, y, out_frac, bits);
    }

QAct
QTwoBranchNode::forward(const QAct& x) const
{
        const QAct a = main->forward(x);
        const QAct b = skip->forward(x);
        return add_aligned(a, b, out_frac, bits);
    }

QAct
QBilinearNode::forward(const QAct& x) const
{
        const int c = x.channels(), h = x.shape[1], w = x.shape[2];
        const int ho = h * r, wo = w * r;
        // Interpolation weights are multiples of 1/(2r); products of two
        // weights are multiples of 1/(4r^2) -> extra frac bits.
        const int wbits = 2 * ceil_log2(2 * r);
        QAct out;
        out.shape = {c, ho, wo};
        out.v.resize(static_cast<size_t>(c) * ho * wo);
        out.frac = target;
        for (int ic = 0; ic < c; ++ic) {
            const int shift = x.frac[static_cast<size_t>(ic)] + wbits -
                              target[static_cast<size_t>(ic)];
            for (int oy = 0; oy < ho; ++oy) {
                // source position in units of 1/(2r): (2 oy + 1 - r)
                int num_y = 2 * oy + 1 - r;
                num_y = std::max(0, std::min(num_y, 2 * r * (h - 1)));
                const int y0 = num_y / (2 * r);
                const int wy = num_y - 2 * r * y0;
                const int y1 = std::min(y0 + 1, h - 1);
                for (int ox = 0; ox < wo; ++ox) {
                    int num_x = 2 * ox + 1 - r;
                    num_x = std::max(0, std::min(num_x, 2 * r * (w - 1)));
                    const int x0 = num_x / (2 * r);
                    const int wx = num_x - 2 * r * x0;
                    const int x1 = std::min(x0 + 1, w - 1);
                    const int64_t acc =
                        static_cast<int64_t>(2 * r - wy) * (2 * r - wx) *
                            x.at(ic, y0, x0) +
                        static_cast<int64_t>(2 * r - wy) * wx * x.at(ic, y0, x1) +
                        static_cast<int64_t>(wy) * (2 * r - wx) * x.at(ic, y1, x0) +
                        static_cast<int64_t>(wy) * wx * x.at(ic, y1, x1);
                    out.at(ic, oy, ox) = shift_round_saturate(acc, shift, bits);
                }
            }
        }
        return out;
    }

// ---- Conversion -------------------------------------------------------------

namespace {

/** Conversion context threading calibration activations and formats. */
struct Ctx
{
    const QuantOptions* opt;
    std::vector<Tensor> acts;      ///< float activations (calibration)
    std::vector<int> frac;         ///< current per-channel feature frac
    std::vector<std::string>* ops; ///< op-name log
};

void
advance(Ctx& ctx, nn::Layer* l)
{
    // The executor's single-layer entry point batches ring convs
    // through the layer's cached FRCONV engine and fans elementwise
    // layers out across the worker pool.
    ctx.acts = nn::ModelExecutor::run_layer(*l, ctx.acts);
}

[[noreturn]] void
unsupported(const nn::Layer* l)
{
    std::fprintf(stderr, "quantize: unsupported layer %s\n",
                 l->name().c_str());
    std::abort();
}

std::unique_ptr<QNode> convert_layer(nn::Layer* l, Ctx& ctx);

/** Emits the integer conv for a Conv2d or RingConv2d layer. */
std::unique_ptr<QConvNode>
make_qconv(nn::Layer* l, Ctx& ctx)
{
    Tensor wreal;
    std::vector<float>* bias = nullptr;
    double wmax = 0.0;
    const int wbits = ctx.opt->weight_bits;
    QFormat wfmt;
    if (auto* c = dynamic_cast<nn::Conv2d*>(l)) {
        wreal = c->weights();
        bias = &c->bias();
        wmax = wreal.abs_max();
        wfmt = QFormat::for_abs_max(wmax, wbits);
    } else if (auto* rc = dynamic_cast<nn::RingConv2d*>(l)) {
        // Quantize the n ring degrees of freedom, then expand: every
        // expanded entry is +/- one quantized component (exact).
        RingConvWeights qg = rc->weights();
        for (float v : qg.w) wmax = std::max<double>(wmax, std::fabs(v));
        wfmt = QFormat::for_abs_max(wmax, wbits);
        for (auto& v : qg.w) {
            v = static_cast<float>(wfmt.quantize(v));
        }
        wreal = expand_to_real(rc->ring(), qg);
        // wreal already holds integer values; undo the scale below by
        // treating them directly as quantized integers.
        bias = &rc->bias();
        auto node = std::make_unique<QConvNode>();
        node->co = wreal.dim(0);
        node->ci = wreal.dim(1);
        node->k = wreal.dim(2);
        node->n = rc->ring().n;
        node->wfrac = wfmt.frac;
        node->w.resize(static_cast<size_t>(wreal.numel()));
        for (int64_t i = 0; i < wreal.numel(); ++i) {
            node->w[static_cast<size_t>(i)] =
                static_cast<int32_t>(std::llround(wreal[i]));
        }
        // out frac per oc from a contributing input channel
        node->out_frac.assign(static_cast<size_t>(node->co), 0);
        for (int oc = 0; oc < node->co; ++oc) {
            int contributor = 0;
            for (int ic = 0; ic < node->ci; ++ic) {
                bool nz = false;
                for (int t = 0; t < node->k * node->k; ++t) {
                    if (node->w[(static_cast<size_t>(oc) * node->ci + ic) *
                                    node->k * node->k + t] != 0) {
                        nz = true;
                    }
                }
                if (nz) { contributor = ic; break; }
            }
            node->out_frac[static_cast<size_t>(oc)] =
                ctx.frac[static_cast<size_t>(contributor)] + wfmt.frac;
        }
        node->bias.resize(bias->size());
        for (size_t i = 0; i < bias->size(); ++i) {
            QFormat bf{32, node->out_frac[i]};
            node->bias[i] = bf.quantize((*bias)[i]);
        }
        return node;
    } else {
        unsupported(l);
    }

    auto node = std::make_unique<QConvNode>();
    node->co = wreal.dim(0);
    node->ci = wreal.dim(1);
    node->k = wreal.dim(2);
    node->wfrac = wfmt.frac;
    node->w.resize(static_cast<size_t>(wreal.numel()));
    for (int64_t i = 0; i < wreal.numel(); ++i) {
        node->w[static_cast<size_t>(i)] =
            static_cast<int32_t>(wfmt.quantize(wreal[i]));
    }
    node->out_frac.assign(static_cast<size_t>(node->co),
                          ctx.frac[0] + wfmt.frac);
    node->bias.resize(bias->size());
    for (size_t i = 0; i < bias->size(); ++i) {
        QFormat bf{32, node->out_frac[i]};
        node->bias[i] = bf.quantize((*bias)[i]);
    }
    return node;
}

/** Per-channel target format from calibrated activations. */
std::vector<int>
target_from_acts(const Ctx& ctx, int group_n, int bits)
{
    const int c = ctx.acts.front().dim(0);
    std::vector<int> target(static_cast<size_t>(c), 0);
    if (group_n <= 1) {
        const QFormat f = QFormat::for_abs_max(abs_max_of(ctx.acts), bits);
        std::fill(target.begin(), target.end(), f.frac);
    } else {
        const auto gm = group_abs_max(ctx.acts, group_n);
        for (int ch = 0; ch < c; ++ch) {
            target[static_cast<size_t>(ch)] =
                QFormat::for_abs_max(gm[static_cast<size_t>(ch % group_n)],
                                     bits).frac;
        }
    }
    return target;
}

std::unique_ptr<QNode>
convert_sequential(nn::Sequential* seq, Ctx& ctx)
{
    auto out = std::make_unique<QSeq>();
    const int fbits = ctx.opt->feature_bits;
    for (size_t i = 0; i < seq->size(); ++i) {
        nn::Layer* l = &seq->at(i);
        nn::Layer* next = i + 1 < seq->size() ? &seq->at(i + 1) : nullptr;

        const bool is_conv = dynamic_cast<nn::Conv2d*>(l) != nullptr ||
                             dynamic_cast<nn::RingConv2d*>(l) != nullptr;
        if (is_conv) {
            auto conv = make_qconv(l, ctx);
            const std::vector<int> conv_out_frac = conv->out_frac;
            out->nodes.push_back(std::move(conv));
            if (ctx.ops) ctx.ops->push_back("conv");
            // Wide accumulators: record the float conv output for the
            // quantize-first ablation before fusing the nonlinearity.
            advance(ctx, l);
            if (auto* dr = next ? dynamic_cast<nn::DirectionalReLU*>(next)
                                : nullptr) {
                const int n = dr->v().cols();
                auto node = std::make_unique<QDirReluNode>();
                node->n = n;
                node->bits = fbits;
                node->onthefly = ctx.opt->onthefly_dir_relu;
                // Conventional (quantize-first) accelerators use single
                // per-layer formats at the intermediate stages.
                node->pre_frac = target_from_acts(ctx, 1, fbits);
                // mid format for the quantize-first ablation: exact
                // statistics of fcw(H y) over the calibration stream
                // (ctx.acts currently hold the float conv outputs y).
                {
                    const Matd h = hadamard(n);
                    std::vector<Tensor> mids;
                    for (const auto& a : ctx.acts) {
                        Tensor t(a.shape());
                        const int c = a.dim(0), hh = a.dim(1), ww = a.dim(2);
                        for (int tt = 0; tt < c / n; ++tt) {
                            for (int yy = 0; yy < hh; ++yy) {
                                for (int xx = 0; xx < ww; ++xx) {
                                    for (int ii = 0; ii < n; ++ii) {
                                        double acc = 0.0;
                                        for (int jj = 0; jj < n; ++jj) {
                                            acc += h.at(ii, jj) *
                                                   a.at(tt * n + jj, yy, xx);
                                        }
                                        t.at(tt * n + ii, yy, xx) =
                                            static_cast<float>(
                                                acc > 0.0 ? acc : 0.0);
                                    }
                                }
                            }
                        }
                        mids.push_back(std::move(t));
                    }
                    Ctx mid_ctx{ctx.opt, std::move(mids), {}, nullptr};
                    node->mid_frac = target_from_acts(mid_ctx, 1, fbits);
                }
                advance(ctx, next);  // float dir-relu output
                node->out_frac = target_from_acts(
                    ctx, ctx.opt->componentwise_q ? n : 1, fbits);
                ctx.frac = node->out_frac;
                if (ctx.ops) ctx.ops->push_back(node->name());
                out->nodes.push_back(std::move(node));
                ++i;  // consumed the nonlinearity
            } else if (next && dynamic_cast<nn::ReLU*>(next) != nullptr) {
                advance(ctx, next);  // float relu output
                auto node = std::make_unique<QRequantNode>();
                node->bits = fbits;
                node->relu_first = true;
                node->target = target_from_acts(ctx, 1, fbits);
                ctx.frac = node->target;
                if (ctx.ops) ctx.ops->push_back(node->name());
                out->nodes.push_back(std::move(node));
                ++i;
            } else {
                auto node = std::make_unique<QRequantNode>();
                node->bits = fbits;
                node->target = target_from_acts(ctx, 1, fbits);
                ctx.frac = node->target;
                if (ctx.ops) ctx.ops->push_back(node->name());
                out->nodes.push_back(std::move(node));
            }
            continue;
        }
        out->nodes.push_back(convert_layer(l, ctx));
    }
    return out;
}

std::unique_ptr<QNode>
convert_layer(nn::Layer* l, Ctx& ctx)
{
    const int fbits = ctx.opt->feature_bits;
    if (auto* seq = dynamic_cast<nn::Sequential*>(l)) {
        return convert_sequential(seq, ctx);
    }
    if (auto* res = dynamic_cast<nn::Residual*>(l)) {
        auto node = std::make_unique<QResidualNode>();
        node->bits = fbits;
        Ctx body_ctx{ctx.opt, ctx.acts, ctx.frac, ctx.ops};
        if (ctx.ops) ctx.ops->push_back("residual[");
        node->body = convert_layer(&res->body(), body_ctx);
        // float output of the residual = input + body
        for (size_t s = 0; s < ctx.acts.size(); ++s) {
            body_ctx.acts[s] += ctx.acts[s];
        }
        ctx.acts = std::move(body_ctx.acts);
        Ctx out_ctx{ctx.opt, ctx.acts, {}, nullptr};
        node->out_frac = target_from_acts(out_ctx, 1, fbits);
        ctx.frac = node->out_frac;
        if (ctx.ops) ctx.ops->push_back("]residual-add");
        return node;
    }
    if (auto* two = dynamic_cast<nn::TwoBranchAdd*>(l)) {
        auto node = std::make_unique<QTwoBranchNode>();
        node->bits = fbits;
        Ctx main_ctx{ctx.opt, ctx.acts, ctx.frac, ctx.ops};
        if (ctx.ops) ctx.ops->push_back("two-branch[");
        node->main = convert_layer(&two->main(), main_ctx);
        Ctx skip_ctx{ctx.opt, ctx.acts, ctx.frac, nullptr};
        node->skip = convert_layer(&two->skip(), skip_ctx);
        // float sum for the output format
        for (size_t s = 0; s < ctx.acts.size(); ++s) {
            ctx.acts[s] = main_ctx.acts[s] + skip_ctx.acts[s];
        }
        Ctx out_ctx{ctx.opt, ctx.acts, {}, nullptr};
        node->out_frac = target_from_acts(out_ctx, 1, fbits);
        ctx.frac = node->out_frac;
        if (ctx.ops) ctx.ops->push_back("]two-branch-add");
        return node;
    }
    if (auto* ps = dynamic_cast<nn::PixelShuffle*>(l)) {
        auto node = std::make_unique<QPixelShuffleNode>();
        const Shape in = ctx.acts.front().shape();
        const int r2 = in[0] / l->out_shape(in)[0];
        node->r = static_cast<int>(std::lround(std::sqrt(
            static_cast<double>(r2))));
        advance(ctx, ps);
        // permute fracs
        std::vector<int> nf(static_cast<size_t>(ctx.acts.front().dim(0)));
        for (size_t oc = 0; oc < nf.size(); ++oc) {
            nf[oc] = ctx.frac[oc * static_cast<size_t>(node->r) * node->r];
        }
        ctx.frac = nf;
        if (ctx.ops) ctx.ops->push_back(node->name());
        return node;
    }
    if (auto* pu = dynamic_cast<nn::PixelUnshuffle*>(l)) {
        auto node = std::make_unique<QPixelUnshuffleNode>();
        const Shape in = ctx.acts.front().shape();
        const int r2 = l->out_shape(in)[0] / in[0];
        node->r = static_cast<int>(std::lround(std::sqrt(
            static_cast<double>(r2))));
        advance(ctx, pu);
        std::vector<int> nf(static_cast<size_t>(ctx.acts.front().dim(0)));
        for (size_t oc = 0; oc < nf.size(); ++oc) {
            nf[oc] = ctx.frac[oc / (static_cast<size_t>(node->r) * node->r)];
        }
        ctx.frac = nf;
        if (ctx.ops) ctx.ops->push_back(node->name());
        return node;
    }
    // A pad or crop that keeps the channel count converts to an empty
    // sequence: no node, as the fp32 linearizer emits no op for it.
    if (dynamic_cast<nn::ChannelPad*>(l) != nullptr) {
        const Shape in = ctx.acts.front().shape();
        const int want = l->out_shape(in)[0];
        if (want == in[0]) return std::make_unique<QSeq>();
        auto node = std::make_unique<QPadNode>();
        node->want = want;
        advance(ctx, l);
        ctx.frac.resize(static_cast<size_t>(want), ctx.frac.empty() ? 0 : ctx.frac[0]);
        if (ctx.ops) ctx.ops->push_back(node->name());
        return node;
    }
    if (dynamic_cast<nn::CropChannels*>(l) != nullptr) {
        const Shape in = ctx.acts.front().shape();
        const int keep = l->out_shape(in)[0];
        if (keep == in[0]) return std::make_unique<QSeq>();
        auto node = std::make_unique<QCropNode>();
        node->keep = keep;
        advance(ctx, l);
        ctx.frac.resize(static_cast<size_t>(node->keep));
        if (ctx.ops) ctx.ops->push_back(node->name());
        return node;
    }
    if (dynamic_cast<nn::ReLU*>(l) != nullptr) {
        // Standalone ReLU on an 8-bit activation: pure rectification.
        advance(ctx, l);
        auto node = std::make_unique<QRequantNode>();
        node->bits = fbits;
        node->relu_first = true;
        node->target = ctx.frac;
        if (ctx.ops) ctx.ops->push_back("relu");
        return node;
    }
    if (dynamic_cast<nn::UpsampleBilinearLayer*>(l) != nullptr) {
        auto node = std::make_unique<QBilinearNode>();
        const Shape in = ctx.acts.front().shape();
        node->r = l->out_shape(in)[1] / in[1];
        // The 4-tap weights sum to (2r)^2 and the node shifts by
        // 2 * ceil_log2(2r) bits: the two agree only for powers of two.
        if ((node->r & (node->r - 1)) != 0) {
            throw std::invalid_argument(
                "ringcnn: the fixed-point bilinear upsampler needs a "
                "power-of-two factor, got r = " +
                std::to_string(node->r));
        }
        node->bits = fbits;
        advance(ctx, l);
        Ctx out_ctx{ctx.opt, ctx.acts, {}, nullptr};
        node->target = target_from_acts(out_ctx, 1, fbits);
        ctx.frac = node->target;
        if (ctx.ops) ctx.ops->push_back(node->name());
        return node;
    }
    unsupported(l);
}

}  // namespace

void
onthefly_directional_relu(const std::vector<int64_t>& y,
                          const std::vector<int>& ny,
                          const std::vector<int>& nx, int n,
                          std::vector<int64_t>& out, int out_bits)
{
    // Fig. 8: align components to the widest frac with left shifts,
    // butterfly, rectify, butterfly, per-component shift to the output
    // format (full precision throughout; one rounding at the end).
    int fmax = ny[0];
    for (int i = 1; i < n; ++i) fmax = std::max(fmax, ny[static_cast<size_t>(i)]);
    std::vector<int64_t> t(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        // Unsigned shift: same bits, no UB on negative components.
        t[static_cast<size_t>(i)] = static_cast<int64_t>(
            static_cast<uint64_t>(y[static_cast<size_t>(i)])
            << (fmax - ny[static_cast<size_t>(i)]));
    }
    wht_inplace(t.data(), n);
    for (auto& v : t) {
        if (v < 0) v = 0;
    }
    wht_inplace(t.data(), n);
    const int log2n = ceil_log2(n);
    out.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        // float value = t * 2^-fmax / n; output integer at frac nx_i.
        out[static_cast<size_t>(i)] = shift_round_saturate(
            t[static_cast<size_t>(i)],
            fmax + log2n - nx[static_cast<size_t>(i)], out_bits);
    }
}

QuantizedModel::QuantizedModel(nn::Model& model,
                               const std::vector<Tensor>& calib,
                               const QuantOptions& opt)
    : opt_(opt)
{
    assert(!calib.empty());
    double in_max = 0.0;
    for (const auto& t : calib) in_max = std::max<double>(in_max, t.abs_max());
    input_fmt_ = QFormat::for_abs_max(in_max, opt.feature_bits);

    Ctx ctx;
    ctx.opt = &opt_;
    ctx.acts = calib;
    ctx.frac.assign(static_cast<size_t>(calib.front().dim(0)),
                    input_fmt_.frac);
    ctx.ops = &op_log_;
    root_ = convert_layer(&model.root(), ctx);
}

QuantizedModel::~QuantizedModel() = default;
QuantizedModel::QuantizedModel(QuantizedModel&&) noexcept = default;
QuantizedModel& QuantizedModel::operator=(QuantizedModel&&) noexcept =
    default;

QuantExecutor&
QuantizedModel::executor() const
{
    if (!exec_) exec_ = std::make_unique<QuantExecutor>(*this);
    return *exec_;
}

Tensor
QuantizedModel::forward(const Tensor& x) const
{
    return executor().forward(x);
}

std::vector<Tensor>
QuantizedModel::forward(const std::vector<Tensor>& xs) const
{
    return executor().forward(xs);
}

QAct
QuantizedModel::infer(const QAct& in) const
{
    return executor().run(in);
}

std::vector<QAct>
QuantizedModel::infer(const std::vector<QAct>& ins) const
{
    return executor().run(ins);
}

std::vector<std::string>
QuantizedModel::op_names() const
{
    return op_log_;
}

QAct
QuantizedModel::quantize_input(const Tensor& x) const
{
    QAct in;
    in.shape = x.shape();
    in.v.resize(static_cast<size_t>(x.numel()));
    in.frac.assign(static_cast<size_t>(x.dim(0)), input_fmt_.frac);
    for (int64_t i = 0; i < x.numel(); ++i) {
        in.v[static_cast<size_t>(i)] = input_fmt_.quantize(x[i]);
    }
    return in;
}

Tensor
QuantizedModel::dequantize(const QAct& out)
{
    Tensor res(out.shape);
    const int h = out.shape[1], w = out.shape[2];
    for (int c = 0; c < out.channels(); ++c) {
        const double scale = std::ldexp(1.0, -out.frac[static_cast<size_t>(c)]);
        for (int y = 0; y < h; ++y) {
            for (int xx = 0; xx < w; ++xx) {
                res.at(c, y, xx) = static_cast<float>(out.at(c, y, xx) * scale);
            }
        }
    }
    return res;
}

}  // namespace ringcnn::quant

#include "nn/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "nn/conv_kernels.h"
#include "plan/arena_planner.h"
#include "plan/fusion_pass.h"
#include "tensor/image_ops.h"
#include "tensor/layout_ops.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::nn {

namespace {

void
relu_into(const Tensor& x, Tensor& out)
{
    out.reset(x.shape());  // no-op when in place
    const float* src = x.data();
    float* dst = out.data();
    for (int64_t i = 0; i < x.numel(); ++i) {
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    }
}

// The unfused DirectionalReLU fallback (a directional ReLU the fusion
// pass could not fold into a conv epilogue) runs
// nn::directional_relu_forward — the same simd::dir_relu_f32 kernel as
// the band-fused epilogue in RingConvEngine::conv_band_f32, so fusion
// never changes a bit; the double-precision reference lives in
// core/ring_conv.cc.

/** IR ops carry the originating layer as const void* (the IR never
 *  dereferences it); the fp32 lowering is the owner-side cast back. */
template <class L>
L*
layer_of(const plan::OpIR& op)
{
    return static_cast<L*>(const_cast<void*>(op.node));
}

}  // namespace

/** One compiled ring-conv step: the engine and the weight version it
 *  was last synced at. */
struct ModelExecutor::EngineRec
{
    std::unique_ptr<RingConvEngine> engine;
    RingConv2d* layer = nullptr;
    uint64_t seen_version = 0;
    std::vector<const Tensor*> in_ptrs;  ///< reused batch pointer array

    /** ABFT state (verify_checksums only). The checksum is recomputed
     *  on a weight-version bump, so it tracks refresh — the plan's
     *  OpIR copy may go stale, this one is live. */
    std::shared_ptr<const plan::ConvChecksum> checksum;
    int op_index = 0;
    uint64_t fingerprint = 0;  ///< FNV of the last-synced weights
    std::vector<double> in_sums, in_abs, out_sums;  ///< reused scratch
};

ModelExecutor::~ModelExecutor() = default;

// ---- compilation -----------------------------------------------------------

ModelExecutor::ModelExecutor(Model& model, Shape in_shape,
                             ExecutorOptions opt)
    : opt_(opt), model_(&model)
{
    rebind(in_shape);
}

void
ModelExecutor::rebind(const Shape& in_shape)
{
    RINGCNN_CHECK(in_shape.size() == 3,
                  "executor input must be a CHW shape");
    // Fault site: plan compile/rebind hitting an allocation failure.
    if (util::fault_check("plan.alloc")) throw std::bad_alloc();

    // The shared compile pipeline (src/plan): linearize the layer tree,
    // attach conv epilogues per the executor's fusion policy, assign
    // refcounted arena slots. Lowering below maps each IR op onto the
    // fp32 kernels. The plan is built before anything else changes, so
    // a shape the model rejects leaves the previous plan intact.
    plan_ = plan::linearize(model_->root(), in_shape);
    plan::FusionOptions fo;
    fo.require_tuple_match = true;
    if (opt_.fuse_epilogues) plan::fuse_epilogues(plan_, fo);
    plan::plan_arena(plan_);

    in_shape_ = in_shape;
    out_shape_ = plan_.out_shape;
    macs_ = model_->macs(in_shape_);
    engines_.clear();
    fused_real_convs_ = 0;
    fallback_steps_ = 0;
    steps_.rebind(plan_);  // the arena keeps its buffers
    lower();
}

void
ModelExecutor::lower_ringconv(const plan::OpIR& op)
{
    auto* rc = layer_of<RingConv2d>(op);
    ConvEpilogue ep = ConvEpilogue::kNone;
    const Matd* u = nullptr;
    const Matd* v = nullptr;
    if (op.epilogue == plan::Epilogue::kRelu) {
        ep = ConvEpilogue::kRelu;
    } else if (op.epilogue == plan::Epilogue::kDirRelu) {
        auto* dr = static_cast<DirectionalReLU*>(
            const_cast<void*>(op.epilogue_node));
        ep = ConvEpilogue::kDirectional;
        u = &dr->u();
        v = &dr->v();
    }

    auto rec = std::make_unique<EngineRec>();
    RingConvEngineOptions eo;
    eo.threads = opt_.threads;
    rec->engine = std::make_unique<RingConvEngine>(
        rc->ring(), rc->weights(), rc->bias(), eo);
    rec->engine->set_epilogue(ep, u, v);
    rec->layer = rc;
    rec->seen_version = rc->param_version();
    rec->op_index =
        static_cast<int>(&op - plan_.ops.data());
    if (opt_.verify_checksums) {
        rec->checksum = op.checksum;
        rec->fingerprint = weights_fingerprint(rc->weights(), rc->bias());
    }
    const size_t rec_idx = engines_.size();
    engines_.push_back(std::move(rec));

    const int in = op.in0_slot;
    const int out = op.out_slot;
    steps_.push([this, rec_idx, in, out](int batch) {
        EngineRec& r = *engines_[rec_idx];
        if (r.in_ptrs.size() < static_cast<size_t>(batch)) {
            r.in_ptrs.resize(static_cast<size_t>(batch));
        }
        for (int b = 0; b < batch; ++b) {
            r.in_ptrs[static_cast<size_t>(b)] = &steps_.at(in, b);
        }
        Tensor* ys = steps_.slot(out).data();
        if (!opt_.verify_checksums || r.checksum == nullptr) {
            r.engine->run_into(r.in_ptrs.data(), ys, batch, &conv_scratch_);
            return;
        }
        // ABFT: shifted-window input sums first (the input slot may be
        // recycled), run with interior capture, then check each image's
        // observed sums against the checksum prediction.
        const plan::ConvChecksum& cs = *r.checksum;
        const size_t taps = cs.num_input_sums();
        r.in_sums.resize(taps * static_cast<size_t>(batch));
        r.in_abs.resize(taps * static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
            const Tensor& x = *r.in_ptrs[static_cast<size_t>(b)];
            plan::abft_input_sums_f32(
                cs, x.data(), x.dim(1), x.dim(2),
                r.in_sums.data() + static_cast<size_t>(b) * taps,
                r.in_abs.data() + static_cast<size_t>(b) * taps);
        }
        r.engine->run_into(r.in_ptrs.data(), ys, batch, &conv_scratch_,
                           &r.out_sums);
        for (int b = 0; b < batch; ++b) {
            plan::abft_check_f32(
                cs, r.in_sums.data() + static_cast<size_t>(b) * taps,
                r.in_abs.data() + static_cast<size_t>(b) * taps,
                r.out_sums.data() + static_cast<size_t>(b) * cs.co,
                ys[b].dim(1), ys[b].dim(2), r.op_index, r.engine->n());
        }
    });
}

void
ModelExecutor::lower()
{
    using plan::OpKind;
    // The layout moves share one signature: input, its shape, the op's
    // scalar (r, want or keep), output.
    using LayoutKernel = void (*)(const float*, const Shape&, int, float*);
    const auto layout_step = [this](const plan::OpIR& op,
                                    LayoutKernel kernel) {
        steps_.unary(op.in0_slot, op.out_slot,
                     [kernel, arg = op.arg, os = op.out_shape](
                         const Tensor& x, Tensor& y) {
                         y.reset(os);
                         kernel(x.data(), x.shape(), arg, y.data());
                     });
    };
    for (const plan::OpIR& op : plan_.ops) {
        if (op.fused) continue;  // absorbed into its conv's epilogue
        const int in = op.in0_slot;
        const int out = op.out_slot;
        switch (op.kind) {
        case OpKind::kRingConv:
            lower_ringconv(op);
            break;
        case OpKind::kDenseConv: {
            auto* conv = layer_of<Conv2d>(op);
            const bool relu = op.epilogue == plan::Epilogue::kRelu;
            steps_.unary(in, out, [conv, os = op.out_shape, relu](
                                      const Tensor& x, Tensor& y) {
                y.reset(os);
                conv2d_forward(x, conv->weights(), conv->bias(), y, relu);
            });
            if (relu) ++fused_real_convs_;
            break;
        }
        case OpKind::kResidualAdd:
        case OpKind::kBranchAdd:
            // In place when the accumulate side dies here. Otherwise
            // (degenerate graphs whose accumulate side stays live)
            // copy-then-add, bitwise the in-place sum.
            steps_.binary(in, op.in1_slot, out,
                          [](const Tensor& a, const Tensor& b, Tensor& y) {
                              if (&y != &a) y = a;
                              y += b;
                          });
            break;
        case OpKind::kRelu:
            steps_.unary(in, out, relu_into);
            break;
        case OpKind::kDirRelu: {
            auto* dr = layer_of<DirectionalReLU>(op);
            // Safe in place (rows are consumed before rewrite).
            steps_.unary(in, out, [dr](const Tensor& x, Tensor& y) {
                directional_relu_forward(x, dr->u(), dr->v(), y, nullptr);
            });
            break;
        }
        case OpKind::kPixelShuffle:
            layout_step(op, layout::pixel_shuffle<float>);
            break;
        case OpKind::kPixelUnshuffle:
            layout_step(op, layout::pixel_unshuffle<float>);
            break;
        case OpKind::kChannelPad:
            layout_step(op, layout::channel_pad<float>);
            break;
        case OpKind::kCropChannels:
            layout_step(op, layout::crop_channels<float>);
            break;
        case OpKind::kDepthwiseConv: {
            auto* dw = layer_of<DepthwiseConv2d>(op);
            steps_.unary(in, out, [dw, os = op.out_shape](const Tensor& x,
                                                          Tensor& y) {
                y.reset(os);
                depthwise_conv2d_forward(x, dw->weights(), dw->bias(), y);
            });
            break;
        }
        case OpKind::kUpsample:
            steps_.unary(in, out, [r = op.arg](const Tensor& x, Tensor& y) {
                upsample_bilinear_into(x, r, y);
            });
            break;
        default: {
            // Fallback for layers without a compiled kernel (future
            // additions): correct but allocating.
            auto* l = layer_of<Layer>(op);
            ++fallback_steps_;
            steps_.unary(in, out, [l](const Tensor& x, Tensor& y) {
                y = l->forward(x, false);
            });
            break;
        }
        }
    }
}

int64_t
ModelExecutor::sparse_tap_skip_count() const
{
    int64_t skipped = 0;
    for (const auto& rec : engines_) {
        skipped += rec->engine->sparse_tap_skip_count();
    }
    return skipped;
}

// ---- execution -------------------------------------------------------------

void
ModelExecutor::refresh()
{
    for (auto& rec : engines_) {
        const uint64_t now = rec->layer->param_version();
        if (now != rec->seen_version) {
            if (opt_.verify_checksums) {
                // A corrupted update must not reach the engines: scan
                // the incoming weight set before deriving anything
                // from it. Throwing here leaves the old weights live,
                // so the failure repeats deterministically.
                for (const float v : rec->layer->weights().w) {
                    if (!std::isfinite(v)) {
                        throw plan::IntegrityError(
                            "ringcnn: corrupted weight update: non-"
                            "finite weight in refreshed layer");
                    }
                }
                for (const float v : rec->layer->bias()) {
                    if (!std::isfinite(v)) {
                        throw plan::IntegrityError(
                            "ringcnn: corrupted weight update: non-"
                            "finite bias in refreshed layer");
                    }
                }
            }
            rec->engine->set_weights(rec->layer->weights(),
                                     rec->layer->bias());
            rec->seen_version = now;
            if (opt_.verify_checksums) {
                // The OpIR annotation is not re-linearized on refresh;
                // the live checksum (and fingerprint) follow the new
                // weights here.
                rec->checksum = plan::make_ring_checksum(
                    rec->layer->ring(), rec->layer->weights(),
                    rec->layer->bias());
                rec->fingerprint = weights_fingerprint(
                    rec->layer->weights(), rec->layer->bias());
            }
        } else if (opt_.verify_checksums) {
            // No version bump: the retained fingerprint must still
            // match, or the weights were torn out from under us.
            if (weights_fingerprint(rec->layer->weights(),
                                    rec->layer->bias()) !=
                rec->fingerprint) {
                throw plan::IntegrityError(
                    "ringcnn: torn weight update: layer weights "
                    "changed without a version bump");
            }
        }
    }
}

void
ModelExecutor::run_batch(const Tensor* const* xs, int count)
{
    for (int b = 0; b < count; ++b) {
        RINGCNN_CHECK(xs[b]->shape() == in_shape_,
                      "executor compiled for input [" +
                          std::to_string(in_shape_[0]) + ", " +
                          std::to_string(in_shape_[1]) + ", " +
                          std::to_string(in_shape_[2]) + "], got " +
                          xs[b]->shape_str());
    }
    refresh();
    steps_.run(count, [&](int b, Tensor& e) {
        e.reset(in_shape_);
        std::memcpy(e.data(), xs[b]->data(),
                    static_cast<size_t>(xs[b]->numel()) * sizeof(float));
        // Fault site: NaN/Inf poison landing on an activation AFTER
        // serve-side input validation (an in-flight corruption, not a
        // bad input).
        uint64_t fault_token;
        if (b == 0 && util::fault_check("fp32.activation", &fault_token)) {
            util::fault_poison(e.data(), static_cast<size_t>(e.numel()),
                               fault_token);
        }
    });
}

Tensor
ModelExecutor::run(const Tensor& x)
{
    return run_view(x);  // copies on return
}

const Tensor&
ModelExecutor::run_view(const Tensor& x)
{
    const Tensor* px = &x;
    run_batch(&px, 1);
    return steps_.out(0);
}

std::vector<Tensor>
ModelExecutor::run(const std::vector<Tensor>& xs)
{
    std::vector<const Tensor*> ptrs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
    run_batch(ptrs.data(), static_cast<int>(xs.size()));
    std::vector<Tensor> outs;
    outs.reserve(xs.size());
    for (int b = 0; b < static_cast<int>(xs.size()); ++b) {
        outs.push_back(steps_.out(b));
    }
    return outs;
}

void
ModelExecutor::run_into(const Tensor* const* xs, Tensor* outs, int count)
{
    run_batch(xs, count);
    for (int b = 0; b < count; ++b) std::swap(outs[b], steps_.out(b));
}

std::vector<Tensor>
ModelExecutor::run_layer(Layer& l, const std::vector<Tensor>& xs)
{
    if (auto* rc = dynamic_cast<RingConv2d*>(&l)) {
        return rc->inference_engine().run(xs);
    }
    std::vector<Tensor> out(xs.size());
    // ReLU and DirectionalReLU forwards are state-free at inference
    // (train == false), so the batch can fan out across the pool.
    const bool pure = dynamic_cast<ReLU*>(&l) != nullptr ||
                      dynamic_cast<DirectionalReLU*>(&l) != nullptr;
    if (pure && xs.size() > 1) {
        util::parallel_for(static_cast<int64_t>(xs.size()), [&](int64_t i) {
            out[static_cast<size_t>(i)] =
                l.forward(xs[static_cast<size_t>(i)], false);
        });
    } else {
        for (size_t i = 0; i < xs.size(); ++i) {
            out[i] = l.forward(xs[i], false);
        }
    }
    return out;
}

}  // namespace ringcnn::nn

#include "nn/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "nn/conv_kernels.h"
#include "plan/arena_planner.h"
#include "plan/fusion_pass.h"
#include "tensor/image_ops.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::nn {

namespace {

// The permutation/pad/crop arena kernels (pixel_*_into, channel_pad_into,
// crop_channels_into) live in tensor/image_ops.cc so their index math is
// shared with the allocating reference functions.

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
    in_shape_ = in_shape;
    steps_.clear();
    engines_.clear();
    fused_real_convs_ = 0;
    fallback_steps_ = 0;
    batch_capacity_ = 0;  // new slots start empty; ensure_batch regrows
    macs_ = model_->macs(in_shape_);

    // The shared compile pipeline (src/plan): linearize the layer tree,
    // attach conv epilogues per the executor's fusion policy, assign
    // refcounted arena slots. Lowering below maps each IR op onto the
    // fp32 kernels.
    plan_ = plan::linearize(model_->root(), in_shape_);
    plan::FusionOptions fo;
    fo.fuse_relu = opt_.fuse_epilogues && !opt_.strict_fp64;
    fo.fuse_dir_relu = fo.fuse_relu;
    fo.fuse_requant = false;  // no requant ops in a float graph
    fo.require_tuple_match = true;
    plan::fuse_epilogues(plan_, fo);
    plan::plan_arena(plan_);

    // Keep the arena across rebinds: existing slot Tensors (and their
    // buffer capacity) are reassigned to the new plan's slot ids, so
    // recompiling for a new shape reuses the allocations of the old
    // plan wherever they are big enough.
    if (static_cast<int>(slots_.size()) < plan_.num_slots) {
        slots_.resize(static_cast<size_t>(plan_.num_slots));
    }
    entry_slot_ = plan_.entry_slot;
    out_slot_ = plan_.out_slot;
    out_shape_ = plan_.out_shape;
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
    eo.strict_fp64 = opt_.strict_fp64;
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
    steps_.push_back([this, rec_idx, in, out](int batch) {
        EngineRec& r = *engines_[rec_idx];
        for (int b = 0; b < batch; ++b) {
            r.in_ptrs[static_cast<size_t>(b)] =
                &slots_[static_cast<size_t>(in)][static_cast<size_t>(b)];
        }
        if (!opt_.verify_checksums || r.checksum == nullptr) {
            r.engine->run_into(r.in_ptrs.data(),
                               slots_[static_cast<size_t>(out)].data(),
                               batch, &conv_scratch_);
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
        r.engine->run_into(r.in_ptrs.data(),
                           slots_[static_cast<size_t>(out)].data(), batch,
                           &conv_scratch_, &r.out_sums);
        for (int b = 0; b < batch; ++b) {
            const Tensor& y =
                slots_[static_cast<size_t>(out)][static_cast<size_t>(b)];
            plan::abft_check_f32(
                cs, r.in_sums.data() + static_cast<size_t>(b) * taps,
                r.in_abs.data() + static_cast<size_t>(b) * taps,
                r.out_sums.data() +
                    static_cast<size_t>(b) * cs.co,
                y.dim(1), y.dim(2), r.op_index, r.engine->n());
        }
    });
}

void
ModelExecutor::lower_conv2d(const plan::OpIR& op)
{
    auto* conv = layer_of<Conv2d>(op);
    const bool fuse_relu = op.epilogue == plan::Epilogue::kRelu;
    const int in = op.in0_slot;
    const int out = op.out_slot;
    const Shape out_shape = op.out_shape;
    steps_.push_back([this, conv, in, out, out_shape, fuse_relu](int batch) {
        for (int b = 0; b < batch; ++b) {
            Tensor& dst =
                slots_[static_cast<size_t>(out)][static_cast<size_t>(b)];
            dst.reset(out_shape);
            conv2d_forward(
                slots_[static_cast<size_t>(in)][static_cast<size_t>(b)],
                conv->weights(), conv->bias(), dst, fuse_relu);
        }
    });
    if (fuse_relu) ++fused_real_convs_;
}

void
ModelExecutor::lower()
{
    using plan::OpKind;
    for (const plan::OpIR& op : plan_.ops) {
        if (op.fused) continue;  // absorbed into its conv's epilogue
        const int in = op.in0_slot;
        const int out = op.out_slot;
        switch (op.kind) {
        case OpKind::kRingConv:
            lower_ringconv(op);
            break;
        case OpKind::kDenseConv:
            lower_conv2d(op);
            break;
        case OpKind::kResidualAdd:
        case OpKind::kBranchAdd: {
            const int addend = op.in1_slot;
            if (out == in) {
                // The accumulate side dies here: add into it in place.
                steps_.push_back([this, out, addend](int batch) {
                    for (int b = 0; b < batch; ++b) {
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)] +=
                            slots_[static_cast<size_t>(addend)]
                                  [static_cast<size_t>(b)];
                    }
                });
            } else {
                // Copy-then-add is bitwise the in-place sum (IEEE adds
                // of the same operands); taken only on degenerate
                // graphs whose accumulate side stays live.
                steps_.push_back([this, in, out, addend](int batch) {
                    for (int b = 0; b < batch; ++b) {
                        Tensor& dst = slots_[static_cast<size_t>(out)]
                                            [static_cast<size_t>(b)];
                        dst = slots_[static_cast<size_t>(in)]
                                    [static_cast<size_t>(b)];
                        dst += slots_[static_cast<size_t>(addend)]
                                     [static_cast<size_t>(b)];
                    }
                });
            }
            break;
        }
        case OpKind::kRelu:
            steps_.push_back([this, in, out](int batch) {
                for (int b = 0; b < batch; ++b) {
                    relu_into(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)]);
                }
            });
            break;
        case OpKind::kDirRelu: {
            auto* dr = layer_of<DirectionalReLU>(op);
            steps_.push_back([this, dr, in, out](int batch) {
                for (int b = 0; b < batch; ++b) {
                    // Safe in place (rows are consumed before rewrite).
                    directional_relu_forward(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        dr->u(), dr->v(),
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)],
                        nullptr);
                }
            });
            break;
        }
        case OpKind::kPixelShuffle: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                for (int b = 0; b < batch; ++b) {
                    pixel_shuffle_into(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        r,
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)]);
                }
            });
            break;
        }
        case OpKind::kPixelUnshuffle: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                for (int b = 0; b < batch; ++b) {
                    pixel_unshuffle_into(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        r,
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)]);
                }
            });
            break;
        }
        case OpKind::kChannelPad: {
            const int want = op.arg;
            steps_.push_back([this, in, out, want](int batch) {
                for (int b = 0; b < batch; ++b) {
                    channel_pad_into(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        want,
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)]);
                }
            });
            break;
        }
        case OpKind::kCropChannels: {
            const int keep = op.arg;
            steps_.push_back([this, in, out, keep](int batch) {
                for (int b = 0; b < batch; ++b) {
                    crop_channels_into(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        keep,
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)]);
                }
            });
            break;
        }
        case OpKind::kDepthwiseConv: {
            auto* dw = layer_of<DepthwiseConv2d>(op);
            const Shape os = op.out_shape;
            steps_.push_back([this, dw, in, out, os](int batch) {
                for (int b = 0; b < batch; ++b) {
                    Tensor& dst = slots_[static_cast<size_t>(out)]
                                        [static_cast<size_t>(b)];
                    dst.reset(os);
                    depthwise_conv2d_forward(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        dw->weights(), dw->bias(), dst);
                }
            });
            break;
        }
        case OpKind::kUpsample: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                for (int b = 0; b < batch; ++b) {
                    upsample_bilinear_into(
                        slots_[static_cast<size_t>(in)]
                              [static_cast<size_t>(b)],
                        r,
                        slots_[static_cast<size_t>(out)]
                              [static_cast<size_t>(b)]);
                }
            });
            break;
        }
        default: {
            // Fallback for layers without a compiled kernel (future
            // additions): correct but allocating.
            auto* l = layer_of<Layer>(op);
            ++fallback_steps_;
            steps_.push_back([this, l, in, out](int batch) {
                for (int b = 0; b < batch; ++b) {
                    slots_[static_cast<size_t>(out)]
                          [static_cast<size_t>(b)] =
                        l->forward(slots_[static_cast<size_t>(in)]
                                         [static_cast<size_t>(b)],
                                   false);
                }
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
ModelExecutor::ensure_batch(int count)
{
    if (count <= batch_capacity_) return;
    // Grow-only: after a rebind the capacity counter restarts at 0
    // while some slot vectors may still be larger — never shrink them
    // (their Tensor buffers are the recycled arena capacity).
    for (auto& slot : slots_) {
        if (slot.size() < static_cast<size_t>(count)) {
            slot.resize(static_cast<size_t>(count));
        }
    }
    for (auto& rec : engines_) {
        if (rec->in_ptrs.size() < static_cast<size_t>(count)) {
            rec->in_ptrs.resize(static_cast<size_t>(count));
        }
    }
    batch_capacity_ = count;
}

void
ModelExecutor::exec(const Tensor* const* xs, int count)
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
    ensure_batch(count);
    auto& entry = slots_[static_cast<size_t>(entry_slot_)];
    for (int b = 0; b < count; ++b) {
        entry[static_cast<size_t>(b)].reset(in_shape_);
        std::memcpy(entry[static_cast<size_t>(b)].data(), xs[b]->data(),
                    static_cast<size_t>(xs[b]->numel()) * sizeof(float));
    }
    // Fault site: NaN/Inf poison landing on an activation AFTER serve-
    // side input validation (an in-flight corruption, not a bad input).
    uint64_t fault_token;
    if (util::fault_check("fp32.activation", &fault_token)) {
        Tensor& e0 = entry[0];
        util::fault_poison(e0.data(),
                           static_cast<size_t>(e0.numel()), fault_token);
    }
    for (auto& step : steps_) step(count);
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
    exec(&px, 1);
    return slots_[static_cast<size_t>(out_slot_)][0];
}

std::vector<Tensor>
ModelExecutor::run(const std::vector<Tensor>& xs)
{
    std::vector<const Tensor*> ptrs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
    exec(ptrs.data(), static_cast<int>(xs.size()));
    const auto& out = slots_[static_cast<size_t>(out_slot_)];
    return std::vector<Tensor>(out.begin(),
                               out.begin() + static_cast<int64_t>(xs.size()));
}

void
ModelExecutor::run_into(const Tensor* const* xs, Tensor* outs, int count)
{
    exec(xs, count);
    auto& slot = slots_[static_cast<size_t>(out_slot_)];
    for (int b = 0; b < count; ++b) {
        std::swap(outs[b], slot[static_cast<size_t>(b)]);
    }
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

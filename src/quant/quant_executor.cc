#include "quant/quant_executor.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "plan/arena_planner.h"
#include "plan/fusion_pass.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::quant {

namespace {

/** Widest tuple the fused directional epilogue handles per pixel. */
constexpr int kMaxTuple = 16;

// The integer butterfly (wht_inplace) and ceil_log2 come from
// quant/qformat.h — one definition shared with the scalar oracle.

QAct
to_qact(const Shape& shape, const std::vector<int32_t>& v,
        const std::vector<int>& frac)
{
    QAct q;
    q.shape = shape;
    q.frac = frac;
    q.v.assign(v.begin(), v.end());
    return q;
}

}  // namespace

// ---- construction / compilation --------------------------------------------

QuantExecutor::QuantExecutor(const QuantizedModel& qm, QuantExecOptions opt)
    : opt_(opt), qopt_(qm.options()), input_fmt_(qm.input_format()),
      root_(qm.root())
{
    RINGCNN_CHECK(qopt_.feature_bits >= 2 && qopt_.feature_bits <= 30,
                  "quantized executor supports feature widths of 2..30 "
                  "bits, got " + std::to_string(qopt_.feature_bits));
    // The shared compile pipeline (src/plan) with the int8 policy:
    // requant/directional fusion is unconditional — the quantized graph
    // always terminates a conv with its requant/dir node and even the
    // scalar-oracle lowering chains the pair in one step so the wide
    // int64 intermediate never has to fit the int32 arena.
    plan_ = plan::linearize(*root_, qopt_.feature_bits);
    plan::fuse_epilogues(plan_, plan::FusionOptions{});
    plan::plan_arena(plan_);
    slots_.resize(static_cast<size_t>(plan_.num_slots));
    entry_slot_ = plan_.entry_slot;
    out_slot_ = plan_.out_slot;
    lower();
}

QuantExecutor::~QuantExecutor() = default;

int
QuantExecutor::band_rows(int h, int groups_total) const
{
    if (opt_.row_band > 0) return std::min(opt_.row_band, h);
    // A few tasks per worker across the output bands; any banding is
    // bit-equivalent, this only shapes the parallel grain.
    const int target_tasks = std::max(threads_ * 4, groups_total);
    const int bands = std::max(1, target_tasks / std::max(groups_total, 1));
    const int bh = std::max((h + bands - 1) / bands, std::min(8, h));
    return std::min(bh, h);
}

void
QuantExecutor::lower_conv(const plan::OpIR& op)
{
    const auto* conv = static_cast<const QConvNode*>(op.node);
    const QDirReluNode* dir = nullptr;
    const QRequantNode* req = nullptr;
    if (op.epilogue == plan::Epilogue::kDirRelu) {
        dir = static_cast<const QDirReluNode*>(op.epilogue_node);
    } else if (op.epilogue == plan::Epilogue::kRequant) {
        req = static_cast<const QRequantNode*>(op.epilogue_node);
    }

    auto kernel = std::make_unique<QuantConvKernel>(
        conv->co, conv->ci, conv->k, conv->w, conv->bias, conv->out_frac);
    const bool dir_ok =
        dir == nullptr ||
        (dir->n >= 1 && dir->n <= kMaxTuple && conv->co % dir->n == 0);
    // op.in_bits is the feature width live at the conv input (threaded
    // through the plan by the linearizer).
    const bool fast = kernel->int32_safe(op.in_bits) && dir_ok;

    const int in = op.in0_slot;
    const int out = op.out_slot;
    if (!fast) {
        // Scalar oracle walk for this conv AND its epilogue, chained in
        // one step so the wide int64 intermediate never has to fit the
        // int32 arena.
        ++scalar_convs_;
        steps_.push_back([this, conv, dir, req, in, out](int batch) {
            auto& ins = slots_[static_cast<size_t>(in)];
            auto& outs = slots_[static_cast<size_t>(out)];
            for (int b = 0; b < batch; ++b) {
                IAct& x = ins[static_cast<size_t>(b)];
                QAct q = to_qact(x.shape, x.v, x.frac);
                QAct r = conv->forward(q);
                if (dir != nullptr) r = dir->forward(r);
                if (req != nullptr) r = req->forward(r);
                IAct& o = outs[static_cast<size_t>(b)];
                o.reset(r.shape);
                o.frac = r.frac;
                for (size_t j = 0; j < r.v.size(); ++j) {
                    RINGCNN_CHECK(r.v[j] >= INT32_MIN && r.v[j] <= INT32_MAX,
                                  "scalar-path activation exceeds the "
                                  "int32 arena");
                    o.v[j] = static_cast<int32_t>(r.v[j]);
                }
            }
        });
        return;
    }

    ++fast_convs_;
    const size_t kidx = kernels_.size();
    kernels_.push_back(std::move(kernel));
    const int gn = dir != nullptr ? dir->n : 1;

    // ABFT: the checksum predicts the raw pre-epilogue accumulators'
    // interior sum EXACTLY (integer arithmetic), so the capture below
    // reads `buf` before the requant/dir epilogue consumes it. The
    // per-call buffers live behind a shared_ptr so the steady state
    // stays allocation-free across runs.
    struct VerifyBufs
    {
        std::vector<int64_t> in_sums;   ///< [batch][taps]
        std::vector<int64_t> cells;     ///< [task][gn] partial sums
        std::vector<int64_t> out_sums;  ///< [batch][co]
    };
    std::shared_ptr<const plan::ConvChecksum> cs;
    if (opt_.verify_checksums) cs = op.checksum;
    const int opidx = static_cast<int>(&op - plan_.ops.data());
    auto vb = cs != nullptr ? std::make_shared<VerifyBufs>() : nullptr;

    steps_.push_back([this, dir, req, in, out, kidx, gn, cs, opidx,
                      vb](int batch) {
        const QuantConvKernel& K = *kernels_[kidx];
        auto& ins = slots_[static_cast<size_t>(in)];
        auto& outs = slots_[static_cast<size_t>(out)];
        const int co = K.co();

        tasks_.clear();
        int groups_total = 0;
        for (int b = 0; b < batch; ++b) groups_total += co / gn;
        for (int b = 0; b < batch; ++b) {
            IAct& x = ins[static_cast<size_t>(b)];
            RINGCNN_CHECK(x.shape[0] == K.ci(),
                          "quantized conv input channel mismatch");
            const int h = x.shape[1], wd = x.shape[2];
            IAct& o = outs[static_cast<size_t>(b)];
            o.reset({co, h, wd});
            o.frac = dir != nullptr ? dir->out_frac
                                    : (req != nullptr ? req->target
                                                      : K.out_frac());
            const int bh = band_rows(h, groups_total);
            for (int g = 0; g < co / gn; ++g) {
                for (int y0 = 0; y0 < h; y0 += bh) {
                    tasks_.push_back({b, g, y0, std::min(y0 + bh, h)});
                }
            }
        }

        // Input ring-sums BEFORE the run: the input slot may alias the
        // output slot when the plan recycled it.
        const size_t taps = cs != nullptr ? cs->num_input_sums() : 0;
        if (cs != nullptr) {
            vb->in_sums.assign(static_cast<size_t>(batch) * taps, 0);
            for (int b = 0; b < batch; ++b) {
                IAct& x = ins[static_cast<size_t>(b)];
                plan::abft_input_sums_i32(
                    *cs, x.v.data(), x.shape[1], x.shape[2],
                    vb->in_sums.data() + static_cast<size_t>(b) * taps);
            }
            vb->cells.assign(tasks_.size() * static_cast<size_t>(gn), 0);
        }

        util::parallel_for_worker(
            static_cast<int64_t>(tasks_.size()),
            [&](int worker, int64_t ti) {
                const ConvTask& t = tasks_[static_cast<size_t>(ti)];
                IAct& x = ins[static_cast<size_t>(t.img)];
                IAct& o = outs[static_cast<size_t>(t.img)];
                const int h = x.shape[1], wd = x.shape[2];
                const int bh = t.y1 - t.y0;
                const int64_t brow = static_cast<int64_t>(bh) * wd;

                std::vector<int32_t>& buf =
                    wband_[static_cast<size_t>(worker)];
                if (buf.size() < static_cast<size_t>(gn) * brow) {
                    buf.resize(static_cast<size_t>(gn) * brow);
                }
                if (util::fault_check("int8.kernel_throw")) {
                    throw std::runtime_error(
                        "ringcnn: injected fault: int8 conv kernel task");
                }
                for (int gi = 0; gi < gn; ++gi) {
                    K.conv_rows(x.v.data(), h, wd, t.group * gn + gi, t.y0,
                                t.y1, buf.data() + gi * brow);
                }

                if (cs != nullptr) {
                    // Interior sum of the raw accumulators, captured
                    // before any epilogue consumes the band. Each task
                    // owns its cell slice — no synchronization needed,
                    // and int64 addition makes the later reduction
                    // order-independent (bit-exact).
                    const int pad = cs->k / 2;
                    const int gy0 = std::max(t.y0, pad);
                    const int gy1 = std::min(t.y1, h - pad);
                    int64_t* cell =
                        vb->cells.data() + static_cast<size_t>(ti) * gn;
                    for (int gi = 0; gi < gn; ++gi) {
                        const int32_t* band = buf.data() + gi * brow;
                        int64_t s = 0;
                        for (int gy = gy0; gy < gy1; ++gy) {
                            const int32_t* row =
                                band +
                                static_cast<int64_t>(gy - t.y0) * wd;
                            for (int xx = pad; xx < wd - pad; ++xx) {
                                s += row[xx];
                            }
                        }
                        cell[gi] = s;
                    }
                }

                if (dir == nullptr && req == nullptr) {
                    // Unfused: hand the wide accumulators through.
                    for (int gi = 0; gi < gn; ++gi) {
                        std::memcpy(o.ch(t.group * gn + gi) +
                                        static_cast<int64_t>(t.y0) * wd,
                                    buf.data() + gi * brow,
                                    static_cast<size_t>(brow) *
                                        sizeof(int32_t));
                    }
                    return;
                }

                if (req != nullptr) {
                    // Fused requant (optionally ReLU-first) epilogue.
                    const int oc = t.group;  // gn == 1
                    const int shift =
                        K.out_frac()[static_cast<size_t>(oc)] -
                        req->target[static_cast<size_t>(oc)];
                    int32_t* orow =
                        o.ch(oc) + static_cast<int64_t>(t.y0) * wd;
                    for (int64_t p = 0; p < brow; ++p) {
                        int64_t v = buf[static_cast<size_t>(p)];
                        if (req->relu_first && v < 0) v = 0;
                        orow[p] = static_cast<int32_t>(
                            shift_round_saturate(v, shift, req->bits));
                    }
                    return;
                }

                // Fused directional-ReLU epilogue (Fig. 8 on-the-fly
                // pipeline, or the quantize-first ablation), per
                // n-tuple of conv bands. The per-pixel arithmetic below
                // mirrors onthefly_directional_relu / the QDirReluNode
                // else-branch operation for operation, on stack tuples
                // instead of heap vectors — keep them consistent. All
                // per-task setup (alignment/output shift amounts,
                // butterfly width, row pointers) and the pipeline
                // branch are hoisted out of the pixel loop; the int64
                // tuple math itself stays scalar — AVX2 lacks 64-bit
                // arithmetic right shifts and saturation, so 4-wide
                // epi64 lanes measured no faster than this form (see
                // README "Training performance").
                const int n = gn;
                const int base = t.group * n;
                int ny[kMaxTuple] = {0}, nx[kMaxTuple] = {0};
                for (int i = 0; i < n; ++i) {
                    ny[i] = K.out_frac()[static_cast<size_t>(base + i)];
                    nx[i] = dir->out_frac[static_cast<size_t>(base + i)];
                }
                int fmax = ny[0];
                for (int i = 1; i < n; ++i) fmax = std::max(fmax, ny[i]);
                const int log2n = ceil_log2(n);
                const int32_t* brows[kMaxTuple];
                int32_t* orows[kMaxTuple];
                for (int i = 0; i < n; ++i) {
                    brows[i] = buf.data() + static_cast<int64_t>(i) * brow;
                    orows[i] = o.ch(base + i) +
                               static_cast<int64_t>(t.y0) * wd;
                }
                if (dir->onthefly) {
                    // Align left-shifts to the widest frac (unsigned
                    // shift: same bits, no UB on negatives), two
                    // butterflies around the rectifier, one final
                    // per-component round/saturate.
                    int lsh[kMaxTuple], rsh[kMaxTuple];
                    for (int i = 0; i < n; ++i) {
                        lsh[i] = fmax - ny[i];
                        rsh[i] = fmax + log2n - nx[i];
                    }
                    for (int64_t p = 0; p < brow; ++p) {
                        int64_t tv[kMaxTuple];
                        for (int i = 0; i < n; ++i) {
                            tv[i] = static_cast<int64_t>(
                                static_cast<uint64_t>(static_cast<int64_t>(
                                    brows[i][p]))
                                << lsh[i]);
                        }
                        wht_inplace(tv, n);
                        for (int i = 0; i < n; ++i) {
                            if (tv[i] < 0) tv[i] = 0;
                        }
                        wht_inplace(tv, n);
                        for (int i = 0; i < n; ++i) {
                            orows[i][p] =
                                static_cast<int32_t>(shift_round_saturate(
                                    tv[i], rsh[i], dir->bits));
                        }
                    }
                } else {
                    // Quantize-first ablation, operation for operation
                    // the QDirReluNode else-branch.
                    int qsh[kMaxTuple], msh[kMaxTuple], osh[kMaxTuple];
                    for (int i = 0; i < n; ++i) {
                        qsh[i] = ny[i] -
                                 dir->pre_frac[static_cast<size_t>(base + i)];
                        msh[i] = dir->pre_frac[static_cast<size_t>(base)] -
                                 dir->mid_frac[static_cast<size_t>(base + i)];
                        osh[i] = dir->mid_frac[static_cast<size_t>(base)] -
                                 nx[i] + log2n;
                    }
                    for (int64_t p = 0; p < brow; ++p) {
                        int64_t yv[kMaxTuple];
                        for (int i = 0; i < n; ++i) {
                            yv[i] = shift_round_saturate(brows[i][p], qsh[i],
                                                         dir->bits);
                        }
                        wht_inplace(yv, n);
                        for (int i = 0; i < n; ++i) {
                            const int64_t v = shift_round_saturate(
                                yv[i], msh[i], dir->bits);
                            yv[i] = v > 0 ? v : 0;
                        }
                        wht_inplace(yv, n);
                        for (int i = 0; i < n; ++i) {
                            orows[i][p] =
                                static_cast<int32_t>(shift_round_saturate(
                                    yv[i], osh[i], dir->bits));
                        }
                    }
                }
            },
            threads_);

        if (cs != nullptr) {
            vb->out_sums.assign(static_cast<size_t>(batch) * co, 0);
            for (size_t ti = 0; ti < tasks_.size(); ++ti) {
                const ConvTask& t = tasks_[ti];
                int64_t* dst = vb->out_sums.data() +
                               static_cast<size_t>(t.img) * co +
                               static_cast<size_t>(t.group) * gn;
                for (int gi = 0; gi < gn; ++gi) {
                    dst[gi] += vb->cells[ti * static_cast<size_t>(gn) + gi];
                }
            }
            for (int b = 0; b < batch; ++b) {
                IAct& x = ins[static_cast<size_t>(b)];
                plan::abft_check_i64(
                    *cs,
                    vb->in_sums.data() + static_cast<size_t>(b) * taps,
                    vb->out_sums.data() + static_cast<size_t>(b) * co,
                    x.shape[1], x.shape[2], opidx, gn);
            }
        }
    });
}

void
QuantExecutor::lower_fallback(const QNode* node, int in, int out)
{
    steps_.push_back([this, node, in, out](int batch) {
        auto& ins = slots_[static_cast<size_t>(in)];
        auto& outs = slots_[static_cast<size_t>(out)];
        for (int b = 0; b < batch; ++b) {
            IAct& x = ins[static_cast<size_t>(b)];
            const QAct r =
                node->forward(to_qact(x.shape, x.v, x.frac));
            IAct& o = outs[static_cast<size_t>(b)];
            o.reset(r.shape);
            o.frac = r.frac;
            for (size_t j = 0; j < r.v.size(); ++j) {
                RINGCNN_CHECK(r.v[j] >= INT32_MIN && r.v[j] <= INT32_MAX,
                              "fallback activation exceeds the int32 arena");
                o.v[j] = static_cast<int32_t>(r.v[j]);
            }
        }
    });
}

void
QuantExecutor::lower()
{
    using plan::OpKind;
    for (const plan::OpIR& op : plan_.ops) {
        if (op.fused) continue;  // absorbed into its conv's epilogue
        const int in = op.in0_slot;
        const int out = op.out_slot;
        switch (op.kind) {
        case OpKind::kRingConv:
            lower_conv(op);
            break;
        case OpKind::kRequant: {
            // In place when the plan made this its input's last use.
            const auto* req = static_cast<const QRequantNode*>(op.node);
            steps_.push_back([this, req, in, out](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0];
                    const int64_t plane = x.plane();
                    const Shape shape = x.shape;
                    std::vector<int> shifts(static_cast<size_t>(c));
                    for (int ch = 0; ch < c; ++ch) {
                        shifts[static_cast<size_t>(ch)] =
                            x.frac[static_cast<size_t>(ch)] -
                            req->target[static_cast<size_t>(ch)];
                    }
                    o.reset(shape);  // no-op when in place
                    o.frac = req->target;
                    for (int ch = 0; ch < c; ++ch) {
                        const int shift = shifts[static_cast<size_t>(ch)];
                        const int32_t* src = x.ch(ch);
                        int32_t* dst = o.ch(ch);
                        for (int64_t p = 0; p < plane; ++p) {
                            int64_t v = src[p];
                            if (req->relu_first && v < 0) v = 0;
                            dst[p] = static_cast<int32_t>(
                                shift_round_saturate(v, shift, req->bits));
                        }
                    }
                }
            });
            break;
        }
        case OpKind::kDirRelu:
            // A directional ReLU is always fused behind its conv by the
            // fusion pass; a standalone one (defensive) takes the
            // oracle.
            lower_fallback(static_cast<const QNode*>(op.node), in, out);
            break;
        case OpKind::kPixelShuffle: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0] / (r * r);
                    const int h = x.shape[1], w = x.shape[2];
                    o.reset({c, h * r, w * r});
                    o.frac.resize(static_cast<size_t>(c));
                    for (int oc = 0; oc < c; ++oc) {
                        o.frac[static_cast<size_t>(oc)] =
                            x.frac[static_cast<size_t>(oc * r * r)];
                        for (int dy = 0; dy < r; ++dy) {
                            for (int dx = 0; dx < r; ++dx) {
                                const int ic = (oc * r + dy) * r + dx;
                                const int32_t* src = x.ch(ic);
                                int32_t* dst = o.ch(oc);
                                for (int y = 0; y < h; ++y) {
                                    for (int xx = 0; xx < w; ++xx) {
                                        dst[(static_cast<int64_t>(y) * r +
                                             dy) *
                                                (w * r) +
                                            xx * r + dx] =
                                            src[static_cast<int64_t>(y) * w +
                                                xx];
                                    }
                                }
                            }
                        }
                    }
                }
            });
            break;
        }
        case OpKind::kPixelUnshuffle: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0];
                    const int h = x.shape[1] / r, w = x.shape[2] / r;
                    o.reset({c * r * r, h, w});
                    o.frac.resize(static_cast<size_t>(c) * r * r);
                    for (int ic = 0; ic < c; ++ic) {
                        for (int dy = 0; dy < r; ++dy) {
                            for (int dx = 0; dx < r; ++dx) {
                                const int oc = (ic * r + dy) * r + dx;
                                o.frac[static_cast<size_t>(oc)] =
                                    x.frac[static_cast<size_t>(ic)];
                                const int32_t* src = x.ch(ic);
                                int32_t* dst = o.ch(oc);
                                for (int y = 0; y < h; ++y) {
                                    for (int xx = 0; xx < w; ++xx) {
                                        dst[static_cast<int64_t>(y) * w +
                                            xx] =
                                            src[(static_cast<int64_t>(y) * r +
                                                 dy) * (w * r) + xx * r + dx];
                                    }
                                }
                            }
                        }
                    }
                }
            });
            break;
        }
        case OpKind::kChannelPad: {
            const int multiple = op.arg;
            steps_.push_back([this, in, out, multiple](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0];
                    const int want =
                        (c + multiple - 1) / multiple * multiple;
                    o.reset({want, x.shape[1], x.shape[2]});
                    o.frac.assign(static_cast<size_t>(want), x.frac[0]);
                    for (int ch = 0; ch < c; ++ch) {
                        o.frac[static_cast<size_t>(ch)] =
                            x.frac[static_cast<size_t>(ch)];
                    }
                    std::memcpy(o.v.data(), x.v.data(),
                                x.v.size() * sizeof(int32_t));
                    std::fill(o.v.begin() + static_cast<int64_t>(x.v.size()),
                              o.v.end(), 0);
                }
            });
            break;
        }
        case OpKind::kCropChannels: {
            const int keep = op.arg;
            steps_.push_back([this, in, out, keep](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    o.reset({keep, x.shape[1], x.shape[2]});
                    o.frac.assign(x.frac.begin(), x.frac.begin() + keep);
                    std::memcpy(o.v.data(), x.v.data(),
                                o.v.size() * sizeof(int32_t));
                }
            });
            break;
        }
        case OpKind::kResidualAdd: {
            // in0 is the body result, in1 the skip input; the aligned
            // add shifts both onto the node's output format. In place
            // over the body slot when the plan allows it.
            const auto* res = static_cast<const QResidualNode*>(op.node);
            const int body_out = op.in0_slot;
            const int skip = op.in1_slot;
            steps_.push_back([this, res, skip, body_out, out](int batch) {
                auto& as = slots_[static_cast<size_t>(skip)];
                auto& bs = slots_[static_cast<size_t>(body_out)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& A = as[static_cast<size_t>(b)];
                    IAct& B = bs[static_cast<size_t>(b)];
                    IAct& O = outs[static_cast<size_t>(b)];
                    const int c = A.shape[0];
                    const int64_t plane = A.plane();
                    const Shape shape = A.shape;
                    for (int ch = 0; ch < c; ++ch) {
                        // Shifts read before O.frac overwrites an alias.
                        const int target =
                            res->out_frac[static_cast<size_t>(ch)];
                        const int sa =
                            A.frac[static_cast<size_t>(ch)] - target;
                        const int sb =
                            B.frac[static_cast<size_t>(ch)] - target;
                        const int32_t* pa = A.ch(ch);
                        const int32_t* pb = B.ch(ch);
                        if (ch == 0) O.reset(shape);  // no-op when aliased
                        int32_t* po = O.ch(ch);
                        for (int64_t p = 0; p < plane; ++p) {
                            const int64_t va = shift_round_saturate(
                                pa[p], sa, res->bits + 2);
                            const int64_t vb = shift_round_saturate(
                                pb[p], sb, res->bits + 2);
                            po[p] = static_cast<int32_t>(
                                shift_round_saturate(va + vb, 0, res->bits));
                        }
                    }
                    O.frac = res->out_frac;
                }
            });
            break;
        }
        case OpKind::kBranchAdd: {
            // in0 is the main branch, in1 the skip branch.
            const auto* two = static_cast<const QTwoBranchNode*>(op.node);
            const int main_out = op.in0_slot;
            const int skip_out = op.in1_slot;
            steps_.push_back([this, two, main_out, skip_out, out](int batch) {
                auto& as = slots_[static_cast<size_t>(main_out)];
                auto& bs = slots_[static_cast<size_t>(skip_out)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& A = as[static_cast<size_t>(b)];
                    IAct& B = bs[static_cast<size_t>(b)];
                    IAct& O = outs[static_cast<size_t>(b)];
                    const int c = A.shape[0];
                    const int64_t plane = A.plane();
                    const Shape shape = A.shape;
                    for (int ch = 0; ch < c; ++ch) {
                        const int target =
                            two->out_frac[static_cast<size_t>(ch)];
                        const int sa =
                            A.frac[static_cast<size_t>(ch)] - target;
                        const int sb2 =
                            B.frac[static_cast<size_t>(ch)] - target;
                        const int32_t* pa = A.ch(ch);
                        const int32_t* pb = B.ch(ch);
                        if (ch == 0) O.reset(shape);
                        int32_t* po = O.ch(ch);
                        for (int64_t p = 0; p < plane; ++p) {
                            const int64_t va = shift_round_saturate(
                                pa[p], sa, two->bits + 2);
                            const int64_t vb = shift_round_saturate(
                                pb[p], sb2, two->bits + 2);
                            po[p] = static_cast<int32_t>(
                                shift_round_saturate(va + vb, 0, two->bits));
                        }
                    }
                    O.frac = two->out_frac;
                }
            });
            break;
        }
        case OpKind::kUpsample: {
            const auto* up = static_cast<const QBilinearNode*>(op.node);
            steps_.push_back([this, up, in, out](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                const int r = up->r;
                const int wbits = 2 * ceil_log2(2 * r);
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0], h = x.shape[1],
                              w = x.shape[2];
                    const int ho = h * r, wo = w * r;
                    o.reset({c, ho, wo});
                    o.frac = up->target;
                    for (int ic = 0; ic < c; ++ic) {
                        const int shift = x.frac[static_cast<size_t>(ic)] +
                                          wbits -
                                          up->target[static_cast<size_t>(ic)];
                        const int32_t* src = x.ch(ic);
                        int32_t* dst = o.ch(ic);
                        for (int oy = 0; oy < ho; ++oy) {
                            int num_y = 2 * oy + 1 - r;
                            num_y = std::max(0, std::min(num_y,
                                                         2 * r * (h - 1)));
                            const int y0 = num_y / (2 * r);
                            const int wy = num_y - 2 * r * y0;
                            const int y1 = std::min(y0 + 1, h - 1);
                            for (int ox = 0; ox < wo; ++ox) {
                                int num_x = 2 * ox + 1 - r;
                                num_x = std::max(
                                    0, std::min(num_x, 2 * r * (w - 1)));
                                const int x0 = num_x / (2 * r);
                                const int wx = num_x - 2 * r * x0;
                                const int x1 = std::min(x0 + 1, w - 1);
                                const int64_t acc =
                                    static_cast<int64_t>(2 * r - wy) *
                                        (2 * r - wx) *
                                        src[static_cast<int64_t>(y0) * w +
                                            x0] +
                                    static_cast<int64_t>(2 * r - wy) * wx *
                                        src[static_cast<int64_t>(y0) * w +
                                            x1] +
                                    static_cast<int64_t>(wy) * (2 * r - wx) *
                                        src[static_cast<int64_t>(y1) * w +
                                            x0] +
                                    static_cast<int64_t>(wy) * wx *
                                        src[static_cast<int64_t>(y1) * w +
                                            x1];
                                dst[static_cast<int64_t>(oy) * wo + ox] =
                                    static_cast<int32_t>(
                                        shift_round_saturate(acc, shift,
                                                             up->bits));
                            }
                        }
                    }
                }
            });
            break;
        }
        default:
            // Unknown node type: oracle walk.
            lower_fallback(static_cast<const QNode*>(op.node), in, out);
            break;
        }
    }
}

// ---- execution -------------------------------------------------------------

void
QuantExecutor::ensure_batch(int count)
{
    if (count <= batch_capacity_) return;
    for (auto& slot : slots_) slot.resize(static_cast<size_t>(count));
    batch_capacity_ = count;
}

void
QuantExecutor::exec(const QAct* const* ins, int count)
{
    threads_ = util::resolve_threads(opt_.threads);
    if (static_cast<int>(wband_.size()) < threads_) {
        wband_.resize(static_cast<size_t>(threads_));
    }
    ensure_batch(count);
    auto& entry = slots_[static_cast<size_t>(entry_slot_)];
    for (int b = 0; b < count; ++b) {
        const QAct& q = *ins[b];
        RINGCNN_CHECK(q.shape.size() == 3 &&
                          q.frac.size() == static_cast<size_t>(q.shape[0]),
                      "quantized executor input must be CHW with "
                      "per-channel fracs");
        IAct& e = entry[static_cast<size_t>(b)];
        e.reset(q.shape);
        e.frac = q.frac;
        const int64_t lo = -(INT64_C(1) << (qopt_.feature_bits - 1));
        const int64_t hi = (INT64_C(1) << (qopt_.feature_bits - 1)) - 1;
        for (size_t j = 0; j < q.v.size(); ++j) {
            RINGCNN_CHECK(q.v[j] >= lo && q.v[j] <= hi,
                          "quantized executor input exceeds the feature "
                          "bit width the plan was proven safe for");
            e.v[j] = static_cast<int32_t>(q.v[j]);
        }
    }
    for (auto& step : steps_) step(count);
}

QAct
QuantExecutor::run(const QAct& in)
{
    const QAct* p = &in;
    exec(&p, 1);
    IAct& o = slots_[static_cast<size_t>(out_slot_)][0];
    return to_qact(o.shape, o.v, o.frac);
}

std::vector<QAct>
QuantExecutor::run(const std::vector<QAct>& ins)
{
    std::vector<const QAct*> ptrs(ins.size());
    for (size_t i = 0; i < ins.size(); ++i) ptrs[i] = &ins[i];
    exec(ptrs.data(), static_cast<int>(ins.size()));
    std::vector<QAct> out;
    out.reserve(ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
        IAct& o = slots_[static_cast<size_t>(out_slot_)][i];
        out.push_back(to_qact(o.shape, o.v, o.frac));
    }
    return out;
}

Tensor
QuantExecutor::forward(const Tensor& x)
{
    QAct in;
    in.shape = x.shape();
    in.v.resize(static_cast<size_t>(x.numel()));
    in.frac.assign(static_cast<size_t>(x.dim(0)), input_fmt_.frac);
    for (int64_t i = 0; i < x.numel(); ++i) {
        in.v[static_cast<size_t>(i)] = input_fmt_.quantize(x[i]);
    }
    return QuantizedModel::dequantize(run(in));
}

std::vector<Tensor>
QuantExecutor::forward(const std::vector<Tensor>& xs)
{
    std::vector<QAct> ins(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        const Tensor& x = xs[i];
        ins[i].shape = x.shape();
        ins[i].v.resize(static_cast<size_t>(x.numel()));
        ins[i].frac.assign(static_cast<size_t>(x.dim(0)), input_fmt_.frac);
        for (int64_t j = 0; j < x.numel(); ++j) {
            ins[i].v[static_cast<size_t>(j)] = input_fmt_.quantize(x[j]);
        }
    }
    std::vector<QAct> outs = run(ins);
    std::vector<Tensor> res;
    res.reserve(outs.size());
    for (const QAct& o : outs) {
        res.push_back(QuantizedModel::dequantize(o));
    }
    return res;
}

void
QuantExecutor::forward_into(const Tensor* const* xs, Tensor* outs, int count)
{
    std::vector<QAct> ins(static_cast<size_t>(count));
    std::vector<const QAct*> ptrs(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        const Tensor& x = *xs[i];
        QAct& q = ins[static_cast<size_t>(i)];
        q.shape = x.shape();
        q.v.resize(static_cast<size_t>(x.numel()));
        q.frac.assign(static_cast<size_t>(x.dim(0)), input_fmt_.frac);
        for (int64_t j = 0; j < x.numel(); ++j) {
            q.v[static_cast<size_t>(j)] = input_fmt_.quantize(x[j]);
        }
        ptrs[static_cast<size_t>(i)] = &q;
    }
    exec(ptrs.data(), count);
    for (int b = 0; b < count; ++b) {
        IAct& o = slots_[static_cast<size_t>(out_slot_)]
                        [static_cast<size_t>(b)];
        outs[b] = QuantizedModel::dequantize(to_qact(o.shape, o.v, o.frac));
    }
}

}  // namespace ringcnn::quant

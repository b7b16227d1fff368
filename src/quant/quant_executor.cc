#include "quant/quant_executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/simd.h"
#include "plan/arena_planner.h"
#include "plan/fusion_pass.h"
#include "tensor/layout_ops.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::quant {

namespace {

/** Widest tuple the fused directional epilogue handles per pixel. */
constexpr int kMaxTuple = 16;

/** Staging budget of one conv task: its band's rows for every pair its
 *  output channels read, sized to stay cache-resident. */
constexpr int64_t kStageBytes = 256 << 10;

// The integer butterfly (wht_inplace) and ceil_log2 come from
// quant/qformat.h — one definition shared with the scalar oracle.

/**
 * True when shift_round_saturate(v, shift, bits) over every |v| <=
 * bound computes the same on wrapping int32 lanes (the simd epilogue
 * kernels): the shift count is one the lanes take, and the rounding add
 * or the left shift stays inside int32.
 */
bool
shift_fits_i32(double bound, int shift)
{
    constexpr double kMax = 2147483647.0;
    if (shift < -31 || shift > 31 || bound > kMax) return false;
    if (shift > 0) return bound + std::ldexp(1.0, shift - 1) <= kMax;
    return std::ldexp(bound, -shift) <= kMax;
}

/** Widens an arena activation to the oracle's int64 form. */
template <class Act>
QAct
to_qact(const Act& a)
{
    QAct q;
    q.shape = a.shape;
    q.frac = a.frac;
    q.v.assign(a.v.begin(), a.v.end());
    return q;
}

/** The output format of an aligned add: its node's per-channel frac
 *  and bit width. */
template <class Node>
std::pair<const std::vector<int>*, int>
add_format(const void* node)
{
    const auto* n = static_cast<const Node*>(node);
    return {&n->out_frac, n->bits};
}

/** Stores an oracle node's output into an arena activation, checking
 *  that every value is an int16 code. */
template <class Act>
void
store_codes(const QAct& r, Act& o)
{
    o.reset(r.shape);
    o.frac = r.frac;
    for (size_t j = 0; j < r.v.size(); ++j) {
        RINGCNN_CHECK(r.v[j] >= INT16_MIN && r.v[j] <= INT16_MAX,
                      "scalar-path activation exceeds the int16 arena");
        o.v[j] = static_cast<int16_t>(r.v[j]);
    }
}

}  // namespace

// ---- construction / compilation --------------------------------------------

QuantExecutor::QuantExecutor(const QuantizedModel& qm, QuantExecOptions opt)
    : opt_(opt), qopt_(qm.options()), input_fmt_(qm.input_format()),
      root_(qm.root())
{
    if (qopt_.feature_bits < 2 || qopt_.feature_bits > 16) {
        throw std::invalid_argument(
            "ringcnn: quantized executor stores int16 activation codes and "
            "supports feature widths of 2..16 bits, got " +
            std::to_string(qopt_.feature_bits));
    }
    // The shared compile pipeline (src/plan) with the int8 policy:
    // requant/directional fusion is unconditional — the quantized graph
    // always terminates a conv with its requant/dir node, so no wide
    // accumulator ever has to fit the int16 arena.
    plan_ = plan::linearize(*root_, qopt_.feature_bits);
    plan::fuse_epilogues(plan_, plan::FusionOptions{});
    plan::plan_arena(plan_);
    steps_.rebind(plan_);
    lower();
}

QuantExecutor::~QuantExecutor() = default;

int
QuantExecutor::band_rows(int h, int w, int pairs, int k) const
{
    // As many rows as the staging budget holds (any banding is
    // bit-equivalent; this only shapes cache use and parallel grain),
    // but at least 8 so the k-1 halo rows stay a small overhead.
    const int64_t row_bytes =
        static_cast<int64_t>(std::max(pairs, 1)) * (w + k - 1) * 4;
    const int64_t rows = kStageBytes / row_bytes - (k - 1);
    return static_cast<int>(std::clamp<int64_t>(rows, std::min(8, h), h));
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
    } else {
        throw std::logic_error(
            "ringcnn: quantized conv without a fused requant or "
            "directional-ReLU epilogue would store raw accumulators in "
            "the int16 arena");
    }

    auto kernel = std::make_unique<QuantConvKernel>(
        conv->co, conv->ci, conv->k, conv->w, conv->bias, conv->out_frac);
    const QuantConvKernel& K = *kernel;
    const int co = conv->co;
    const int gn = dir != nullptr ? dir->n : 1;
    const int bits = dir != nullptr ? dir->bits : req->bits;

    // Static epilogue shifts per output channel — e1..e3 are the stages'
    // shifts: requant e1; on-the-fly align e1, output e2; quantize-first
    // pre e1, mid e2, out e3 — and the proof that the int32 lanes
    // reproduce the int64 oracle: op.in_bits (the feature width live at
    // the conv input, threaded through the plan by the linearizer)
    // bounds every accumulator; each aligned, butterflied and rounded
    // intermediate is bounded from there.
    std::vector<int> e1(static_cast<size_t>(co)), e2(e1), e3(e1);
    bool fast = K.int32_safe(op.in_bits) && bits >= 1 && bits <= 16;
    auto bound = [&](int oc) { return K.channel_bound(oc, op.in_bits); };
    const double code_span = std::ldexp(1.0, bits - 1);
    if (req != nullptr) {
        for (int oc = 0; oc < co && fast; ++oc) {
            e1[static_cast<size_t>(oc)] =
                K.out_frac()[static_cast<size_t>(oc)] -
                req->target[static_cast<size_t>(oc)];
            fast = shift_fits_i32(bound(oc), e1[static_cast<size_t>(oc)]);
        }
    } else {
        fast = fast && gn >= 1 && gn <= kMaxTuple && (gn & (gn - 1)) == 0 &&
               co % gn == 0;
        const int log2n = ceil_log2(gn);
        for (int base = 0; base < co && fast; base += gn) {
            const auto at = [base](const std::vector<int>& v, int i) {
                return v[static_cast<size_t>(base + i)];
            };
            int fmax = at(K.out_frac(), 0);
            for (int i = 1; i < gn; ++i) {
                fmax = std::max(fmax, at(K.out_frac(), i));
            }
            double sum = 0.0;  // bound on every first-butterfly value
            for (int i = 0; i < gn && fast; ++i) {
                const size_t oc = static_cast<size_t>(base + i);
                const int ny = at(K.out_frac(), i);
                const int nx = at(dir->out_frac, i);
                if (dir->onthefly) {
                    // align << , butterfly, rectify, butterfly, round.
                    e1[oc] = fmax - ny;
                    e2[oc] = fmax + log2n - nx;
                    fast = e1[oc] <= 31;
                    sum += std::ldexp(bound(base + i), e1[oc]);
                } else {
                    // round, butterfly, round + rectify, butterfly, round:
                    // every rounded value is a code, so both butterflies
                    // stay within gn * 2^(bits-1).
                    e1[oc] = ny - at(dir->pre_frac, i);
                    e2[oc] = dir->pre_frac[static_cast<size_t>(base)] -
                             at(dir->mid_frac, i);
                    e3[oc] = dir->mid_frac[static_cast<size_t>(base)] - nx +
                             log2n;
                    fast = shift_fits_i32(bound(base + i), e1[oc]) &&
                           shift_fits_i32(gn * code_span, e2[oc]) &&
                           shift_fits_i32(gn * code_span, e3[oc]);
                }
            }
            for (int i = 0; i < gn && fast && dir->onthefly; ++i) {
                fast = shift_fits_i32(gn * sum,
                                      e2[static_cast<size_t>(base + i)]);
            }
        }
    }

    const int in = op.in0_slot;
    const int out = op.out_slot;
    if (!fast) {
        // Scalar oracle walk for this conv AND its epilogue, chained in
        // one step so the wide int64 intermediate never enters the arena.
        ++scalar_convs_;
        steps_.unary(in, out, [conv, dir, req](const IAct& x, IAct& o) {
            const QAct acc = conv->forward(to_qact(x));
            store_codes(dir != nullptr ? dir->forward(acc) : req->forward(acc),
                        o);
        });
        return;
    }

    ++fast_convs_;
    const size_t kidx = kernels_.size();
    kernels_.push_back(std::move(kernel));
    const std::vector<int> out_frac =
        dir != nullptr ? dir->out_frac : req->target;

    // ABFT: the checksum predicts the raw pre-epilogue accumulators'
    // interior sum EXACTLY (integer arithmetic), so the capture below
    // reads `buf` before the requant/dir epilogue consumes it. The
    // per-call buffers live behind a shared_ptr so the steady state
    // stays allocation-free across runs.
    struct VerifyBufs
    {
        std::vector<int64_t> in_sums;   ///< [batch][taps]
        std::vector<int64_t> cells;     ///< per task: [channel] sums
        std::vector<int64_t> out_sums;  ///< [batch][co]
    };
    std::shared_ptr<const plan::ConvChecksum> cs;
    if (opt_.verify_checksums) cs = op.checksum;
    const int opidx = static_cast<int>(&op - plan_.ops.data());
    auto vb = cs != nullptr ? std::make_shared<VerifyBufs>() : nullptr;

    steps_.push([this, dir, req, in, out, kidx, gn, bits, e1, e2, e3,
                 out_frac, cs, opidx, vb](int batch) {
        const QuantConvKernel& K = *kernels_[kidx];
        auto& ins = steps_.slot(in);
        auto& outs = steps_.slot(out);
        const int co = K.co();
        const int groups = co / gn;

        // Row bands first (staging is shared by every group of a task);
        // split the output groups into chunks only when the bands alone
        // leave workers idle.
        int64_t row_tasks = 0;
        for (int b = 0; b < batch; ++b) {
            const IAct& x = ins[static_cast<size_t>(b)];
            RINGCNN_CHECK(x.shape[0] == K.ci(),
                          "quantized conv input channel mismatch");
            const int h = x.shape[1];
            const int bh = band_rows(h, x.shape[2], K.pairs(), K.k());
            row_tasks += (h + bh - 1) / bh;
        }
        const int64_t want = static_cast<int64_t>(threads_) * 4;
        const int chunks =
            threads_ > 1 && row_tasks > 0 && row_tasks < want
                ? static_cast<int>(std::min<int64_t>(
                      groups, (want + row_tasks - 1) / row_tasks))
                : 1;
        const int per_chunk = (groups + chunks - 1) / chunks;
        tasks_.clear();
        int64_t cells = 0;
        for (int b = 0; b < batch; ++b) {
            const IAct& x = ins[static_cast<size_t>(b)];
            const int h = x.shape[1], wd = x.shape[2];
            IAct& o = outs[static_cast<size_t>(b)];
            o.reset(co, h, wd);
            o.frac = out_frac;
            const int bh = band_rows(h, wd, K.pairs(), K.k());
            for (int y0 = 0; y0 < h; y0 += bh) {
                for (int g0 = 0; g0 < groups; g0 += per_chunk) {
                    const int g1 = std::min(g0 + per_chunk, groups);
                    tasks_.push_back(
                        {b, g0, g1, y0, std::min(y0 + bh, h), cells});
                    cells += static_cast<int64_t>(g1 - g0) * gn;
                }
            }
        }

        // Input ring-sums BEFORE the run: the input slot may alias the
        // output slot when the plan recycled it.
        const size_t taps = cs != nullptr ? cs->num_input_sums() : 0;
        if (cs != nullptr) {
            vb->in_sums.assign(static_cast<size_t>(batch) * taps, 0);
            for (int b = 0; b < batch; ++b) {
                const IAct& x = ins[static_cast<size_t>(b)];
                plan::abft_input_sums_i16(
                    *cs, x.v.data(), x.shape[1], x.shape[2],
                    vb->in_sums.data() + static_cast<size_t>(b) * taps);
            }
            vb->cells.assign(static_cast<size_t>(cells), 0);
        }

        auto task = [&](int worker, int64_t ti) {
            const ConvTask& t = tasks_[static_cast<size_t>(ti)];
            const IAct& x = ins[static_cast<size_t>(t.img)];
            IAct& o = outs[static_cast<size_t>(t.img)];
            const int h = x.shape[1], wd = x.shape[2];
            const int64_t brow = static_cast<int64_t>(t.y1 - t.y0) * wd;
            const int64_t row0 = static_cast<int64_t>(t.y0) * wd;

            std::vector<int32_t>& buf =
                wband_[static_cast<size_t>(worker)];
            if (buf.size() < static_cast<size_t>(gn * brow)) {
                buf.resize(static_cast<size_t>(gn * brow));
            }
            if (util::fault_check("int8.kernel_throw")) {
                throw std::runtime_error(
                    "ringcnn: injected fault: int8 conv kernel task");
            }
            QuantConvKernel::Band& band =
                stage_[static_cast<size_t>(worker)];
            K.stage(x.v.data(), h, wd, t.g0 * gn, t.g1 * gn, t.y0, t.y1,
                    band);

            for (int g = t.g0; g < t.g1; ++g) {
                const int base = g * gn;
                const int32_t* brows[kMaxTuple];
                int16_t* orows[kMaxTuple];
                for (int i = 0; i < gn; ++i) {
                    int32_t* acc = buf.data() + i * brow;
                    K.conv_band(band, base + i, acc);
                    brows[i] = acc;
                    orows[i] = o.ch(base + i) + row0;
                }

                if (cs != nullptr) {
                    // Interior sum of the raw accumulators, captured
                    // before the epilogue consumes the band. Each
                    // task owns its cells — no synchronization
                    // needed, and int64 addition makes the later
                    // reduction order-independent (bit-exact).
                    const int pad = cs->k / 2;
                    const int gy0 = std::max(t.y0, pad);
                    const int gy1 = std::min(t.y1, h - pad);
                    int64_t* cell = vb->cells.data() + t.cell +
                                    static_cast<int64_t>(g - t.g0) * gn;
                    for (int i = 0; i < gn; ++i) {
                        int64_t sum = 0;
                        for (int gy = gy0; gy < gy1; ++gy) {
                            const int32_t* row =
                                brows[i] +
                                static_cast<int64_t>(gy - t.y0) * wd;
                            for (int xx = pad; xx < wd - pad; ++xx) {
                                sum += row[xx];
                            }
                        }
                        cell[i] = sum;
                    }
                }

                const size_t e = static_cast<size_t>(base);
                if (req != nullptr) {
                    simd::requant_i32_i16(orows[0], brows[0], brow, e1[e],
                                          bits, req->relu_first);
                } else if (dir->onthefly) {
                    simd::dir_relu_otf_i32_i16(orows, brows, gn, &e1[e],
                                               &e2[e], bits, brow);
                } else {
                    simd::dir_relu_qfirst_i32_i16(orows, brows, gn,
                                                  &e1[e], &e2[e], &e3[e],
                                                  bits, brow);
                }
            }
        };
        // A one-reference capture fits std::function's inline buffer, so
        // handing the task to the pool allocates nothing.
        util::parallel_for_worker(
            static_cast<int64_t>(tasks_.size()),
            [&task](int worker, int64_t ti) { task(worker, ti); }, threads_);

        if (cs != nullptr) {
            vb->out_sums.assign(static_cast<size_t>(batch) * co, 0);
            for (const ConvTask& t : tasks_) {
                int64_t* dst = vb->out_sums.data() +
                               static_cast<size_t>(t.img) * co +
                               static_cast<size_t>(t.g0) * gn;
                const int64_t* cell = vb->cells.data() + t.cell;
                for (int64_t i = 0; i < static_cast<int64_t>(t.g1 - t.g0) * gn;
                     ++i) {
                    dst[i] += cell[i];
                }
            }
            for (int b = 0; b < batch; ++b) {
                const IAct& x = ins[static_cast<size_t>(b)];
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
    steps_.unary(in, out, [node](const IAct& x, IAct& o) {
        store_codes(node->forward(to_qact(x)), o);
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
            // In place when the plan made this its input's last use: each
            // channel's shift is read before o.frac is overwritten.
            const auto* req = static_cast<const QRequantNode*>(op.node);
            steps_.unary(in, out, [req](const IAct& x, IAct& o) {
                const int64_t plane = x.plane();
                o.reset(x.shape);  // no-op when in place
                for (int ch = 0; ch < x.shape[0]; ++ch) {
                    const int shift = x.frac[static_cast<size_t>(ch)] -
                                      req->target[static_cast<size_t>(ch)];
                    const int16_t* src = x.ch(ch);
                    int16_t* dst = o.ch(ch);
                    for (int64_t p = 0; p < plane; ++p) {
                        int64_t v = src[p];
                        if (req->relu_first && v < 0) v = 0;
                        dst[p] = static_cast<int16_t>(
                            shift_round_saturate(v, shift, req->bits));
                    }
                }
                o.frac = req->target;
            });
            break;
        }
        case OpKind::kDirRelu:
            // A directional ReLU is always fused behind its conv by the
            // fusion pass; a standalone one (defensive) takes the
            // oracle.
            lower_fallback(static_cast<const QNode*>(op.node), in, out);
            break;
        // The layout moves: the shared kernels move the codes, each
        // output channel keeps the frac of the input channel it came
        // from, and a padded channel takes channel 0's.
        case OpKind::kPixelShuffle:
            steps_.unary(in, out, [r = op.arg](const IAct& x, IAct& o) {
                // layout::pixel_shuffle_shape, without the Shape temporary.
                o.reset(x.shape[0] / (r * r), x.shape[1] * r, x.shape[2] * r);
                o.frac.resize(static_cast<size_t>(o.shape[0]));
                for (size_t oc = 0; oc < o.frac.size(); ++oc) {
                    o.frac[oc] = x.frac[oc * static_cast<size_t>(r * r)];
                }
                layout::pixel_shuffle(x.v.data(), x.shape, r, o.v.data());
            });
            break;
        case OpKind::kPixelUnshuffle:
            steps_.unary(in, out, [r = op.arg](const IAct& x, IAct& o) {
                o.reset(x.shape[0] * r * r, x.shape[1] / r, x.shape[2] / r);
                o.frac.resize(static_cast<size_t>(o.shape[0]));
                for (size_t oc = 0; oc < o.frac.size(); ++oc) {
                    o.frac[oc] = x.frac[oc / static_cast<size_t>(r * r)];
                }
                layout::pixel_unshuffle(x.v.data(), x.shape, r, o.v.data());
            });
            break;
        case OpKind::kChannelPad:
            steps_.unary(in, out, [want = op.arg](const IAct& x, IAct& o) {
                o.reset(want, x.shape[1], x.shape[2]);
                o.frac.assign(static_cast<size_t>(want), x.frac[0]);
                std::copy(x.frac.begin(), x.frac.end(), o.frac.begin());
                layout::channel_pad(x.v.data(), x.shape, want, o.v.data());
            });
            break;
        case OpKind::kCropChannels:
            steps_.unary(in, out, [keep = op.arg](const IAct& x, IAct& o) {
                o.reset(keep, x.shape[1], x.shape[2]);
                o.frac.assign(x.frac.begin(), x.frac.begin() + keep);
                layout::crop_channels(x.v.data(), x.shape, keep, o.v.data());
            });
            break;
        case OpKind::kResidualAdd:
        case OpKind::kBranchAdd: {
            // Both operands shift onto the node's output format, then
            // add and saturate (simd::add_aligned_i16). Integer addition
            // commutes, so one step serves (body, skip) and (main, skip).
            // In place over in0 when the plan allows it: each channel's
            // shifts are read before o.frac is overwritten.
            const auto fmt = op.kind == OpKind::kResidualAdd
                                 ? add_format<QResidualNode>(op.node)
                                 : add_format<QTwoBranchNode>(op.node);
            steps_.binary(in, op.in1_slot, out,
                          [target = fmt.first, bits = fmt.second](
                              const IAct& a, const IAct& b, IAct& o) {
                o.reset(a.shape);  // no-op when in place
                for (int ch = 0; ch < a.shape[0]; ++ch) {
                    const int t = (*target)[static_cast<size_t>(ch)];
                    simd::add_aligned_i16(
                        o.ch(ch), a.ch(ch), b.ch(ch), a.plane(),
                        a.frac[static_cast<size_t>(ch)] - t,
                        b.frac[static_cast<size_t>(ch)] - t, bits);
                }
                o.frac = *target;
            });
            break;
        }
        case OpKind::kUpsample: {
            const auto* up = static_cast<const QBilinearNode*>(op.node);
            steps_.unary(in, out, [this, up](const IAct& x, IAct& o) {
                upsample(*up, x, o);
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
QuantExecutor::load(const QAct& q, IAct& e) const
{
    RINGCNN_CHECK(q.shape.size() == 3 &&
                      q.frac.size() == static_cast<size_t>(q.shape[0]),
                  "quantized executor input must be CHW with per-channel "
                  "fracs");
    e.reset(q.shape);
    e.frac = q.frac;
    const int64_t lo = -(INT64_C(1) << (qopt_.feature_bits - 1));
    const int64_t hi = (INT64_C(1) << (qopt_.feature_bits - 1)) - 1;
    for (size_t j = 0; j < q.v.size(); ++j) {
        RINGCNN_CHECK(q.v[j] >= lo && q.v[j] <= hi,
                      "quantized executor input exceeds the feature bit "
                      "width the plan was proven safe for");
        e.v[j] = static_cast<int16_t>(q.v[j]);
    }
}

void
QuantExecutor::load(const Tensor& x, IAct& e) const
{
    RINGCNN_CHECK(x.shape().size() == 3,
                  "quantized executor input must be CHW");
    e.reset(x.shape());
    e.frac.assign(static_cast<size_t>(x.dim(0)), input_fmt_.frac);
    simd::quantize_f32_i16(e.v.data(), x.data(), x.numel(), input_fmt_.frac,
                           input_fmt_.bits);
}

void
QuantExecutor::output_tensor(int b, Tensor& out) const
{
    // simd::dequantize_i16_f32 is bit-identical to the double product of
    // QuantizedModel::dequantize.
    const IAct& o = steps_.out(b);
    out.reset(o.shape);
    const int64_t plane = o.plane();
    for (int c = 0; c < o.shape[0]; ++c) {
        simd::dequantize_i16_f32(out.data() + c * plane, o.ch(c), plane,
                                 o.frac[static_cast<size_t>(c)]);
    }
}

void
QuantExecutor::upsample(const QBilinearNode& up, const IAct& x, IAct& o)
{
    // QBilinearNode::forward's 4-tap sum, split into a horizontal pass
    // over the h input rows and a vertical pass per output row. Integer
    // addition is associative, so the integers are the 4-tap formula's;
    // every partial sum is bounded by |code| * (2r)^2 with |code| <=
    // 2^15. Where that bound and a channel's shift do not fit int32
    // lanes, the oracle computes the step.
    const int r = up.r;
    const int c = x.shape[0], h = x.shape[1], w = x.shape[2];
    const int wbits = 2 * ceil_log2(2 * r);
    const double bound = std::ldexp(4.0 * r * r, 15);
    auto shift_of = [&](int ic) {
        return x.frac[static_cast<size_t>(ic)] + wbits -
               up.target[static_cast<size_t>(ic)];
    };
    for (int ic = 0; ic < c; ++ic) {
        if (!shift_fits_i32(bound, shift_of(ic))) {
            store_codes(up.forward(to_qact(x)), o);
            return;
        }
    }

    // Source position of output index i in units of 1/(2r), clamped to
    // the input: the lower tap, and the weight of the upper one.
    auto tap = [r](int i, int n, int& i0, int& wt) {
        const int num = std::clamp(2 * i + 1 - r, 0, 2 * r * (n - 1));
        i0 = num / (2 * r);
        wt = num - 2 * r * i0;
    };
    // Column table: the pair (src[x0], src[x0 + 1]) and its weights. At
    // the right edge the oracle's two taps are both column w - 1, which
    // is the pair (w - 2, w - 1) weighted (0, 2r).
    const int ho = h * r, wo = w * r;
    up_cols_.resize(static_cast<size_t>(wo));
    up_wts_.resize(2 * static_cast<size_t>(wo));
    for (int ox = 0; ox < wo; ++ox) {
        int x0 = 0, wx = 0;
        tap(ox, w, x0, wx);
        const bool edge = x0 == w - 1;
        up_cols_[static_cast<size_t>(ox)] = edge ? x0 - 1 : x0;
        up_wts_[2 * static_cast<size_t>(ox)] =
            static_cast<int16_t>(edge ? 0 : 2 * r - wx);
        up_wts_[2 * static_cast<size_t>(ox) + 1] =
            static_cast<int16_t>(edge ? 2 * r : wx);
    }
    // Two horizontally blended rows: input row y sits in slot y % 2.
    up_rows_.resize(2 * static_cast<size_t>(wo));
    auto blended = [&](int y) {
        return up_rows_.data() + static_cast<int64_t>(y % 2) * wo;
    };

    o.reset(c, ho, wo);
    o.frac = up.target;
    for (int ic = 0; ic < c; ++ic) {
        const int16_t* src = x.ch(ic);
        const int shift = shift_of(ic);
        int16_t* dst = o.ch(ic);
        int ready = -1;  // last input row blended
        for (int oy = 0; oy < ho; ++oy) {
            int y0 = 0, wy = 0;
            tap(oy, h, y0, wy);
            const int y1 = std::min(y0 + 1, h - 1);
            // y0 never decreases, so the two slots hold y1 - 1 and y1.
            while (ready < y1) {
                ++ready;
                const int16_t* s = src + static_cast<int64_t>(ready) * w;
                int32_t* row = blended(ready);
                if (w == 1) {  // no pair to gather: both taps are s[0]
                    std::fill(row, row + wo, 2 * r * s[0]);
                } else {
                    simd::lerp_cols_i16_i32(row, s, up_cols_.data(),
                                            up_wts_.data(), wo);
                }
            }
            simd::lerp_rows_i32_i16(dst + static_cast<int64_t>(oy) * wo,
                                    blended(y0), blended(y1), 2 * r - wy, wy,
                                    wo, shift, up.bits);
        }
    }
}

void
QuantExecutor::ensure_workers()
{
    threads_ = util::resolve_threads(opt_.threads);
    if (static_cast<int>(wband_.size()) < threads_) {
        wband_.resize(static_cast<size_t>(threads_));
        stage_.resize(static_cast<size_t>(threads_));
    }
}

QAct
QuantExecutor::run(const QAct& in)
{
    ensure_workers();
    steps_.run(1, [&](int, IAct& e) { load(in, e); });
    return to_qact(steps_.out(0));
}

std::vector<QAct>
QuantExecutor::run(const std::vector<QAct>& ins)
{
    const int count = static_cast<int>(ins.size());
    ensure_workers();
    steps_.run(count, [&](int b, IAct& e) {
        load(ins[static_cast<size_t>(b)], e);
    });
    std::vector<QAct> out;
    out.reserve(ins.size());
    for (int b = 0; b < count; ++b) out.push_back(to_qact(steps_.out(b)));
    return out;
}

Tensor
QuantExecutor::forward(const Tensor& x)
{
    Tensor out;
    const Tensor* p = &x;
    forward_into(&p, &out, 1);
    return out;
}

std::vector<Tensor>
QuantExecutor::forward(const std::vector<Tensor>& xs)
{
    std::vector<const Tensor*> ptrs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
    std::vector<Tensor> outs(xs.size());
    forward_into(ptrs.data(), outs.data(), static_cast<int>(xs.size()));
    return outs;
}

void
QuantExecutor::forward_into(const Tensor* const* xs, Tensor* outs, int count)
{
    ensure_workers();
    steps_.run(count, [&](int b, IAct& e) { load(*xs[b], e); });
    for (int b = 0; b < count; ++b) output_tensor(b, outs[b]);
}

}  // namespace ringcnn::quant

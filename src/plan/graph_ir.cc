#include "plan/graph_ir.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/ring.h"
#include "core/ring_conv.h"
#include "core/simd.h"
#include "nn/layer.h"
#include "quant/quant_model.h"
#include "tensor/layout_ops.h"
#include "util/check.h"

namespace ringcnn::plan
{

const char*
op_kind_name(OpKind k)
{
    switch (k) {
        case OpKind::kRingConv: return "ringconv";
        case OpKind::kDenseConv: return "conv2d";
        case OpKind::kDepthwiseConv: return "dwconv";
        case OpKind::kRelu: return "relu";
        case OpKind::kDirRelu: return "dirrelu";
        case OpKind::kRequant: return "requant";
        case OpKind::kResidualAdd: return "resadd";
        case OpKind::kBranchAdd: return "branchadd";
        case OpKind::kPixelShuffle: return "pshuffle";
        case OpKind::kPixelUnshuffle: return "punshuffle";
        case OpKind::kChannelPad: return "pad";
        case OpKind::kCropChannels: return "crop";
        case OpKind::kUpsample: return "upsample";
        case OpKind::kFallback: return "fallback";
    }
    return "?";
}

namespace
{

const char*
epilogue_name(Epilogue e)
{
    switch (e) {
        case Epilogue::kNone: return "none";
        case Epilogue::kRelu: return "relu";
        case Epilogue::kDirRelu: return "dir";
        case Epilogue::kRequant: return "requant";
    }
    return "?";
}

}  // namespace

// ---- ABFT checksums --------------------------------------------------------

std::shared_ptr<const ConvChecksum>
make_ring_checksum(const Ring& ring, const RingConvWeights& wt,
                   const std::vector<float>& bias)
{
    auto cs = std::make_shared<ConvChecksum>();
    const int n = wt.n, k = wt.k;
    cs->co = wt.co_t * n;
    cs->ci = wt.ci_t * n;
    cs->k = k;
    cs->exact = false;
    const size_t wsz =
        static_cast<size_t>(cs->co) * cs->ci * k * k;
    cs->w.assign(wsz, 0.0);
    cs->wabs.assign(wsz, 0.0);
    const Matd& tg = ring.fast.tg;
    const Matd& tx = ring.fast.tx;
    const Matd& tz = ring.fast.tz;
    const int m = tg.rows();
    std::vector<double> gt(static_cast<size_t>(m));
    std::vector<double> gta(static_cast<size_t>(m));
    for (int co = 0; co < wt.co_t; ++co) {
        for (int ci = 0; ci < wt.ci_t; ++ci) {
            for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                    // g~ = Tg g in double, plus the term-magnitude sum
                    // that bounds every float partial sum the engine's
                    // own derivation of gt32_ can produce.
                    for (int r = 0; r < m; ++r) {
                        double s = 0.0, sa = 0.0;
                        for (int c = 0; c < n; ++c) {
                            const double t =
                                tg.at(r, c) *
                                static_cast<double>(
                                    wt.at(co, ci, ky, kx, c));
                            s += t;
                            sa += std::abs(t);
                        }
                        gt[static_cast<size_t>(r)] = s;
                        gta[static_cast<size_t>(r)] = sa;
                    }
                    // Real expansion W[i][j] = sum_r Tz(i,r) g~_r
                    // Tx(r,j) (the isomorphic matrix), and the
                    // conservative |Tz| |g~| |Tx| chain — transform-
                    // domain operands can be large where W itself
                    // cancels, and the float error scales with the
                    // operands, not with W.
                    for (int i = 0; i < n; ++i) {
                        for (int j = 0; j < n; ++j) {
                            double s = 0.0, sa = 0.0;
                            for (int r = 0; r < m; ++r) {
                                s += tz.at(i, r) *
                                     gt[static_cast<size_t>(r)] *
                                     tx.at(r, j);
                                sa += std::abs(tz.at(i, r)) *
                                      gta[static_cast<size_t>(r)] *
                                      std::abs(tx.at(r, j));
                            }
                            const size_t idx =
                                ((static_cast<size_t>(co * n + i) *
                                      cs->ci +
                                  (ci * n + j)) *
                                     k +
                                 ky) *
                                    k +
                                kx;
                            cs->w[idx] = s;
                            cs->wabs[idx] = sa;
                        }
                    }
                }
            }
        }
    }
    // Tap-summed magnitudes for the checker's amax fast path (valid
    // because abft_input_sums_f32 fills every A slot of a channel with
    // one shared plane bound).
    cs->wabs_ci.assign(static_cast<size_t>(cs->co) * cs->ci, 0.0);
    for (int co = 0; co < cs->co; ++co) {
        for (int ci = 0; ci < cs->ci; ++ci) {
            const double* war =
                cs->wabs.data() +
                (static_cast<size_t>(co) * cs->ci + ci) * k * k;
            double s = 0.0;
            for (int t = 0; t < k * k; ++t) s += war[t];
            cs->wabs_ci[static_cast<size_t>(co) * cs->ci + ci] = s;
        }
    }
    cs->bias.assign(static_cast<size_t>(cs->co), 0.0);
    cs->babs.assign(static_cast<size_t>(cs->co), 0.0);
    if (bias.size() == static_cast<size_t>(cs->co)) {
        for (int c = 0; c < cs->co; ++c) {
            cs->bias[static_cast<size_t>(c)] =
                static_cast<double>(bias[static_cast<size_t>(c)]);
            cs->babs[static_cast<size_t>(c)] = std::abs(
                static_cast<double>(bias[static_cast<size_t>(c)]));
        }
    }
    return cs;
}

std::shared_ptr<const ConvChecksum>
make_qconv_checksum(const quant::QConvNode& conv)
{
    auto cs = std::make_shared<ConvChecksum>();
    cs->co = conv.co;
    cs->ci = conv.ci;
    cs->k = conv.k;
    cs->exact = true;
    cs->iw.assign(conv.w.begin(), conv.w.end());
    cs->ibias = conv.bias;
    if (cs->ibias.size() != static_cast<size_t>(conv.co)) {
        cs->ibias.assign(static_cast<size_t>(conv.co), 0);
    }
    return cs;
}

void
abft_input_sums_f32(const ConvChecksum& cs, const float* x, int h, int w,
                    double* S, double* A)
{
    const int k = cs.k, r = k / 2;
    const int ih = h - 2 * r, iw = w - 2 * r;
    const size_t slots = cs.num_input_sums();
    std::fill(S, S + slots, 0.0);
    if (A != nullptr) std::fill(A, A + slots, 0.0);
    if (ih <= 0 || iw <= 0) return;
    const int r2 = 2 * r;
    if (h < 2 * r2 || w < 2 * r2) {
        // Tiny plane: the top/bottom (left/right) edge bands overlap,
        // so run the straightforward per-row walk — one SIMD full-row
        // sum, kx windows by subtracting the <= 2r excluded head/tail
        // elements. Cost is irrelevant at these sizes.
        std::vector<double> win(static_cast<size_t>(k));
        for (int c = 0; c < cs.ci; ++c) {
            const float* plane = x + static_cast<size_t>(c) * h * w;
            for (int y = 0; y < h; ++y) {
                const float* row = plane + static_cast<size_t>(y) * w;
                const double total =
                    static_cast<double>(simd::sum_f32(row, w));
                for (int kx = 0; kx < k; ++kx) {
                    double s = total;
                    for (int i = 0; i < kx; ++i) {
                        s -= static_cast<double>(row[i]);
                    }
                    for (int i = w - (r2 - kx); i < w; ++i) {
                        s -= static_cast<double>(row[i]);
                    }
                    win[kx] = s;
                }
                const int ky0 = std::max(0, y - ih + 1);
                const int ky1 = std::min(k - 1, y);
                for (int ky = ky0; ky <= ky1; ++ky) {
                    double* Sr =
                        S + (static_cast<size_t>(c) * k + ky) * k;
                    for (int kx = 0; kx < k; ++kx) Sr[kx] += win[kx];
                }
            }
            if (A != nullptr) {
                const double abs_total =
                    static_cast<double>(simd::asum_f32(
                        plane, static_cast<int64_t>(h) * w));
                double* Ac = A + static_cast<size_t>(c) * k * k;
                for (int t = 0; t < k * k; ++t) Ac[t] = abs_total;
            }
        }
        return;
    }
    // Rectangle decomposition. The (ky, kx) window covers rows
    // [ky, ky+ih) x cols [kx, kx+iw); its complement is built from the
    // first/last 2r rows and columns only:
    //
    //   S[ky][kx] = total - rowExcl(ky) - colExcl(kx) + cross(ky, kx)
    //
    // where rowExcl sums the excluded full rows (top rows [0, ky) plus
    // the last 2r-ky rows), colExcl the excluded full-height columns,
    // and cross adds back the row x column crossings subtracted twice.
    // One fused SIMD plane pass (sum + |x| bound for A) plus
    // O(r*(h+w)) scalar double edge sums per channel; the plane pass
    // rounding rides inside abft_check_f32's tolerance.
    std::vector<double> rowsum_t(static_cast<size_t>(r2));
    std::vector<double> rowsum_b(static_cast<size_t>(r2));
    std::vector<double> colsum_t(static_cast<size_t>(r2));
    std::vector<double> colsum_b(static_cast<size_t>(r2));
    // edge_t[i][kx]: candidate top row i's contribution to the
    // excluded-column set of shift kx (head cols [0, kx) + tail cols
    // [w-(2r-kx), w)); edge_b for bottom rows.
    std::vector<double> edge_t(static_cast<size_t>(r2) * k);
    std::vector<double> edge_b(static_cast<size_t>(r2) * k);
    for (int c = 0; c < cs.ci; ++c) {
        const float* plane = x + static_cast<size_t>(c) * h * w;
        double total = 0.0, abs_total = 0.0;
        simd::plane_sums_f32(plane, static_cast<int64_t>(h) * w, &total,
                             &abs_total);
        for (int i = 0; i < r2; ++i) {
            const float* rt = plane + static_cast<size_t>(i) * w;
            const float* rb =
                plane + static_cast<size_t>(h - r2 + i) * w;
            double st = 0.0, sb = 0.0;
            for (int j = 0; j < w; ++j) {
                st += static_cast<double>(rt[j]);
                sb += static_cast<double>(rb[j]);
            }
            rowsum_t[i] = st;
            rowsum_b[i] = sb;
            for (int kx = 0; kx < k; ++kx) {
                double et = 0.0, eb = 0.0;
                for (int j = 0; j < kx; ++j) {
                    et += static_cast<double>(rt[j]);
                    eb += static_cast<double>(rb[j]);
                }
                for (int j = w - (r2 - kx); j < w; ++j) {
                    et += static_cast<double>(rt[j]);
                    eb += static_cast<double>(rb[j]);
                }
                edge_t[static_cast<size_t>(i) * k + kx] = et;
                edge_b[static_cast<size_t>(i) * k + kx] = eb;
            }
        }
        std::fill(colsum_t.begin(), colsum_t.end(), 0.0);
        std::fill(colsum_b.begin(), colsum_b.end(), 0.0);
        for (int y = 0; y < h; ++y) {
            const float* row = plane + static_cast<size_t>(y) * w;
            for (int i = 0; i < r2; ++i) {
                colsum_t[i] += static_cast<double>(row[i]);
                colsum_b[i] += static_cast<double>(row[w - r2 + i]);
            }
        }
        double* Sc = S + static_cast<size_t>(c) * k * k;
        for (int ky = 0; ky < k; ++ky) {
            // Excluded rows: top candidates [0, ky), bottom candidates
            // [ky, 2r) (bottom index i is row h-2r+i, and the last
            // 2r-ky rows are excluded).
            double row_excl = 0.0;
            for (int i = 0; i < ky; ++i) row_excl += rowsum_t[i];
            for (int i = ky; i < r2; ++i) row_excl += rowsum_b[i];
            for (int kx = 0; kx < k; ++kx) {
                double col_excl = 0.0;
                for (int i = 0; i < kx; ++i) col_excl += colsum_t[i];
                for (int i = kx; i < r2; ++i) col_excl += colsum_b[i];
                double cross = 0.0;
                for (int i = 0; i < ky; ++i) {
                    cross += edge_t[static_cast<size_t>(i) * k + kx];
                }
                for (int i = ky; i < r2; ++i) {
                    cross += edge_b[static_cast<size_t>(i) * k + kx];
                }
                Sc[ky * k + kx] = total - row_excl - col_excl + cross;
            }
        }
        if (A != nullptr) {
            // The tolerance only needs an upper bound on each shifted
            // window's |x| sum; the whole-plane |x| sum bounds every
            // window of this channel.
            double* Ac = A + static_cast<size_t>(c) * k * k;
            for (int t = 0; t < k * k; ++t) Ac[t] = abs_total;
        }
    }
}

void
abft_input_sums_i16(const ConvChecksum& cs, const int16_t* x, int h, int w,
                    int64_t* S)
{
    const int k = cs.k, r = k / 2;
    const int ih = h - 2 * r, iw = w - 2 * r;
    const size_t slots = cs.num_input_sums();
    std::fill(S, S + slots, static_cast<int64_t>(0));
    if (ih <= 0 || iw <= 0) return;
    // Same full-row-sum + edge-correction walk as the fp32 variant
    // (integer addition is associative, so this is exact); no prefix
    // array, one read pass over the image.
    std::vector<int64_t> win(static_cast<size_t>(k));
    for (int c = 0; c < cs.ci; ++c) {
        const int16_t* plane =
            x + static_cast<size_t>(c) * h * w;
        for (int y = 0; y < h; ++y) {
            const int16_t* row = plane + static_cast<size_t>(y) * w;
            int64_t total = 0;
            for (int i = 0; i < w; ++i) total += row[i];
            for (int kx = 0; kx < k; ++kx) {
                int64_t s = total;
                for (int i = 0; i < kx; ++i) s -= row[i];
                for (int i = w - (2 * r - kx); i < w; ++i) s -= row[i];
                win[static_cast<size_t>(kx)] = s;
            }
            const int ky0 = std::max(0, y - ih + 1);
            const int ky1 = std::min(k - 1, y);
            for (int ky = ky0; ky <= ky1; ++ky) {
                int64_t* Sr =
                    S + (static_cast<size_t>(c) * k + ky) * k;
                for (int kx = 0; kx < k; ++kx) {
                    Sr[kx] += win[static_cast<size_t>(kx)];
                }
            }
        }
    }
}

namespace
{

[[noreturn]] void
throw_integrity(const ConvChecksum& cs, int op_index, int channel,
                int tuple, double diff, double tol, bool exact)
{
    const int band = tuple > 0 ? channel / tuple : channel;
    std::ostringstream os;
    os << "ringcnn: ABFT checksum mismatch at op " << op_index
       << " (ringconv): output channel " << channel << " (band " << band
       << "/" << (tuple > 0 ? cs.co / tuple : cs.co) << ")";
    if (exact) {
        os << " accumulator sum off by " << diff;
    } else {
        os << " deviates by " << diff << " (tolerance " << tol << ")";
    }
    throw IntegrityError(os.str());
}

}  // namespace

void
abft_check_f32(const ConvChecksum& cs, const double* S, const double* A,
               const double* out_sums, int h, int w, int op_index,
               int tuple)
{
    const int k = cs.k, r = k / 2;
    const double npix = static_cast<double>(std::max(0, h - 2 * r)) *
                        static_cast<double>(std::max(0, w - 2 * r));
    if (npix == 0.0) return;
    const size_t taps = cs.num_input_sums();
    // Rounding bound: per interior pixel the engine forms ~taps float
    // fused products whose operand magnitudes the |Tz||g~||Tx| chain
    // bounds; summed over the interior that is gamma_N * amax with
    // N ~ taps. The +40 covers the transform passes plus the blocked
    // plane reduction of the input sums (8 float lanes flushed to
    // double every 256 elements: O(32 eps) RELATIVE error regardless
    // of plane size); the w/4 term covers the 8-lane FLOAT row
    // reductions of the engine's interior capture (~w/8 lane adds of
    // rounding per row); x4 is safety for the float-rounded
    // gt32/tz/tx coefficients the engine uses versus this double
    // prediction.
    const double gamma =
        (static_cast<double>(taps) + 40.0 +
         static_cast<double>(w) / 4.0) *
        6.0e-8 * 4.0;
    const int kk = k * k;
    const double* wac = cs.wabs_ci.empty() ? nullptr : cs.wabs_ci.data();
    for (int c = 0; c < cs.co; ++c) {
        const double* wr = cs.w.data() + static_cast<size_t>(c) * taps;
        double pred = cs.bias[static_cast<size_t>(c)] * npix;
        double amax = cs.babs[static_cast<size_t>(c)] * npix;
        for (size_t t = 0; t < taps; ++t) pred += wr[t] * S[t];
        if (wac != nullptr) {
            // A slots are per-channel constant (one shared plane
            // bound), so the amax accumulation collapses to ci terms
            // against the tap-summed magnitudes.
            const double* wc = wac + static_cast<size_t>(c) * cs.ci;
            for (int ci = 0; ci < cs.ci; ++ci) {
                amax += wc[ci] * A[static_cast<size_t>(ci) * kk];
            }
        } else {
            const double* war =
                cs.wabs.data() + static_cast<size_t>(c) * taps;
            for (size_t t = 0; t < taps; ++t) amax += war[t] * A[t];
        }
        const double tol = gamma * amax + 1e-30;
        const double diff = pred - out_sums[c];
        // Ordered comparison: a NaN anywhere (input poison, corrupted
        // arithmetic) fails the <= and is reported as a mismatch.
        if (!(std::abs(diff) <= tol)) {
            throw_integrity(cs, op_index, c, tuple, diff, tol, false);
        }
    }
}

void
abft_check_i64(const ConvChecksum& cs, const int64_t* S,
               const int64_t* out_sums, int h, int w, int op_index,
               int tuple)
{
    const int k = cs.k, r = k / 2;
    const int64_t npix =
        static_cast<int64_t>(std::max(0, h - 2 * r)) *
        static_cast<int64_t>(std::max(0, w - 2 * r));
    if (npix == 0) return;
    const size_t taps = cs.num_input_sums();
    for (int c = 0; c < cs.co; ++c) {
        const int64_t* wr =
            cs.iw.data() + static_cast<size_t>(c) * taps;
        int64_t pred = cs.ibias[static_cast<size_t>(c)] * npix;
        for (size_t t = 0; t < taps; ++t) pred += wr[t] * S[t];
        if (pred != out_sums[c]) {
            throw_integrity(cs, op_index, c, tuple,
                            static_cast<double>(pred - out_sums[c]),
                            0.0, true);
        }
    }
}

std::string
GraphPlan::dump() const
{
    std::ostringstream os;
    os << "plan values=" << num_values << " slots=" << num_slots
       << " entry=v" << entry_value << "/s" << entry_slot << " out=v"
       << out_value << "/s" << out_slot << "\n";
    for (size_t i = 0; i < ops.size(); ++i) {
        const OpIR& op = ops[i];
        os << "  " << i << ": " << op_kind_name(op.kind) << " v" << op.out
           << "<-v" << op.in0;
        if (op.in1 >= 0) os << ",v" << op.in1;
        if (op.fused) {
            os << " [fused]";
        } else {
            os << " s" << op.out_slot << "<-s" << op.in0_slot;
            if (op.in1 >= 0) os << ",s" << op.in1_slot;
        }
        if (op.epilogue != Epilogue::kNone) {
            os << " epi=" << epilogue_name(op.epilogue);
        }
        if (op.total_taps > 0) {
            os << " nz=" << op.nz_taps << "/" << op.total_taps;
        }
        os << "\n";
    }
    return os.str();
}

std::string
GraphPlan::signature() const
{
    // Normalizations (see the header): fused ops vanish, values are
    // densely renumbered in definition order, conv flavors collapse,
    // pointwise scalar ops (float ReLU <-> int8 requant) collapse, and
    // every scalar epilogue class — none, fused ReLU, fused requant —
    // prints as the bare conv (an int8 graph always terminates a conv
    // with a requant where the float graph may have nothing).
    auto kind_class = [](OpKind k) -> const char* {
        switch (k) {
            case OpKind::kRingConv:
            case OpKind::kDenseConv: return "conv";
            case OpKind::kRelu:
            case OpKind::kRequant: return "pw";
            default: return op_kind_name(k);
        }
    };
    std::unordered_map<int, int> renum;
    renum[entry_value] = 0;
    int next = 1;
    std::ostringstream os;
    for (const OpIR& op : ops) {
        if (op.fused) continue;
        os << kind_class(op.kind);
        if (op.epilogue == Epilogue::kDirRelu) os << "+dir";
        const int out = next++;
        renum[op.out] = out;
        os << " r" << out << "<-r" << renum.at(op.in0);
        if (op.in1 >= 0) os << ",r" << renum.at(op.in1);
        os << " s" << op.out_slot << "<-s" << op.in0_slot;
        if (op.in1 >= 0) os << ",s" << op.in1_slot;
        os << "\n";
    }
    return os.str();
}

// ---- float layer tree ------------------------------------------------------

namespace
{

/** Nonzero tap tuples of a ring weight set: the n DOFs of one
 *  (co, ci, ky, kx) tap are contiguous (comp innermost), so each
 *  consecutive n-run is one tuple. */
void
annotate_ring_sparsity(OpIR& op, const RingConvWeights& w)
{
    const size_t n = static_cast<size_t>(w.n);
    op.total_taps = static_cast<int64_t>(w.w.size() / n);
    op.nz_taps = 0;
    for (size_t t = 0; t < w.w.size(); t += n) {
        for (size_t c = 0; c < n; ++c) {
            if (w.w[t + c] != 0.0f) {
                ++op.nz_taps;
                break;
            }
        }
    }
}

/** Scalar-granularity count for the real-algebra (n=1) convs. */
void
annotate_dense_sparsity(OpIR& op, const Tensor& w)
{
    op.total_taps = w.numel();
    op.nz_taps = 0;
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (w[i] != 0.0f) ++op.nz_taps;
    }
}

/** Recursive walker mirroring the executor's historical compile order:
 *  one op per layer, depth-first through the containers, no fusion. */
struct F32Linearizer
{
    GraphPlan p;

    OpIR& emit(OpKind kind, const void* node, int in0, const Shape& in_shape,
               const Shape& out_shape, int in1 = -1)
    {
        OpIR op;
        op.kind = kind;
        op.node = node;
        op.in0 = in0;
        op.in1 = in1;
        op.out = p.num_values++;
        op.in_shape = in_shape;
        op.out_shape = out_shape;
        p.ops.push_back(op);
        return p.ops.back();
    }

    int walk(nn::Layer* l, int in, Shape& shape)
    {
        using namespace nn;
        if (auto* seq = dynamic_cast<Sequential*>(l)) {
            int cur = in;
            for (size_t i = 0; i < seq->size(); ++i) {
                cur = walk(&seq->at(i), cur, shape);
            }
            return cur;
        }
        if (auto* rc = dynamic_cast<RingConv2d*>(l)) {
            const Shape os = rc->out_shape(shape);
            OpIR& op = emit(OpKind::kRingConv, rc, in, shape, os);
            op.tuple = rc->ring().n;
            op.co = os[0];
            annotate_ring_sparsity(op, rc->weights());
            op.checksum =
                make_ring_checksum(rc->ring(), rc->weights(), rc->bias());
            shape = os;
            return op.out;
        }
        if (auto* res = dynamic_cast<Residual*>(l)) {
            Shape body_shape = shape;
            const int body_out = walk(&res->body(), in, body_shape);
            RINGCNN_CHECK(body_shape == shape,
                          "residual body must preserve the shape");
            return emit(OpKind::kResidualAdd, res, body_out, shape, shape, in)
                .out;
        }
        if (auto* two = dynamic_cast<TwoBranchAdd*>(l)) {
            Shape main_shape = shape;
            const int main_out = walk(&two->main(), in, main_shape);
            Shape skip_shape = shape;
            const int skip_out = walk(&two->skip(), in, skip_shape);
            RINGCNN_CHECK(main_shape == skip_shape,
                          "two-branch outputs must agree");
            shape = main_shape;
            return emit(OpKind::kBranchAdd, two, main_out, shape, shape,
                        skip_out)
                .out;
        }
        if (auto* conv = dynamic_cast<Conv2d*>(l)) {
            const Shape os = conv->out_shape(shape);
            OpIR& op = emit(OpKind::kDenseConv, conv, in, shape, os);
            op.tuple = 1;
            op.co = os[0];
            annotate_dense_sparsity(op, conv->weights());
            shape = os;
            return op.out;
        }
        if (auto* relu = dynamic_cast<ReLU*>(l)) {
            return emit(OpKind::kRelu, relu, in, shape, shape).out;
        }
        if (auto* dr = dynamic_cast<DirectionalReLU*>(l)) {
            OpIR& op = emit(OpKind::kDirRelu, dr, in, shape, shape);
            op.tuple = static_cast<int>(dr->v().cols());
            return op.out;
        }
        if (auto* ps = dynamic_cast<PixelShuffle*>(l)) {
            const Shape os = ps->out_shape(shape);
            OpIR& op = emit(OpKind::kPixelShuffle, ps, in, shape, os);
            op.arg = os[1] / shape[1];
            shape = os;
            return op.out;
        }
        if (auto* pu = dynamic_cast<PixelUnshuffle*>(l)) {
            const Shape os = pu->out_shape(shape);
            OpIR& op = emit(OpKind::kPixelUnshuffle, pu, in, shape, os);
            op.arg = shape[1] / os[1];
            shape = os;
            return op.out;
        }
        if (auto* pad = dynamic_cast<ChannelPad*>(l)) {
            const Shape os = pad->out_shape(shape);
            if (os[0] == shape[0]) return in;  // no-op pad
            OpIR& op = emit(OpKind::kChannelPad, pad, in, shape, os);
            op.arg = os[0];
            shape = os;
            return op.out;
        }
        if (auto* crop = dynamic_cast<CropChannels*>(l)) {
            const Shape os = crop->out_shape(shape);
            if (os[0] == shape[0]) return in;  // no-op crop
            OpIR& op = emit(OpKind::kCropChannels, crop, in, shape, os);
            op.arg = os[0];
            shape = os;
            return op.out;
        }
        if (auto* dw = dynamic_cast<DepthwiseConv2d*>(l)) {
            const Shape os = dw->out_shape(shape);
            OpIR& op = emit(OpKind::kDepthwiseConv, dw, in, shape, os);
            op.co = os[0];
            annotate_dense_sparsity(op, dw->weights());
            shape = os;
            return op.out;
        }
        if (auto* up = dynamic_cast<UpsampleBilinearLayer*>(l)) {
            const Shape os = up->out_shape(shape);
            OpIR& op = emit(OpKind::kUpsample, up, in, shape, os);
            op.arg = up->factor();
            shape = os;
            return op.out;
        }
        // Layers without a compiled kernel keep the allocating
        // Layer::forward fallback.
        const Shape os = l->out_shape(shape);
        OpIR& op = emit(OpKind::kFallback, l, in, shape, os);
        shape = os;
        return op.out;
    }
};

}  // namespace

GraphPlan
linearize(nn::Layer& root, const Shape& in_shape)
{
    RINGCNN_CHECK(in_shape.size() == 3,
                  "executor input must be a CHW shape");
    F32Linearizer lin;
    lin.p.in_shape = in_shape;
    Shape shape = in_shape;
    lin.p.out_value = lin.walk(&root, lin.p.entry_value, shape);
    lin.p.out_shape = shape;
    return lin.p;
}

// ---- quantized node graph --------------------------------------------------

namespace
{

/** Nonzero tap tuples of an expanded integer conv. The expanded
 *  [co][ci][k][k] weights decompose into n x n blocks — block
 *  (cot, cit, ky, kx) is the image of one ring tap tuple under
 *  expand_to_real, so it is all-zero exactly when the tuple was
 *  pruned. Counting nonzero blocks therefore reproduces the fp32
 *  plan's tuple-granularity counts (same totals, same nz on the same
 *  model). n == 1 degenerates to the scalar count for dense convs. */
void
annotate_qconv_sparsity(OpIR& op, const quant::QConvNode& conv)
{
    const int n = conv.n > 0 ? conv.n : 1;
    const int co_t = conv.co / n, ci_t = conv.ci / n;
    op.total_taps =
        static_cast<int64_t>(co_t) * ci_t * conv.k * conv.k;
    op.nz_taps = 0;
    const auto at = [&](int oc, int ic, int ky, int kx) {
        return conv.w[((static_cast<size_t>(oc) * conv.ci + ic) * conv.k +
                       ky) *
                          conv.k +
                      kx];
    };
    for (int cot = 0; cot < co_t; ++cot) {
        for (int cit = 0; cit < ci_t; ++cit) {
            for (int ky = 0; ky < conv.k; ++ky) {
                for (int kx = 0; kx < conv.k; ++kx) {
                    bool nz = false;
                    for (int a = 0; a < n && !nz; ++a) {
                        for (int b = 0; b < n; ++b) {
                            if (at(cot * n + a, cit * n + b, ky, kx) != 0) {
                                nz = true;
                                break;
                            }
                        }
                    }
                    if (nz) ++op.nz_taps;
                }
            }
        }
    }
}

/** Shape-free walker over the QNode graph; mirrors the quant
 *  executor's historical compile order and its accumulator-width
 *  threading (each op records the feature bits live at its input). */
struct I8Linearizer
{
    GraphPlan p;

    OpIR& emit(OpKind kind, const void* node, int in0, int bits, int in1 = -1)
    {
        OpIR op;
        op.kind = kind;
        op.node = node;
        op.in0 = in0;
        op.in1 = in1;
        op.out = p.num_values++;
        op.in_bits = bits;
        p.ops.push_back(op);
        return p.ops.back();
    }

    int walk(const quant::QNode* n, int in, int& bits)
    {
        using namespace quant;
        if (const auto* seq = dynamic_cast<const QSeq*>(n)) {
            int cur = in;
            for (const auto& child : seq->nodes) {
                cur = walk(child.get(), cur, bits);
            }
            return cur;
        }
        if (const auto* conv = dynamic_cast<const QConvNode*>(n)) {
            OpIR& op = emit(OpKind::kRingConv, conv, in, bits);
            op.co = conv->co;
            op.tuple = conv->n;
            annotate_qconv_sparsity(op, *conv);
            op.checksum = make_qconv_checksum(*conv);
            bits = 32;  // raw accumulators until a requant/dir narrows
            return op.out;
        }
        if (const auto* req = dynamic_cast<const QRequantNode*>(n)) {
            OpIR& op = emit(OpKind::kRequant, req, in, bits);
            bits = req->bits;
            return op.out;
        }
        if (const auto* dir = dynamic_cast<const QDirReluNode*>(n)) {
            OpIR& op = emit(OpKind::kDirRelu, dir, in, bits);
            op.tuple = dir->n;
            bits = dir->bits;
            return op.out;
        }
        if (const auto* ps = dynamic_cast<const QPixelShuffleNode*>(n)) {
            OpIR& op = emit(OpKind::kPixelShuffle, ps, in, bits);
            op.arg = ps->r;
            return op.out;
        }
        if (const auto* pu = dynamic_cast<const QPixelUnshuffleNode*>(n)) {
            OpIR& op = emit(OpKind::kPixelUnshuffle, pu, in, bits);
            op.arg = pu->r;
            return op.out;
        }
        if (const auto* pad = dynamic_cast<const QPadNode*>(n)) {
            OpIR& op = emit(OpKind::kChannelPad, pad, in, bits);
            op.arg = pad->want;
            return op.out;
        }
        if (const auto* crop = dynamic_cast<const QCropNode*>(n)) {
            OpIR& op = emit(OpKind::kCropChannels, crop, in, bits);
            op.arg = crop->keep;
            return op.out;
        }
        if (const auto* res = dynamic_cast<const QResidualNode*>(n)) {
            int body_bits = bits;
            const int body_out = walk(res->body.get(), in, body_bits);
            OpIR& op = emit(OpKind::kResidualAdd, res, body_out, body_bits,
                            in);
            bits = res->bits;
            return op.out;
        }
        if (const auto* two = dynamic_cast<const QTwoBranchNode*>(n)) {
            int mb = bits, sb = bits;
            const int main_out = walk(two->main.get(), in, mb);
            const int skip_out = walk(two->skip.get(), in, sb);
            OpIR& op = emit(OpKind::kBranchAdd, two, main_out, mb, skip_out);
            bits = two->bits;
            return op.out;
        }
        if (const auto* up = dynamic_cast<const QBilinearNode*>(n)) {
            OpIR& op = emit(OpKind::kUpsample, up, in, bits);
            op.arg = up->r;
            bits = up->bits;
            return op.out;
        }
        // Unknown node: oracle walk, pessimistic width downstream.
        OpIR& op = emit(OpKind::kFallback, n, in, bits);
        bits = 32;
        return op.out;
    }
};

}  // namespace

GraphPlan
linearize(const quant::QNode& root, int feature_bits)
{
    I8Linearizer lin;
    int bits = feature_bits;
    lin.p.out_value = lin.walk(&root, lin.p.entry_value, bits);
    return lin.p;
}

// ---- shape propagation -----------------------------------------------------

void
annotate_shapes(GraphPlan& plan, const Shape& in_shape)
{
    RINGCNN_CHECK(in_shape.size() == 3,
                  "plan shape annotation needs a CHW input");
    std::vector<Shape> val(static_cast<size_t>(plan.num_values));
    val[static_cast<size_t>(plan.entry_value)] = in_shape;
    plan.in_shape = in_shape;
    for (OpIR& op : plan.ops) {
        if (op.fused) continue;
        const Shape& in = val[static_cast<size_t>(op.in0)];
        op.in_shape = in;
        Shape out = in;
        switch (op.kind) {
            case OpKind::kRingConv:
            case OpKind::kDenseConv:
            case OpKind::kDepthwiseConv:
                out = {op.co, in[1], in[2]};
                break;
            case OpKind::kPixelShuffle:
                out = layout::pixel_shuffle_shape(in, op.arg);
                break;
            case OpKind::kPixelUnshuffle:
                out = layout::pixel_unshuffle_shape(in, op.arg);
                break;
            case OpKind::kChannelPad:
            case OpKind::kCropChannels:
                out = {op.arg, in[1], in[2]};
                break;
            case OpKind::kUpsample:
                out = {in[0], in[1] * op.arg, in[2] * op.arg};
                break;
            default:
                // Pointwise, adds, fallback: shape-preserving.
                break;
        }
        op.out_shape = out;
        val[static_cast<size_t>(op.out)] = out;
    }
    plan.out_shape = val[static_cast<size_t>(plan.out_value)];
}

}  // namespace ringcnn::plan

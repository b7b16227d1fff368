#include "core/ring_conv_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/simd.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn {

namespace {

/** The fp32 band pass keeps per-pixel Tx/Tz/epilogue tuple rows in
 *  fixed-size stack arrays. */
constexpr int kMaxTuple = 16;

/** Staging budget of one fp32 conv task: its band's zero-haloed input
 *  rows for every plane, sized to stay cache-resident (the int8 path's
 *  budget). Sets the band height. */
constexpr int64_t kStageBytes = 256 << 10;

/** Longest tap table one row pass takes: beyond ~100 source rows the
 *  per-tile working set thrashes L1 and every tile re-reads from L2. */
constexpr int kTapChunk = 96;

}  // namespace

RingConvEngine::RingConvEngine(const Ring& ring, const RingConvWeights& w,
                               std::vector<float> bias,
                               RingConvEngineOptions opt)
    : ring_(&ring), co_t_(0), ci_t_(0), k_(0), n_(ring.n),
      m_(ring.fast.m()), opt_(opt)
{
    RINGCNN_CHECK(m_ <= kMaxTuple && n_ <= kMaxTuple,
                  "ring '" + ring.name + "' has m=" + std::to_string(m_) +
                      ", n=" + std::to_string(n_) +
                      "; engines support m, n <= " +
                      std::to_string(kMaxTuple) +
                      " (ring_conv_fast accepts any m)");
    // The data/reconstruction transforms depend only on the ring.
    const Matd& tx = ring.fast.tx;
    tx32_nz_.resize(static_cast<size_t>(m_));
    tx_alias_.assign(static_cast<size_t>(m_), -1);
    for (int r = 0; r < m_; ++r) {
        auto& nz = tx32_nz_[static_cast<size_t>(r)];
        for (int j = 0; j < n_; ++j) {
            const double c = tx.at(r, j);
            if (c != 0.0) nz.emplace_back(j, static_cast<float>(c));
        }
        if (nz.size() == 1 && tx.at(r, nz[0].first) == 1.0) {
            tx_alias_[static_cast<size_t>(r)] = nz[0].first;
        }
    }
    const Matd& tz = ring.fast.tz;
    tz32_nz_.resize(static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) {
        for (int r = 0; r < m_; ++r) {
            if (tz.at(i, r) != 0.0) {
                tz32_nz_[static_cast<size_t>(i)].emplace_back(
                    r, static_cast<float>(tz.at(i, r)));
            }
        }
    }
    identity_tz_ = m_ == n_;
    for (int i = 0; i < n_ && identity_tz_; ++i) {
        const auto& nz = tz32_nz_[static_cast<size_t>(i)];
        identity_tz_ = nz.size() == 1 && nz[0].first == i &&
                       nz[0].second == 1.0f;
    }
    set_weights(w, std::move(bias));
}

void
RingConvEngine::set_weights(const RingConvWeights& w, std::vector<float> bias)
{
    check_frconv_weights(*ring_, w, bias);
    co_t_ = w.co_t;
    ci_t_ = w.ci_t;
    k_ = w.k;

    // Filter transform, derived once per weight set:
    // gt[co][r][ci][ky][kx] = sum_k Tg[r][k] g_k  (eq. (6)).
    const Matd& tg = ring_->fast.tg;
    gt32_.assign(static_cast<size_t>(co_t_) * m_ * ci_t_ * k_ * k_, 0.0f);
    for (int co = 0; co < co_t_; ++co) {
        for (int ci = 0; ci < ci_t_; ++ci) {
            for (int ky = 0; ky < k_; ++ky) {
                for (int kx = 0; kx < k_; ++kx) {
                    for (int r = 0; r < m_; ++r) {
                        double acc = 0.0;
                        for (int k = 0; k < n_; ++k) {
                            acc += tg.at(r, k) * w.at(co, ci, ky, kx, k);
                        }
                        const size_t at =
                            (((static_cast<size_t>(co) * m_ + r) * ci_t_ +
                              ci) * k_ + ky) * k_ + kx;
                        gt32_[at] = static_cast<float>(acc);
                    }
                }
            }
        }
    }

    // Fault site: a bit flip landing in the derived float filter
    // store, BEFORE the tap lists compile from it — the corruption
    // propagates into the compiled taps exactly as a physical upset of
    // the cached transform would.
    uint64_t fault_token;
    if (util::fault_check("fp32.weights", &fault_token)) {
        util::fault_flip_bit(gt32_.data(), gt32_.size(), fault_token);
    }

    bias32_.assign(static_cast<size_t>(co_t_) * n_, 0.0f);
    bias32_zero_ = true;
    for (size_t i = 0; i < bias.size(); ++i) {
        bias32_[i] = bias[i];
        if (bias[i] != 0.0f) bias32_zero_ = false;
    }

    // Sparsity compilation: pack the nonzero taps of g~ into compact
    // per-(co, r) lists in (ci, ky, kx) order, the order the band pass
    // accumulates them in. A ring tuple pruned in weight space zeroes
    // its tap in EVERY band (g~ is linear in the tuple), so pruned taps
    // never enter the lists — they are compiled away rather than
    // skipped per row.
    sp_taps_.clear();
    sp_off_.assign(static_cast<size_t>(co_t_) * m_ + 1, 0);
    for (int co = 0; co < co_t_; ++co) {
        for (int r = 0; r < m_; ++r) {
            for (int ci = 0; ci < ci_t_; ++ci) {
                const float* g_tap =
                    gt32_.data() +
                    ((static_cast<size_t>(co) * m_ + r) * ci_t_ + ci) * k_ *
                        k_;
                for (int ky = 0; ky < k_; ++ky) {
                    for (int kx = 0; kx < k_; ++kx) {
                        const float wv =
                            g_tap[static_cast<size_t>(ky) * k_ + kx];
                        if (wv == 0.0f) continue;
                        sp_taps_.push_back({ci, ky, kx, wv});
                    }
                }
            }
            sp_off_[static_cast<size_t>(co) * m_ + r + 1] =
                static_cast<int64_t>(sp_taps_.size());
        }
    }
    sparse_skip_ = static_cast<int64_t>(gt32_.size()) -
                   static_cast<int64_t>(sp_taps_.size());
}

void
RingConvEngine::set_epilogue(ConvEpilogue epilogue, const Matd* u,
                             const Matd* v)
{
    if (epilogue == ConvEpilogue::kDirectional) {
        RINGCNN_CHECK(u != nullptr && v != nullptr,
                      "directional epilogue needs the (u, v) transforms");
        RINGCNN_CHECK(u->rows() == n_ && u->cols() == n_ &&
                          v->rows() == n_ && v->cols() == n_,
                      "directional transforms must be n x n for n=" +
                          std::to_string(n_));
        u32_.resize(static_cast<size_t>(n_) * n_);
        v32_.resize(static_cast<size_t>(n_) * n_);
        for (int i = 0; i < n_; ++i) {
            for (int j = 0; j < n_; ++j) {
                u32_[static_cast<size_t>(i) * n_ + j] =
                    static_cast<float>(u->at(i, j));
                v32_[static_cast<size_t>(i) * n_ + j] =
                    static_cast<float>(v->at(i, j));
            }
        }
    }
    epilogue_ = epilogue;
}

int
RingConvEngine::band_rows(int h, int w) const
{
    if (h <= 0) return 1;
    if (opt_.row_band > 0) return std::min(opt_.row_band, h);
    // As many rows as the staging budget holds for every input plane
    // (any banding is bit-equivalent; this only shapes cache use and
    // parallel grain), but at least 8 so the k-1 halo rows stay a small
    // overhead; then evened out over the bands that takes.
    const int64_t row_bytes = static_cast<int64_t>(ci_t_) * m_ *
                              (static_cast<int64_t>(w) + k_ - 1) *
                              static_cast<int64_t>(sizeof(float));
    const int64_t fit = kStageBytes / std::max<int64_t>(row_bytes, 1) -
                        (k_ - 1);
    const int rows =
        static_cast<int>(std::clamp<int64_t>(fit, std::min(8, h), h));
    const int bands = (h + rows - 1) / rows;
    return (h + bands - 1) / bands;
}

int64_t
RingConvEngine::work(int h, int w) const
{
    // The directional epilogue costs 2n multiply-adds per output value
    // (V then U), on the 1x1 pump convs twice the conv's own MACs.
    const int64_t epilogue =
        epilogue_ == ConvEpilogue::kDirectional
            ? 2 * static_cast<int64_t>(n_) * co_t_ * n_ * h * w
            : 0;
    return macs(h, w) + epilogue;
}

void
RingConvEngine::transform_plane_f32(const Tensor& x, int t, int r,
                                    float* dst) const
{
    // Same sum in float, as one fused row pass over the nonzero terms
    // (at most n <= kMaxTuple of them) in ascending j.
    const int h = x.dim(1), wd = x.dim(2);
    const int64_t plane = static_cast<int64_t>(h) * wd;
    const auto& nz = tx32_nz_[static_cast<size_t>(r)];
    if (nz.empty()) {
        std::fill_n(dst, plane, 0.0f);
        return;
    }
    const float* srcs[kMaxTuple];
    float coeffs[kMaxTuple];
    int cnt = 0;
    for (const auto& [j, c] : nz) {
        srcs[cnt] = x.data() + static_cast<int64_t>(t * n_ + j) * plane;
        coeffs[cnt] = c;
        ++cnt;
    }
    simd::matvec_rows_f32(dst, srcs, coeffs, cnt, plane);
}

void
RingConvEngine::conv_band_f32(const float* const* planes, int h, int wd,
                              int co0, int co1, int y0, int y1, Tensor& out,
                              RingConvScratch::Worker& scratch,
                              double* sums) const
{
    const int pad = k_ / 2;
    const int bh = y1 - y0;
    const int np = ci_t_ * m_;

    // Input rows [sy0, sy1) of every plane the taps of tuples [co0, co1)
    // read. With k > 1 they are staged once per task with a zero halo
    // of `pad` columns on both sides, so every tap spans all wd output
    // columns and each output row is ONE vector pass with no boundary
    // columns; with k == 1 every tap is valid everywhere and the planes
    // are read in place. Tap (yy, kx) of plane p starts at
    // plane_rows[p] + (yy - sy0) * stride + kx.
    const int sy0 = std::max(0, y0 - pad);
    const int sy1 = std::min(h, y1 + pad);
    const int64_t stride = static_cast<int64_t>(wd) + 2 * pad;
    const float** plane_rows = scratch.plane_rows.data();
    std::fill_n(plane_rows, np, nullptr);
    if (pad == 0) {
        for (int p = 0; p < np; ++p) {
            plane_rows[p] = planes[p] + static_cast<int64_t>(sy0) * wd;
        }
    } else {
        // Mark the planes the chunk's taps read (tuple ci, component
        // r) with their source, then stage each marked plane.
        for (int co = co0; co < co1; ++co) {
            for (int r = 0; r < m_; ++r) {
                const size_t slot = static_cast<size_t>(co) * m_ + r;
                for (int64_t t = sp_off_[slot]; t < sp_off_[slot + 1]; ++t) {
                    const int p = sp_taps_[static_cast<size_t>(t)].ci * m_ + r;
                    plane_rows[p] = planes[p];
                }
            }
        }
        float* dst = scratch.stage.get();
        for (int p = 0; p < np; ++p) {
            const float* src = plane_rows[p];
            if (src == nullptr) continue;
            plane_rows[p] = dst;
            for (int yy = sy0; yy < sy1; ++yy, dst += stride) {
                std::fill_n(dst, pad, 0.0f);
                std::copy_n(src + static_cast<int64_t>(yy) * wd, wd,
                            dst + pad);
                std::fill_n(dst + pad + wd, pad, 0.0f);
            }
        }
    }

    float* z = identity_tz_ ? nullptr : scratch.z32.data();
    const float** tsrc = scratch.tap_src.data();
    float* tw = scratch.tap_w.data();

    for (int co = co0; co < co1; ++co) {
        // Component-wise convolutions (eq. (7)): per (r, output row) the
        // valid compiled taps are gathered into a table in (ci, ky, kx)
        // order, and the whole row is computed in ONE
        // simd::matvec_rows_f32 pass. Per-element order is fixed by the
        // table, so results are invariant under banding, chunking and
        // thread count.
        //
        // When Tz is the identity (the RI rings), each component IS its
        // output channel: rows are computed straight into the output
        // tensor and the reconstruction pass reduces to the bias add.
        // Otherwise components accumulate into the scratch band and the
        // nonzero Tz terms reconstruct them.
        for (int r = 0; r < m_; ++r) {
            float* zr =
                identity_tz_
                    ? out.data() +
                          (static_cast<int64_t>(co * n_ + r) * h + y0) * wd
                    : z + static_cast<size_t>(r) * bh * wd;

            // Output row y (`len` values from its start) from the tap
            // table. Rows are OVERWRITTEN — accumulation starts from the
            // first term. Columns outside [lx, rx) also take the halo's
            // zero products, which change no nonzero partial sum; the one
            // `+ 0.0f` turns a -0 result back into the +0 that an
            // accumulator skipping those taps, starting from +0, produces
            // (it never produces -0).
            const auto run_row = [&](int y, int nt, int lx, int rx,
                                     int64_t len) {
                float* zrow = zr + static_cast<size_t>(y - y0) * wd;
                if (nt == 0) {
                    std::fill_n(zrow, len, 0.0f);
                    return;
                }
                // Chunk long tap tables so each pass's source rows fit
                // L1. Chunks apply in order, so per-element
                // accumulation order — and every bit — is unchanged.
                const int first = std::min(nt, kTapChunk);
                simd::matvec_rows_f32(zrow, tsrc, tw, first, len);
                for (int t0 = first; t0 < nt; t0 += kTapChunk) {
                    simd::axpy_rows_f32(zrow, tsrc + t0, tw + t0,
                                        std::min(kTapChunk, nt - t0), len);
                }
                for (int xx = 0; xx < std::min(lx, wd); ++xx) {
                    zrow[xx] += 0.0f;
                }
                for (int xx = std::max(rx, lx); xx < wd; ++xx) {
                    zrow[xx] += 0.0f;
                }
            };

            // Builds the tap table for output row y from the compiled
            // nonzero-tap list of (co, r); [lx, rx) is where every
            // listed tap falls inside the image.
            const size_t slot = static_cast<size_t>(co) * m_ + r;
            const auto build_row = [&](int y, int& lx, int& rx) {
                int nt = 0;
                lx = 0;
                rx = wd;
                for (int64_t t = sp_off_[slot]; t < sp_off_[slot + 1]; ++t) {
                    const SparseTap& st = sp_taps_[static_cast<size_t>(t)];
                    const int yy = y + st.ky - pad;
                    if (yy < 0 || yy >= h) continue;
                    tsrc[nt] = plane_rows[st.ci * m_ + r] +
                               static_cast<int64_t>(yy - sy0) * stride +
                               st.kx;
                    tw[nt] = st.w;
                    lx = std::max(lx, pad - st.kx);
                    rx = std::min(rx, wd + pad - st.kx);
                    ++nt;
                }
                return nt;
            };

            // Rows whose kernel footprint leaves the image (top/bottom
            // pad rows) have per-row tap sets; every interior row shares
            // ONE set whose source pointers just advance by a staged
            // row — the table is built once per (r, band). With k == 1
            // (no pad, every column in [lx, rx)) the source and output
            // rows are both contiguous, so the band is ONE long row.
            const int yA = std::min(std::max(y0, pad), y1);
            const int yB = std::max(std::min(y1, h - pad), yA);
            int lx = 0, rx = wd;
            for (int y = y0; y < yA; ++y) {
                const int nt = build_row(y, lx, rx);
                run_row(y, nt, lx, rx, wd);
            }
            if (yA < yB && pad == 0) {
                const int nt = build_row(yA, lx, rx);
                run_row(yA, nt, lx, rx, static_cast<int64_t>(yB - yA) * wd);
            } else if (yA < yB) {
                const int nt = build_row(yA, lx, rx);
                for (int y = yA; y < yB; ++y) {
                    run_row(y, nt, lx, rx, wd);
                    for (int t = 0; t < nt; ++t) tsrc[t] += stride;
                }
            }
            for (int y = yB; y < y1; ++y) {
                const int nt = build_row(y, lx, rx);
                run_row(y, nt, lx, rx, wd);
            }
        }

        // Fused output pass over the band while it is hot in cache,
        // per output channel over its bh*wd contiguous values: bias +
        // reconstruction (eq. (8)) over only the NONZERO Tz terms, then
        // the epilogue. (Like the zero filter-tap skip, dropping an
        // exactly-zero coefficient only differs through non-finite
        // activations.) With identity Tz the components already sit in
        // the output rows: reconstruction is just the bias add —
        // skipped entirely when every bias is exactly zero.
        const int64_t len = static_cast<int64_t>(bh) * wd;
        float* orows[kMaxTuple];
        for (int i = 0; i < n_; ++i) {
            orows[i] =
                out.data() + (static_cast<int64_t>(co * n_ + i) * h + y0) * wd;
        }
        double* csums =
            sums != nullptr ? sums + static_cast<size_t>(co - co0) * n_
                            : nullptr;
        if (identity_tz_ && bias32_zero_ &&
            epilogue_ == ConvEpilogue::kNone && csums == nullptr) {
            // The conv section already wrote the final rows.
            continue;
        }
        for (int i = 0; i < n_; ++i) {
            float* ob = orows[i];
            const float b = bias32_[static_cast<size_t>(co) * n_ + i];
            if (identity_tz_) {
                if (!bias32_zero_) {
                    for (int64_t e = 0; e < len; ++e) ob[e] = b + ob[e];
                }
            } else {
                const float* srcs[kMaxTuple];
                float cf[kMaxTuple];
                int cnt = 0;
                for (const auto& [r, c] : tz32_nz_[static_cast<size_t>(i)]) {
                    srcs[cnt] = z + static_cast<size_t>(r) * bh * wd;
                    cf[cnt] = c;
                    ++cnt;
                }
                std::fill_n(ob, len, b);
                simd::axpy_rows_f32(ob, srcs, cf, cnt, len);
            }
            // ABFT capture: the rows now hold the pre-epilogue conv
            // result. One SIMD row reduction per interior row; the
            // float rounding rides inside the checker's row-width
            // tolerance term.
            if (csums != nullptr) {
                for (int gy = std::max(y0, pad); gy < std::min(y1, h - pad);
                     ++gy) {
                    csums[i] += static_cast<double>(simd::sum_f32(
                        ob + static_cast<int64_t>(gy - y0) * wd + pad,
                        wd - 2 * pad));
                }
            }
            if (epilogue_ == ConvEpilogue::kRelu) {
                for (int64_t e = 0; e < len; ++e) {
                    ob[e] = ob[e] > 0.0f ? ob[e] : 0.0f;
                }
            }
        }
        if (epilogue_ == ConvEpilogue::kDirectional) {
            simd::dir_relu_f32(orows, orows, n_, u32_.data(), v32_.data(),
                               len, nullptr);
        }
    }
}

struct RingConvEngine::Task
{
    int img, co0, co1, y0, y1;
};

void
RingConvEngine::run_into(const Tensor* const* xs, Tensor* outs, int count,
                         RingConvScratch* scratch,
                         std::vector<double>* interior_sums) const
{
    for (int b = 0; b < count; ++b) check_frconv_input(*xs[b], ci_t_, n_);

    RingConvScratch local;
    RingConvScratch& sc = scratch != nullptr ? *scratch : local;

    // Clamp workers so each gets a meaningful slice: small inputs
    // (e.g. training-eval patches, possibly already nested under
    // util::run_parallel) run inline rather than paying scheduling
    // that costs more than the arithmetic it hides. The estimate counts
    // the fused epilogue's multiply-adds with the conv's.
    constexpr int64_t kMinMacsPerThread = 1 << 21;
    int64_t total_work = 0;
    for (int b = 0; b < count; ++b) {
        total_work += work(xs[b]->dim(1), xs[b]->dim(2));
    }
    const int threads = static_cast<int>(
        std::min<int64_t>(util::resolve_threads(opt_.threads),
                          std::max<int64_t>(1, total_work /
                                                   kMinMacsPerThread)));
    if (static_cast<int>(sc.workers.size()) < threads) {
        sc.workers.resize(static_cast<size_t>(threads));
    }

    // Per-image transformed-input buffers; one flat (img, tuple,
    // component) task per plane. Components whose Tx row is a unit
    // selector are never materialized — their plane-pointer table entry
    // aliases the input tensor (for the RI rings that is EVERY
    // component, so the transform stage and its 2x-image memory traffic
    // vanish entirely).
    bool needs_xt = false;
    for (int r = 0; r < m_; ++r) {
        if (tx_alias_[static_cast<size_t>(r)] < 0) needs_xt = true;
    }
    if (sc.xt.size() < static_cast<size_t>(count)) {
        sc.xt.resize(static_cast<size_t>(count));
    }
    if (needs_xt) {
        for (int b = 0; b < count; ++b) {
            const int64_t plane =
                static_cast<int64_t>(xs[b]->dim(1)) * xs[b]->dim(2);
            const size_t need = static_cast<size_t>(ci_t_) * m_ * plane;
            if (sc.xt[static_cast<size_t>(b)].size() < need) {
                sc.xt[static_cast<size_t>(b)].resize(need);
            }
        }
        util::parallel_for(
            static_cast<int64_t>(count) * ci_t_ * m_,
            [&](int64_t id) {
                const int b = static_cast<int>(id / (ci_t_ * m_));
                const int p = static_cast<int>(id % (ci_t_ * m_));
                if (tx_alias_[static_cast<size_t>(p % m_)] >= 0) {
                    return;  // aliased in place, nothing to materialize
                }
                const Tensor& x = *xs[b];
                const int64_t plane =
                    static_cast<int64_t>(x.dim(1)) * x.dim(2);
                transform_plane_f32(
                    x, p / m_, p % m_,
                    sc.xt[static_cast<size_t>(b)].data() + p * plane);
            },
            threads);
    }
    if (sc.xplanes.size() < static_cast<size_t>(count)) {
        sc.xplanes.resize(static_cast<size_t>(count));
    }
    for (int b = 0; b < count; ++b) {
        const int64_t plane =
            static_cast<int64_t>(xs[b]->dim(1)) * xs[b]->dim(2);
        auto& pl = sc.xplanes[static_cast<size_t>(b)];
        pl.resize(static_cast<size_t>(ci_t_) * m_);
        for (int t = 0; t < ci_t_; ++t) {
            for (int r = 0; r < m_; ++r) {
                const int p = t * m_ + r;
                const int j = tx_alias_[static_cast<size_t>(r)];
                pl[static_cast<size_t>(p)] =
                    j >= 0 ? xs[b]->data() +
                                 static_cast<int64_t>(t * n_ + j) * plane
                           : sc.xt[static_cast<size_t>(b)].data() + p * plane;
            }
        }
    }

    // One task per (image, row band, output-tuple chunk): a task
    // stages its band's input rows once and runs every tuple of its
    // chunk over them. Tuples split into chunks only when the bands
    // alone leave workers idle. Pure scheduling — tasks are
    // independent, results identical under any split.
    int64_t row_tasks = 0;
    for (int b = 0; b < count; ++b) {
        const int h = xs[b]->dim(1);
        const int bh = band_rows(h, xs[b]->dim(2));
        row_tasks += (h + bh - 1) / bh;
    }
    const int64_t want = static_cast<int64_t>(threads) * 4;
    const int chunks =
        threads > 1 && row_tasks > 0 && row_tasks < want
            ? static_cast<int>(std::min<int64_t>(
                  co_t_, (want + row_tasks - 1) / row_tasks))
            : 1;
    const int per_chunk = (co_t_ + chunks - 1) / chunks;
    std::vector<Task> tasks;
    size_t stage_need = 0, z_need = 0;
    for (int b = 0; b < count; ++b) {
        const int h = xs[b]->dim(1), wd = xs[b]->dim(2);
        outs[b].reset({co_t_ * n_, h, wd});
        const int bh = band_rows(h, wd);
        for (int y0 = 0; y0 < h; y0 += bh) {
            for (int co0 = 0; co0 < co_t_; co0 += per_chunk) {
                tasks.push_back({b, co0, std::min(co0 + per_chunk, co_t_), y0,
                                 std::min(y0 + bh, h)});
            }
        }
        if (k_ > 1) {
            stage_need = std::max(
                stage_need, static_cast<size_t>(ci_t_) * m_ *
                                std::min(h, bh + k_ - 1) * (wd + k_ - 1));
        }
        if (!identity_tz_) {
            z_need = std::max(z_need, static_cast<size_t>(m_) * bh * wd);
        }
    }
    // Every worker's buffers are sized here, on the calling thread: a
    // buffer a pool worker allocated would come from that thread's
    // malloc arena, whose top malloc_trim does not return to the system
    // after the owning executor is gone.
    for (int w = 0; w < threads; ++w) {
        RingConvScratch::Worker& ws = sc.workers[static_cast<size_t>(w)];
        if (ws.stage_size < stage_need) {
            ws.stage.reset(new float[stage_need]);
            ws.stage_size = stage_need;
        }
        if (ws.z32.size() < z_need) ws.z32.resize(z_need);
        ws.plane_rows.resize(static_cast<size_t>(ci_t_) * m_);
        ws.tap_src.resize(static_cast<size_t>(ci_t_) * k_ * k_);
        ws.tap_w.resize(static_cast<size_t>(ci_t_) * k_ * k_);
    }
    // ABFT capture: one private cell block of per_chunk * n doubles per
    // task, so no band pass races another's accumulator. Reduced below
    // in task-index order — deterministic under any thread count.
    const bool capture = interior_sums != nullptr;
    const size_t cell_stride = static_cast<size_t>(per_chunk) * n_;
    std::vector<double> cells;
    if (capture) cells.assign(tasks.size() * cell_stride, 0.0);
    util::parallel_for_worker(
        static_cast<int64_t>(tasks.size()),
        [&](int worker, int64_t i) {
            // Fault site: a kernel task body throwing mid-batch (the
            // one-SIMD-path-bug model); exercises the pool's exception
            // propagation and the serve retry.
            if (util::fault_check("fp32.kernel_throw")) {
                throw std::runtime_error(
                    "ringcnn: injected fault: fp32 conv kernel task");
            }
            const Task& t = tasks[static_cast<size_t>(i)];
            RingConvScratch::Worker& ws =
                sc.workers[static_cast<size_t>(worker)];
            const int h = xs[t.img]->dim(1), wd = xs[t.img]->dim(2);
            double* cell = capture ? cells.data() +
                                         static_cast<size_t>(i) * cell_stride
                                   : nullptr;
            conv_band_f32(sc.xplanes[static_cast<size_t>(t.img)].data(), h,
                          wd, t.co0, t.co1, t.y0, t.y1, outs[t.img], ws,
                          cell);
        },
        threads);
    if (interior_sums != nullptr) {
        interior_sums->assign(
            static_cast<size_t>(count) * co_t_ * n_, 0.0);
        for (size_t t = 0; t < tasks.size(); ++t) {
            const Task& tk = tasks[t];
            double* dst =
                interior_sums->data() +
                (static_cast<size_t>(tk.img) * co_t_ + tk.co0) * n_;
            const double* src = cells.data() + t * cell_stride;
            for (int i = 0; i < (tk.co1 - tk.co0) * n_; ++i) {
                dst[i] += src[i];
            }
        }
    }
}

Tensor
RingConvEngine::run(const Tensor& x) const
{
    Tensor out;
    const Tensor* px = &x;
    run_into(&px, &out, 1);
    return out;
}

std::vector<Tensor>
RingConvEngine::run(const std::vector<Tensor>& xs) const
{
    std::vector<Tensor> outs(xs.size());
    std::vector<const Tensor*> ptrs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
    run_into(ptrs.data(), outs.data(), static_cast<int>(xs.size()));
    return outs;
}

// ---- QuantConvKernel -------------------------------------------------------

QuantConvKernel::QuantConvKernel(int co, int ci, int k,
                                 const std::vector<int32_t>& w,
                                 const std::vector<int64_t>& bias,
                                 std::vector<int> out_frac)
    : co_(co), ci_(ci), k_(k), out_frac_(std::move(out_frac))
{
    RINGCNN_CHECK(co > 0 && ci > 0 && k > 0 && k % 2 == 1,
                  "quantized conv needs positive dims and odd k");
    RINGCNN_CHECK(w.size() == static_cast<size_t>(co) * ci * k * k,
                  "quantized conv weight count mismatch");
    RINGCNN_CHECK(bias.size() == static_cast<size_t>(co) &&
                      out_frac_.size() == static_cast<size_t>(co),
                  "quantized conv needs per-output-channel bias and frac");
    w8_.resize(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
        if (w[i] < -128 || w[i] > 127) fits_ = false;
        w8_[i] = static_cast<int8_t>(
            std::clamp(w[i], INT32_C(-128), INT32_C(127)));
    }
    // Fault site: a bit flip in the pre-quantized weight store, before
    // the pair-tap tables compile from it (so the corruption reaches
    // the compiled taps).
    uint64_t fault_token;
    if (util::fault_check("int8.weights", &fault_token)) {
        util::fault_flip_bit(w8_.data(), w8_.size(), fault_token);
    }
    bias_.resize(bias.size());
    abs_sum_.assign(static_cast<size_t>(co), 0.0);
    for (int oc = 0; oc < co; ++oc) {
        const int64_t b = bias[static_cast<size_t>(oc)];
        if (b < INT32_MIN || b > INT32_MAX) fits_ = false;
        bias_[static_cast<size_t>(oc)] = static_cast<int32_t>(
            std::clamp<int64_t>(b, INT32_MIN, INT32_MAX));
        double s = 0.0;
        const size_t base = static_cast<size_t>(oc) * ci * k * k;
        for (size_t t = 0; t < static_cast<size_t>(ci) * k * k; ++t) {
            s += std::abs(static_cast<double>(w[base + t]));
        }
        abs_sum_[static_cast<size_t>(oc)] = s;
    }

    // Output-use signature of each input channel: the output channels
    // with a nonzero weight on it. Channels with equal signatures pair
    // in order (a component-wise ring's tuple t with tuple t+1 of the
    // same component), so the packed pairs rarely carry a zero half;
    // the leftovers pair in order, an odd one out with zero. A channel
    // no output reads is never staged.
    const size_t kk = static_cast<size_t>(k) * k;
    std::vector<std::vector<bool>> sig(static_cast<size_t>(ci),
                                       std::vector<bool>(co, false));
    for (int oc = 0; oc < co; ++oc) {
        for (int ic = 0; ic < ci; ++ic) {
            const int8_t* wt =
                w8_.data() + (static_cast<size_t>(oc) * ci + ic) * kk;
            for (size_t t = 0; t < kk; ++t) {
                if (wt[t] != 0) {
                    sig[static_cast<size_t>(ic)][static_cast<size_t>(oc)] =
                        true;
                } else {
                    ++zero_weights_;
                }
            }
        }
    }
    std::vector<bool> paired(static_cast<size_t>(ci), false);
    std::vector<int> leftovers;
    for (int a = 0; a < ci; ++a) {
        const auto& sa = sig[static_cast<size_t>(a)];
        if (paired[static_cast<size_t>(a)]) continue;
        paired[static_cast<size_t>(a)] = true;
        if (std::find(sa.begin(), sa.end(), true) == sa.end()) continue;
        int b = a + 1;
        while (b < ci && (paired[static_cast<size_t>(b)] ||
                          sig[static_cast<size_t>(b)] != sa)) {
            ++b;
        }
        if (b < ci) {
            paired[static_cast<size_t>(b)] = true;
            pair_a_.push_back(a);
            pair_b_.push_back(b);
        } else {
            leftovers.push_back(a);
        }
    }
    for (size_t i = 0; i < leftovers.size(); i += 2) {
        pair_a_.push_back(leftovers[i]);
        pair_b_.push_back(i + 1 < leftovers.size() ? leftovers[i + 1] : -1);
    }

    // Packed pair taps per output channel; a tap whose two weights are
    // both zero adds nothing and never enters the table.
    tap_off_.assign(static_cast<size_t>(co) + 1, 0);
    for (int oc = 0; oc < co; ++oc) {
        const int8_t* wt = w8_.data() + static_cast<size_t>(oc) * ci * kk;
        for (int p = 0; p < pairs(); ++p) {
            const int a = pair_a_[static_cast<size_t>(p)];
            const int b = pair_b_[static_cast<size_t>(p)];
            for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                    const size_t t = static_cast<size_t>(ky) * k + kx;
                    const int16_t wa = wt[static_cast<size_t>(a) * kk + t];
                    const int16_t wb =
                        b < 0 ? 0 : wt[static_cast<size_t>(b) * kk + t];
                    if (wa == 0 && wb == 0) continue;
                    taps_.push_back({p, ky, kx});
                    tap_w_.push_back(wa);
                    tap_w_.push_back(wb);
                }
            }
        }
        tap_off_[static_cast<size_t>(oc) + 1] =
            static_cast<int64_t>(taps_.size());
    }
}

double
QuantConvKernel::channel_bound(int oc, int in_bits) const
{
    // Bias magnitudes come from the clamped int32 copy; when the int64
    // original did not fit, fits_ is false and int32_safe() already
    // rejects the kernel, so the clamped value cannot understate risk.
    return std::abs(static_cast<double>(bias_[static_cast<size_t>(oc)])) +
           abs_sum_[static_cast<size_t>(oc)] * std::ldexp(1.0, in_bits - 1);
}

double
QuantConvKernel::acc_bound(int in_bits) const
{
    double bound = 0.0;
    for (int oc = 0; oc < co_; ++oc) {
        bound = std::max(bound, channel_bound(oc, in_bits));
    }
    return bound;
}

void
QuantConvKernel::stage(const int16_t* x, int h, int w, int oc0, int oc1,
                       int y0, int y1, Band& band) const
{
    const int pad = k_ / 2;
    band.y0 = y0;
    band.y1 = y1;
    band.w = w;
    band.local.assign(pair_a_.size(), -1);
    for (int64_t t = tap_off_[static_cast<size_t>(oc0)];
         t < tap_off_[static_cast<size_t>(oc1)]; ++t) {
        band.local[static_cast<size_t>(taps_[static_cast<size_t>(t)].pair)] = 0;
    }
    int staged = 0;
    for (int& l : band.local) {
        if (l == 0) l = staged++;
    }
    const int64_t sw = 2 * (static_cast<int64_t>(w) + 2 * pad);  // int16s
    const int64_t sh = static_cast<int64_t>(y1 - y0) + 2 * pad;
    const size_t need = static_cast<size_t>(staged * sh * sw);
    if (band.words.size() < need) band.words.resize(need);
    const int64_t plane = static_cast<int64_t>(h) * w;
    for (int p = 0; p < pairs(); ++p) {
        const int l = band.local[static_cast<size_t>(p)];
        if (l < 0) continue;
        const int16_t* xa = x + pair_a_[static_cast<size_t>(p)] * plane;
        const int b = pair_b_[static_cast<size_t>(p)];
        const int16_t* xb = b < 0 ? nullptr : x + b * plane;
        int16_t* dst = band.words.data() + l * sh * sw;
        for (int64_t r = 0; r < sh; ++r, dst += sw) {
            const int64_t y = y0 - pad + r;
            if (y < 0 || y >= h) {
                std::fill_n(dst, sw, static_cast<int16_t>(0));
                continue;
            }
            std::fill_n(dst, 2 * pad, static_cast<int16_t>(0));
            std::fill_n(dst + sw - 2 * pad, 2 * pad, static_cast<int16_t>(0));
            int16_t* d = dst + 2 * pad;
            const int16_t* ra = xa + y * w;
            if (xb != nullptr) {
                const int16_t* rb = xb + y * w;
                for (int i = 0; i < w; ++i) {
                    d[2 * i] = ra[i];
                    d[2 * i + 1] = rb[i];
                }
            } else {
                for (int i = 0; i < w; ++i) {
                    d[2 * i] = ra[i];
                    d[2 * i + 1] = 0;
                }
            }
        }
    }
}

void
QuantConvKernel::conv_band(Band& band, int oc, int32_t* dst) const
{
    const int pad = k_ / 2;
    const int w = band.w;
    const int bh = band.y1 - band.y0;
    const int64_t sw = static_cast<int64_t>(w) + 2 * pad;  // pair words
    const int64_t plane = (static_cast<int64_t>(bh) + 2 * pad) * sw;
    const int64_t t0 = tap_off_[static_cast<size_t>(oc)];
    const int ntaps =
        static_cast<int>(tap_off_[static_cast<size_t>(oc) + 1] - t0);
    // Output (y, x) reads staged row (y - y0) + ky, column x + kx.
    band.offsets.resize(static_cast<size_t>(ntaps));
    for (int t = 0; t < ntaps; ++t) {
        const PairTap& pt = taps_[static_cast<size_t>(t0 + t)];
        band.offsets[static_cast<size_t>(t)] =
            band.local[static_cast<size_t>(pt.pair)] * plane + pt.ky * sw +
            pt.kx;
    }
    std::fill_n(dst, static_cast<size_t>(bh) * w,
                bias_[static_cast<size_t>(oc)]);
    if (ntaps == 0) return;  // the band may have staged nothing
    const int16_t* coeffs = tap_w_.data() + 2 * t0;
    for (int r = 0; r < bh; ++r) {
        simd::madd_rows_i16(dst + static_cast<int64_t>(r) * w,
                            band.words.data() + 2 * r * sw,
                            band.offsets.data(), coeffs, ntaps, w);
    }
}

uint64_t
weights_fingerprint(const RingConvWeights& w, const std::vector<float>& bias)
{
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    auto mix = [&h](const void* p, size_t bytes) {
        const unsigned char* c = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < bytes; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    };
    const int dims[4] = {w.co_t, w.ci_t, w.k, w.n};
    mix(dims, sizeof dims);
    const size_t nb = bias.size();
    mix(&nb, sizeof nb);
    mix(w.w.data(), w.w.size() * sizeof(float));
    mix(bias.data(), bias.size() * sizeof(float));
    return h;
}

}  // namespace ringcnn

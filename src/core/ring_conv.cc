#include "core/ring_conv.h"

#include <algorithm>

#include "tensor/image_ops.h"
#include "util/check.h"

namespace ringcnn {

Tensor
expand_to_real(const Ring& ring, const RingConvWeights& w)
{
    Tensor out;
    expand_to_real_into(ring, w, out);
    return out;
}

void
expand_to_real_into(const Ring& ring, const RingConvWeights& w, Tensor& out)
{
    const int n = ring.n;
    RINGCNN_CHECK(w.n == n, "ring weights built for n=" +
                                std::to_string(w.n) + " but ring '" +
                                ring.name + "' has n=" + std::to_string(n));
    out.reset({w.co_t * n, w.ci_t * n, w.k, w.k});
    for (int co = 0; co < w.co_t; ++co) {
        for (int ci = 0; ci < w.ci_t; ++ci) {
            for (int ky = 0; ky < w.k; ++ky) {
                for (int kx = 0; kx < w.k; ++kx) {
                    for (int i = 0; i < n; ++i) {
                        for (int j = 0; j < n; ++j) {
                            double acc = 0.0;
                            for (int k = 0; k < n; ++k) {
                                const int m = ring.mult.at(i, k, j);
                                if (m != 0) acc += m * w.at(co, ci, ky, kx, k);
                            }
                            out.at(co * n + i, ci * n + j, ky, kx) =
                                static_cast<float>(acc);
                        }
                    }
                }
            }
        }
    }
}

RingConvWeights
project_from_real_grad(const Ring& ring, const Tensor& real_grad)
{
    const int n = ring.n;
    RINGCNN_CHECK(real_grad.rank() == 4 && real_grad.dim(0) % n == 0 &&
                      real_grad.dim(1) % n == 0,
                  "real weight gradient must be [co_t*n][ci_t*n][k][k], got " +
                      real_grad.shape_str() + " for n=" + std::to_string(n));
    RingConvWeights g(real_grad.dim(0) / n, real_grad.dim(1) / n,
                      real_grad.dim(2), n);
    project_from_real_grad_accum(ring, real_grad, g);
    return g;
}

void
project_from_real_grad_accum(const Ring& ring, const Tensor& real_grad,
                             RingConvWeights& out)
{
    const int n = ring.n;
    RINGCNN_CHECK(real_grad.rank() == 4 &&
                      real_grad.dim(0) == out.co_t * n &&
                      real_grad.dim(1) == out.ci_t * n &&
                      real_grad.dim(2) == out.k && out.n == n,
                  "real weight gradient must be [co_t*n][ci_t*n][k][k] "
                  "matching the accumulator, got " + real_grad.shape_str() +
                      " for n=" + std::to_string(n));
    const int co_t = out.co_t;
    const int ci_t = out.ci_t;
    const int k = out.k;
    for (int co = 0; co < co_t; ++co) {
        for (int ci = 0; ci < ci_t; ++ci) {
            for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                    for (int kk = 0; kk < n; ++kk) {
                        double acc = 0.0;
                        for (int i = 0; i < n; ++i) {
                            for (int j = 0; j < n; ++j) {
                                const int m = ring.mult.at(i, kk, j);
                                if (m != 0) {
                                    acc += m * real_grad.at(co * n + i,
                                                            ci * n + j, ky, kx);
                                }
                            }
                        }
                        out.at(co, ci, ky, kx, kk) +=
                            static_cast<float>(acc);
                    }
                }
            }
        }
    }
}

Tensor
ring_conv_reference(const Ring& ring, const Tensor& x,
                    const RingConvWeights& w, const std::vector<float>& bias)
{
    RINGCNN_CHECK(x.rank() == 3 && x.dim(0) == w.ci_t * ring.n,
                  "RCONV input must be [ci_t*n][H][W]=[" +
                      std::to_string(w.ci_t * ring.n) + "][H][W], got " +
                      x.shape_str());
    RINGCNN_CHECK(bias.empty() ||
                      static_cast<int>(bias.size()) == w.co_t * ring.n,
                  "bias must be empty or co_t*n=" +
                      std::to_string(w.co_t * ring.n) + " entries, got " +
                      std::to_string(bias.size()));
    return conv2d_same(x, expand_to_real(ring, w), bias);
}

void
check_frconv_weights(const Ring& ring, const RingConvWeights& w,
                     const std::vector<float>& bias)
{
    const int n = ring.n;
    RINGCNN_CHECK(w.n == n, "ring weights built for n=" +
                                std::to_string(w.n) + " but ring '" +
                                ring.name + "' has n=" + std::to_string(n));
    RINGCNN_CHECK(w.co_t > 0 && w.ci_t > 0,
                  "ring weights need positive tuple channel counts");
    RINGCNN_CHECK(w.k > 0 && w.k % 2 == 1,
                  "kernel size must be odd and positive, got " +
                      std::to_string(w.k));
    RINGCNN_CHECK(bias.empty() ||
                      static_cast<int>(bias.size()) == w.co_t * n,
                  "bias must be empty or co_t*n=" +
                      std::to_string(w.co_t * n) + " entries, got " +
                      std::to_string(bias.size()));
}

void
check_frconv_input(const Tensor& x, int ci_t, int n)
{
    RINGCNN_CHECK(x.rank() == 3, "FRCONV input must be a CHW tensor, got " +
                                     x.shape_str());
    RINGCNN_CHECK(x.dim(0) == ci_t * n,
                  "FRCONV input has " + std::to_string(x.dim(0)) +
                      " channels but the weights expect ci_t*n=" +
                      std::to_string(ci_t * n));
}

Tensor
ring_conv_fast(const Ring& ring, const Tensor& x, const RingConvWeights& w,
               const std::vector<float>& bias)
{
    check_frconv_weights(ring, w, bias);
    check_frconv_input(x, w.ci_t, ring.n);

    const int n = ring.n;
    const int m = ring.fast.m();
    const int ci_t = x.dim(0) / n;
    const int h = x.dim(1), wd = x.dim(2);
    const Matd& tg = ring.fast.tg;
    const Matd& tx = ring.fast.tx;
    const Matd& tz = ring.fast.tz;
    const int pad = w.k / 2;

    // Data transform, eq. (6): xt[t*m+r] = sum_j Tx[r][j] x[t*n+j].
    Tensor xt({ci_t * m, h, wd});
    for (int t = 0; t < ci_t; ++t) {
        for (int r = 0; r < m; ++r) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < wd; ++xx) {
                    double acc = 0.0;
                    for (int j = 0; j < n; ++j) {
                        const double c = tx.at(r, j);
                        if (c != 0.0) acc += c * x.at(t * n + j, y, xx);
                    }
                    xt.at(t * m + r, y, xx) = static_cast<float>(acc);
                }
            }
        }
    }

    // Filter transform, eq. (6): gt[r] = sum_k Tg[r][k] g_k.
    std::vector<double> gt(static_cast<size_t>(w.co_t) * ci_t * w.k * w.k * m);
    auto gt_at = [&](int co, int ci, int ky, int kx, int r) -> double& {
        return gt[(((static_cast<size_t>(co) * ci_t + ci) * w.k + ky) * w.k +
                   kx) * m + r];
    };
    for (int co = 0; co < w.co_t; ++co) {
        for (int ci = 0; ci < ci_t; ++ci) {
            for (int ky = 0; ky < w.k; ++ky) {
                for (int kx = 0; kx < w.k; ++kx) {
                    for (int r = 0; r < m; ++r) {
                        double acc = 0.0;
                        for (int k = 0; k < n; ++k) {
                            acc += tg.at(r, k) * w.at(co, ci, ky, kx, k);
                        }
                        gt_at(co, ci, ky, kx, r) = acc;
                    }
                }
            }
        }
    }

    // Component-wise convolutions accumulated over input tuples
    // (eq. (7)), then the reconstruction transform plus bias (eq. (8)).
    Tensor out({w.co_t * n, h, wd});
    std::vector<double> acc(static_cast<size_t>(m));
    for (int co = 0; co < w.co_t; ++co) {
        for (int y = 0; y < h; ++y) {
            for (int xx = 0; xx < wd; ++xx) {
                std::fill(acc.begin(), acc.end(), 0.0);
                for (int ci = 0; ci < ci_t; ++ci) {
                    for (int ky = 0; ky < w.k; ++ky) {
                        const int iy = y + ky - pad;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < w.k; ++kx) {
                            const int ix = xx + kx - pad;
                            if (ix < 0 || ix >= wd) continue;
                            for (int r = 0; r < m; ++r) {
                                acc[static_cast<size_t>(r)] +=
                                    gt_at(co, ci, ky, kx, r) *
                                    xt.at(ci * m + r, iy, ix);
                            }
                        }
                    }
                }
                for (int i = 0; i < n; ++i) {
                    double z = bias.empty()
                                   ? 0.0
                                   : bias[static_cast<size_t>(co * n + i)];
                    for (int r = 0; r < m; ++r) {
                        z += tz.at(i, r) * acc[static_cast<size_t>(r)];
                    }
                    out.at(co * n + i, y, xx) = static_cast<float>(z);
                }
            }
        }
    }
    return out;
}

Tensor
directional_relu(const Matd& u, const Matd& v, const Tensor& x)
{
    const int n = v.cols();
    const int c = x.dim(0), h = x.dim(1), w = x.dim(2);
    RINGCNN_CHECK(u.rows() == n && u.cols() == n && v.rows() == n,
                  "directional ReLU transforms must be square n x n");
    RINGCNN_CHECK(c % n == 0, "channel count " + std::to_string(c) +
                                  " is not a multiple of the tuple size " +
                                  std::to_string(n));
    Tensor out({c, h, w});
    // Scratch tuples hoisted out of the spatial loops.
    std::vector<double> y(static_cast<size_t>(n));
    std::vector<double> r(static_cast<size_t>(n));
    for (int t = 0; t < c / n; ++t) {
        for (int yy = 0; yy < h; ++yy) {
            for (int xx = 0; xx < w; ++xx) {
                for (int i = 0; i < n; ++i) {
                    y[static_cast<size_t>(i)] = x.at(t * n + i, yy, xx);
                }
                // v-rotate, rectify, u-rotate back
                for (int i = 0; i < n; ++i) {
                    double acc = 0.0;
                    for (int j = 0; j < n; ++j) {
                        acc += v.at(i, j) * y[static_cast<size_t>(j)];
                    }
                    r[static_cast<size_t>(i)] = acc > 0.0 ? acc : 0.0;
                }
                for (int i = 0; i < n; ++i) {
                    double acc = 0.0;
                    for (int j = 0; j < n; ++j) {
                        acc += u.at(i, j) * r[static_cast<size_t>(j)];
                    }
                    out.at(t * n + i, yy, xx) = static_cast<float>(acc);
                }
            }
        }
    }
    return out;
}

std::pair<Matd, Matd>
fh_transforms(int n)
{
    Matd h = hadamard(n);
    Matd u = h;
    u *= 1.0 / n;
    return {u, h};
}

std::pair<Matd, Matd>
fo4_transforms()
{
    const Matd o = householder_o4();
    return {o.inverse(), o};
}

}  // namespace ringcnn

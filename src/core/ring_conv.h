/**
 * @file
 * Ring-tensor convolution: RCONV (paper eq. (11)) and its fast form
 * FRCONV (eq. (12)).
 *
 * Conventions: a feature map with Ct tuple channels of an n-tuple ring
 * is stored as an ordinary CHW tensor with C = Ct * n real channels;
 * real channel index c = t * n + component. Ring weights keep the n
 * degrees of freedom per (output tuple, input tuple, tap) explicitly.
 */
#ifndef RINGCNN_CORE_RING_CONV_H
#define RINGCNN_CORE_RING_CONV_H

#include "core/ring.h"
#include "tensor/tensor.h"

namespace ringcnn {

/** Ring convolution weights: g[co][ci][ky][kx] is an n-tuple. */
struct RingConvWeights
{
    int co_t = 0;  ///< output tuple channels
    int ci_t = 0;  ///< input tuple channels
    int k = 0;     ///< kernel size (odd)
    int n = 0;     ///< ring dimension
    std::vector<float> w;  ///< [co][ci][ky][kx][comp], row-major

    RingConvWeights() = default;
    RingConvWeights(int co, int ci, int kk, int nn)
        : co_t(co), ci_t(ci), k(kk), n(nn),
          w(static_cast<size_t>(co) * ci * kk * kk * nn, 0.0f)
    {
    }

    float& at(int co, int ci, int ky, int kx, int comp)
    {
        return w[(((static_cast<size_t>(co) * ci_t + ci) * k + ky) * k + kx) *
                     n + comp];
    }
    float at(int co, int ci, int ky, int kx, int comp) const
    {
        return w[(((static_cast<size_t>(co) * ci_t + ci) * k + ky) * k + kx) *
                     n + comp];
    }

    int64_t numel() const { return static_cast<int64_t>(w.size()); }
};

/**
 * Expands ring weights to the isomorphic real-valued weight tensor
 * [co_t*n][ci_t*n][k][k]: the block (co, ci) tap (ky, kx) becomes the
 * isomorphic matrix G of its n-tuple (eq. (4)). Training and reference
 * inference run through this expansion.
 */
Tensor expand_to_real(const Ring& ring, const RingConvWeights& w);

/**
 * Allocation-free expand_to_real: writes the expansion into `out`,
 * reshaping it in place (buffer capacity is reused once warm). The
 * training forward pass calls this once per sample, so the per-call
 * tensor allocation of the returning variant is worth hoisting.
 */
void expand_to_real_into(const Ring& ring, const RingConvWeights& w,
                         Tensor& out);

/**
 * Adjoint of expand_to_real: folds a gradient w.r.t. the expanded real
 * weights back onto the n ring degrees of freedom:
 * dL/dg_k = sum_{i,j} M[i][k][j] dL/dW[co*n+i][ci*n+j].
 */
RingConvWeights project_from_real_grad(const Ring& ring,
                                       const Tensor& real_grad);

/**
 * Allocation-free adjoint: ACCUMULATES the folded gradient into `out`
 * (which must already have the matching co_t/ci_t/k/n geometry) — the
 * shape RingConv2d::backward needs, with no temporary RingConvWeights.
 */
void project_from_real_grad_accum(const Ring& ring, const Tensor& real_grad,
                                  RingConvWeights& out);

/**
 * RCONV via the isomorphism: expand to real weights and run the golden
 * real-valued convolution ("same" padding). Shape mismatches throw
 * std::invalid_argument.
 * @param bias per real output channel (co_t * n), may be empty.
 */
Tensor ring_conv_reference(const Ring& ring, const Tensor& x,
                           const RingConvWeights& w,
                           const std::vector<float>& bias);

/**
 * Argument checks every FRCONV implementation shares, so the oracle
 * and RingConvEngine reject the same misuse. check_frconv_weights
 * wants weights built for the ring's n, positive tuple counts, an odd
 * k, and a bias that is empty or co_t*n long; check_frconv_input wants
 * a CHW tensor of ci_t*n channels. Both throw std::invalid_argument.
 */
void check_frconv_weights(const Ring& ring, const RingConvWeights& w,
                          const std::vector<float>& bias);
void check_frconv_input(const Tensor& x, int ci_t, int n);

/**
 * FRCONV (eq. (12)): transform the input once per tuple, run m
 * component-wise 2-D convolutions per channel pair, accumulate over
 * input tuples, then apply the reconstruction transform once.
 *
 * The fp64 FRCONV oracle: the seed's serial per-pixel loop nest, with
 * every transform and accumulation in double and one rounding to float
 * per stored value. Apart from the argument checks above it shares
 * no code with RingConvEngine (core/ring_conv_engine.h), the fp32
 * production path it pins, and it accepts rings of any m. It
 * multiplies every transformed filter tap, zeros included, so an
 * Inf/NaN activation spreads exactly as in the seed. Shape mismatches
 * throw std::invalid_argument.
 */
Tensor ring_conv_fast(const Ring& ring, const Tensor& x,
                      const RingConvWeights& w,
                      const std::vector<float>& bias);

/**
 * Applies the directional ReLU fH (eq. (10), orthonormal convention):
 * y -> (1/n) H fcw(H y) per n-tuple at every spatial position.
 * Passing u/v = identity degrades to the component-wise ReLU.
 */
Tensor directional_relu(const Matd& u, const Matd& v, const Tensor& x);

/** Multiplicity-n Hadamard pair (U = H/n, V = H) for fH. */
std::pair<Matd, Matd> fh_transforms(int n);

/** The (U = O^-1, V = O) pair for fO4. */
std::pair<Matd, Matd> fo4_transforms();

}  // namespace ringcnn

#endif  // RINGCNN_CORE_RING_CONV_H

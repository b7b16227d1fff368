/**
 * @file
 * Transform-based fast ring multiplication (paper eqs. (6)-(8)):
 *
 *   filter/data transform:     g~ = Tg g,  x~ = Tx x      (m-tuples)
 *   component-wise product:    z~ = g~ o x~               (m real mults)
 *   reconstruction transform:  z  = Tz z~
 *
 * plus constructors for every algorithm family used in the paper:
 * identity (RI), diagonalizer-based (RH/RO4, Theorem A.1), the 3-mult
 * complex algorithm, the 5-mult cyclic-4 algorithm (real DFT), diagonal
 * +/-1 twists (relating RH4-I to RH4-II / RO4-I / RO4-II), and a linear
 * solver that recovers Tz from a candidate (Tg, Tx) pair.
 */
#ifndef RINGCNN_CORE_FAST_ALGORITHM_H
#define RINGCNN_CORE_FAST_ALGORITHM_H

#include <optional>
#include <random>

#include "core/indexing_tensor.h"
#include "core/linalg.h"

namespace ringcnn {

/** A bilinear fast algorithm z = Tz((Tg g) o (Tx x)). */
struct FastAlgorithm
{
    Matd tg;  ///< m x n filter transform
    Matd tx;  ///< m x n data transform
    Matd tz;  ///< n x m reconstruction transform

    /** Number of real-valued multiplications. */
    int m() const { return tg.rows(); }
    int n() const { return tg.cols(); }

    /** Computes z = Tz((Tg g) o (Tx x)). */
    std::vector<double> multiply(const std::vector<double>& g,
                                 const std::vector<double>& x) const;

    /**
     * Max absolute error versus the bilinear form of M over `trials`
     * random inputs. Use as an equivalence check (expect < 1e-9).
     */
    double verify(const IndexingTensor& m, std::mt19937& rng,
                  int trials = 64) const;
};

/** RI identity algorithm: Tg = Tx = Tz = I, m = n. */
FastAlgorithm fast_identity(int n);

/**
 * Theorem A.1(b): a ring whose isomorphic matrices satisfy
 * G = T^{-1} diag(T g) T gets the minimal m = n algorithm
 * Tg = T, Tx = T, Tz = T^{-1}.
 */
FastAlgorithm fast_from_diagonalizer(const Matd& t);

/** 3-multiplication complex product (Karatsuba-style). */
FastAlgorithm fast_complex_3mult();

/**
 * 5-multiplication length-4 cyclic convolution via the real DFT:
 * the two real bins need one multiplication each and the conjugate
 * complex bin uses the 3-mult complex product.
 */
FastAlgorithm fast_cyclic4_5mult();

/** 10-multiplication exact Hamilton quaternion product.
 *  (The theoretical grank is 8 [Howell-Lafon 1975]; this is the compact
 *  exact scheme we ship.) */
FastAlgorithm fast_quaternion_10mult();

/**
 * Conjugates an algorithm by a diagonal +/-1 twist D = diag(tau):
 * if z = g.x in ring M, then D^{-1}((Dg) .M (Dx)) is the product of the
 * tau-twisted ring. Used to derive RH4-II/RO4-I/RO4-II from RH4-I.
 */
FastAlgorithm fast_diagonal_twist(const FastAlgorithm& base,
                                  const std::vector<double>& tau);

/**
 * Given candidate transforms (Tg, Tx), solves for the reconstruction Tz
 * such that the algorithm equals the bilinear form M. Returns nullopt
 * if no exact Tz exists (residual > 1e-8).
 */
std::optional<FastAlgorithm> solve_reconstruction(const IndexingTensor& m,
                                                  const Matd& tg,
                                                  const Matd& tx);

/**
 * Structure of the commutative algebra defined by M (via the eigenvalues
 * of a generic element): the number of real eigenvalues and complex
 * conjugate pairs. For a semisimple commutative algebra over R this
 * determines grank = reals + 3 * pairs (products of R and C factors).
 */
struct AlgebraDecomposition
{
    int real_eigs = 0;       ///< count of 1-dim real factors
    int complex_pairs = 0;   ///< count of C factors
    bool semisimple = false; ///< generic element diagonalizable & distinct
    /** grank = real_eigs + 3 * complex_pairs (only valid if semisimple). */
    int grank() const { return real_eigs + 3 * complex_pairs; }
};

/** Decomposes the commutative algebra of M using a random generic element. */
AlgebraDecomposition decompose_algebra(const IndexingTensor& m,
                                       std::mt19937& rng);

/**
 * Derives a fast algorithm with m = real + 3*pairs multiplications for a
 * commutative semisimple ring by simultaneous diagonalization of the
 * regular representation. Works for any ring found by the search; the
 * transform entries are real but not necessarily +/-1.
 */
std::optional<FastAlgorithm> derive_semisimple(const IndexingTensor& m,
                                               std::mt19937& rng);

}  // namespace ringcnn

#endif  // RINGCNN_CORE_FAST_ALGORITHM_H

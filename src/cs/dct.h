/**
 * @file
 * Orthonormal DCT-II transforms (1-D and separable 2-D) and the
 * sampled measurement operator of the CS solve.
 *
 * The DCT is the sparsifying basis Psi of the paper's compressed
 * sensing formulation (Appendix A): VQA landscapes are periodic and
 * smooth, so their energy concentrates in a handful of low-frequency
 * DCT coefficients (Table 4). We use the orthonormal scaling so the
 * transform matrix satisfies Psi^T Psi = I, which makes the FISTA
 * gradient step exactly the adjoint transform and gives the
 * measurement operator unit spectral norm.
 *
 * Transforms are direct O(n^2) products with a precomputed cosine
 * table. The 2-D transform runs as two passes over the whole (rows x
 * cols) array: a column-axis pass (every row times the cols x cols
 * basis) and then a row-axis pass (the rows x rows basis times the
 * whole array), each one matrix product accumulated in register tiles
 * of 3 output rows by 8 output columns.
 *
 * SampledDct2d is the CS operator A = Sample_Omega o IDCT2 and its
 * adjoint A^T = DCT2 o Scatter_Omega, evaluated only where samples
 * exist: apply() gathers the inverse at the samples instead of
 * finishing the row-axis pass over the whole grid, and adjoint()
 * scatters each sample straight into the column-axis result instead
 * of transforming a mostly-zero grid.
 *
 * Bit-identity invariant (a later change must keep it, or knowingly
 * break it behind the solver accuracy gate): every output element is
 * the sum of the same products, basis entry times input, added in
 * ascending index order onto an accumulator that starts at +0.0 --
 * exactly what Dct1d::forward/inverse applied row by row and then
 * column by column compute. Terms may be skipped only when they are
 * exact zeros: under round-to-nearest an accumulator that starts at
 * +0.0 never becomes -0.0, so adding +-0 never changes it. No
 * reassociation, no FMA contraction (this code must not be routed
 * through the -mfma kernel TU), no fast transform.
 */

#ifndef OSCAR_CS_DCT_H
#define OSCAR_CS_DCT_H

#include <cstddef>
#include <vector>

#include "src/common/ndarray.h"

namespace oscar {

/** Precomputed orthonormal 1-D DCT-II of a fixed length. */
class Dct1d
{
  public:
    explicit Dct1d(std::size_t length);

    std::size_t length() const { return n_; }

    /** Forward DCT-II: coefficients from samples. */
    std::vector<double> forward(const std::vector<double>& x) const;

    /** Inverse (DCT-III with orthonormal scaling): samples from
     * coefficients. */
    std::vector<double> inverse(const std::vector<double>& c) const;

    /** Row-major basis: basis()[k*n + j] = a_k cos(pi(2j+1)k/2n). */
    const std::vector<double>& basis() const { return basis_; }

  private:
    std::size_t n_;
    std::vector<double> basis_;
};

/** Separable 2-D orthonormal DCT over a (rows x cols) array. */
class Dct2d
{
  public:
    Dct2d(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rowT_.length(); }
    std::size_t cols() const { return colT_.length(); }

    /** Forward 2-D DCT of a (rows x cols) NdArray. */
    NdArray forward(const NdArray& x) const;

    /** Inverse 2-D DCT of a (rows x cols) coefficient array. */
    NdArray inverse(const NdArray& c) const;

  private:
    friend class SampledDct2d;

    Dct1d rowT_;
    Dct1d colT_;
    std::vector<double> colBasisT_; // colBasisT_[j*cols + k] = Bc[k, j]
};

/**
 * A = Sample_Omega o IDCT2 and A^T for one sample set, built once per
 * solve. Sample values are exchanged in the caller's sample order;
 * internally the samples are visited in row-major grid order. Owns
 * one rows x cols workspace, so apply/adjoint allocate nothing. The
 * Dct2d must outlive the operator.
 */
class SampledDct2d
{
  public:
    /** Throws std::invalid_argument on an out-of-range or duplicate
     * flat row-major index. */
    SampledDct2d(const Dct2d& dct,
                 const std::vector<std::size_t>& sample_index);

    std::size_t samples() const { return order_.size(); }

    /** values[m] = IDCT2(z)[sample_index[m]]. */
    void apply(const NdArray& z, std::vector<double>& values);

    /** coefficients = DCT2 of the grid that is values[m] at
     * sample_index[m] and zero elsewhere. */
    void adjoint(const std::vector<double>& values, NdArray& coefficients);

    /** Column `coefficient` of A: IDCT2 of that unit coefficient at
     * the samples, values[m] = Br[kr, r_m] * Bc[kc, c_m]. */
    void atom(std::size_t coefficient, std::vector<double>& values) const;

  private:
    const Dct2d& dct_;
    std::vector<std::size_t> order_; // caller positions, grid order
    std::vector<std::size_t> index_; // grid index of order_[j]
    std::vector<double> work_;       // column-axis pass result
};

} // namespace oscar

#endif // OSCAR_CS_DCT_H

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
 * The dense 2-D transforms and the adjoint's row-axis pass run through
 * DctPlan, an O(n log n) orthonormal DCT-II/III after Makhoul ("A Fast
 * Cosine Transform in One and Two Dimensions", IEEE TASSP 1980): the
 * input is reordered (even samples ascending, odd samples descending),
 * transformed by an n-point complex FFT and rotated by a quarter-sample
 * twiddle. The FFT is a mixed-radix Stockham autosort over a batch of
 * vectors, with butterflies specialised for radix 2, 3, 4 and 5 and a
 * generic stage for any other prime factor, so every paper grid axis
 * (8 ... 225) is fast. Dct1d keeps the direct O(n^2) product with a
 * precomputed cosine table; the sampled operator's column pass, sample
 * gather and OMP atoms read its basis.
 *
 * SampledDct2d is the CS operator A = Sample_Omega o IDCT2 and its
 * adjoint A^T = DCT2 o Scatter_Omega, evaluated only where samples
 * exist: apply() gathers the inverse at the samples instead of
 * finishing the row-axis pass over the whole grid, and adjoint()
 * scatters each sample straight into the column-axis result instead
 * of transforming a mostly-zero grid. Both are built from pieces over
 * a range of grid rows (column pass, gather, scatter) and a range of
 * row-axis FFT lanes (DctPlan::forwardLanes). Pieces over disjoint
 * ranges write disjoint memory, so a caller may run them concurrently
 * (FISTA does, on the request's ExecutionEngine), and every output
 * element is computed by the same operation sequence however the
 * ranges are cut.
 *
 * Determinism contract: every value is bit-identical per (build, ISA,
 * kCsTransformRevision) -- across calls, threads, processes and row or
 * lane splits, since a plan is immutable after construction and each
 * caller owns its workspace. The fast transforms round differently
 * from the direct products, so they agree with the Dct1d composition
 * only to a rounding bound (tests/test_dct.cpp), and the solvers'
 * reconstruction quality is held by the NRMSE accuracy gate in
 * tests/test_cs_solvers.cpp. apply() and atom() still sum the same
 * products as Dct1d in ascending index order from +0.0 and stay
 * bitwise equal to it. This code stays in the baseline-ISA TU, with no
 * -mfma and no runtime ISA dispatch, so on x86-64 no multiply-add is
 * contracted into an FMA. A change to the floating-point order of any
 * transform bumps kCsTransformRevision.
 */

#ifndef OSCAR_CS_DCT_H
#define OSCAR_CS_DCT_H

#include <cstddef>
#include <cstdint>
#include <utility>
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

/**
 * Revision of the CS transforms' floating-point evaluation order. The
 * landscape store folds it into its key, so a landscape persisted by
 * an older revision is a miss instead of being served against a fresh
 * reconstruct that differs in the last bits. Revision 1 was the direct
 * O(n^2) products; 2 is DctPlan. The solvers' defaults have their own
 * revision, kCsSolverRevision (src/cs/fista.h).
 */
inline constexpr std::uint64_t kCsTransformRevision = 2;

/**
 * Fast orthonormal DCT-II of one length and its transpose, the DCT-III,
 * over a batch of vectors (see the file comment). Element j of vector b
 * lives at data[j * js + b * bs]; contiguous vectors (js = 1) are the
 * strided batch, contiguous batches (bs = 1) the fast case. Two real
 * vectors share one complex FFT lane. Immutable after construction, so
 * one plan may serve many threads, each with its own workspace.
 */
class DctPlan
{
  public:
    explicit DctPlan(std::size_t length);

    /** FFT lanes of a batch: vector b < lanes(batch) shares its lane
     * with vector b + lanes(batch). */
    static std::size_t lanes(std::size_t batch) { return (batch + 1) / 2; }

    /** out = DCT-II of every vector of in; out may alias in. `work` is
     * resized as needed and may be reused across calls. */
    void forward(const double* in, double* out, std::size_t batch,
                 std::size_t js, std::size_t bs,
                 std::vector<double>& work) const;

    /**
     * forward() of the vectors in lanes [lo, hi) only: vectors b and
     * b + lanes(batch) for lo <= b < hi. Each vector's output is
     * bitwise what forward() gives it, and calls over disjoint lane
     * ranges touch disjoint vectors, so they may run concurrently on
     * one (possibly aliased) in/out pair, each with its own `work`.
     */
    void forwardLanes(const double* in, double* out, std::size_t batch,
                      std::size_t js, std::size_t bs, std::size_t lo,
                      std::size_t hi, std::vector<double>& work) const;

    /** out = DCT-III (the inverse) of every vector of in, with the
     * same layout, aliasing and workspace rules as forward(). */
    void inverse(const double* in, double* out, std::size_t batch,
                 std::size_t js, std::size_t bs,
                 std::vector<double>& work) const;

  private:
    /** One FFT stage: its radix and its offsets into twiddle_ and (for
     * a generic radix) roots_. */
    struct Stage
    {
        std::size_t radix;
        std::size_t twiddle;
        std::size_t roots;
    };

    /** FFT of the complex batch (re, im), lanes wide, ping-ponging
     * with (re2, im2); returns the buffer pair holding the result. */
    std::pair<double*, double*> fft(double* re, double* im, double* re2,
                                    double* im2, std::size_t lanes) const;

    std::size_t n_;
    std::vector<Stage> stages_;
    std::vector<double> twiddle_; // (re, im) of W_n^{jt}, per stage
    std::vector<double> roots_;   // (re, im) of W_p^k, generic stages
    std::vector<double> post_;    // forward: a_k/2 (cos, -sin)(pi k/2n)
    std::vector<double> pre_;     // inverse: h_k, h'_k times (cos, sin)
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
    DctPlan rowPlan_;
    DctPlan colPlan_;
};

/**
 * A = Sample_Omega o IDCT2 and A^T for one sample set, built once per
 * solve. Sample values are exchanged in the caller's sample order;
 * internally the samples are visited in row-major grid order. Owns
 * its workspaces: U, the column-axis pass of the last applied
 * iterate, and T, that of the last scattered values, so apply/adjoint
 * allocate nothing after the first adjoint. The Dct2d must outlive
 * the operator.
 *
 * apply() is columnRows() then gatherRows() over every row, and
 * adjoint() is scatterRows() over every row then forwardLanes() over
 * every lane. A solver that splits the rows or lanes into blocks gets
 * bitwise the same values; blocks of one piece may run concurrently,
 * but each piece must finish before one that reads its result.
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

    /** Rows [r0, r1) of U = Z Bc, the column-axis pass of the
     * (rows x cols) iterate z, skipping its zero coefficients. */
    void columnRows(const double* z, std::size_t r0, std::size_t r1);

    /**
     * A z at the samples in grid rows [r0, r1), from U (every row of
     * it): values[m] = IDCT2(z)[sample_index[m]], minus y[m] when y is
     * given. `values` must hold samples() entries.
     */
    void gatherRows(std::size_t r0, std::size_t r1, const double* y,
                    std::vector<double>& values) const;

    /** Rows [r0, r1) of T, the column-axis pass of the grid that is
     * values[m] at sample_index[m] and zero elsewhere. */
    void scatterRows(const std::vector<double>& values, std::size_t r0,
                     std::size_t r1);

    /** FFT lanes of the row-axis pass: lanes() of the cols columns. */
    std::size_t lanes() const { return DctPlan::lanes(dct_.cols()); }

    /** Lanes [lo, hi) of the row-axis forward pass of T into
     * `coefficients` (rows x cols, allocated by the caller). */
    void forwardLanes(std::size_t lo, std::size_t hi, NdArray& coefficients,
                      std::vector<double>& work) const;

  private:
    const Dct2d& dct_;
    std::vector<std::size_t> order_;    // caller positions, grid order
    std::vector<std::size_t> index_;    // grid index of order_[j]
    std::vector<std::size_t> rowStart_; // first j of each row, rows + 1
    std::vector<double> u_;             // column-axis pass of apply()
    std::vector<double> t_;             // column-axis pass of adjoint()
    std::vector<double> fftWork_;       // DctPlan workspace
};

} // namespace oscar

#endif // OSCAR_CS_DCT_H

/**
 * @file
 * Orthogonal Matching Pursuit over the 2-D DCT dictionary.
 *
 * OMP is the greedy alternative to FISTA's convex relaxation: it picks
 * the dictionary atom most correlated with the residual, re-solves the
 * least squares problem restricted to the selected atoms, and repeats.
 * The library ships both solvers so the ablation bench can compare
 * them (README.md "Substitutions", Ablations); FISTA is the default
 * because the paper's landscapes are compressible rather than exactly
 * sparse.
 */

#ifndef OSCAR_CS_OMP_H
#define OSCAR_CS_OMP_H

#include <cstddef>
#include <vector>

#include "src/common/ndarray.h"
#include "src/cs/dct.h"

namespace oscar {

/** OMP configuration. */
struct OmpOptions
{
    /** Maximum number of atoms to select (0 = m / 4 heuristic). */
    std::size_t maxAtoms = 0;

    /** Stop when ||residual|| / ||y|| drops below this. */
    double residualTolerance = 1e-6;
};

/** Result of an OMP solve. */
struct OmpResult
{
    /** DCT coefficients of the reconstruction (rows x cols). */
    NdArray coefficients;

    /** Number of atoms selected. */
    std::size_t atomsSelected = 0;

    /** Final relative residual norm. */
    double relativeResidual = 0.0;
};

/**
 * Solve the 2-D compressed-sensing problem greedily. Parameters match
 * fistaSolve(), except that an off-grid index throws
 * std::invalid_argument. Atoms are gathered at the samples as outer
 * products of two basis rows, bitwise equal to the inverse DCT of a
 * unit coefficient. The least-squares step keeps a Cholesky factor of
 * the selected atoms' Gram matrix, grown by one row per atom, and
 * solves it with two triangular solves; a pivot that is not positive
 * (linearly dependent atoms) throws std::runtime_error.
 */
OmpResult ompSolve(const Dct2d& dct,
                   const std::vector<std::size_t>& sample_index,
                   const std::vector<double>& sample_value,
                   const OmpOptions& options = {});

} // namespace oscar

#endif // OSCAR_CS_OMP_H

/**
 * @file
 * High-level compressed-sensing landscape reconstruction.
 *
 * This is the "Landscape Reconstruction" phase of the OSCAR workflow
 * (paper Fig. 3): given measured values at a subset of grid points,
 * recover the full grid. Grids of any even rank are supported
 * through the paper's concatenation trick (Section 4.2.4): a rank-2k
 * grid is reshaped to 2-D by merging the first k and last k axes
 * before the 2-D DCT solve. An odd rank throws std::invalid_argument.
 */

#ifndef OSCAR_CS_RECONSTRUCTOR_H
#define OSCAR_CS_RECONSTRUCTOR_H

#include <cstddef>
#include <vector>

#include "src/common/ndarray.h"
#include "src/cs/fista.h"
#include "src/cs/omp.h"

namespace oscar {

/** Which L1 solver backs the reconstruction. */
enum class CsSolver
{
    Fista,
    Omp,
};

/** Reconstruction configuration. */
struct CsOptions
{
    CsSolver solver = CsSolver::Fista;
    FistaOptions fista;
    OmpOptions omp;
};

/**
 * Reconstruct a grid of arbitrary even rank 2k by reshaping to
 * (prod of first k extents) x (prod of last k extents). Rank-2 grids
 * pass through unchanged. The returned array has the original shape.
 */
NdArray reconstructLandscape(const std::vector<std::size_t>& shape,
                             const std::vector<std::size_t>& sample_index,
                             const std::vector<double>& sample_value,
                             const CsOptions& options = {});

/** A solve that also exposes its coefficient iterate (folded 2-D). */
struct CsSolveResult
{
    /** DCT coefficients in the folded (rows x cols) shape. */
    NdArray coefficients;

    /** Reconstructed values in the original grid shape. */
    NdArray values;

    /** Solver iterations executed. */
    std::size_t iterations = 0;

    /** FISTA continuation state at exit (FistaResult::lambdaFraction). */
    double lambdaFraction = -1.0;
};

/**
 * reconstructLandscape with the solver's coefficients and counters
 * exposed. A FISTA solve runs its iteration blocks on `engine` (see
 * fistaSolve); the result is bitwise the same with or without it.
 */
CsSolveResult csSolveFolded(const std::vector<std::size_t>& shape,
                            const std::vector<std::size_t>& sample_index,
                            const std::vector<double>& sample_value,
                            const CsOptions& options = {},
                            ExecutionEngine* engine = nullptr);

/** The 2-D shape used internally for a given grid shape. */
std::vector<std::size_t> csFoldedShape(const std::vector<std::size_t>& shape);

} // namespace oscar

#endif // OSCAR_CS_RECONSTRUCTOR_H

/**
 * @file
 * FISTA solver for the LASSO form of the basis-pursuit problem.
 *
 * OSCAR's reconstruction step (paper Eq. 7) is
 *     min ||s||_1   s.t.   y = C Psi s,
 * which we solve in its Lagrangian (LASSO) form
 *     min_s  lambda ||s||_1 + 1/2 ||A s - y||_2^2,
 * with A = Sample_Omega o IDCT2 applied implicitly (never
 * materialized) through SampledDct2d: each iteration evaluates A z
 * only at the samples and A^T r from the samples alone (its row axis
 * through the fast DctPlan), in workspaces allocated once per solve.
 * Results are bit-identical per (build, ISA, kCsTransformRevision) and
 * held to the NRMSE accuracy gate (see dct.h). Because Psi is
 * orthonormal and sampling selects rows, ||A|| <= 1, so a unit
 * gradient step is valid and FISTA needs no line search. A geometric
 * continuation schedule on lambda (standard for basis pursuit) drives
 * the solution toward the constrained problem.
 */

#ifndef OSCAR_CS_FISTA_H
#define OSCAR_CS_FISTA_H

#include <cstddef>
#include <vector>

#include "src/common/ndarray.h"
#include "src/cs/dct.h"

namespace oscar {

/** FISTA configuration. */
struct FistaOptions
{
    /** Maximum proximal-gradient iterations. */
    std::size_t maxIters = 800;

    /** Stop when the relative change of s drops below this. */
    double tolerance = 1e-6;

    /** Initial lambda as a fraction of max |A^T y|. */
    double lambdaInitFraction = 0.5;

    /** Final lambda as a fraction of max |A^T y|. */
    double lambdaFinalFraction = 1e-4;

    /** Iterations between lambda decay steps (factor 0.7). */
    std::size_t continuationEvery = 5;
};

/** Result of a FISTA solve. */
struct FistaResult
{
    /** DCT coefficients of the reconstruction (rows x cols). */
    NdArray coefficients;

    /** Number of iterations executed. */
    std::size_t iterations = 0;

    /** Final residual norm ||A s - y||_2. */
    double residualNorm = 0.0;

    /**
     * Final lambda as a fraction of max |A^T y| -- the continuation
     * state at exit. Feeding it back as `warm_lambda_fraction`
     * resumes the annealing schedule where it left off, so a chain of
     * partial solves (the streaming pipeline's warm-ups) anneals once
     * globally instead of restarting per phase.
     */
    double lambdaFraction = 0.0;
};

/**
 * Solve the 2-D compressed-sensing problem.
 *
 * @param dct          transform pair for the target grid shape
 * @param sample_index flat row-major indices of the measured grid
 *                     points, distinct, in any order (std::out_of_range
 *                     if one is off the grid, std::invalid_argument on a
 *                     repeat)
 * @param sample_value measured landscape values (same length, finite:
 *                     std::invalid_argument on NaN or +-inf)
 * @param options      solver configuration
 * @param warm_start   optional initial coefficient iterate (rows x
 *                     cols). Used by the streaming reconstruction
 *                     pipeline to continue from iterations already run
 *                     on a sample subset while later execution shards
 *                     were still in flight; momentum restarts from the
 *                     given point. Null = cold start from zero.
 * @param warm_lambda_fraction
 *                     continuation state to resume from (a previous
 *                     solve's FistaResult::lambdaFraction). Negative =
 *                     anneal from lambdaInitFraction as usual; with a
 *                     warm start but no fraction the solve begins at
 *                     lambdaFinalFraction (the iterate is assumed
 *                     near-converged).
 */
FistaResult fistaSolve(const Dct2d& dct,
                       const std::vector<std::size_t>& sample_index,
                       const std::vector<double>& sample_value,
                       const FistaOptions& options = {},
                       const NdArray* warm_start = nullptr,
                       double warm_lambda_fraction = -1.0);

/** Soft-thresholding operator applied elementwise (exposed for tests). */
double softThreshold(double x, double threshold);

} // namespace oscar

#endif // OSCAR_CS_FISTA_H

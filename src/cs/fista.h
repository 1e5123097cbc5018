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
 * Because Psi is orthonormal and sampling selects rows, ||A|| <= 1,
 * so a unit gradient step is valid and FISTA needs no line search. A
 * geometric continuation schedule on lambda (standard for basis
 * pursuit) drives the solution toward the constrained problem.
 *
 * Each iteration runs as three blocked regions: gather A z at the
 * samples, subtract y and scatter the residual's column pass (row
 * blocks); the row-axis FFT (lane blocks); soft threshold and momentum
 * fused with the next iterate's column pass (row blocks). Given an
 * ExecutionEngine with more than one thread and a grid of at least
 * kFistaParallelPoints points, the blocks of a region run on the
 * engine; otherwise they run inline in order. Reductions (the
 * residual and the stop test's change and iterate norms) stay serial
 * in index order, so the result -- coefficients, iterations,
 * residualNorm -- is bitwise the same for every engine and thread
 * count, and per (build, ISA, kCsTransformRevision, kCsSolverRevision)
 * as dct.h states; the NRMSE accuracy gate holds its quality.
 *
 * The solve stops once it has converged at the final lambda: every
 * kFistaStopWindow iterations it compares the iterate with the one a
 * window earlier (FistaOptions::tolerance). On the paper's p = 2 folds
 * that ends a solve after ~360-420 iterations instead of maxIters.
 */

#ifndef OSCAR_CS_FISTA_H
#define OSCAR_CS_FISTA_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/ndarray.h"
#include "src/cs/dct.h"

namespace oscar {

class ExecutionEngine;

/** FISTA configuration. */
struct FistaOptions
{
    /** Maximum proximal-gradient iterations. */
    std::size_t maxIters = 800;

    /**
     * Stop when the relative change of s over a window of
     * kFistaStopWindow iterations at the final lambda,
     * ||s - s_window|| / ||s||, drops below this. A per-iteration test
     * cannot tell convergence from a restart. When continuation ends,
     * momentum restarts (t = 1) and the next few steps are tiny, so at
     * a final fraction of 5e-4 a per-iteration test at 1e-4 stopped a
     * 50 x 100 p = 1 landscape at iteration 102 with NRMSE 1.49. Over
     * a window, slow progress still adds up.
     */
    double tolerance = 1e-3;

    /** Initial lambda as a fraction of max |A^T y|. */
    double lambdaInitFraction = 0.5;

    /** Final lambda as a fraction of max |A^T y|. It sets both the
     * quality and how fast the solve converges; 1e-3 is better on the
     * p = 2 folds but 12-54% worse on small p = 1 grids. */
    double lambdaFinalFraction = 3e-4;

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

    /** Final lambda as a fraction of max |A^T y|: the continuation
     * state at exit. */
    double lambdaFraction = 0.0;
};

/**
 * Iterations between two snapshots of the stop test: the first is
 * taken after the first iteration at the final lambda, so no solve
 * stops within its first kFistaStopWindow iterations there.
 */
inline constexpr std::size_t kFistaStopWindow = 20;

/**
 * Revision of the default solve: the solvers' default options and
 * stop rules. The landscape store folds it into its key next to
 * kCsTransformRevision, since a new default moves every stored value.
 * Revision 1 (before the key held it) ran FISTA to
 * lambdaFinalFraction = 1e-4 with a per-iteration stop test at 1e-6;
 * 2 is 3e-4 with the kFistaStopWindow test at 1e-3.
 */
inline constexpr std::uint64_t kCsSolverRevision = 2;

/**
 * Smallest folded grid (rows * cols) whose solve runs its blocks on
 * the engine. On a 4-vCPU host the split pays 2.0-2.4x at 32,400
 * points, 1.1-1.5x at 6,400 and loses below ~5,000.
 */
inline constexpr std::size_t kFistaParallelPoints = 16384;

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
 * @param engine       runs each iteration's blocks when it has more
 *                     than one thread and the grid has at least
 *                     kFistaParallelPoints points; null = inline. The
 *                     result does not depend on it.
 */
FistaResult fistaSolve(const Dct2d& dct,
                       const std::vector<std::size_t>& sample_index,
                       const std::vector<double>& sample_value,
                       const FistaOptions& options = {},
                       ExecutionEngine* engine = nullptr);

/** Soft-thresholding operator applied elementwise (exposed for tests). */
double softThreshold(double x, double threshold);

} // namespace oscar

#endif // OSCAR_CS_FISTA_H

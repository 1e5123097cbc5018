/**
 * @file
 * Random parameter sampling (the first OSCAR phase, paper Fig. 3).
 *
 * OSCAR draws grid points uniformly at random without replacement,
 * evaluates the circuit only there, and hands the (index, value) pairs
 * to the CS reconstructor. Samplers exist both for live cost functions
 * and for pre-computed landscapes (the hardware-dataset experiments,
 * where the "execution" is a lookup).
 *
 * Evaluation goes through the engine's asynchronous submission API:
 * submitGridIndices() returns an in-flight GridBatch so pipelines can
 * keep several batches executing while they fit or schedule (NCM
 * training runs both devices at once); the synchronous helpers are
 * the submit-then-collect composition.
 */

#ifndef OSCAR_LANDSCAPE_SAMPLER_H
#define OSCAR_LANDSCAPE_SAMPLER_H

#include <cstddef>
#include <vector>

#include "src/backend/engine.h"
#include "src/backend/executor.h"
#include "src/common/rng.h"
#include "src/landscape/grid.h"
#include "src/landscape/landscape.h"

namespace oscar {

/** A set of measured grid points. */
struct SampleSet
{
    std::vector<std::size_t> indices;
    std::vector<double> values;

    /** Execution counters of the batches that produced `values`. */
    BatchStats stats;

    std::size_t size() const { return indices.size(); }
};

/** Number of samples implied by a sampling fraction of a grid. */
std::size_t sampleCount(const GridSpec& grid, double fraction);

/** Choose sample indices uniformly without replacement. */
std::vector<std::size_t> chooseSampleIndices(std::size_t num_points,
                                             double fraction, Rng& rng);

/**
 * An in-flight asynchronous evaluation of grid indices. Submission
 * position j evaluates indices[perm[j]]; collect() blocks and returns
 * values positionally aligned with the original `indices`.
 */
struct GridBatch
{
    BatchHandle handle;
    std::vector<std::size_t> perm;

    /** handle.get() scattered back to the caller's index order. */
    std::vector<double> collect();
};

/**
 * Submit `indices` for evaluation as one asynchronous batch in
 * prefix-friendly submission order: axis-major when the backend
 * publishes a batch order hint (and its arity matches the grid), so
 * consecutive points share the longest simulation prefix. Queries/ordinals are reserved on
 * `cost` at submission, so interleaving several GridBatches is
 * deterministic (see engine.h).
 */
GridBatch submitGridIndices(const GridSpec& grid, CostFunction& cost,
                            const std::vector<std::size_t>& indices,
                            ExecutionEngine* engine = nullptr,
                            SubmitOptions options = {});

/**
 * Sample a live cost function at `fraction` of the grid points chosen
 * uniformly at random. The index batch is submitted to `engine`
 * (serial when null); results are positional, so the outcome is
 * bit-identical for any thread count.
 */
SampleSet sampleCost(const GridSpec& grid, CostFunction& cost,
                     double fraction, Rng& rng,
                     ExecutionEngine* engine = nullptr);

/**
 * Evaluate a live cost function at specific grid indices as one batch
 * through the engine, returning values positionally aligned with
 * `indices` (submitGridIndices + collect).
 */
std::vector<double> evaluateGridIndices(
    const GridSpec& grid, CostFunction& cost,
    const std::vector<std::size_t>& indices,
    ExecutionEngine* engine = nullptr);

/**
 * Evaluate a live cost function at specific grid indices as one batch
 * through the engine (evaluateGridIndices wrapped in a SampleSet,
 * execution stats included). `options` is forwarded to the submission
 * (streaming onComplete callbacks fire per completed point, in
 * submission order -- i.e. prefix-friendly order, not index order).
 */
SampleSet gatherCost(const GridSpec& grid, CostFunction& cost,
                     const std::vector<std::size_t>& indices,
                     ExecutionEngine* engine = nullptr,
                     SubmitOptions options = {});

/** Sample a precomputed landscape (dataset replay). */
SampleSet sampleLandscape(const Landscape& landscape, double fraction,
                          Rng& rng, ExecutionEngine* engine = nullptr);

/** Look up specific indices of a precomputed landscape. */
SampleSet gatherLandscape(const Landscape& landscape,
                          const std::vector<std::size_t>& indices,
                          ExecutionEngine* engine = nullptr);

} // namespace oscar

#endif // OSCAR_LANDSCAPE_SAMPLER_H

#include "src/landscape/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace oscar {

namespace {

/**
 * Submission order for `indices` on `cost`: a permutation of positions
 * into `indices`, prefix-friendly axis-major when the backend
 * publishes a batch order hint (and its arity matches the grid),
 * identity otherwise. Results are scattered back, so the (index,
 * value) pairing never depends on it.
 */
std::vector<std::size_t>
prefixSubmissionOrder(const GridSpec& grid, const CostFunction& cost,
                      const std::vector<std::size_t>& indices)
{
    const std::vector<int> hint = cost.batchOrderHint();
    if (!hint.empty() &&
        grid.rank() == static_cast<std::size_t>(cost.numParams()))
        return grid.prefixFriendlyPermutation(indices, hint);
    std::vector<std::size_t> identity(indices.size());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    return identity;
}

} // namespace

std::size_t
sampleCount(const GridSpec& grid, double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        throw std::invalid_argument("sampleCount: fraction out of (0, 1]");
    const auto n = static_cast<double>(grid.numPoints());
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(fraction * n)));
}

std::vector<std::size_t>
chooseSampleIndices(std::size_t num_points, double fraction, Rng& rng)
{
    if (fraction <= 0.0 || fraction > 1.0)
        throw std::invalid_argument(
            "chooseSampleIndices: fraction out of (0, 1]");
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(fraction * static_cast<double>(num_points))));
    auto idx = rng.sampleWithoutReplacement(num_points, k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

SampleSet
sampleCost(const GridSpec& grid, CostFunction& cost, double fraction,
           Rng& rng, ExecutionEngine* engine)
{
    return gatherCost(grid, cost,
                      chooseSampleIndices(grid.numPoints(), fraction, rng),
                      engine);
}

GridBatch
submitGridIndices(const GridSpec& grid, CostFunction& cost,
                  const std::vector<std::size_t>& indices,
                  ExecutionEngine* engine, SubmitOptions options)
{
    for (std::size_t idx : indices) {
        if (idx >= grid.numPoints())
            throw std::out_of_range(
                "submitGridIndices: index out of range");
    }

    GridBatch batch;
    batch.perm = prefixSubmissionOrder(grid, cost, indices);
    // submitGenerated materializes all points before returning, so the
    // by-reference captures only need to live through this call.
    batch.handle = ExecutionEngine::engineOr(engine).submitGenerated(
        cost, indices.size(),
        [&grid, &indices, &batch](std::size_t i) {
            return grid.pointAt(indices[batch.perm[i]]);
        },
        std::move(options));
    return batch;
}

std::vector<double>
GridBatch::collect()
{
    const std::vector<double> ordered = handle.get();
    std::vector<double> values(ordered.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        values[perm[i]] = ordered[i];
    return values;
}

std::vector<double>
evaluateGridIndices(const GridSpec& grid, CostFunction& cost,
                    const std::vector<std::size_t>& indices,
                    ExecutionEngine* engine)
{
    return submitGridIndices(grid, cost, indices, engine).collect();
}

SampleSet
gatherCost(const GridSpec& grid, CostFunction& cost,
           const std::vector<std::size_t>& indices, ExecutionEngine* engine,
           SubmitOptions options)
{
    GridBatch batch = submitGridIndices(grid, cost, indices, engine,
                                        std::move(options));
    SampleSet set;
    set.indices = indices;
    set.values = batch.collect();
    set.stats = batch.handle.stats();
    return set;
}

SampleSet
sampleLandscape(const Landscape& landscape, double fraction, Rng& rng,
                ExecutionEngine* engine)
{
    return gatherLandscape(
        landscape,
        chooseSampleIndices(landscape.numPoints(), fraction, rng), engine);
}

SampleSet
gatherLandscape(const Landscape& landscape,
                const std::vector<std::size_t>& indices,
                ExecutionEngine* engine)
{
    for (std::size_t idx : indices) {
        if (idx >= landscape.numPoints())
            throw std::out_of_range("gatherLandscape: index out of range");
    }
    SampleSet set;
    set.indices = indices;
    set.values = ExecutionEngine::engineOr(engine).map(
        indices.size(), [&landscape, &indices](std::size_t i) {
            return landscape.value(indices[i]);
        });
    set.stats.pointsTotal = indices.size();
    set.stats.pointsCompleted = indices.size();
    return set;
}

} // namespace oscar

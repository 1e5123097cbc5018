#include "src/core/oscar.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "src/cs/reconstructor.h"
#include "src/interp/bicubic.h"

namespace oscar {

PipelineEngine::PipelineEngine(ExecutionEngine* caller,
                               const OscarOptions& options)
{
    if (caller) {
        engine_ = caller;
        return;
    }
    if (options.numThreads == 1) {
        engine_ = &ExecutionEngine::serial();
    } else {
        owned_ = std::make_unique<ExecutionEngine>(options.numThreads);
        engine_ = owned_.get();
    }
}

namespace {

/**
 * Adapt OscarOptions::progress to a SubmitOptions::onComplete: count
 * completed points (atomically -- streaming shards may complete
 * concurrently) and report (completed, total). The shared counter
 * outlives the submitting scope, so capture it by shared_ptr.
 */
SubmitOptions
progressSubmitOptions(const OscarOptions& options, std::size_t total)
{
    SubmitOptions submit;
    if (!options.progress)
        return submit;
    auto done = std::make_shared<std::atomic<std::size_t>>(0);
    submit.onComplete = [progress = options.progress, done,
                         total](std::size_t, double) {
        progress(done->fetch_add(1) + 1, total);
    };
    return submit;
}

OscarResult
finalize(const GridSpec& grid, SampleSet samples, const CsOptions& cs)
{
    OscarResult result;
    NdArray values = reconstructLandscape(grid.shape(), samples.indices,
                                          samples.values, cs);
    result.reconstructed = Landscape(grid, std::move(values));
    result.queriesUsed = samples.size();
    result.querySpeedup = static_cast<double>(grid.numPoints()) /
                          static_cast<double>(samples.size());
    result.execution = samples.stats;
    result.samples = std::move(samples);
    return result;
}

/**
 * Streaming pipeline: submit the sample batch as `shards` asynchronous
 * shards (in one global prefix-friendly submission order, so values
 * are bit-identical to the single-batch pipeline), and run fixed
 * FISTA warm-up budgets on already-finished samples while later
 * shards execute on the engine's workers.
 */
OscarResult
reconstructStreaming(const GridSpec& grid, CostFunction& cost,
                     const std::vector<std::size_t>& indices,
                     const OscarOptions& options, ExecutionEngine* engine)
{
    const std::size_t n = indices.size();
    const std::size_t shards =
        std::max<std::size_t>(1, std::min(options.streaming.shards, n));
    const std::vector<std::size_t> perm =
        prefixSubmissionOrder(grid, cost, indices);

    // Submit every shard up front; ordinals are reserved in shard
    // order, so the concatenated stream equals the one-batch stream.
    ExecutionEngine& eng = ExecutionEngine::engineOr(engine);
    std::vector<BatchHandle> handles;
    std::vector<std::size_t> shard_lo;
    handles.reserve(shards);
    // One progress adapter for all shards: the copies handed to each
    // submission share the completed-point counter, so the reported
    // count is monotonic over the whole sample batch.
    const SubmitOptions submit = progressSubmitOptions(options, n);
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t lo = s * n / shards;
        const std::size_t hi = (s + 1) * n / shards;
        shard_lo.push_back(lo);
        handles.push_back(eng.submitGenerated(
            cost, hi - lo,
            [&grid, &indices, &perm, lo](std::size_t i) {
                return grid.pointAt(indices[perm[lo + i]]);
            },
            submit));
    }

    SampleSet samples;
    samples.indices = indices;
    samples.values.assign(n, 0.0);

    // Incorporate shards strictly in submission order; between shards
    // run a fixed warm-up budget on everything received so far. The
    // schedule depends only on the options, never on completion
    // timing, so any thread count reproduces it bit for bit.
    std::vector<std::size_t> got_indices;
    std::vector<double> got_values;
    got_indices.reserve(n);
    got_values.reserve(n);
    const bool warmups = options.cs.solver == CsSolver::Fista &&
                         options.streaming.warmupIterations > 0;
    CsOptions warm_cs = options.cs;
    warm_cs.fista.maxIters = options.streaming.warmupIterations;
    NdArray warm;
    // The lambda continuation anneals ONCE across the whole chain of
    // warm-ups plus the final solve (each phase resumes the previous
    // phase's fraction), so the streamed solves do roughly the same
    // total work a single cold solve would -- just earlier.
    double warm_lambda = -1.0;
    bool have_warm = false;
    for (std::size_t s = 0; s < shards; ++s) {
        const std::vector<double> shard = handles[s].get();
        samples.stats += handles[s].stats();
        for (std::size_t i = 0; i < shard.size(); ++i) {
            const std::size_t pos = perm[shard_lo[s] + i];
            samples.values[pos] = shard[i];
            got_indices.push_back(indices[pos]);
            got_values.push_back(shard[i]);
        }
        if (warmups && s + 1 < shards) {
            CsSolveResult partial = csSolveFolded(
                grid.shape(), got_indices, got_values, warm_cs,
                have_warm ? &warm : nullptr, warm_lambda);
            warm = std::move(partial.coefficients);
            warm_lambda = partial.lambdaFraction;
            have_warm = true;
        }
    }

    // The final solve re-anneals briefly from above the warm-up
    // chain's resume point: the warm support was accumulated from
    // partial data and converges slowly at the final lambda, while a
    // short re-anneal re-sparsifies it and restores the cold solve's
    // convergence profile (empirically: same iteration count, same
    // NRMSE, but the warm head start is kept).
    double final_lambda = warm_lambda;
    if (have_warm && warm_lambda >= 0.0) {
        final_lambda =
            std::min(options.cs.fista.lambdaInitFraction,
                     std::max(4.0 * warm_lambda, 0.02));
    }
    CsSolveResult solve =
        csSolveFolded(grid.shape(), got_indices, got_values, options.cs,
                      have_warm ? &warm : nullptr, final_lambda);

    OscarResult result;
    result.reconstructed = Landscape(grid, std::move(solve.values));
    result.queriesUsed = n;
    result.querySpeedup = static_cast<double>(grid.numPoints()) /
                          static_cast<double>(n);
    result.execution = samples.stats;
    result.samples = std::move(samples);
    return result;
}

} // namespace

OscarResult
Oscar::reconstruct(const GridSpec& grid, CostFunction& cost,
                   const OscarOptions& options, ExecutionEngine* engine)
{
    const PipelineEngine eng(engine, options);
    cost.configureKernel(options.kernel);
    Rng rng(options.seed);
    const auto indices = chooseSampleIndices(
        grid.numPoints(), options.samplingFraction, rng);
    if (options.streaming.shards > 1)
        return reconstructStreaming(grid, cost, indices, options,
                                    eng.get());
    SampleSet samples =
        gatherCost(grid, cost, indices, eng.get(),
                   progressSubmitOptions(options, indices.size()));
    return finalize(grid, std::move(samples), options.cs);
}

OscarResult
Oscar::reconstructFromLandscape(const Landscape& truth,
                                const OscarOptions& options,
                                ExecutionEngine* engine)
{
    const PipelineEngine eng(engine, options);
    Rng rng(options.seed);
    SampleSet samples =
        sampleLandscape(truth, options.samplingFraction, rng, eng.get());
    return finalize(truth.grid(), std::move(samples), options.cs);
}

Landscape
Oscar::reconstructFromSamples(const GridSpec& grid,
                              const SampleSet& samples, const CsOptions& cs)
{
    NdArray values = reconstructLandscape(grid.shape(), samples.indices,
                                          samples.values, cs);
    return Landscape(grid, std::move(values));
}

OscarResult
Oscar::reconstructParallel(const GridSpec& grid,
                           std::vector<QpuDevice>& devices,
                           const std::vector<double>& fractions,
                           bool use_ncm, double ncm_train_fraction,
                           Rng& rng, const OscarOptions& options,
                           ExecutionEngine* engine)
{
    if (devices.empty())
        throw std::invalid_argument("reconstructParallel: no devices");

    const PipelineEngine eng(engine, options);
    for (QpuDevice& device : devices) {
        if (device.cost)
            device.cost->configureKernel(options.kernel);
    }
    const auto indices = chooseSampleIndices(
        grid.numPoints(), options.samplingFraction, rng);
    ParallelRunResult run =
        runParallelSampling(grid, devices, indices, rng,
                            options.parallelAssignment, fractions,
                            eng.get());

    // Train one NCM per non-reference device and transform its share.
    // Training batches count toward the run's execution stats too.
    BatchStats ncm_stats;
    SampleSet merged = run.deviceSamples(0);
    for (std::size_t d = 1; d < devices.size(); ++d) {
        SampleSet share = run.deviceSamples(d);
        if (share.size() == 0)
            continue;
        if (use_ncm) {
            const auto ncm = NoiseCompensationModel::trainOnDevices(
                grid, devices[0], devices[d], ncm_train_fraction, rng,
                eng.get(), &ncm_stats);
            share = ncm.transform(std::move(share));
        }
        merged.indices.insert(merged.indices.end(), share.indices.begin(),
                              share.indices.end());
        merged.values.insert(merged.values.end(), share.values.begin(),
                             share.values.end());
    }
    merged.stats = run.execStats;
    merged.stats += ncm_stats;
    return finalize(grid, std::move(merged), options.cs);
}

std::vector<double>
suggestInitialPoint(const Landscape& reconstructed, Optimizer& optimizer,
                    const std::vector<double>& start)
{
    InterpolatedLandscapeCost interp(reconstructed);
    const OptimizerResult run = optimizer.minimize(interp, start);
    return run.bestParams;
}

} // namespace oscar

#include "src/core/oscar.h"

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
 * completed points and report (completed, total). The shared counter
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
finalize(const GridSpec& grid, SampleSet samples, const CsOptions& cs,
         ExecutionEngine* engine)
{
    OscarResult result;
    CsSolveResult solve = csSolveFolded(grid.shape(), samples.indices,
                                        samples.values, cs, engine);
    result.reconstructed = Landscape(grid, std::move(solve.values));
    result.queriesUsed = samples.size();
    result.querySpeedup = static_cast<double>(grid.numPoints()) /
                          static_cast<double>(samples.size());
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
    SampleSet samples =
        gatherCost(grid, cost, indices, eng.get(),
                   progressSubmitOptions(options, indices.size()));
    return finalize(grid, std::move(samples), options.cs, eng.get());
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
    return finalize(truth.grid(), std::move(samples), options.cs,
                    eng.get());
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
                            Assignment::FractionSplit, fractions,
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
    return finalize(grid, std::move(merged), options.cs, eng.get());
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

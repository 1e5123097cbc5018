/**
 * @file
 * Parallel sampling scheduler (paper Fig. 7A).
 *
 * OSCAR's samples are independent, so they can run on k QPUs at once.
 * The scheduler assigns sample points to devices statically
 * (RoundRobin / FractionSplit) and submits every device's share as
 * one asynchronous batch to the ExecutionEngine, so all simulated
 * devices execute concurrently on the worker pool (the
 * simulated device still processes one job at a time for *timing*
 * purposes, so completion timestamps and makespans are unchanged).
 *
 * Determinism: latency draws consume `rng` serially in submission
 * order, and evaluation randomness is ordinal-keyed per device cost,
 * so a run is bit-identical for any engine thread count.
 * Downstream consumers use the per-sample completion timestamps for
 * makespan/speedup accounting and for eager reconstruction.
 */

#ifndef OSCAR_PARALLEL_SCHEDULER_H
#define OSCAR_PARALLEL_SCHEDULER_H

#include <cstddef>
#include <vector>

#include "src/backend/engine.h"
#include "src/common/rng.h"
#include "src/landscape/grid.h"
#include "src/landscape/sampler.h"
#include "src/parallel/qpu.h"

namespace oscar {

/** How sample points are split across devices. */
enum class Assignment
{
    RoundRobin,
    /** First `fractions[d]` share of samples to device d, in order. */
    FractionSplit,
};

/** One executed sample. */
struct ParallelSample
{
    std::size_t index;       ///< flat grid index
    double value;            ///< measured cost on the assigned device
    std::size_t device;      ///< device that ran it
    double completionTime;   ///< simulated wall-clock completion
};

/** Result of a parallel sampling run. */
struct ParallelRunResult
{
    /** Executed samples, in simulated execution order. */
    std::vector<ParallelSample> samples;

    /** Wall-clock time at which the last sample finished. */
    double makespan = 0.0;

    /** Number of samples each device executed. */
    std::vector<std::size_t> perDeviceCounts;

    /** Execution counters summed over every device's batch. */
    BatchStats execStats;

    /** Drop everything finishing after `deadline`. */
    SampleSet retainedBefore(double deadline) const;

    /** All samples as a SampleSet (order of execution). */
    SampleSet allSamples() const;

    /** Samples executed by one device. */
    SampleSet deviceSamples(std::size_t device) const;
};

/**
 * Execute the given grid points across devices.
 *
 * @param grid      parameter grid
 * @param devices   simulated QPUs (non-empty)
 * @param indices   flat grid indices to evaluate
 * @param rng       randomness for latency draws
 * @param how       assignment policy
 * @param fractions per-device shares for FractionSplit (must sum ~1)
 * @param engine    execution engine the per-device batches are
 *                  submitted to asynchronously (serial when null)
 */
ParallelRunResult runParallelSampling(
    const GridSpec& grid, std::vector<QpuDevice>& devices,
    const std::vector<std::size_t>& indices, Rng& rng,
    Assignment how = Assignment::RoundRobin,
    const std::vector<double>& fractions = {},
    ExecutionEngine* engine = nullptr);

} // namespace oscar

#endif // OSCAR_PARALLEL_SCHEDULER_H

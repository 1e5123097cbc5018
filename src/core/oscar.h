/**
 * @file
 * OSCAR: cOmpressed Sensing based Cost lAndscape Reconstruction.
 *
 * Top-level pipelines tying the substrates together (paper Fig. 3):
 *
 *   1. parameter sampling   (landscape/sampler)
 *   2. circuit execution    (backend, parallel)
 *   3. reconstruction       (cs)
 *
 * plus the three debugging use cases built on top:
 *
 *   - noise-mitigation benchmarking via landscape metrics (Section 6),
 *   - optimizer pre-checking on the interpolated reconstruction
 *     (Section 7),
 *   - optimizer initialization from the reconstruction's minimizer
 *     (Section 8).
 */

#ifndef OSCAR_CORE_OSCAR_H
#define OSCAR_CORE_OSCAR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/backend/engine.h"
#include "src/backend/executor.h"
#include "src/cs/reconstructor.h"
#include "src/landscape/grid.h"
#include "src/landscape/landscape.h"
#include "src/landscape/sampler.h"
#include "src/optimize/optimizer.h"
#include "src/parallel/ncm.h"
#include "src/parallel/qpu.h"
#include "src/parallel/scheduler.h"

namespace oscar {

/** Configuration for an OSCAR reconstruction. */
struct OscarOptions
{
    /** Fraction of grid points to sample (paper: 3%-10% typical). */
    double samplingFraction = 0.1;

    /** Compressed-sensing solver configuration. */
    CsOptions cs;

    /** Seed for sample selection. */
    std::uint64_t seed = 42;

    /**
     * Worker threads for the execution phase. Same convention and
     * same default as ExecutionEngine(int): 0 = hardware
     * concurrency, 1 = serial (the shared serial engine; no threads
     * spawned). Results are bit-identical for any value: sample
     * selection is untouched and evaluation streams are keyed by
     * submission order, not by thread.
     */
    int numThreads = 0;

    /**
     * Kernel settings for the execution phase (the kernel ISA).
     * Applied to the cost function (and every QPU device) at pipeline
     * entry.
     */
    KernelOptions kernel;

    /**
     * Execution-phase progress callback: (points completed, total
     * points to sample), invoked as sampled points finish. Purely
     * observational -- it never affects values or scheduling. Calls
     * are serialized and the completed count is monotonic. Used by
     * oscar-serve to stream Progress frames to waiting clients.
     */
    std::function<void(std::size_t completed, std::size_t total)> progress;
};

/** Outcome of an OSCAR reconstruction. */
struct OscarResult
{
    Landscape reconstructed;

    /** The measured grid points the reconstruction used. */
    SampleSet samples;

    /** Circuit executions consumed (== samples.size() here). */
    std::size_t queriesUsed = 0;

    /**
     * Grid-point ratio: full grid search cost / OSCAR cost. This is
     * the paper's headline "2x-20x (up to 100x) speedup" metric.
     */
    double querySpeedup = 0.0;

    /**
     * Execution-phase counters: points completed/cancelled and the
     * kernel layer's prefix-reuse counters, summed over every batch
     * the pipeline submitted (all devices in the multi-QPU path).
     * Makes prefix reuse observable without a debugger; purely
     * informational, never affects values.
     */
    BatchStats execution;
};

/**
 * Engine selection for one pipeline run: use the caller's engine when
 * provided, otherwise spin up a pool sized by options.numThreads
 * (1 = borrow the shared serial engine, no threads spawned; 0 =
 * hardware concurrency, see OscarOptions::numThreads).
 */
class PipelineEngine
{
  public:
    PipelineEngine(ExecutionEngine* caller, const OscarOptions& options);

    ExecutionEngine* get() const { return engine_; }

  private:
    ExecutionEngine* engine_ = nullptr;
    std::unique_ptr<ExecutionEngine> owned_;
};

/** Compressed-sensing landscape reconstruction pipelines. */
class Oscar
{
  public:
    /**
     * Single-device pipeline: sample `fraction` of the grid uniformly
     * at random, execute the cost function there (batched across
     * `options.numThreads` workers, or on `engine` when provided),
     * reconstruct. Every pipeline runs its FISTA solve on the same
     * engine (see fistaSolve); values do not depend on it.
     */
    static OscarResult reconstruct(const GridSpec& grid, CostFunction& cost,
                                   const OscarOptions& options = {},
                                   ExecutionEngine* engine = nullptr);

    /**
     * Dataset replay: sample an already-computed landscape (e.g. the
     * hardware-dataset experiments of Section 4.3).
     */
    static OscarResult reconstructFromLandscape(
        const Landscape& truth, const OscarOptions& options = {},
        ExecutionEngine* engine = nullptr);

    /** Reconstruct from externally collected samples. */
    static Landscape reconstructFromSamples(const GridSpec& grid,
                                            const SampleSet& samples,
                                            const CsOptions& cs = {});

    /**
     * Multi-QPU pipeline (Section 5): split samples across devices
     * (device 0 is the reference), optionally transform every
     * non-reference device's values through an NCM trained on
     * `ncm_train_fraction` of the grid, then reconstruct.
     *
     * @param fractions per-device sample shares (must sum to 1)
     */
    static OscarResult reconstructParallel(
        const GridSpec& grid, std::vector<QpuDevice>& devices,
        const std::vector<double>& fractions, bool use_ncm,
        double ncm_train_fraction, Rng& rng,
        const OscarOptions& options = {},
        ExecutionEngine* engine = nullptr);
};

/**
 * Use case 3 (Section 8): reconstruct, interpolate, minimize on the
 * interpolant, and return the interpolant's minimizer as the initial
 * point for the real workflow. Requires a rank-2 grid.
 */
std::vector<double> suggestInitialPoint(const Landscape& reconstructed,
                                        Optimizer& optimizer,
                                        const std::vector<double>& start);

} // namespace oscar

#endif // OSCAR_CORE_OSCAR_H

/**
 * @file
 * Quickstart: reconstruct a depth-1 QAOA MaxCut landscape from a 6%
 * random sample and compare it against the full grid search.
 */

#include <cstdio>

#include "src/backend/analytic_qaoa.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/landscape/metrics.h"

int
main()
{
    using namespace oscar;

    // A 16-vertex random 3-regular MaxCut instance.
    Rng rng(1);
    const Graph graph = random3RegularGraph(16, rng);
    AnalyticQaoaCost cost(graph);

    // Every circuit execution goes through the batched engine; one
    // pool for the whole run, sized to the machine.
    ExecutionEngine engine(/*num_threads=*/0);

    // Ground truth: full 50 x 100 grid search (5,000 circuit runs).
    const GridSpec grid = GridSpec::qaoaP1();
    const Landscape truth = Landscape::gridSearch(grid, cost, &engine);

    // OSCAR: 6% of the grid, compressed-sensing reconstruction. The
    // result is bit-identical for any thread count.
    OscarOptions options;
    options.samplingFraction = 0.06;
    const OscarResult result =
        Oscar::reconstruct(grid, cost, options, &engine);

    std::printf("grid points          : %zu\n", grid.numPoints());
    std::printf("samples used         : %zu\n", result.queriesUsed);
    std::printf("query speedup        : %.1fx\n", result.querySpeedup);
    std::printf("reconstruction NRMSE : %.4f\n",
                nrmse(truth.values(), result.reconstructed.values()));
    std::printf("true minimum         : %.4f at (beta=%.3f, gamma=%.3f)\n",
                truth.value(truth.argmin()),
                truth.minimizerParams()[0], truth.minimizerParams()[1]);
    std::printf("recon minimum        : %.4f at (beta=%.3f, gamma=%.3f)\n",
                result.reconstructed.value(result.reconstructed.argmin()),
                result.reconstructed.minimizerParams()[0],
                result.reconstructed.minimizerParams()[1]);
    return 0;
}

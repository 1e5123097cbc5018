/**
 * @file
 * Parallel multi-QPU reconstruction with noise compensation and eager
 * timeout (paper Section 5).
 *
 * Scenario: a user wants the landscape *as QPU-1 sees it* (to study
 * QPU-1's noise), but QPU-1 alone would take too long, so half the
 * samples run on the noisier QPU-2. Without compensation the blended
 * reconstruction is an artificial mixture of the two devices'
 * landscapes; the NCM (trained on 1% of the grid executed on both
 * devices) maps QPU-2 values onto QPU-1's noise profile. An eager
 * timeout drops straggler jobs, trading a sliver of accuracy for a
 * large makespan cut.
 */

#include <cstdio>
#include <memory>

#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/metrics.h"
#include "src/parallel/eager.h"

int
main()
{
    using namespace oscar;

    Rng rng(12);
    const Graph graph = random3RegularGraph(16, rng);
    const GridSpec grid = GridSpec::qaoaP1();

    auto make_devices = [&] {
        std::vector<QpuDevice> devices;
        QpuDevice d1;
        d1.name = "qpu-1 (target)";
        d1.noise = NoiseModel::depolarizing(0.001, 0.005);
        d1.cost = std::make_shared<AnalyticQaoaCost>(graph, d1.noise);
        d1.latency = {0.0, 1.0, 1.2};
        devices.push_back(std::move(d1));
        QpuDevice d2;
        d2.name = "qpu-2 (noisier helper)";
        d2.noise = NoiseModel::depolarizing(0.003, 0.007);
        d2.cost = std::make_shared<AnalyticQaoaCost>(graph, d2.noise);
        d2.latency = {0.0, 1.0, 1.2};
        devices.push_back(std::move(d2));
        return devices;
    };

    // One batched engine for every execution in this study.
    ExecutionEngine engine(0);

    // The landscape QPU-1 would produce by itself (the target).
    AnalyticQaoaCost target_cost(graph,
                                 NoiseModel::depolarizing(0.001, 0.005));
    const Landscape target =
        Landscape::gridSearch(grid, target_cost, &engine);

    OscarOptions options;
    options.samplingFraction = 0.10;

    std::printf("Mixed-device reconstruction of QPU-1's landscape "
                "(50/50 sample split, 10%% of 50x100 grid)\n\n");
    for (bool use_ncm : {false, true}) {
        auto devices = make_devices();
        Rng run_rng(99);
        const auto result = Oscar::reconstructParallel(
            grid, devices, {0.5, 0.5}, use_ncm, 0.01, run_rng, options,
            &engine);
        std::printf("  %-22s NRMSE vs QPU-1 landscape: %.4f\n",
                    use_ncm ? "with NCM" : "uncompensated",
                    nrmse(target.values(),
                          result.reconstructed.values()));
    }

    // Eager reconstruction under heavy-tailed latency.
    std::printf("\nEager timeout study (heavy-tailed per-job latency, "
                "p99/median ~ 10-30x):\n");
    auto devices = make_devices();
    Rng sched_rng(7);
    const auto indices =
        chooseSampleIndices(grid.numPoints(), 0.10, sched_rng);
    const auto run =
        runParallelSampling(grid, devices, indices, sched_rng,
                            Assignment::RoundRobin, {}, &engine);
    for (double q : {1.0, 0.95, 0.85}) {
        const auto outcome = eagerCutoffQuantile(run, q);
        const Landscape recon =
            Oscar::reconstructFromSamples(grid, outcome.retained);
        std::printf("  keep %3.0f%%: finish at t=%7.1f (full makespan "
                    "%7.1f), NRMSE %.4f\n", 100.0 * q, outcome.deadline,
                    outcome.fullMakespan,
                    nrmse(target.values(), recon.values()));
    }
    std::printf("\nDropping the straggler tail cuts wall-clock time "
                "with almost no accuracy cost -- the flat error-vs-"
                "fraction curve of Fig. 4 at work.\n");

    return 0;
}

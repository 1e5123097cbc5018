/**
 * @file
 * Section 4 headline reproduction: OSCAR's speedup over full grid
 * search for complete landscape generation, timed on the state-vector
 * backend (where circuit execution, not reconstruction, dominates --
 * as on a QPU). Each case is one row: the median and quartiles of
 * kReps repeated runs (bench_common.h's timeRepeated).
 *
 * Two accountings are reported:
 *  - wall-clock: grid search vs (sampling + CS reconstruction),
 *  - query count: the ratio of circuit executions, which is the
 *    paper's "2x-20x (up to 100x)" figure and is hardware-agnostic.
 */

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/ansatz/qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/metrics.h"

namespace {

using namespace oscar;

constexpr int kReps = 5;

struct Workload
{
    Graph graph;
    Circuit circuit;
    PauliSum ham;

    static Workload
    make(int qubits)
    {
        Rng rng(42);
        Graph g = random3RegularGraph(qubits, rng);
        Circuit c = qaoaCircuit(g, 1);
        PauliSum h = maxcutHamiltonian(g);
        return {std::move(g), std::move(c), std::move(h)};
    }
};

const GridSpec&
benchGrid()
{
    static const GridSpec grid = GridSpec::qaoaP1(30, 60);
    return grid;
}

/** One row: timing in ms, circuit runs and query speedup. */
void
printRow(const std::string& name, const bench::TimingStats& t,
         double circuit_runs, double query_speedup)
{
    bench::row(name,
               {1e3 * t.median, 1e3 * t.p25, 1e3 * t.p75, circuit_runs,
                query_speedup},
               " %10.2f");
}

} // namespace

int
main()
{
    std::printf("Speedup bench: grid search vs OSCAR "
                "(30x60 grid, statevector backend)\n");
    std::printf("paper reference: 2x-20x query speedup, up to 100x\n");

    bench::header("wall clock (median of " + std::to_string(kReps) +
                  " runs)");
    bench::columns("case", {"median_ms", "p25_ms", "p75_ms", "circuits",
                            "q_speedup"});
    const double points = static_cast<double>(benchGrid().numPoints());
    for (int qubits : {12, 14}) {
        const Workload workload = Workload::make(qubits);
        const bench::TimingStats t = bench::timeRepeated(kReps, [&] {
            StatevectorCost cost(workload.circuit, workload.ham);
            const Landscape landscape =
                Landscape::gridSearch(benchGrid(), cost, &bench::engine());
            (void)landscape;
        });
        printRow("grid search " + std::to_string(qubits) + "q", t, points,
                 1.0);
    }
    for (int qubits : {12, 14}) {
        const Workload workload = Workload::make(qubits);
        for (int percent : {5, 10}) {
            OscarOptions options;
            options.samplingFraction = percent / 100.0;
            const bench::TimingStats t = bench::timeRepeated(kReps, [&] {
                StatevectorCost cost(workload.circuit, workload.ham);
                const auto result = Oscar::reconstruct(
                    benchGrid(), cost, options, &bench::engine());
                (void)result;
            });
            printRow("oscar " + std::to_string(qubits) + "q " +
                         std::to_string(percent) + "%",
                     t, options.samplingFraction * points,
                     1.0 / options.samplingFraction);
        }
    }

    // Accuracy footnote so speedups are known to be at iso-quality.
    std::printf("\n");
    const Workload workload = Workload::make(14);
    StatevectorCost cost(workload.circuit, workload.ham);
    const Landscape truth = Landscape::gridSearch(benchGrid(), cost);
    for (double fraction : {0.05, 0.10}) {
        OscarOptions options;
        options.samplingFraction = fraction;
        const auto result = Oscar::reconstruct(benchGrid(), cost, options);
        std::printf("fraction %.0f%%: NRMSE %.4f, query speedup %.0fx\n",
                    100 * fraction,
                    nrmse(truth.values(), result.reconstructed.values()),
                    result.querySpeedup);
    }
    return 0;
}

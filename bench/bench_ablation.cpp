/**
 * @file
 * Ablation bench for OSCAR's design choices (README.md
 * "Substitutions", Ablations):
 *
 *  1. Solver: FISTA (convex relaxation) vs. OMP (greedy).
 *  2. Lambda continuation: on (geometric decay) vs. off (fixed final
 *     lambda from the start).
 *  3. Sampling pattern: uniform random (the CS-correct choice) vs.
 *     equispaced subsampling (aliases the periodic landscape).
 *  4. 4-D reshape order for p=2 concatenation: (b1 b2, g1 g2) vs. the
 *     interleaved (b1 g1, b2 g2).
 *
 * Each row reports NRMSE on a fixed depth-1 (or depth-2 for #4)
 * QAOA-MaxCut landscape at a 6% sampling fraction.
 */

#include <cstdio>

#include "bench_common.h"
#include "src/ansatz/qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/hamiltonian/maxcut.h"

namespace {

using namespace oscar;

double
errorWith(const Landscape& truth, const CsOptions& cs, double fraction,
          bool equispaced, std::uint64_t seed)
{
    SampleSet samples;
    if (equispaced) {
        const std::size_t n = truth.numPoints();
        const std::size_t k = static_cast<std::size_t>(fraction * n);
        const double step = static_cast<double>(n) / k;
        std::vector<std::size_t> indices;
        for (std::size_t i = 0; i < k; ++i)
            indices.push_back(static_cast<std::size_t>(i * step));
        samples = gatherLandscape(truth, indices);
    } else {
        Rng rng(seed);
        samples = sampleLandscape(truth, fraction, rng);
    }
    const Landscape recon =
        Oscar::reconstructFromSamples(truth.grid(), samples, cs);
    return nrmse(truth.values(), recon.values());
}

} // namespace

int
main()
{
    std::printf("Ablations: reconstruction NRMSE at 6%% sampling "
                "(16-qubit depth-1 QAOA MaxCut, 50x100 grid)\n");
    bench::columns("configuration", {"NRMSE"});

    Rng rng(3);
    const Graph g = random3RegularGraph(16, rng);
    AnalyticQaoaCost cost(g);
    const GridSpec grid = GridSpec::qaoaP1();
    const Landscape truth = Landscape::gridSearch(grid, cost);
    const double fraction = 0.06;

    // 1. Solver choice.
    CsOptions fista;
    bench::row("FISTA (default)",
               {errorWith(truth, fista, fraction, false, 11)});
    CsOptions omp;
    omp.solver = CsSolver::Omp;
    omp.omp.maxAtoms = 120;
    bench::row("OMP (120 atoms)",
               {errorWith(truth, omp, fraction, false, 11)});

    // 2. Continuation on/off.
    CsOptions no_continuation;
    no_continuation.fista.lambdaInitFraction =
        FistaOptions{}.lambdaFinalFraction;
    bench::row("FISTA, no continuation",
               {errorWith(truth, no_continuation, fraction, false, 11)});

    // 3. Sampling pattern.
    bench::row("equispaced sampling",
               {errorWith(truth, fista, fraction, true, 11)});

    // 4. Reshape order for a p=2 landscape.
    {
        Rng g2rng(4);
        const Graph g2 = random3RegularGraph(8, g2rng);
        StatevectorCost cost2(qaoaCircuit(g2, 2),
                              maxcutHamiltonian(g2));
        const GridSpec grid2 = GridSpec::qaoaP2(8, 10);
        const Landscape truth2 = Landscape::gridSearch(grid2, cost2);

        Rng srng(21);
        const SampleSet samples = sampleLandscape(truth2, 0.10, srng);

        // Default order: axes (b1, b2, g1, g2) -> (b1 b2, g1 g2).
        const Landscape recon =
            Oscar::reconstructFromSamples(truth2.grid(), samples);
        bench::row("p=2 fold (b b, g g) [default]",
                   {nrmse(truth2.values(), recon.values())});

        // Interleaved order: permute axes to (b1, g1, b2, g2) first.
        const auto shape = truth2.grid().shape(); // {8, 8, 10, 10}
        const std::vector<std::size_t> perm{0, 2, 1, 3};
        std::vector<std::size_t> new_shape{shape[0], shape[2], shape[1],
                                           shape[3]};
        NdArray permuted(new_shape);
        for (std::size_t i = 0; i < truth2.numPoints(); ++i) {
            const auto idx = truth2.values().unravel(i);
            permuted.at({idx[0], idx[2], idx[1], idx[3]}) =
                truth2.value(i);
        }
        std::vector<std::size_t> perm_indices;
        std::vector<double> perm_values;
        for (std::size_t k = 0; k < samples.size(); ++k) {
            const auto idx =
                truth2.values().unravel(samples.indices[k]);
            perm_indices.push_back(permuted.offset(
                {idx[0], idx[2], idx[1], idx[3]}));
            perm_values.push_back(samples.values[k]);
        }
        const NdArray recon_perm = reconstructLandscape(
            new_shape, perm_indices, perm_values);
        bench::row("p=2 fold (b g, b g) interleaved",
                   {nrmse(permuted, recon_perm)});
    }
    return 0;
}

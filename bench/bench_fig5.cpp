/**
 * @file
 * Figure 5 reproduction: reconstruction of hardware (Sycamore-like)
 * QAOA landscapes for the mesh-graph MaxCut, 3-regular MaxCut, and SK
 * model problems, at the paper's 41% sampling fraction.
 *
 * The Google dataset is substituted by syntheticHardwareLandscape()
 * (README.md "Substitutions", #2): 50 x 50 grids, fidelity damping,
 * correlated drift, and white noise. The paper's point is
 * qualitative -- reconstructions are "perceptually identical" even
 * when NRMSE ~ 0.2 because the residual is the white-noise floor. We
 * report NRMSE plus the correlation between truth and reconstruction,
 * and the NRMSE of the reconstruction against the *clean*
 * (pre-white-noise) landscape, which shows CS actually denoises.
 */

#include <cstdio>

#include "bench_common.h"
#include "src/backend/hardware_dataset.h"

namespace {

using namespace oscar;

struct Problem
{
    const char* name;
    Graph graph;
};

std::vector<Problem>
makeProblems()
{
    Rng rng(21);
    std::vector<Problem> problems;
    problems.push_back({"Mesh graph (4x5)", meshGraph(4, 5)});
    problems.push_back({"3-regular (n=22)", random3RegularGraph(22, rng)});
    problems.push_back({"SK model (n=17)", skInstance(17, rng)});
    return problems;
}

} // namespace

int
main()
{
    std::printf("Figure 5: Sycamore-like landscape reconstruction at "
                "41%% sampling (50x50 grids)\n");
    bench::columns("problem",
                   {"NRMSE", "corr", "cleanNRMSE"});

    const GridSpec grid = GridSpec::qaoaP1(50, 50);
    for (auto& problem : makeProblems()) {
        HardwareDatasetOptions hw;
        hw.seed = 33;
        const Landscape noisy =
            syntheticHardwareLandscape(problem.graph, grid, hw);

        HardwareDatasetOptions clean_opts = hw;
        clean_opts.whiteNoise = 0.0;
        const Landscape clean =
            syntheticHardwareLandscape(problem.graph, grid, clean_opts);

        OscarOptions options;
        options.samplingFraction = 0.41;
        options.seed = 55;
        const auto recon = Oscar::reconstructFromLandscape(noisy, options);

        const double err =
            nrmse(noisy.values(), recon.reconstructed.values());
        const double corr = stats::pearson(
            noisy.values().flat(), recon.reconstructed.values().flat());
        const double err_clean =
            nrmse(clean.values(), recon.reconstructed.values());
        bench::row(problem.name, {err, corr, err_clean});
    }
    std::printf("\npaper reference: NRMSE ~0.2 yet perceptually "
                "identical reconstructions (Fig. 5/6)\n");
    return 0;
}

/**
 * @file
 * Table 5 reproduction: reconstruction errors for mixtures of samples
 * from different device pairs, with and without NCM.
 *
 * Device substitutions (README.md "Substitutions", #1): "ibm perth"
 * and "ibm lagos" are simulated QPUs with hardware-grade depolarizing
 * plus readout-style extra contraction; "noisy sim-i/ii" and "ideal
 * sim" match the paper's simulator rows. QPU-1 is the target whose
 * landscape we want to match; the mixture ratio column "20-80" means
 * 20% of samples from QPU-1 and 80% from QPU-2.
 *
 * Expected shape (per paper): +NCM beats plain OSCAR in every cell;
 * error grows as the QPU-1 share shrinks; pairing a hardware-grade
 * device with an ideal or noisy simulator works almost as well as
 * pairing it with another hardware device.
 */

#include <cstdio>
#include <memory>

#include "bench_common.h"

namespace {

using namespace oscar;

/** Named device factory over one problem graph. */
QpuDevice
makeDevice(const std::string& name, const Graph& graph)
{
    QpuDevice d;
    d.name = name;
    if (name == "ideal sim") {
        d.noise = NoiseModel::idealModel();
    } else if (name == "noisy sim-i") {
        d.noise = NoiseModel::depolarizing(0.001, 0.005);
    } else if (name == "noisy sim-ii") {
        d.noise = NoiseModel::depolarizing(0.003, 0.007);
    } else if (name == "ibm perth") {
        // Hardware-grade: strong depolarizing + readout contraction.
        d.noise = NoiseModel::depolarizing(0.006, 0.015);
        d.noise.readout01 = 0.02;
        d.noise.readout10 = 0.04;
    } else { // ibm lagos
        d.noise = NoiseModel::depolarizing(0.004, 0.011);
        d.noise.readout01 = 0.015;
        d.noise.readout10 = 0.03;
    }
    // Readout on a MaxCut observable acts as a further contraction of
    // <ZZ>; fold it into the light-cone damping via effective rates.
    NoiseModel effective = d.noise;
    effective.p1 += 0.75 * (d.noise.readout01 + d.noise.readout10);
    d.cost = std::make_shared<AnalyticQaoaCost>(graph, effective);
    return d;
}

} // namespace

int
main()
{
    std::printf("Table 5: NRMSE vs QPU-1 target for device mixtures "
                "(10%% sampling, 1%% NCM training)\n");
    bench::columns("QPU1 / QPU2", {"20-80", "+ncm", "50-50", "+ncm",
                                   "80-20", "+ncm", "100-0"});

    const std::pair<const char*, const char*> pairs[] = {
        {"noisy sim-i", "noisy sim-ii"},
        {"noisy sim-ii", "noisy sim-i"},
        {"ibm perth", "ideal sim"},
        {"ibm perth", "noisy sim-i"},
        {"ibm perth", "ibm lagos"},
        {"ibm lagos", "ibm perth"},
        {"ideal sim", "ibm perth"},
    };

    const GridSpec grid = GridSpec::qaoaP1();
    Rng graph_rng(17);
    const Graph g = random3RegularGraph(16, graph_rng);

    for (const auto& [name1, name2] : pairs) {
        // Target: QPU-1's own full landscape.
        QpuDevice ref = makeDevice(name1, g);
        LambdaCost ref_cost(2, [&](const std::vector<double>& p) {
            return ref.cost->evaluate(p);
        });
        const Landscape target = Landscape::gridSearch(grid, ref_cost);

        std::vector<double> cells;
        for (double share : {0.2, 0.5, 0.8}) {
            for (bool use_ncm : {false, true}) {
                std::vector<QpuDevice> devices{makeDevice(name1, g),
                                               makeDevice(name2, g)};
                Rng rng(5000);
                OscarOptions options;
                options.samplingFraction = 0.10;
                const auto result = Oscar::reconstructParallel(
                    grid, devices, {share, 1.0 - share}, use_ncm, 0.01,
                    rng, options);
                cells.push_back(nrmse(target.values(),
                                      result.reconstructed.values()));
            }
        }
        {
            // 100-0 column: all samples from QPU-1, no NCM needed.
            std::vector<QpuDevice> devices{makeDevice(name1, g),
                                           makeDevice(name2, g)};
            Rng rng(5000);
            OscarOptions options;
            options.samplingFraction = 0.10;
            const auto result = Oscar::reconstructParallel(
                grid, devices, {1.0, 0.0}, false, 0.01, rng, options);
            cells.push_back(nrmse(target.values(),
                                  result.reconstructed.values()));
        }
        bench::row(std::string(name1) + " / " + name2, cells,
                   " %10.4f");
    }
    std::printf("\npaper reference: +NCM lower in every cell; e.g. "
                "perth/ideal 1.362 -> 0.299 at 20-80\n");
    return 0;
}

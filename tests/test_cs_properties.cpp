/**
 * @file
 * Property-style sweeps of the compressed-sensing stack: recovery
 * rate vs measurement count (the empirical RIP story), folding
 * consistency for parameterized circuits, and the combined
 * parallel + NCM + eager pipeline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/common/rng.h"
#include "src/core/oscar.h"
#include "src/cs/fista.h"
#include "src/graph/generators.h"
#include "src/landscape/metrics.h"
#include "src/mitigation/folding.h"
#include "src/parallel/eager.h"
#include "src/quantum/statevector.h"

namespace {

using namespace oscar;

/** Relative L2 reconstruction error of one random sparse instance. */
double
sparseRecoveryError(std::size_t m, std::size_t sparsity,
                    std::uint64_t seed)
{
    const std::size_t nr = 16, nc = 16;
    Rng rng(seed);
    Dct2d dct(nr, nc);
    NdArray coeffs({nr, nc});
    for (std::size_t idx : rng.sampleWithoutReplacement(nr * nc,
                                                        sparsity))
        coeffs[idx] = rng.uniform(0.5, 2.0);
    const NdArray signal = dct.inverse(coeffs);

    const auto indices = rng.sampleWithoutReplacement(nr * nc, m);
    std::vector<double> values;
    for (std::size_t idx : indices)
        values.push_back(signal[idx]);
    const auto result = fistaSolve(dct, indices, values);
    const NdArray recon = dct.inverse(result.coefficients);

    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < signal.size(); ++i) {
        err += (recon[i] - signal[i]) * (recon[i] - signal[i]);
        norm += signal[i] * signal[i];
    }
    return std::sqrt(err / norm);
}

/** Recovery succeeds when the relative error is below 5%. */
class RecoveryRate
    : public ::testing::TestWithParam<std::size_t> // measurements
{
};

TEST_P(RecoveryRate, ImprovesWithMeasurements)
{
    // CS theory: recovery of an s-sparse signal needs
    // m >~ C s log(n/s) random measurements. With s = 6 and n = 256,
    // m = 96 should succeed nearly always; m = 24 should mostly fail.
    const std::size_t m = GetParam();
    int successes = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
        if (sparseRecoveryError(m, 6, 10 * m + t) < 0.05)
            ++successes;
    }
    if (m >= 96) {
        EXPECT_GE(successes, 9) << "m=" << m;
    } else if (m <= 24) {
        EXPECT_LE(successes, 4) << "m=" << m;
    }
}

INSTANTIATE_TEST_SUITE_P(MeasurementCounts, RecoveryRate,
                         ::testing::Values(16, 24, 96, 128));

TEST(CsProperties, RecoveryMonotoneInMeasurements)
{
    double prev = 1e9;
    for (std::size_t m : {24u, 64u, 128u, 220u}) {
        double acc = 0.0;
        for (int t = 0; t < 5; ++t)
            acc += sparseRecoveryError(m, 8, 555 + t);
        acc /= 5.0;
        EXPECT_LE(acc, prev * 1.25) << m; // allow small non-monotone
        prev = acc;
    }
    EXPECT_LT(prev, 0.02); // fully determined at high m
}

TEST(Folding, ParameterizedFoldConsistentWithBoundFold)
{
    // Folding then binding must equal binding then folding.
    Rng rng(4);
    const Graph g = random3RegularGraph(6, rng);
    const Circuit circuit = qaoaCircuit(g, 1);
    const std::vector<double> params{0.37, -0.92};
    for (double scale : {1.8, 3.0}) {
        const Circuit fold_then_bind =
            foldGlobal(circuit, scale).bind(params);
        const Circuit bind_then_fold =
            foldGlobal(circuit.bind(params), scale);
        Statevector a(6), b(6);
        a.run(fold_then_bind);
        b.run(bind_then_fold);
        EXPECT_NEAR(std::abs(a.innerProduct(b)), 1.0, 1e-10) << scale;
    }
}

TEST(ParallelPipeline, EagerPlusNcmEndToEnd)
{
    // Full combined flow: two noisy QPUs with heavy-tailed latency,
    // NCM-transformed secondary samples, eager cutoff at q=0.9, then
    // reconstruction -- must still land close to the QPU-1 landscape.
    Rng rng(6);
    const Graph g = random3RegularGraph(12, rng);
    const GridSpec grid = GridSpec::qaoaP1(24, 48);

    std::vector<QpuDevice> devices;
    {
        QpuDevice d;
        d.name = "ref";
        d.noise = NoiseModel::depolarizing(0.001, 0.005);
        d.cost = std::make_shared<AnalyticQaoaCost>(g, d.noise);
        d.latency = {0.0, 1.0, 1.2};
        devices.push_back(std::move(d));
    }
    {
        QpuDevice d;
        d.name = "helper";
        d.noise = NoiseModel::depolarizing(0.003, 0.007);
        d.cost = std::make_shared<AnalyticQaoaCost>(g, d.noise);
        d.latency = {0.0, 1.0, 1.2};
        devices.push_back(std::move(d));
    }

    AnalyticQaoaCost ref_cost(g, devices[0].noise);
    const Landscape target = Landscape::gridSearch(grid, ref_cost);

    const auto ncm = NoiseCompensationModel::trainOnDevices(
        grid, devices[0], devices[1], 0.02, rng);

    const auto indices =
        chooseSampleIndices(grid.numPoints(), 0.15, rng);
    const auto run = runParallelSampling(grid, devices, indices, rng);
    const auto eager = eagerCutoffQuantile(run, 0.9);

    // NCM-transform the retained samples that came from the helper.
    SampleSet merged;
    for (const ParallelSample& s : run.samples) {
        if (s.completionTime > eager.deadline)
            continue;
        merged.indices.push_back(s.index);
        merged.values.push_back(
            s.device == 0 ? s.value : ncm.transform(s.value));
    }
    const Landscape recon =
        Oscar::reconstructFromSamples(grid, merged);
    EXPECT_LT(nrmse(target.values(), recon.values()), 0.05);
}

TEST(CsProperties, ReconstructionIsDeterministicGivenSeed)
{
    Rng rng(7);
    const Graph g = random3RegularGraph(10, rng);
    AnalyticQaoaCost cost(g);
    const GridSpec grid = GridSpec::qaoaP1(20, 40);

    OscarOptions options;
    options.samplingFraction = 0.1;
    options.seed = 99;
    const auto a = Oscar::reconstruct(grid, cost, options);
    const auto b = Oscar::reconstruct(grid, cost, options);
    for (std::size_t i = 0; i < a.reconstructed.numPoints(); ++i)
        EXPECT_DOUBLE_EQ(a.reconstructed.value(i),
                         b.reconstructed.value(i));
}

} // namespace

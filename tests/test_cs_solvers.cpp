/**
 * @file
 * Tests for the compressed-sensing solvers (FISTA and OMP) and the
 * high-level reconstructor, including exact recovery of sparse
 * signals -- the mathematical core of OSCAR.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <stdexcept>
#include <vector>

#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/engine.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/core/oscar.h"
#include "src/cs/fista.h"
#include "src/cs/omp.h"
#include "src/cs/reconstructor.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/metrics.h"
#include "src/landscape/sampler.h"

namespace oscar {
namespace {

/** Build a k-sparse 2-D signal in the DCT domain. */
NdArray
makeSparseSignal(std::size_t nr, std::size_t nc, std::size_t k, Rng& rng,
                 const Dct2d& dct)
{
    NdArray coeffs({nr, nc});
    const auto picks = rng.sampleWithoutReplacement(nr * nc, k);
    for (std::size_t idx : picks)
        coeffs[idx] = rng.uniform(0.5, 2.0) * (rng.bernoulli(0.5) ? 1 : -1);
    return dct.inverse(coeffs);
}

TEST(SoftThreshold, Basics)
{
    EXPECT_DOUBLE_EQ(softThreshold(3.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(softThreshold(-3.0, 1.0), -2.0);
    EXPECT_DOUBLE_EQ(softThreshold(0.5, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(softThreshold(-0.5, 1.0), 0.0);
}

class SparseRecovery : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SparseRecovery, FistaRecoversSparseSignal)
{
    const std::size_t sparsity = GetParam();
    const std::size_t nr = 20, nc = 30;
    Rng rng(100 + sparsity);
    Dct2d dct(nr, nc);
    const NdArray signal = makeSparseSignal(nr, nc, sparsity, rng, dct);

    // Sample 30% of the grid.
    const auto indices = rng.sampleWithoutReplacement(nr * nc, 180);
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
    EXPECT_LT(std::sqrt(err / norm), 0.05)
        << "sparsity=" << sparsity;
}

TEST_P(SparseRecovery, OmpRecoversSparseSignalExactly)
{
    const std::size_t sparsity = GetParam();
    const std::size_t nr = 20, nc = 30;
    Rng rng(200 + sparsity);
    Dct2d dct(nr, nc);
    const NdArray signal = makeSparseSignal(nr, nc, sparsity, rng, dct);

    const auto indices = rng.sampleWithoutReplacement(nr * nc, 180);
    std::vector<double> values;
    for (std::size_t idx : indices)
        values.push_back(signal[idx]);

    OmpOptions options;
    options.maxAtoms = 2 * sparsity + 4;
    const auto result = ompSolve(dct, indices, values, options);
    const NdArray recon = dct.inverse(result.coefficients);

    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < signal.size(); ++i) {
        err += (recon[i] - signal[i]) * (recon[i] - signal[i]);
        norm += signal[i] * signal[i];
    }
    EXPECT_LT(std::sqrt(err / norm), 1e-5) << "sparsity=" << sparsity;
}

INSTANTIATE_TEST_SUITE_P(SparsityLevels, SparseRecovery,
                         ::testing::Values(2, 5, 10, 20));

TEST(Fista, FullSamplingReproducesSignal)
{
    const std::size_t nr = 10, nc = 12;
    Rng rng(7);
    Dct2d dct(nr, nc);
    const NdArray signal = makeSparseSignal(nr, nc, 6, rng, dct);

    std::vector<std::size_t> indices(nr * nc);
    std::vector<double> values(nr * nc);
    for (std::size_t i = 0; i < nr * nc; ++i) {
        indices[i] = i;
        values[i] = signal[i];
    }
    const auto result = fistaSolve(dct, indices, values);
    const NdArray recon = dct.inverse(result.coefficients);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(recon[i], signal[i], 1e-3);
}

TEST(Fista, ZeroMeasurementsGiveZero)
{
    Dct2d dct(4, 4);
    const auto result = fistaSolve(dct, {0, 5, 9}, {0.0, 0.0, 0.0});
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(result.coefficients[i], 0.0);
}

TEST(Fista, RejectsBadInputs)
{
    Dct2d dct(4, 4);
    EXPECT_THROW(fistaSolve(dct, {0, 1}, {1.0}), std::invalid_argument);
    EXPECT_THROW(fistaSolve(dct, {}, {}), std::invalid_argument);
    EXPECT_THROW(fistaSolve(dct, {16}, {1.0}), std::out_of_range);
}

TEST(Fista, NoisySamplesStillApproximate)
{
    const std::size_t nr = 16, nc = 16;
    Rng rng(8);
    Dct2d dct(nr, nc);
    const NdArray signal = makeSparseSignal(nr, nc, 4, rng, dct);

    const auto indices = rng.sampleWithoutReplacement(nr * nc, 128);
    std::vector<double> values;
    for (std::size_t idx : indices)
        values.push_back(signal[idx] + rng.normal(0.0, 0.01));

    const auto result = fistaSolve(dct, indices, values);
    const NdArray recon = dct.inverse(result.coefficients);
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < signal.size(); ++i) {
        err += (recon[i] - signal[i]) * (recon[i] - signal[i]);
        norm += signal[i] * signal[i];
    }
    EXPECT_LT(std::sqrt(err / norm), 0.1);
}

TEST(Reconstructor, FoldedShape)
{
    EXPECT_EQ(csFoldedShape({12, 12, 15, 15}),
              (std::vector<std::size_t>{144, 225}));
    EXPECT_EQ(csFoldedShape({50, 100}),
              (std::vector<std::size_t>{50, 100}));
    EXPECT_THROW(csFoldedShape({4, 4, 4}), std::invalid_argument);
}

TEST(Reconstructor, FourDGridRoundTrips)
{
    // Build a smooth separable 4-D signal, sample 35%, reconstruct.
    const std::vector<std::size_t> shape{6, 6, 8, 8};
    NdArray signal(shape);
    for (std::size_t i = 0; i < signal.size(); ++i) {
        const auto idx = signal.unravel(i);
        signal[i] = std::cos(0.4 * idx[0]) * std::cos(0.3 * idx[1]) *
                    std::cos(0.5 * idx[2] + 0.2 * idx[3]);
    }
    Rng rng(12);
    const auto indices =
        rng.sampleWithoutReplacement(signal.size(), signal.size() * 35 / 100);
    std::vector<double> values;
    for (std::size_t idx : indices)
        values.push_back(signal[idx]);

    const NdArray recon = reconstructLandscape(shape, indices, values);
    EXPECT_EQ(recon.shape(), shape);
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < signal.size(); ++i) {
        err += (recon[i] - signal[i]) * (recon[i] - signal[i]);
        norm += signal[i] * signal[i];
    }
    EXPECT_LT(std::sqrt(err / norm), 0.25);
}

TEST(Reconstructor, OmpSolverOption)
{
    const std::size_t nr = 12, nc = 12;
    Rng rng(13);
    Dct2d dct(nr, nc);
    const NdArray signal = makeSparseSignal(nr, nc, 3, rng, dct);
    const auto indices = rng.sampleWithoutReplacement(nr * nc, 60);
    std::vector<double> values;
    for (std::size_t idx : indices)
        values.push_back(signal[idx]);

    CsOptions options;
    options.solver = CsSolver::Omp;
    options.omp.maxAtoms = 10;
    const NdArray recon =
        reconstructLandscape({nr, nc}, indices, values, options);
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < signal.size(); ++i) {
        err += (recon[i] - signal[i]) * (recon[i] - signal[i]);
        norm += signal[i] * signal[i];
    }
    EXPECT_LT(std::sqrt(err / norm), 1e-4);
}

TEST(Omp, RejectsBadInputs)
{
    Dct2d dct(4, 4);
    EXPECT_THROW(ompSolve(dct, {0, 1}, {1.0}), std::invalid_argument);
    EXPECT_THROW(ompSolve(dct, {}, {}), std::invalid_argument);
    EXPECT_THROW(ompSolve(dct, {16}, {1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Bad input fails loudly instead of reconstructing a wrong landscape.

/** 58 samples of a smooth 20 x 20 landscape. */
void
smoothSamples(std::vector<std::size_t>& indices, std::vector<double>& values)
{
    Rng rng(58);
    indices = rng.sampleWithoutReplacement(400, 58);
    values.clear();
    for (std::size_t i : indices)
        values.push_back(std::cos(0.3 * (i / 20)) * std::sin(0.2 * (i % 20)));
}

/** Run `fn`; it must throw std::invalid_argument whose text is `what`. */
template <typename Fn>
void
expectInvalidArgument(Fn&& fn, const std::string& what)
{
    try {
        fn();
        ADD_FAILURE() << "no exception, expected: " << what;
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), what);
    }
}

TEST(BadInput, NonFiniteSampleIsRejected)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    CsOptions omp;
    omp.solver = CsSolver::Omp;
    for (double bad : {nan, inf, -inf}) {
        std::vector<std::size_t> indices;
        std::vector<double> values;
        smoothSamples(indices, values);
        values[17] = bad;
        EXPECT_THROW(reconstructLandscape({20, 20}, indices, values),
                     std::invalid_argument)
            << bad;
        EXPECT_THROW(reconstructLandscape({20, 20}, indices, values, omp),
                     std::invalid_argument)
            << bad;

        // Dataset replay: an in-memory landscape reaches the solver
        // without passing through a cost function.
        const GridSpec grid({{-1.0, 1.0, 20}, {0.0, 2.0, 20}});
        NdArray points(grid.shape());
        for (std::size_t i = 0; i < points.size(); ++i)
            points[i] = i % 2 ? bad : std::cos(0.1 * static_cast<double>(i));
        const Landscape truth(grid, std::move(points));
        OscarOptions options;
        options.samplingFraction = 0.15;
        expectInvalidArgument(
            [&] { Oscar::reconstructFromLandscape(truth, options); },
            "fistaSolve: non-finite sample value");
        options.cs = omp;
        expectInvalidArgument(
            [&] { Oscar::reconstructFromLandscape(truth, options); },
            "ompSolve: non-finite sample value");
    }
}

TEST(BadInput, DuplicateSampleIndexIsRejected)
{
    std::vector<std::size_t> indices;
    std::vector<double> values;
    smoothSamples(indices, values);
    indices[40] = indices[3];
    EXPECT_THROW(reconstructLandscape({20, 20}, indices, values),
                 std::invalid_argument);
    CsOptions omp;
    omp.solver = CsSolver::Omp;
    EXPECT_THROW(reconstructLandscape({20, 20}, indices, values, omp),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Degenerate grids: a shape the fold or the transform cannot take
// throws, and the smallest valid grids reconstruct a constant.

TEST(DegenerateGrid, ZeroExtentThrows)
{
    for (const std::vector<std::size_t>& shape :
         {std::vector<std::size_t>{0, 4}, std::vector<std::size_t>{4, 0}}) {
        try {
            reconstructLandscape(shape, {}, {});
            ADD_FAILURE() << "no throw for " << shape[0] << " x "
                          << shape[1];
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), "Dct1d: zero length");
        }
    }
}

TEST(DegenerateGrid, OddOrZeroRankThrows)
{
    EXPECT_THROW(csFoldedShape({}), std::invalid_argument);
    EXPECT_THROW(csFoldedShape({7}), std::invalid_argument);
    EXPECT_THROW(csFoldedShape({2, 3, 4}), std::invalid_argument);
    EXPECT_THROW(reconstructLandscape({5}, {0}, {1.0}),
                 std::invalid_argument);
    EXPECT_THROW(reconstructLandscape({}, {0}, {1.0}),
                 std::invalid_argument);
}

TEST(DegenerateGrid, TinyGridsReconstructAConstant)
{
    const double c = -1.375;
    struct Case
    {
        std::vector<std::size_t> shape;
        std::vector<std::size_t> indices;
    };
    const Case cases[] = {{{1, 1}, {0}}, {{1, 4}, {0, 2}}};
    for (const Case& k : cases) {
        const std::vector<double> values(k.indices.size(), c);
        CsOptions omp;
        omp.solver = CsSolver::Omp;
        const NdArray exact =
            reconstructLandscape(k.shape, k.indices, values, omp);
        const NdArray fista = reconstructLandscape(k.shape, k.indices, values);
        ASSERT_EQ(exact.shape(), k.shape);
        ASSERT_EQ(fista.shape(), k.shape);
        for (std::size_t i = 0; i < exact.size(); ++i) {
            // OMP picks the DC atom and solves for it exactly; the
            // 1 x 4 inverse DCT rounds in the last bit.
            EXPECT_DOUBLE_EQ(exact[i], c) << "OMP, point " << i;
            EXPECT_NEAR(fista[i], c, 1e-3) << "FISTA, point " << i;
        }
    }
}

// ---------------------------------------------------------------------
// The solve on an engine: every block split gives the serial solve's
// bits, for every thread count, above and below the parallel threshold.

struct EngineCase
{
    const char* name;
    std::size_t rows;
    std::size_t cols;
    bool emptyRows; ///< leave every third row (and rows 0-9) unsampled
};

void
PrintTo(const EngineCase& c, std::ostream* os)
{
    *os << c.name << " " << c.rows << "x" << c.cols;
}

class FistaOnEngine : public ::testing::TestWithParam<EngineCase>
{
};

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST_P(FistaOnEngine, BitwiseEqualToTheSerialSolve)
{
    const EngineCase c = GetParam();
    const Dct2d dct(c.rows, c.cols);
    Rng rng(c.rows * 1000 + c.cols);
    std::vector<std::size_t> indices;
    std::vector<double> values;
    for (std::size_t i :
         rng.sampleWithoutReplacement(c.rows * c.cols, c.rows * c.cols / 20)) {
        const std::size_t r = i / c.cols, col = i % c.cols;
        if (c.emptyRows && (r % 3 == 1 || r < 10))
            continue;
        indices.push_back(i);
        values.push_back(std::cos(0.21 * r) * std::sin(0.13 * col + 0.3) +
                         0.1 * std::cos(0.05 * r * col));
    }
    // A short schedule that still anneals to the final lambda (at
    // iteration 35), so the momentum restarts and the stop test's
    // reductions both run: two window checks, at iterations 56 and 76,
    // that never fire.
    FistaOptions options;
    options.maxIters = 80;
    options.lambdaFinalFraction = 0.05;
    options.tolerance = 0.0;

    const FistaResult serial = fistaSolve(dct, indices, values, options);
    ASSERT_EQ(serial.iterations, options.maxIters);
    for (int threads = 1; threads <= 4; ++threads) {
        ExecutionEngine engine(threads);
        const FistaResult pooled =
            fistaSolve(dct, indices, values, options, &engine);
        EXPECT_EQ(pooled.iterations, serial.iterations) << threads;
        EXPECT_TRUE(sameBits(pooled.residualNorm, serial.residualNorm))
            << threads;
        EXPECT_TRUE(sameBits(pooled.lambdaFraction, serial.lambdaFraction))
            << threads;
        std::size_t diffs = 0;
        for (std::size_t i = 0; i < serial.coefficients.size(); ++i)
            diffs += !sameBits(pooled.coefficients[i], serial.coefficients[i]);
        EXPECT_EQ(diffs, 0u) << threads << " threads";
    }
}

static_assert(131 * 127 >= kFistaParallelPoints &&
                  127 * 128 < kFistaParallelPoints,
              "the folds must straddle the parallel threshold");

INSTANTIATE_TEST_SUITE_P(
    Folds, FistaOnEngine,
    ::testing::Values(
        // The p2_fista fold; a prime row axis (generic radix) with an
        // odd column count; empty sample rows; just under the
        // kFistaParallelPoints threshold (runs inline on the engine).
        EngineCase{"PaperFold", 144, 225, false},
        EngineCase{"PrimeOddFold", 131, 127, false},
        EngineCase{"EmptyRows", 144, 225, true},
        EngineCase{"UnderThreshold", 127, 128, false}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
        return std::string(info.param.name);
    });

/** The p = 2 QAOA landscape of an 8-node 3-regular MaxCut graph. */
Landscape
qaoaP2Truth(const GridSpec& grid)
{
    Rng rng(8);
    const Graph g = random3RegularGraph(8, rng);
    StatevectorCost cost(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    return Landscape::gridSearch(grid, cost);
}

TEST(FistaOnEngine, StopsAtTheSameIterationOnEveryThreadCount)
{
    // Default options on the paper fold: the window test fires before
    // maxIters, at the same iteration and with the same bits for every
    // engine.
    const Landscape truth = qaoaP2Truth(GridSpec::qaoaP2(12, 15));
    const Dct2d dct(144, 225);
    Rng rng(1);
    const SampleSet samples = sampleLandscape(truth, 0.05, rng);
    const FistaOptions options;
    const FistaResult serial =
        fistaSolve(dct, samples.indices, samples.values);
    ASSERT_LT(serial.iterations, options.maxIters);
    for (int threads = 1; threads <= 4; ++threads) {
        ExecutionEngine engine(threads);
        const FistaResult pooled = fistaSolve(dct, samples.indices,
                                              samples.values, options, &engine);
        EXPECT_EQ(pooled.iterations, serial.iterations) << threads;
        EXPECT_TRUE(sameBits(pooled.residualNorm, serial.residualNorm))
            << threads;
        std::size_t diffs = 0;
        for (std::size_t i = 0; i < serial.coefficients.size(); ++i)
            diffs += !sameBits(pooled.coefficients[i], serial.coefficients[i]);
        EXPECT_EQ(diffs, 0u) << threads << " threads";
    }
}

/** Iterations the default schedule runs before lambda is final. */
std::size_t
iterationsToFinalLambda(const FistaOptions& options)
{
    std::size_t iters = 0;
    for (double f = options.lambdaInitFraction;
         f > options.lambdaFinalFraction;
         f = std::max(f * 0.7, options.lambdaFinalFraction))
        iters += options.continuationEvery;
    return iters;
}

TEST(Fista, NeverStopsWithinOneWindowOfTheFinalLambda)
{
    // When continuation ends, momentum restarts and the next steps are
    // tiny, so a per-iteration test stops a solve that is far from
    // converged. A fully sampled signal converges in one step, yet the
    // solve runs 20 iterations past its first at the final lambda; a
    // partially sampled landscape runs at least that long.
    const FistaOptions options;
    const std::size_t annealed = iterationsToFinalLambda(options);
    ASSERT_EQ(annealed, 105u);

    const Dct2d dct(16, 16);
    Rng rng(5);
    const NdArray signal = makeSparseSignal(16, 16, 4, rng, dct);
    std::vector<std::size_t> all(signal.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const FistaResult full = fistaSolve(dct, all, signal.flat());
    EXPECT_EQ(full.iterations, annealed + 21);

    const Landscape truth = qaoaP2Truth(GridSpec::qaoaP2(8, 10));
    const SampleSet samples = sampleLandscape(truth, 0.1, rng);
    const FistaResult sampled =
        fistaSolve(Dct2d(64, 100), samples.indices, samples.values);
    EXPECT_GT(sampled.iterations, annealed + 20);
}

TEST(FistaOnEngine, OscarPipelineIsBitwiseEqualAcrossThreadCounts)
{
    // The pipeline hands its engine to the solve: numThreads 1 (the
    // serial engine) and 4 reconstruct the paper fold identically.
    const GridSpec grid = GridSpec::qaoaP2(12, 15);
    NdArray values(grid.shape());
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = std::cos(0.002 * static_cast<double>(i)) +
                    0.3 * std::sin(0.05 * static_cast<double>(i % 225));
    const Landscape truth(grid, std::move(values));

    OscarOptions options;
    options.samplingFraction = 0.05;
    options.cs.fista.maxIters = 40;
    options.numThreads = 1;
    const OscarResult serial = Oscar::reconstructFromLandscape(truth, options);
    options.numThreads = 4;
    const OscarResult pooled = Oscar::reconstructFromLandscape(truth, options);
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < grid.numPoints(); ++i)
        diffs += !sameBits(serial.reconstructed.value(i),
                           pooled.reconstructed.value(i));
    EXPECT_EQ(diffs, 0u);
}

// ---------------------------------------------------------------------
// Accuracy gate: reconstruction quality on real QAOA landscapes must
// not drift. A solver change that reorders floating point may move
// these within the tolerance; a change that gives up quality fails
// here.

struct GoldenNrmse
{
    CsSolver solver;
    std::uint64_t seed;
    double nrmse;
};

/**
 * Reconstruct `truth` at `fraction` and hold each solve's NRMSE within
 * 2% of its golden.
 */
void
expectGoldenNrmse(const Landscape& truth, double fraction,
                  const std::vector<GoldenNrmse>& goldens)
{
    for (const GoldenNrmse& golden : goldens) {
        OscarOptions options;
        options.samplingFraction = fraction;
        options.seed = golden.seed;
        options.cs.solver = golden.solver;
        options.cs.omp.maxAtoms = 160;
        const auto result = Oscar::reconstructFromLandscape(truth, options);
        EXPECT_NEAR(nrmse(truth.values(), result.reconstructed.values()),
                    golden.nrmse, 0.02 * golden.nrmse)
            << (golden.solver == CsSolver::Fista ? "FISTA" : "OMP-160")
            << " seed " << golden.seed;
    }
}

TEST(AccuracyGate, QaoaP2LandscapeNrmseMatchesGolden)
{
    // Grid (8, 8, 10, 10) folded to 64 x 100, 10% sampled. Goldens
    // recorded with the row-by-row Dct1d solver these transforms
    // replaced.
    expectGoldenNrmse(qaoaP2Truth(GridSpec::qaoaP2(8, 10)), 0.1,
                      {
                          {CsSolver::Fista, 1, 0.22689992313647633},
                          {CsSolver::Fista, 2, 0.21158258527827836},
                          {CsSolver::Fista, 3, 0.20302002379635192},
                          {CsSolver::Omp, 1, 0.23759007048575848},
                          {CsSolver::Omp, 2, 0.24630153801724478},
                          {CsSolver::Omp, 3, 0.2617007530321791},
                      });
}

TEST(AccuracyGate, QaoaP2PaperFoldNrmseMatchesGolden)
{
    // The fold of the paper's p = 2 grid, (12, 12, 15, 15) -> 144 x 225,
    // 5% sampled, where the fast transform's row axis is longest.
    // Goldens recorded with the direct-product transforms DctPlan
    // replaced.
    expectGoldenNrmse(qaoaP2Truth(GridSpec::qaoaP2(12, 15)), 0.05,
                      {
                          {CsSolver::Fista, 1, 0.18672328982966704},
                          {CsSolver::Fista, 2, 0.19286597147710938},
                          {CsSolver::Fista, 3, 0.17367105451494017},
                      });
}

TEST(AccuracyGate, QaoaP1LandscapeNrmseMatchesGolden)
{
    // The p1_exec shape: the closed-form p = 1 landscape of a 20-node
    // 3-regular MaxCut graph on the 50 x 100 grid, 3% sampled. The
    // defaults before the window stop test (lambda final 1e-4, 800
    // iterations) gave 0.0630, 0.0471 and 0.0310.
    Rng rng(20);
    const Graph g = random3RegularGraph(20, rng);
    AnalyticQaoaCost cost(g);
    expectGoldenNrmse(Landscape::gridSearch(GridSpec::qaoaP1(), cost), 0.03,
                      {
                          {CsSolver::Fista, 1, 0.048574209362485195},
                          {CsSolver::Fista, 2, 0.031230248436232618},
                          {CsSolver::Fista, 3, 0.034807134476122499},
                      });
}

} // namespace
} // namespace oscar

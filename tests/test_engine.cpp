/**
 * @file
 * Tests for the asynchronous ExecutionEngine and the batch/ordinal
 * contract of CostFunction:
 *
 *  - evaluateBatch matches per-point evaluate bit for bit on every
 *    backend, including the stochastic ones (ordinal-keyed streams);
 *  - submit(...).get() is bit-identical to the serial batch path for
 *    every backend, any thread count, and any completion order;
 *  - query counting is atomic and batch-aware; streaming callbacks
 *    and BatchHandle::stats report every point exactly once;
 *  - the full Oscar::reconstruct pipeline is bit-identical for 1 and
 *    N threads at a fixed seed, as are the multi-QPU scheduler's
 *    assignment policies and the speculative Nelder-Mead probes;
 *  - the registry's engine counters grow by exactly the sum of every
 *    finished batch's stats(), cancelled batches included.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "src/ansatz/qaoa.h"
#include "src/ansatz/two_local.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/density_backend.h"
#include "src/backend/engine.h"
#include "src/backend/global_damping.h"
#include "src/backend/hardware_dataset.h"
#include "src/backend/statevector_backend.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/interp/bicubic.h"
#include "src/interp/multilinear.h"
#include "src/landscape/sampler.h"
#include "src/obs/metrics.h"
#include "src/optimize/adam.h"
#include "src/optimize/nelder_mead.h"
#include "src/parallel/latency_model.h"
#include "src/parallel/scheduler.h"

#include <map>
#include <mutex>

namespace oscar {
namespace {

Graph
testGraph()
{
    Rng rng(11);
    return random3RegularGraph(8, rng);
}

std::vector<std::vector<double>>
testPoints(std::size_t n)
{
    Rng rng(5);
    std::vector<std::vector<double>> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back({rng.uniform(-0.8, 0.8), rng.uniform(-1.6, 1.6)});
    return points;
}

/** A stochastic cost: shot noise keyed by ordinal over a statevector. */
ShotNoiseCost
shotNoiseStatevector(const Graph& g, std::size_t shots, std::uint64_t seed)
{
    return ShotNoiseCost(std::make_shared<StatevectorCost>(
                             qaoaCircuit(g, 1), maxcutHamiltonian(g)),
                         shots, 1.0, seed);
}

/**
 * The core parity check: two freshly built identical evaluators must
 * produce bit-identical results whether driven point by point, as one
 * serial batch, or as a threaded engine batch.
 */
void
expectScalarBatchThreadedParity(CostFunction& scalar, CostFunction& batch,
                                CostFunction& threaded)
{
    const auto points = testPoints(24);

    std::vector<double> one_by_one;
    one_by_one.reserve(points.size());
    for (const auto& p : points)
        one_by_one.push_back(scalar.evaluate(p));

    const std::vector<double> batched = batch.evaluateBatch(points);

    // The asynchronous acceptance criterion: submit(...).get() on a
    // 4-thread engine equals the serial batch for every backend.
    ExecutionEngine engine(4);
    const std::vector<double> pooled =
        engine.submit(threaded, points).get();

    ASSERT_EQ(one_by_one.size(), batched.size());
    ASSERT_EQ(one_by_one.size(), pooled.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(one_by_one[i], batched[i]) << "batch mismatch at " << i;
        EXPECT_EQ(one_by_one[i], pooled[i]) << "thread mismatch at " << i;
    }

    EXPECT_EQ(scalar.numQueries(), points.size());
    EXPECT_EQ(batch.numQueries(), points.size());
    EXPECT_EQ(threaded.numQueries(), points.size());
}

TEST(Engine, StatevectorParity)
{
    const Graph g = testGraph();
    StatevectorCost a(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    StatevectorCost b(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    StatevectorCost c(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    expectScalarBatchThreadedParity(a, b, c);
}

TEST(Engine, DensityParity)
{
    Rng rng(21);
    const Graph g = random3RegularGraph(4, rng);
    NoiseModel noise;
    noise.p1 = 0.002;
    noise.p2 = 0.01;
    DensityCost a(qaoaCircuit(g, 1), maxcutHamiltonian(g), noise);
    DensityCost b(qaoaCircuit(g, 1), maxcutHamiltonian(g), noise);
    DensityCost c(qaoaCircuit(g, 1), maxcutHamiltonian(g), noise);
    expectScalarBatchThreadedParity(a, b, c);
}

TEST(Engine, AnalyticQaoaParity)
{
    const Graph g = testGraph();
    AnalyticQaoaCost a(g), b(g), c(g);
    expectScalarBatchThreadedParity(a, b, c);
}

TEST(Engine, GlobalDampingParity)
{
    const Graph g = testGraph();
    NoiseModel noise;
    noise.p1 = 0.003;
    noise.p2 = 0.015;
    GlobalDampingCost a(qaoaCircuit(g, 1), maxcutHamiltonian(g), noise);
    GlobalDampingCost b(qaoaCircuit(g, 1), maxcutHamiltonian(g), noise);
    GlobalDampingCost c(qaoaCircuit(g, 1), maxcutHamiltonian(g), noise);
    expectScalarBatchThreadedParity(a, b, c);
}

TEST(Engine, ShotNoiseParity)
{
    const Graph g = testGraph();
    auto make = [&] {
        return ShotNoiseCost(std::make_shared<AnalyticQaoaCost>(g), 512,
                             1.0, 13);
    };
    ShotNoiseCost a = make(), b = make(), c = make();
    expectScalarBatchThreadedParity(a, b, c);
}

TEST(Engine, InterpolatedLandscapeParity)
{
    const Graph g = testGraph();
    AnalyticQaoaCost cost(g);
    const GridSpec grid = GridSpec::qaoaP1(12, 16);
    const Landscape truth = Landscape::gridSearch(grid, cost);

    InterpolatedLandscapeCost a(truth), b(truth), c(truth);
    expectScalarBatchThreadedParity(a, b, c);

    MultilinearLandscapeCost ma(truth), mb(truth), mc(truth);
    expectScalarBatchThreadedParity(ma, mb, mc);
}

TEST(Engine, HardwareDatasetReplayParity)
{
    // Dataset replay: gatherLandscape through a threaded engine equals
    // direct lookups.
    const Graph g = testGraph();
    const GridSpec grid = GridSpec::qaoaP1(20, 20);
    const Landscape synth =
        syntheticHardwareLandscape(g, grid, HardwareDatasetOptions{});

    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < synth.numPoints(); i += 3)
        indices.push_back(i);

    ExecutionEngine engine(4);
    const SampleSet gathered = gatherLandscape(synth, indices, &engine);
    ASSERT_EQ(gathered.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(gathered.values[i], synth.value(indices[i]));
}

TEST(Engine, NonCloneableCostFallsBackToSerial)
{
    LambdaCost cost(2, [](const std::vector<double>& p) {
        return p[0] * p[0] + p[1];
    });
    ASSERT_EQ(cost.clone(), nullptr);

    ExecutionEngine engine(4);
    const auto points = testPoints(32);
    const std::vector<double> values = engine.evaluate(cost, points);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(values[i], points[i][0] * points[i][0] + points[i][1]);
    EXPECT_EQ(cost.numQueries(), points.size());
}

TEST(Engine, ThreadSafeLambdaRunsPooled)
{
    LambdaCost serial(
        2, [](const std::vector<double>& p) { return p[0] - p[1]; },
        /*thread_safe=*/true);
    ASSERT_NE(serial.clone(), nullptr);

    ExecutionEngine engine(4);
    const auto points = testPoints(64);
    const std::vector<double> values = engine.evaluate(serial, points);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(values[i], points[i][0] - points[i][1]);
    EXPECT_EQ(serial.numQueries(), points.size());
}

TEST(Engine, QueryCountingIsThreadSafe)
{
    // Hammer one evaluator from many threads; the atomic counter must
    // see every single query.
    LambdaCost cost(
        1, [](const std::vector<double>& p) { return p[0]; },
        /*thread_safe=*/true);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cost] {
            for (int i = 0; i < kPerThread; ++i)
                cost.evaluate({1.0});
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(cost.numQueries(),
              static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(Engine, GatherCostMatchesScalarPath)
{
    const Graph g = testGraph();
    StatevectorCost scalar(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    StatevectorCost batched(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    const GridSpec grid = GridSpec::qaoaP1(10, 14);

    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < grid.numPoints(); i += 7)
        indices.push_back(i);

    ExecutionEngine engine(3);
    const SampleSet set = gatherCost(grid, batched, indices, &engine);
    ASSERT_EQ(set.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(set.values[i], scalar.evaluate(grid.pointAt(indices[i])));
}

TEST(Engine, ReconstructBitIdenticalAcrossThreadCounts)
{
    const Graph g = testGraph();
    const GridSpec grid = GridSpec::qaoaP1(20, 30);

    OscarOptions serial_options;
    serial_options.samplingFraction = 0.1;
    serial_options.seed = 42;
    serial_options.numThreads = 1;

    OscarOptions pooled_options = serial_options;
    pooled_options.numThreads = 4;

    // Deterministic backend.
    {
        StatevectorCost a(qaoaCircuit(g, 1), maxcutHamiltonian(g));
        StatevectorCost b(qaoaCircuit(g, 1), maxcutHamiltonian(g));
        const OscarResult serial =
            Oscar::reconstruct(grid, a, serial_options);
        const OscarResult pooled =
            Oscar::reconstruct(grid, b, pooled_options);
        ASSERT_EQ(serial.samples.indices, pooled.samples.indices);
        ASSERT_EQ(serial.samples.values, pooled.samples.values);
        for (std::size_t i = 0; i < serial.reconstructed.numPoints(); ++i)
            EXPECT_EQ(serial.reconstructed.value(i),
                      pooled.reconstructed.value(i));
    }

    // Stochastic backend: ordinal-keyed streams keep N-thread runs
    // bit-identical too.
    {
        ShotNoiseCost a = shotNoiseStatevector(g, 128, 3);
        ShotNoiseCost b = shotNoiseStatevector(g, 128, 3);
        const OscarResult serial =
            Oscar::reconstruct(grid, a, serial_options);
        const OscarResult pooled =
            Oscar::reconstruct(grid, b, pooled_options);
        ASSERT_EQ(serial.samples.values, pooled.samples.values);
    }
}

TEST(Engine, ParallelSamplingBitIdenticalAcrossThreadCounts)
{
    const Graph g = testGraph();
    const GridSpec grid = GridSpec::qaoaP1(16, 20);

    auto make_devices = [&] {
        std::vector<QpuDevice> devices;
        for (int d = 0; d < 2; ++d) {
            QpuDevice dev;
            dev.name = "qpu" + std::to_string(d);
            dev.cost = std::make_shared<ShotNoiseCost>(
                shotNoiseStatevector(g, 64, 100 + d));
            dev.latency = LatencyModel{};
            devices.push_back(std::move(dev));
        }
        return devices;
    };

    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < grid.numPoints(); i += 5)
        indices.push_back(i);

    auto devices_serial = make_devices();
    Rng rng_serial(1234);
    const ParallelRunResult serial = runParallelSampling(
        grid, devices_serial, indices, rng_serial);

    auto devices_pooled = make_devices();
    Rng rng_pooled(1234);
    ExecutionEngine engine(4);
    const ParallelRunResult pooled = runParallelSampling(
        grid, devices_pooled, indices, rng_pooled,
        Assignment::RoundRobin, {}, &engine);

    ASSERT_EQ(serial.samples.size(), pooled.samples.size());
    EXPECT_EQ(serial.makespan, pooled.makespan);
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
        EXPECT_EQ(serial.samples[i].index, pooled.samples[i].index);
        EXPECT_EQ(serial.samples[i].value, pooled.samples[i].value);
        EXPECT_EQ(serial.samples[i].completionTime,
                  pooled.samples[i].completionTime);
    }
}

/** All grid points in prefix-friendly axis-major order for `cost`. */
std::vector<std::vector<double>>
axisMajorPoints(const GridSpec& grid, const CostFunction& cost)
{
    std::vector<std::size_t> indices(grid.numPoints());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    const auto perm =
        grid.prefixFriendlyPermutation(indices, cost.batchOrderHint());
    std::vector<std::vector<double>> points;
    points.reserve(indices.size());
    for (std::size_t p : perm)
        points.push_back(grid.pointAt(indices[p]));
    return points;
}

/**
 * Prefix-resume parity core: `batched` evaluated in batches of
 * `batch_size` and `threaded` through a 4-thread engine must match
 * per-point evaluate() on `reference` (which always replays from
 * scratch) bit for bit.
 */
void
expectResumeParity(CostFunction& reference, CostFunction& batched,
                   CostFunction& threaded,
                   const std::vector<std::vector<double>>& points,
                   std::size_t batch_size)
{
    std::vector<double> scalar;
    scalar.reserve(points.size());
    for (const auto& p : points)
        scalar.push_back(reference.evaluate(p));

    std::vector<double> chunked;
    for (std::size_t lo = 0; lo < points.size(); lo += batch_size) {
        const std::size_t hi = std::min(points.size(), lo + batch_size);
        const std::vector<std::vector<double>> batch(
            points.begin() + static_cast<std::ptrdiff_t>(lo),
            points.begin() + static_cast<std::ptrdiff_t>(hi));
        const auto values = batched.evaluateBatch(batch);
        chunked.insert(chunked.end(), values.begin(), values.end());
    }

    ExecutionEngine engine(4);
    const std::vector<double> pooled = engine.evaluate(threaded, points);

    ASSERT_EQ(scalar.size(), chunked.size());
    ASSERT_EQ(scalar.size(), pooled.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        EXPECT_EQ(scalar[i], chunked[i]) << "batch mismatch at " << i;
        EXPECT_EQ(scalar[i], pooled[i]) << "thread mismatch at " << i;
    }
}

/** Fisher-Yates shuffle of `points` with a fixed seed. */
void
shufflePoints(std::vector<std::vector<double>>& points, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng.uniformInt(i)]);
}

/**
 * Points of `cost` from digit rows: row[k] picks one of `values` for
 * the k-th parameter in first-use order (batchOrderHint), so the rows
 * spell out which frontier levels consecutive points share.
 */
std::vector<std::vector<double>>
pointsFromDigits(const StatevectorCost& cost,
                 const std::vector<std::vector<int>>& rows,
                 const std::vector<double>& values)
{
    const std::vector<int> order = cost.batchOrderHint();
    std::vector<std::vector<double>> points;
    for (const auto& row : rows) {
        std::vector<double> p(order.size());
        for (std::size_t k = 0; k < order.size(); ++k)
            p[static_cast<std::size_t>(order[k])] =
                values[static_cast<std::size_t>(row[k])];
        points.push_back(std::move(p));
    }
    return points;
}

TEST(Engine, StatevectorResumeParityAxisMajorAndShuffled)
{
    // p=2 QAOA: axis-major sweep, odd batch size so batch boundaries
    // land mid-run, then the same points shuffled.
    Rng rng(31);
    const Graph g = random3RegularGraph(6, rng);
    const GridSpec grid = GridSpec::qaoaP2(3, 4);

    auto make = [&] {
        return StatevectorCost(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    };
    auto points = axisMajorPoints(grid, make());
    {
        StatevectorCost reference = make(), batched = make(),
                        threaded = make();
        expectResumeParity(reference, batched, threaded, points, 17);
        EXPECT_GT(batched.kernelStats().cacheHits, 0u);
        EXPECT_EQ(batched.kernelStats().cacheLookups, points.size());
    }
    shufflePoints(points, 7);
    {
        StatevectorCost reference = make(), batched = make(),
                        threaded = make();
        expectResumeParity(reference, batched, threaded, points, 13);
    }
}

TEST(Engine, StatevectorResumeParityP3)
{
    // p=3 QAOA has four frontier levels; two values per parameter
    // make a 64-point axis-major sweep. Batches of 5 split its runs.
    Rng rng(35);
    const Graph g = random3RegularGraph(6, rng);
    auto make = [&] {
        return StatevectorCost(qaoaCircuit(g, 3), maxcutHamiltonian(g));
    };
    const StatevectorCost probe = make();
    ASSERT_EQ(probe.compiled().frontierLevels().size(), 4u);
    auto points = axisMajorPoints(
        GridSpec(std::vector<GridAxis>(6, GridAxis{-0.7, 0.3, 2})), probe);
    for (std::size_t batch_size : {5u, 64u}) {
        StatevectorCost reference = make(), batched = make(),
                        threaded = make();
        expectResumeParity(reference, batched, threaded, points,
                           batch_size);
        EXPECT_GT(batched.kernelStats().cacheHits, 0u);
    }
    shufflePoints(points, 8);
    StatevectorCost reference = make(), batched = make(),
                    threaded = make();
    expectResumeParity(reference, batched, threaded, points, 5);
}

TEST(Engine, StatevectorResumeParityHalfState)
{
    // 12q p=2 MaxCut replays an 11-qubit half state that the block
    // window splits; the resume buffers and the group scratch hold
    // 2^11 amplitudes. evaluate(), batches, a clone and 1-4 threads
    // agree bit for bit.
    Rng rng(37);
    const Graph g = random3RegularGraph(12, rng);
    auto make = [&] {
        return StatevectorCost(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    };
    const StatevectorCost probe = make();
    ASSERT_TRUE(probe.compiled().halfState());
    ASSERT_EQ(probe.compiled().stateDim(), std::size_t{1} << 11);
    const auto points = axisMajorPoints(GridSpec::qaoaP2(3, 3), probe);

    StatevectorCost reference = make(), batched = make(),
                    threaded = make();
    expectResumeParity(reference, batched, threaded, points, 7);
    EXPECT_GT(batched.kernelStats().cacheHits, 0u);
    EXPECT_GT(batched.kernelStats().batchedDiagonalPoints, 0u);

    std::vector<double> scalar;
    for (const auto& p : points)
        scalar.push_back(reference.evaluate(p));
    const std::unique_ptr<CostFunction> clone = batched.clone();
    const auto cloned = clone->evaluateBatch(points);
    for (int threads = 1; threads <= 4; ++threads) {
        ExecutionEngine engine(threads);
        StatevectorCost cost = make();
        const auto pooled = engine.evaluate(cost, points);
        for (std::size_t i = 0; i < points.size(); ++i)
            EXPECT_EQ(scalar[i], pooled[i])
                << threads << " thread(s), point " << i;
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(scalar[i], cloned[i]) << "clone, point " << i;
}

TEST(Engine, StatevectorResumeNeedsOneBufferPerLevel)
{
    // p=3 digit rows in first-use order (gamma0, beta0, gamma1, ...):
    // frontier level l needs the first l + 2 digits equal. Row 2
    // shares two levels with row 1 after row 1 shared four with row
    // 0, so it resumes from a state row 0 kept and row 1 never
    // touched; row 4 shares one level with row 3 after row 3 shared
    // three with row 2. One buffer in total would hold the wrong state
    // for both.
    Rng rng(36);
    const Graph g = random3RegularGraph(6, rng);
    auto make = [&] {
        return StatevectorCost(qaoaCircuit(g, 3), maxcutHamiltonian(g));
    };
    const StatevectorCost probe = make();
    ASSERT_EQ(probe.compiled().frontierLevels().size(), 4u);
    const auto points = pointsFromDigits(probe,
                                         {{0, 0, 0, 0, 0, 0},
                                          {0, 0, 0, 0, 0, 1},
                                          {0, 0, 0, 1, 0, 0},
                                          {0, 0, 0, 1, 1, 0},
                                          {0, 0, 1, 0, 0, 0},
                                          {0, 0, 1, 0, 0, 1},
                                          {1, 0, 0, 0, 0, 0},
                                          {1, 0, 0, 0, 0, 0},
                                          {0, 0, 0, 0, 0, 0}},
                                         {0.2, -0.5});
    for (std::size_t batch_size : {4u, 9u}) {
        StatevectorCost reference = make(), batched = make(),
                        threaded = make();
        expectResumeParity(reference, batched, threaded, points,
                           batch_size);
    }
    StatevectorCost batched = make();
    batched.evaluateBatch(points);
    // Every row resumes but the first, the first 1-row and the last.
    EXPECT_EQ(batched.kernelStats().cacheHits, 6u);
    EXPECT_EQ(batched.kernelStats().cacheLookups, points.size());
}

TEST(Engine, StatevectorResumeParityTwoLocal)
{
    // two_local: nothing compiles to phase ops, and the non-diagonal
    // Hamiltonian goes through the general Pauli path instead of the
    // diagonal table.
    PauliSum h(5);
    h.add(0.8, "XZIII");
    h.add(-0.6, "IYYII");
    h.add(0.4, "ZZIIZ");
    h.add(0.3, "IIXXI");
    ASSERT_FALSE(h.isDiagonal());

    const Circuit circuit = twoLocalCircuit(5, 1);
    auto make = [&] { return StatevectorCost(circuit, h); };

    // Points sharing long prefixes: only the trailing parameters vary.
    Rng rng(33);
    std::vector<std::vector<double>> points;
    std::vector<double> base(static_cast<std::size_t>(circuit.numParams()),
                             0.25);
    for (int i = 0; i < 9; ++i) {
        auto p = base;
        p[p.size() - 1] = rng.uniform(-1.0, 1.0);
        if (i % 3 == 0)
            p[p.size() - 2] = rng.uniform(-1.0, 1.0);
        if (i % 4 == 0)
            p[0] = rng.uniform(-1.0, 1.0);
        points.push_back(std::move(p));
    }
    {
        StatevectorCost reference = make(), batched = make(),
                        threaded = make();
        expectResumeParity(reference, batched, threaded, points, 4);
        EXPECT_GT(batched.kernelStats().cacheHits, 0u);
    }
    shufflePoints(points, 9);
    StatevectorCost reference = make(), batched = make(),
                    threaded = make();
    expectResumeParity(reference, batched, threaded, points, 4);
}

TEST(Engine, AnalyticQaoaPrefixParity)
{
    const Graph g = testGraph();
    const GridSpec grid = GridSpec::qaoaP1(7, 9);

    AnalyticQaoaCost reference(g), batched(g), threaded(g);
    const auto points = axisMajorPoints(grid, batched);
    expectResumeParity(reference, batched, threaded, points, 11);
}

TEST(Engine, GridSearchPrefixOrderingMatchesScalar)
{
    // gridSearch submits in prefix-friendly order and scatters back;
    // the landscape must equal the naive row-major scalar sweep.
    Rng rng(34);
    const Graph g = random3RegularGraph(6, rng);
    const GridSpec grid = GridSpec::qaoaP2(3, 3);

    StatevectorCost searched(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    const Landscape land = Landscape::gridSearch(grid, searched);

    StatevectorCost scalar(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    for (std::size_t i = 0; i < grid.numPoints(); ++i)
        EXPECT_EQ(land.value(i), scalar.evaluate(grid.pointAt(i)))
            << "grid point " << i;
    EXPECT_EQ(searched.numQueries(), grid.numPoints());
}

TEST(Engine, PrefixFriendlyPermutationOrdersAxes)
{
    // 2x3 grid, priority {axis 1 slowest}: expect axis-1-major order.
    const GridSpec grid({{0.0, 1.0, 2}, {0.0, 1.0, 3}});
    std::vector<std::size_t> indices(grid.numPoints());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;

    const auto perm = grid.prefixFriendlyPermutation(indices, {1, 0});
    // Row-major flat = a0 * 3 + a1; axis-1-major order sorts by
    // (a1, a0): flats 0,3,1,4,2,5.
    const std::vector<std::size_t> expected = {0, 3, 1, 4, 2, 5};
    ASSERT_EQ(perm.size(), expected.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        EXPECT_EQ(indices[perm[i]], expected[i]);

    EXPECT_THROW(grid.prefixFriendlyPermutation(indices, {2}),
                 std::invalid_argument);
    EXPECT_THROW(grid.prefixFriendlyPermutation(indices, {0, 0}),
                 std::invalid_argument);
}

TEST(Engine, OptimizerWithEngineMatchesSerial)
{
    const Graph g = testGraph();
    StatevectorCost a(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    StatevectorCost b(qaoaCircuit(g, 1), maxcutHamiltonian(g));

    AdamOptions options;
    options.maxIterations = 10;

    Adam serial(options);
    const OptimizerResult r1 = serial.minimize(a, {0.1, -0.2});

    ExecutionEngine engine(4);
    Adam pooled(options);
    pooled.setEngine(&engine);
    const OptimizerResult r2 = pooled.minimize(b, {0.1, -0.2});

    EXPECT_EQ(r1.bestValue, r2.bestValue);
    EXPECT_EQ(r1.bestParams, r2.bestParams);
    EXPECT_EQ(r1.numQueries, r2.numQueries);
}

// ----------------------------------------------------------------
// Asynchronous submission API
// ----------------------------------------------------------------

TEST(AsyncEngine, SubmitGetMatchesEvaluate)
{
    const Graph g = testGraph();
    ShotNoiseCost a = shotNoiseStatevector(g, 128, 5);
    ShotNoiseCost b = shotNoiseStatevector(g, 128, 5);
    const auto points = testPoints(24);

    const std::vector<double> reference = a.evaluateBatch(points);

    ExecutionEngine engine(4);
    BatchHandle handle = engine.submit(b, points);
    const std::vector<double> async = handle.get();
    ASSERT_EQ(reference, async);
    EXPECT_TRUE(handle.done());
    EXPECT_EQ(b.numQueries(), points.size());

    const BatchStats stats = handle.stats();
    EXPECT_EQ(stats.pointsTotal, points.size());
    EXPECT_EQ(stats.pointsCompleted, points.size());
    EXPECT_EQ(stats.pointsCancelled, 0u);

    // get() is repeatable.
    EXPECT_EQ(async, handle.get());
}

TEST(AsyncEngine, OverlappingBatchesAnyCompletionOrder)
{
    // Three batches in flight on one stochastic cost, collected in
    // reverse submission order: ordinals are reserved at submission,
    // so the concatenated results equal the serial stream regardless
    // of completion or collection order.
    const Graph g = testGraph();
    ShotNoiseCost serial = shotNoiseStatevector(g, 128, 17);
    ShotNoiseCost async = shotNoiseStatevector(g, 128, 17);

    const auto all = testPoints(60);
    const std::vector<std::vector<double>> batches[3] = {
        {all.begin(), all.begin() + 20},
        {all.begin() + 20, all.begin() + 40},
        {all.begin() + 40, all.end()},
    };

    const std::vector<double> reference = serial.evaluateBatch(all);

    ExecutionEngine engine(4);
    BatchHandle h0 = engine.submit(async, batches[0]);
    BatchHandle h1 = engine.submit(async, batches[1]);
    BatchHandle h2 = engine.submit(async, batches[2]);
    const std::vector<double> v2 = h2.get();
    const std::vector<double> v1 = h1.get();
    const std::vector<double> v0 = h0.get();

    std::vector<double> collected = v0;
    collected.insert(collected.end(), v1.begin(), v1.end());
    collected.insert(collected.end(), v2.begin(), v2.end());
    EXPECT_EQ(reference, collected);
    EXPECT_EQ(async.numQueries(), all.size());
}

TEST(AsyncEngine, OnCompleteStreamsEveryPointExactlyOnce)
{
    LambdaCost cost(
        2, [](const std::vector<double>& p) { return p[0] + 2.0 * p[1]; },
        /*thread_safe=*/true);
    const auto points = testPoints(64);

    std::mutex seen_mutex;
    std::map<std::size_t, double> seen;
    SubmitOptions options;
    options.onComplete = [&](std::size_t index, double value) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        EXPECT_EQ(seen.count(index), 0u) << "duplicate callback";
        seen[index] = value;
    };

    ExecutionEngine engine(4);
    BatchHandle handle = engine.submit(cost, points, options);
    const std::vector<double> values = handle.get();

    // done() flips only after the last callback returned, so no lock
    // is needed to inspect the map now.
    ASSERT_EQ(seen.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(seen.at(i), values[i]);
}

TEST(AsyncEngine, StatsReportPrefixResumes)
{
    Rng rng(41);
    const Graph g = random3RegularGraph(6, rng);
    const GridSpec grid = GridSpec::qaoaP2(3, 4);
    StatevectorCost cost(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    const auto points = axisMajorPoints(grid, cost);

    // Serial engine: the batch runs inline on the parent evaluator,
    // whose own counters must match the handle's delta.
    BatchHandle handle = ExecutionEngine::serial().submit(cost, points);
    const BatchStats stats = handle.stats(); // pre-wait: may be zero
    (void)stats;
    handle.wait();
    const BatchStats done = handle.stats();
    EXPECT_EQ(done.pointsCompleted, points.size());
    EXPECT_GT(done.kernel.cacheLookups, 0u);
    EXPECT_GT(done.kernel.cacheHits, 0u);
    EXPECT_EQ(done.kernel.cacheHits, cost.kernelStats().cacheHits);
    EXPECT_EQ(done.kernel.cacheLookups, cost.kernelStats().cacheLookups);
    // Every point has a frontier level, and each point that shares
    // the first one with its predecessor resumes.
    const auto& levels = cost.compiled().frontierLevels();
    std::size_t sharing = 0;
    for (std::size_t i = 1; i < points.size(); ++i)
        sharing += cost.compiled().sharedPrefixLength(
                       points[i - 1], points[i]) >= levels.front();
    EXPECT_EQ(done.kernel.cacheLookups, points.size());
    EXPECT_EQ(done.kernel.cacheHits, sharing);

    // Per-point evaluate() replays from scratch and counts nothing.
    cost.evaluate(points[1]);
    EXPECT_EQ(cost.kernelStats().cacheLookups, points.size());
}

TEST(AsyncEngine, RegistryCountsEachBatchOnceIncludingCancelled)
{
    // Metrics have no switch: every batch adds its stats() to the
    // registry exactly once, when it finishes -- completed or
    // cancelled -- so the registry grows by the sum of the batches.
    obs::Registry& registry = obs::Registry::global();
    const auto counters = [&registry] {
        return std::vector<std::uint64_t>{
            registry.counter("engine.points.completed").value(),
            registry.counter("engine.points.cancelled").value(),
            registry.counter("engine.cache.hits").value(),
            registry.counter("engine.cache.lookups").value()};
    };
    obs::Histogram& latency =
        registry.histogram("engine.batch.latency.ns");
    const std::vector<std::uint64_t> before = counters();
    const std::uint64_t batches_before = latency.snapshot().count;

    Rng rng(41);
    const Graph g = random3RegularGraph(6, rng);
    const GridSpec grid = GridSpec::qaoaP2(3, 4);

    // Completed on four threads (several chunks, one per replica).
    StatevectorCost completed_cost(qaoaCircuit(g, 2),
                                   maxcutHamiltonian(g));
    const auto points = axisMajorPoints(grid, completed_cost);
    ExecutionEngine engine(4);
    BatchHandle completed = engine.submit(completed_cost, points);
    completed.get();

    // Cancelled before it runs: a serial batch executes only when
    // waited on.
    StatevectorCost cancelled_cost(qaoaCircuit(g, 2),
                                   maxcutHamiltonian(g));
    BatchHandle cancelled =
        ExecutionEngine::serial().submit(cancelled_cost, points);
    ASSERT_TRUE(cancelled.cancel());
    cancelled.wait();

    BatchStats sum = completed.stats();
    sum += cancelled.stats();
    EXPECT_EQ(sum.pointsCompleted, points.size());
    EXPECT_EQ(sum.pointsCancelled, points.size());
    EXPECT_GT(sum.kernel.cacheHits, 0u);
    EXPECT_EQ(sum.kernel.cacheLookups, points.size());

    const std::vector<std::uint64_t> after = counters();
    EXPECT_EQ(after[0] - before[0], sum.pointsCompleted);
    EXPECT_EQ(after[1] - before[1], sum.pointsCancelled);
    EXPECT_EQ(after[2] - before[2], sum.kernel.cacheHits);
    EXPECT_EQ(after[3] - before[3], sum.kernel.cacheLookups);
    EXPECT_EQ(latency.snapshot().count - batches_before, 2u);
}

TEST(AsyncEngine, OscarResultSurfacesExecutionStats)
{
    // p=2: a p=1 QAOA cost replays its first cost layer as a phase
    // fill and has no frontier levels, so it never resumes a point.
    const Graph g = testGraph();
    const GridSpec grid = GridSpec::qaoaP2(4, 5);
    StatevectorCost cost(qaoaCircuit(g, 2), maxcutHamiltonian(g));

    OscarOptions options;
    options.samplingFraction = 0.2;
    options.numThreads = 1;
    const OscarResult result = Oscar::reconstruct(grid, cost, options);
    EXPECT_EQ(result.execution.pointsTotal, result.samples.size());
    EXPECT_EQ(result.execution.pointsCompleted, result.samples.size());
    EXPECT_GT(result.execution.kernel.cacheLookups, 0u);
}

TEST(AsyncEngine, NelderMeadSpeculativeMatchesPlainOnDeterministicCost)
{
    const Graph g = testGraph();
    StatevectorCost plain_cost(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    StatevectorCost spec_cost(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    StatevectorCost spec_serial_cost(qaoaCircuit(g, 1),
                                     maxcutHamiltonian(g));

    NelderMeadOptions options;
    options.maxIterations = 25;

    NelderMead plain(options);
    const OptimizerResult reference =
        plain.minimize(plain_cost, {0.2, -0.4});

    // Speculative probes on a pooled engine: same trajectory, same
    // answer (deterministic backend; ordinals are irrelevant to it).
    NelderMeadOptions spec_options = options;
    spec_options.speculative = true;
    ExecutionEngine engine(4);
    NelderMead speculative(spec_options);
    speculative.setEngine(&engine);
    const OptimizerResult spec =
        speculative.minimize(spec_cost, {0.2, -0.4});
    EXPECT_EQ(reference.bestValue, spec.bestValue);
    EXPECT_EQ(reference.bestParams, spec.bestParams);
    EXPECT_EQ(reference.path, spec.path);

    // On a serial engine every cancel lands before the loser would
    // run, so speculation costs exactly zero extra queries.
    ExecutionEngine serial_engine(1);
    NelderMead spec_serial(spec_options);
    spec_serial.setEngine(&serial_engine);
    const OptimizerResult serial_run =
        spec_serial.minimize(spec_serial_cost, {0.2, -0.4});
    EXPECT_EQ(reference.bestValue, serial_run.bestValue);
    EXPECT_EQ(reference.numQueries, serial_run.numQueries);
}

TEST(AsyncEngine, ThreadCountDefaultsAreAligned)
{
    // One convention everywhere: 0 = hardware concurrency, 1 =
    // serial; the engine and OscarOptions both default to 0.
    EXPECT_EQ(OscarOptions{}.numThreads, 0);

    const int hardware = ExecutionEngine::resolveThreads(0);
    EXPECT_GE(hardware, 1);
    EXPECT_EQ(ExecutionEngine::resolveThreads(3), 3);
    EXPECT_EQ(ExecutionEngine::resolveThreads(1), 1);

    EXPECT_EQ(ExecutionEngine(0).numThreads(), hardware);
    EXPECT_EQ(ExecutionEngine().numThreads(), hardware);
    EXPECT_EQ(ExecutionEngine::serial().numThreads(), 1);
}

TEST(AsyncEngine, OscarOptionsRoundTripIntoEngine)
{
    // The documented OscarOptions::numThreads -> engine mapping:
    // caller engine wins; 1 borrows the shared serial engine; k spawns
    // k threads; 0 spawns hardware concurrency.
    OscarOptions options;

    ExecutionEngine caller(2);
    EXPECT_EQ(PipelineEngine(&caller, options).get(), &caller);

    options.numThreads = 1;
    EXPECT_EQ(PipelineEngine(nullptr, options).get(),
              &ExecutionEngine::serial());

    options.numThreads = 3;
    EXPECT_EQ(PipelineEngine(nullptr, options).get()->numThreads(), 3);

    options.numThreads = 0;
    EXPECT_EQ(PipelineEngine(nullptr, options).get()->numThreads(),
              ExecutionEngine::resolveThreads(0));
}

} // namespace
} // namespace oscar

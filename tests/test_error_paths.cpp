/**
 * @file
 * Failure-injection and error-path tests across modules: every public
 * entry point must reject malformed input with a clear exception
 * rather than corrupting state.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "src/ansatz/qaoa.h"
#include "src/ansatz/two_local.h"
#include "src/backend/statevector_backend.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/metrics.h"
#include "src/mitigation/folding.h"
#include "src/obs/metrics.h"
#include "src/parallel/scheduler.h"

namespace {

using namespace oscar;

TEST(ErrorPaths, CostFunctionRejectsWrongArity)
{
    LambdaCost cost(2, [](const std::vector<double>&) { return 0.0; });
    EXPECT_THROW(cost.evaluate({1.0}), std::invalid_argument);
    EXPECT_THROW(cost.evaluate({1.0, 2.0, 3.0}), std::invalid_argument);
    EXPECT_EQ(cost.numQueries(), 0u); // failed calls are not counted
}

TEST(ErrorPaths, GridSearchRejectsRankMismatch)
{
    LambdaCost cost(3, [](const std::vector<double>&) { return 0.0; });
    const GridSpec grid({{0.0, 1.0, 2}, {0.0, 1.0, 2}});
    EXPECT_THROW(Landscape::gridSearch(grid, cost),
                 std::invalid_argument);
}

TEST(ErrorPaths, OscarRejectsBadSamplingFraction)
{
    Rng rng(1);
    const Graph g = random3RegularGraph(4, rng);
    StatevectorCost cost(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    const GridSpec grid = GridSpec::qaoaP1(6, 6);
    for (double fraction : {0.0, -0.5, 1.5}) {
        OscarOptions options;
        options.samplingFraction = fraction;
        EXPECT_THROW(Oscar::reconstruct(grid, cost, options),
                     std::invalid_argument)
            << fraction;
    }
}

TEST(ErrorPaths, ReconstructorRejectsOddRank)
{
    EXPECT_THROW(reconstructLandscape({4, 4, 4}, {0}, {1.0}),
                 std::invalid_argument);
}

TEST(ErrorPaths, FoldingRejectsSubUnitScale)
{
    Circuit c(1, 0);
    c.append(Gate::h(0));
    EXPECT_THROW(foldGlobal(c, 0.5), std::invalid_argument);
}

TEST(ErrorPaths, SchedulerRejectsBadFractions)
{
    Rng rng(2);
    const Graph g = random3RegularGraph(4, rng);
    std::vector<QpuDevice> devices(2);
    for (auto& d : devices)
        d.cost = std::make_shared<StatevectorCost>(
            qaoaCircuit(g, 1), maxcutHamiltonian(g));
    const GridSpec grid = GridSpec::qaoaP1(4, 4);
    const std::vector<std::size_t> indices{0, 1, 2, 3};

    EXPECT_THROW(runParallelSampling(grid, devices, indices, rng,
                                     Assignment::FractionSplit,
                                     {0.5}),
                 std::invalid_argument);
    EXPECT_THROW(runParallelSampling(grid, devices, indices, rng,
                                     Assignment::FractionSplit,
                                     {0.7, 0.7}),
                 std::invalid_argument);
    EXPECT_THROW(runParallelSampling(grid, devices, indices, rng,
                                     Assignment::FractionSplit,
                                     {-0.5, 1.5}),
                 std::invalid_argument);
    std::vector<QpuDevice> none;
    EXPECT_THROW(runParallelSampling(grid, none, indices, rng),
                 std::invalid_argument);
}

TEST(ErrorPaths, NcmRejectsTinyTrainingSets)
{
    EXPECT_THROW(NoiseCompensationModel::train({1.0}, {2.0}),
                 std::invalid_argument);
    EXPECT_THROW(NoiseCompensationModel::train({1.0, 2.0}, {1.0}),
                 std::invalid_argument);
}

TEST(ErrorPaths, AnsatzRejectsBadConfigs)
{
    Rng rng(3);
    const Graph g = random3RegularGraph(4, rng);
    EXPECT_THROW(qaoaCircuit(g, 0), std::invalid_argument);
    EXPECT_THROW(twoLocalCircuit(3, -1), std::invalid_argument);
}

TEST(ErrorPaths, BackendsRejectMismatchedHamiltonian)
{
    Rng rng(4);
    const Graph g4 = random3RegularGraph(4, rng);
    const Graph g6 = random3RegularGraph(6, rng);
    EXPECT_THROW(StatevectorCost(qaoaCircuit(g4, 1),
                                 maxcutHamiltonian(g6)),
                 std::invalid_argument);
}

TEST(ErrorPaths, StatevectorRejectsHugeRegisters)
{
    EXPECT_THROW(Statevector(40), std::invalid_argument);
    EXPECT_THROW(DensityMatrix(20), std::invalid_argument);
}

TEST(ErrorPaths, NrmseRejectsShapeMismatch)
{
    NdArray a({4});
    NdArray b({5});
    EXPECT_THROW(nrmse(a, b), std::invalid_argument);
}

TEST(ErrorPaths, ShotNoiseRejectsZeroShots)
{
    auto inner = std::make_shared<LambdaCost>(
        1, [](const std::vector<double>&) { return 0.0; });
    EXPECT_THROW(ShotNoiseCost(inner, 0, 1.0, 1),
                 std::invalid_argument);
}

TEST(ErrorPaths, WorkerExceptionPropagatesThroughGet)
{
    // A cost that fails on some points: the first worker exception is
    // rethrown by get(), and the engine stays usable afterwards.
    auto make_points = [](std::size_t n) {
        std::vector<std::vector<double>> points;
        for (std::size_t i = 0; i < n; ++i)
            points.push_back({static_cast<double>(i)});
        return points;
    };
    LambdaCost fragile(
        1,
        [](const std::vector<double>& p) {
            if (p[0] >= 40.0)
                throw std::runtime_error("backend exploded");
            return p[0];
        },
        /*thread_safe=*/true);

    ExecutionEngine engine(4);
    BatchHandle handle = engine.submit(fragile, make_points(64));
    EXPECT_THROW(handle.get(), std::runtime_error);
    EXPECT_TRUE(handle.done());
    EXPECT_LT(handle.stats().pointsCompleted, 64u);

    // Same contract on the inline (serial / non-replicable) path.
    LambdaCost fragile_serial(1, [](const std::vector<double>& p) {
        if (p[0] >= 1.0)
            throw std::runtime_error("backend exploded");
        return p[0];
    });
    BatchHandle inline_handle =
        engine.submit(fragile_serial, make_points(8));
    EXPECT_THROW(inline_handle.get(), std::runtime_error);

    // The engine survives both failures.
    LambdaCost fine(
        1, [](const std::vector<double>& p) { return 2.0 * p[0]; },
        /*thread_safe=*/true);
    const std::vector<double> values =
        engine.evaluate(fine, make_points(32));
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], 2.0 * static_cast<double>(i));
}

TEST(ErrorPaths, NonFiniteCostValueFailsTheRequest)
{
    // A backend that returns NaN on part of the grid: the engine fails
    // the gather with a typed error, so no sample reaches the solve and
    // no landscape exists to reply with or store.
    obs::Counter& nonfinite =
        obs::Registry::global().counter("engine.points.nonfinite");
    const GridSpec grid({{-1.0, 1.0, 16}, {-1.0, 1.0, 16}});
    for (const int threads : {1, 4}) {
        LambdaCost poisoned(
            2,
            [](const std::vector<double>& p) {
                return p[0] > 0.5 ? std::nan("") : p[0] * p[1];
            },
            /*thread_safe=*/true);
        OscarOptions options;
        options.samplingFraction = 0.5;
        options.numThreads = threads;
        const std::uint64_t before = nonfinite.value();
        EXPECT_THROW(Oscar::reconstruct(grid, poisoned, options),
                     NonFiniteValueError)
            << threads << " thread(s)";
        EXPECT_GT(nonfinite.value(), before) << threads << " thread(s)";
    }

    // Infinities too; the error names the point, each bad point counts
    // once, and the engine stays usable.
    ExecutionEngine engine(2);
    LambdaCost overflow(
        1,
        [](const std::vector<double>& p) {
            return p[0] == 3.0 ? std::numeric_limits<double>::infinity()
                               : p[0];
        },
        /*thread_safe=*/true);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 16; ++i)
        points.push_back({static_cast<double>(i)});
    const std::uint64_t before = nonfinite.value();
    try {
        engine.evaluate(overflow, points);
        ADD_FAILURE() << "an infinite value was accepted";
    } catch (const NonFiniteValueError& e) {
        EXPECT_EQ(e.index(), 3u);
        EXPECT_TRUE(std::isinf(e.value()));
    }
    EXPECT_EQ(nonfinite.value() - before, 1u);
    points.erase(points.begin() + 3);
    EXPECT_EQ(engine.evaluate(overflow, points).size(), 15u);
}

TEST(ErrorPaths, ThrowingOnCompleteCallbackFailsBatchSafely)
{
    // A throwing streaming callback must fail the batch via get()
    // without terminating a worker or leaving the handle unfinished.
    LambdaCost cost(
        1, [](const std::vector<double>& p) { return p[0]; },
        /*thread_safe=*/true);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 32; ++i)
        points.push_back({static_cast<double>(i)});

    SubmitOptions options;
    options.onComplete = [](std::size_t index, double) {
        if (index >= 8)
            throw std::runtime_error("consumer exploded");
    };

    for (int engine_threads : {1, 4}) {
        ExecutionEngine engine(engine_threads);
        BatchHandle handle = engine.submit(cost, points, options);
        EXPECT_THROW(handle.get(), std::runtime_error);
        EXPECT_TRUE(handle.done());
        // The values themselves were computed and charged.
        EXPECT_EQ(handle.stats().pointsCompleted, points.size());
        // The engine and further submissions stay healthy.
        const std::vector<double> ok = engine.evaluate(cost, points);
        EXPECT_EQ(ok.size(), points.size());
    }
}

TEST(ErrorPaths, CancelKeepsQueriesAndStreamsConsistent)
{
    auto make_cost = [] {
        return ShotNoiseCost(
            std::make_shared<LambdaCost>(
                1,
                [](const std::vector<double>& p) { return p[0] * p[0]; },
                /*thread_safe=*/true),
            64, 1.0, 99);
    };
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 8; ++i)
        points.push_back({0.1 * i});
    const std::vector<double> probe{0.77};

    // Reference stream: the batch runs to completion, then one more
    // evaluation consumes ordinal 8.
    ShotNoiseCost reference = make_cost();
    reference.evaluateBatch(points);
    const double reference_value = reference.evaluate(probe);
    EXPECT_EQ(reference.numQueries(), 9u);

    // Cancelled run: nothing of the batch executes (serial engine,
    // cancel lands before the deferred inline execution), queries are
    // refunded, but the 8 ordinals stay consumed -- so the follow-up
    // evaluation reproduces the reference stream bit for bit.
    ShotNoiseCost cancelled = make_cost();
    BatchHandle handle = ExecutionEngine::serial().submit(cancelled,
                                                          points);
    EXPECT_TRUE(handle.cancel());
    EXPECT_FALSE(handle.cancel()) << "second cancel must be a no-op";
    handle.wait();
    EXPECT_EQ(handle.stats().pointsCancelled, points.size());
    EXPECT_EQ(cancelled.numQueries(), 0u);
    EXPECT_THROW(handle.get(), std::runtime_error);

    EXPECT_EQ(cancelled.evaluate(probe), reference_value);
    EXPECT_EQ(cancelled.numQueries(), 1u);
}

TEST(ErrorPaths, DestroyEngineWithOutstandingHandlesDoesNotDeadlock)
{
    LambdaCost slow(
        1,
        [](const std::vector<double>& p) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return p[0];
        },
        /*thread_safe=*/true);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 64; ++i)
        points.push_back({static_cast<double>(i)});

    BatchHandle handle;
    {
        ExecutionEngine engine(4);
        handle = engine.submit(slow, points);
        // Engine dies with the batch (at best) partially executed.
    }
    handle.wait(); // must return: destruction retired the batch
    EXPECT_TRUE(handle.done());
    const BatchStats stats = handle.stats();
    EXPECT_EQ(stats.pointsCompleted + stats.pointsCancelled,
              points.size());
    // Only executed points stay charged.
    EXPECT_EQ(slow.numQueries(), stats.pointsCompleted);
}

TEST(ErrorPaths, GraphGeneratorBoundaries)
{
    Rng rng(5);
    EXPECT_THROW(meshGraph(0, 3), std::invalid_argument);
    EXPECT_THROW(Graph(0), std::invalid_argument);
    // Smallest valid 3-regular graph is K4.
    const Graph k4 = random3RegularGraph(4, rng);
    EXPECT_EQ(k4.numEdges(), 6u);
}

} // namespace

/**
 * @file
 * Tests for grid specification, landscape container, and sampling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <set>
#include <stdexcept>

#include "src/landscape/grid.h"
#include "src/landscape/landscape.h"
#include "src/landscape/sampler.h"

namespace oscar {
namespace {

TEST(GridAxis, InclusiveEndpoints)
{
    const GridAxis axis{-1.0, 1.0, 5};
    EXPECT_DOUBLE_EQ(axis.value(0), -1.0);
    EXPECT_DOUBLE_EQ(axis.value(2), 0.0);
    EXPECT_DOUBLE_EQ(axis.value(4), 1.0);
}

TEST(GridAxis, SinglePointIsMidpoint)
{
    const GridAxis axis{0.0, 2.0, 1};
    EXPECT_DOUBLE_EQ(axis.value(0), 1.0);
}

TEST(GridSpec, PaperP1Grid)
{
    const GridSpec grid = GridSpec::qaoaP1();
    EXPECT_EQ(grid.rank(), 2u);
    EXPECT_EQ(grid.numPoints(), 5000u);
    EXPECT_DOUBLE_EQ(grid.axis(0).lo, -std::numbers::pi / 4);
    EXPECT_DOUBLE_EQ(grid.axis(1).hi, std::numbers::pi / 2);
}

TEST(GridSpec, PaperP2Grid)
{
    const GridSpec grid = GridSpec::qaoaP2();
    EXPECT_EQ(grid.rank(), 4u);
    EXPECT_EQ(grid.numPoints(), 12u * 12u * 15u * 15u);
}

TEST(GridSpec, PointAtRowMajorOrder)
{
    const GridSpec grid({{0.0, 1.0, 2}, {0.0, 2.0, 3}});
    // Flat index 0 -> (0, 0); 1 -> (0, 1); 3 -> (1, 0).
    EXPECT_EQ(grid.pointAt(0), (std::vector<double>{0.0, 0.0}));
    EXPECT_EQ(grid.pointAt(1), (std::vector<double>{0.0, 1.0}));
    EXPECT_EQ(grid.pointAt(3), (std::vector<double>{1.0, 0.0}));
    EXPECT_EQ(grid.pointAt(5), (std::vector<double>{1.0, 2.0}));
}

TEST(GridSpec, AxisValuesLength)
{
    const GridSpec grid({{0.0, 1.0, 4}, {0.0, 1.0, 7}});
    EXPECT_EQ(grid.axisValues(0).size(), 4u);
    EXPECT_EQ(grid.axisValues(1).size(), 7u);
}

TEST(GridSpec, NearestIndexRoundTrip)
{
    const GridSpec grid({{-1.0, 1.0, 9}, {-2.0, 2.0, 11}});
    for (std::size_t i = 0; i < grid.numPoints(); i += 7) {
        const auto p = grid.pointAt(i);
        EXPECT_EQ(grid.nearestIndex(p), i);
    }
}

TEST(GridSpec, NearestIndexClamps)
{
    const GridSpec grid({{0.0, 1.0, 3}, {0.0, 1.0, 3}});
    EXPECT_EQ(grid.nearestIndex({-5.0, -5.0}), 0u);
    EXPECT_EQ(grid.nearestIndex({5.0, 5.0}), 8u);

    // A zero-width axis resolves to coordinate 0, wherever the query.
    const GridSpec flat({{0.5, 0.5, 3}, {0.0, 1.0, 3}});
    EXPECT_EQ(flat.nearestIndex({0.5, 1.0}), 2u);
    EXPECT_EQ(flat.nearestIndex({7.0, 0.0}), 0u);

    // A non-finite coordinate has no nearest point.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(grid.nearestIndex({nan, 0.5}), std::invalid_argument);
    EXPECT_THROW(grid.nearestIndex({0.5, inf}), std::invalid_argument);
    EXPECT_THROW(grid.nearestIndex({-inf, 0.5}), std::invalid_argument);
}

TEST(Landscape, GridSearchEvaluatesEveryPoint)
{
    const GridSpec grid({{0.0, 1.0, 4}, {0.0, 1.0, 5}});
    LambdaCost cost(2, [](const std::vector<double>& p) {
        return p[0] + 10.0 * p[1];
    });
    const Landscape ls = Landscape::gridSearch(grid, cost);
    EXPECT_EQ(cost.numQueries(), 20u);
    EXPECT_DOUBLE_EQ(ls.value(0), 0.0);
    EXPECT_DOUBLE_EQ(ls.value(19), 1.0 + 10.0);
}

TEST(Landscape, ArgminAndMinimizer)
{
    const GridSpec grid({{-1.0, 1.0, 21}, {-1.0, 1.0, 21}});
    LambdaCost cost(2, [](const std::vector<double>& p) {
        return (p[0] - 0.3) * (p[0] - 0.3) + (p[1] + 0.5) * (p[1] + 0.5);
    });
    const Landscape ls = Landscape::gridSearch(grid, cost);
    const auto mins = ls.minimizerParams();
    EXPECT_NEAR(mins[0], 0.3, 0.051);
    EXPECT_NEAR(mins[1], -0.5, 0.051);
}

TEST(Sampler, CountFromFraction)
{
    const GridSpec grid({{0.0, 1.0, 10}, {0.0, 1.0, 10}});
    EXPECT_EQ(sampleCount(grid, 0.05), 5u);
    EXPECT_EQ(sampleCount(grid, 1.0), 100u);
    EXPECT_THROW(sampleCount(grid, 0.0), std::invalid_argument);
    EXPECT_THROW(sampleCount(grid, 1.5), std::invalid_argument);
}

TEST(Sampler, IndicesDistinctSortedInRange)
{
    Rng rng(4);
    const auto idx = chooseSampleIndices(1000, 0.2, rng);
    EXPECT_EQ(idx.size(), 200u);
    std::set<std::size_t> uniq(idx.begin(), idx.end());
    EXPECT_EQ(uniq.size(), 200u);
    EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
    EXPECT_LT(idx.back(), 1000u);
}

TEST(Sampler, SampleCostEvaluatesAtGridPoints)
{
    const GridSpec grid({{0.0, 3.0, 4}, {0.0, 2.0, 3}});
    LambdaCost cost(2, [](const std::vector<double>& p) {
        return 100.0 * p[0] + p[1];
    });
    Rng rng(5);
    const SampleSet set = sampleCost(grid, cost, 0.5, rng);
    EXPECT_EQ(set.size(), 6u);
    for (std::size_t k = 0; k < set.size(); ++k) {
        const auto p = grid.pointAt(set.indices[k]);
        EXPECT_DOUBLE_EQ(set.values[k], 100.0 * p[0] + p[1]);
    }
}

TEST(Sampler, LandscapeReplayMatchesStoredValues)
{
    const GridSpec grid({{0.0, 1.0, 5}, {0.0, 1.0, 5}});
    NdArray values(grid.shape());
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = static_cast<double>(i * i);
    const Landscape ls(grid, std::move(values));
    Rng rng(6);
    const SampleSet set = sampleLandscape(ls, 0.4, rng);
    for (std::size_t k = 0; k < set.size(); ++k)
        EXPECT_DOUBLE_EQ(set.values[k],
                         static_cast<double>(set.indices[k] *
                                             set.indices[k]));
}

TEST(Sampler, GatherValidatesIndices)
{
    const GridSpec grid({{0.0, 1.0, 2}, {0.0, 1.0, 2}});
    const Landscape ls(grid, NdArray(grid.shape()));
    EXPECT_THROW(gatherLandscape(ls, {4}), std::out_of_range);
}

} // namespace
} // namespace oscar

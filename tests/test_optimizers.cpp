/**
 * @file
 * Tests for the optimizer suite: convergence on standard objectives,
 * path recording, and query accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/optimize/adam.h"
#include "src/optimize/cobyla.h"
#include "src/optimize/nelder_mead.h"

namespace oscar {
namespace {

std::unique_ptr<LambdaCost>
quadraticBowl()
{
    return std::make_unique<LambdaCost>(
        2, [](const std::vector<double>& p) {
            return (p[0] - 0.4) * (p[0] - 0.4) +
                   2.0 * (p[1] + 0.7) * (p[1] + 0.7) + 1.0;
        });
}

std::unique_ptr<Optimizer>
makeOptimizer(const std::string& name)
{
    if (name == "adam") {
        AdamOptions o;
        o.maxIterations = 400;
        return std::make_unique<Adam>(o);
    }
    if (name == "nelder-mead")
        return std::make_unique<NelderMead>();
    return std::make_unique<Cobyla>();
}

class OptimizerConvergence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OptimizerConvergence, FindsQuadraticMinimum)
{
    auto cost = quadraticBowl();
    auto opt = makeOptimizer(GetParam());
    const auto result = opt->minimize(*cost, {0.0, 0.0});
    EXPECT_NEAR(result.bestParams[0], 0.4, 0.05) << GetParam();
    EXPECT_NEAR(result.bestParams[1], -0.7, 0.05) << GetParam();
    EXPECT_NEAR(result.bestValue, 1.0, 0.01) << GetParam();
}

TEST_P(OptimizerConvergence, RecordsPathStartingAtInitialPoint)
{
    auto cost = quadraticBowl();
    auto opt = makeOptimizer(GetParam());
    const auto result = opt->minimize(*cost, {0.1, 0.2});
    ASSERT_GE(result.path.size(), 2u);
    EXPECT_DOUBLE_EQ(result.path.front()[0], 0.1);
    EXPECT_DOUBLE_EQ(result.path.front()[1], 0.2);
}

TEST_P(OptimizerConvergence, CountsQueries)
{
    auto cost = quadraticBowl();
    auto opt = makeOptimizer(GetParam());
    const auto result = opt->minimize(*cost, {0.0, 0.0});
    EXPECT_EQ(result.numQueries, cost->numQueries());
    EXPECT_GT(result.numQueries, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, OptimizerConvergence,
                         ::testing::Values("adam", "nelder-mead",
                                           "cobyla"));

TEST(Adam, ConvergesOnCosineValley)
{
    // Periodic landscape akin to QAOA: f = -cos(x)cos(y).
    LambdaCost cost(2, [](const std::vector<double>& p) {
        return -std::cos(p[0]) * std::cos(p[1]);
    });
    Adam adam;
    const auto result = adam.minimize(cost, {0.5, -0.6});
    EXPECT_NEAR(result.bestValue, -1.0, 1e-3);
}

TEST(Cobyla, UsesFewQueriesOnSmoothProblem)
{
    // The gradient-free trust-region method should converge in tens of
    // queries (cf. COBYLA's ~40 in the paper's Table 6).
    auto cost = quadraticBowl();
    Cobyla cobyla;
    const auto result = cobyla.minimize(*cost, {0.0, 0.0});
    EXPECT_LT(result.numQueries, 200u);
    EXPECT_NEAR(result.bestValue, 1.0, 1e-3);
}

TEST(Adam, QueriesScaleWithGradientEvaluations)
{
    // Each iteration costs 2*dim (gradient) + 1 (value) queries.
    auto cost = quadraticBowl();
    AdamOptions o;
    o.maxIterations = 10;
    o.gradientTolerance = 0.0; // never converge early
    Adam adam(o);
    const auto result = adam.minimize(*cost, {0.0, 0.0});
    EXPECT_EQ(result.numQueries, 1u + 10u * (2u * 2u + 1u));
}

TEST(NelderMead, HandlesRosenbrock)
{
    LambdaCost cost(2, [](const std::vector<double>& p) {
        const double a = 1.0 - p[0];
        const double b = p[1] - p[0] * p[0];
        return a * a + 100.0 * b * b;
    });
    NelderMeadOptions o;
    o.maxIterations = 2000;
    NelderMead nm(o);
    const auto result = nm.minimize(cost, {-0.5, 0.5});
    EXPECT_NEAR(result.bestParams[0], 1.0, 0.05);
    EXPECT_NEAR(result.bestParams[1], 1.0, 0.1);
}

TEST(ParamDistance, Euclidean)
{
    EXPECT_DOUBLE_EQ(paramDistance({0, 0}, {3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(paramDistance({1, 1}, {1, 1}), 0.0);
}

} // namespace
} // namespace oscar

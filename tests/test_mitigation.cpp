/**
 * @file
 * Tests for noise mitigation: circuit folding, ZNE extrapolation, and
 * readout error handling.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/ansatz/qaoa.h"
#include "src/backend/density_backend.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/mitigation/folding.h"
#include "src/mitigation/readout.h"
#include "src/mitigation/zne.h"
#include "src/quantum/statevector.h"

namespace oscar {
namespace {

Circuit
smallCircuit()
{
    Circuit c(3, 1);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    c.append(Gate::rzzParam(1, 2, 0, -1.0));
    c.append(Gate::ry(2, 0.7));
    c.append(Gate::s(0));
    return c;
}

TEST(Folding, ScaleOneIsIdentityTransformation)
{
    const Circuit c = smallCircuit();
    const Circuit folded = foldGlobal(c, 1.0);
    EXPECT_EQ(folded.numGates(), c.numGates());
}

TEST(Folding, OddScalesMultiplyGateCount)
{
    const Circuit c = smallCircuit();
    EXPECT_EQ(foldGlobal(c, 3.0).numGates(), 3 * c.numGates());
    EXPECT_EQ(foldGlobal(c, 5.0).numGates(), 5 * c.numGates());
}

TEST(Folding, PartialScaleBetweenOddValues)
{
    const Circuit c = smallCircuit(); // 5 gates
    const Circuit folded = foldGlobal(c, 2.0);
    // scale 2.0: suffix = round(0.5 * 5) = 2 or 3 gates folded once.
    EXPECT_GT(folded.numGates(), c.numGates());
    EXPECT_LT(folded.numGates(), 3 * c.numGates());
    EXPECT_NEAR(realizedFoldScale(5, 2.0),
                static_cast<double>(folded.numGates()) / 5.0, 1e-12);
}

TEST(Folding, PreservesUnitarySemantics)
{
    // The folded circuit must implement the same unitary.
    const Circuit c = smallCircuit();
    const std::vector<double> params{0.9};
    for (double scale : {1.0, 1.6, 3.0, 4.2, 5.0}) {
        Statevector a(3), b(3);
        a.run(c, params);
        b.run(foldGlobal(c, scale), params);
        EXPECT_NEAR(std::abs(a.innerProduct(b)), 1.0, 1e-10)
            << "scale=" << scale;
    }
}

TEST(Folding, IncreasesNoiseMonotonically)
{
    Rng rng(4);
    const Graph g = random3RegularGraph(6, rng);
    const Circuit c = qaoaCircuit(g, 1);
    const PauliSum h = maxcutHamiltonian(g);
    const NoiseModel noise = NoiseModel::depolarizing(0.004, 0.012);

    const std::vector<double> params{0.3, -0.5};
    double ideal;
    {
        DensityCost cost(c, h, NoiseModel::idealModel());
        ideal = cost.evaluate(params);
    }
    double prev_gap = 0.0;
    for (double scale : {1.0, 2.0, 3.0}) {
        DensityCost cost(foldGlobal(c, scale), h, noise);
        const double gap = std::abs(cost.evaluate(params) - ideal);
        EXPECT_GT(gap, prev_gap) << "scale=" << scale;
        prev_gap = gap;
    }
}

TEST(ZneExtrapolation, LinearRecoversLine)
{
    // values = 3 - 2 * scale: intercept 3.
    EXPECT_NEAR(zneExtrapolate({1, 3}, {1.0, -3.0},
                               ZneExtrapolation::Linear),
                3.0, 1e-12);
}

TEST(ZneExtrapolation, RichardsonRecoversQuadratic)
{
    // f(s) = 1 + s + s^2 at s = 1, 2, 3 -> f(0) = 1 exactly.
    const std::vector<double> scales{1, 2, 3};
    std::vector<double> values;
    for (double s : scales)
        values.push_back(1.0 + s + s * s);
    EXPECT_NEAR(zneExtrapolate(scales, values,
                               ZneExtrapolation::Richardson),
                1.0, 1e-10);
}

TEST(ZneExtrapolation, QuadraticLeastSquares)
{
    const std::vector<double> scales{1, 2, 3, 4};
    std::vector<double> values;
    for (double s : scales)
        values.push_back(2.0 - 0.5 * s + 0.1 * s * s);
    EXPECT_NEAR(zneExtrapolate(scales, values,
                               ZneExtrapolation::Quadratic),
                2.0, 1e-9);
}

TEST(ZneCost, RecoversIdealValueUnderDepolarizing)
{
    // With exact (shot-free) readings, ZNE should land much closer to
    // the ideal expectation than the unmitigated noisy value.
    Rng rng(5);
    const Graph g = random3RegularGraph(6, rng);
    const Circuit c = qaoaCircuit(g, 1);
    const PauliSum h = maxcutHamiltonian(g);
    const NoiseModel noise = NoiseModel::depolarizing(0.003, 0.01);

    const std::vector<double> params{0.25, -0.55};
    DensityCost ideal_cost(c, h, NoiseModel::idealModel());
    DensityCost noisy_cost(c, h, noise);
    const double ideal = ideal_cost.evaluate(params);
    const double noisy = noisy_cost.evaluate(params);

    const auto zne = makeZneDensityCost(c, h, noise, {1.0, 2.0, 3.0},
                                        ZneExtrapolation::Richardson);
    const double mitigated = zne->evaluate(params);
    EXPECT_LT(std::abs(mitigated - ideal), std::abs(noisy - ideal));
    EXPECT_NEAR(mitigated, ideal, 0.05 * std::abs(ideal));
}

TEST(ZneCost, RichardsonAmplifiesShotNoiseMoreThanLinear)
{
    // The paper's Fig. 9 observation: Richardson's interpolation
    // weights amplify statistical noise relative to linear fitting.
    Rng rng(6);
    const Graph g = random3RegularGraph(12, rng);
    const NoiseModel noise = NoiseModel::depolarizing(0.001, 0.02);

    const std::vector<double> params{0.3, 0.4};
    const std::size_t shots = 1024;

    auto spread_of = [&](ZneExtrapolation model,
                         const std::vector<double>& scales) {
        std::vector<double> readings;
        for (int rep = 0; rep < 40; ++rep) {
            const auto zne = makeZneAnalyticCost(
                g, noise, scales, model, shots, 1.0,
                1000 + 17 * rep);
            readings.push_back(zne->evaluate(params));
        }
        double mean = 0.0;
        for (double r : readings)
            mean += r;
        mean /= readings.size();
        double var = 0.0;
        for (double r : readings)
            var += (r - mean) * (r - mean);
        return var / readings.size();
    };

    const double var_richardson =
        spread_of(ZneExtrapolation::Richardson, {1.0, 2.0, 3.0});
    const double var_linear =
        spread_of(ZneExtrapolation::Linear, {1.0, 3.0});
    EXPECT_GT(var_richardson, var_linear);
}

TEST(ZneCost, RejectsBadConfigurations)
{
    Rng rng(7);
    const Graph g = random3RegularGraph(4, rng);
    EXPECT_THROW(makeZneAnalyticCost(g, NoiseModel::idealModel(), {1.0},
                                     ZneExtrapolation::Linear),
                 std::invalid_argument);
    EXPECT_THROW(makeZneAnalyticCost(g, NoiseModel::idealModel(),
                                     {1.0, 1.0},
                                     ZneExtrapolation::Linear),
                 std::invalid_argument);
    EXPECT_THROW(makeZneAnalyticCost(g, NoiseModel::idealModel(),
                                     {0.5, 2.0},
                                     ZneExtrapolation::Linear),
                 std::invalid_argument);
}

TEST(Readout, DistributionTransformConservesProbability)
{
    std::vector<double> p{0.5, 0.2, 0.2, 0.1};
    const auto q = applyReadoutToDistribution(p, 2, 0.05, 0.1);
    double total = 0.0;
    for (double x : q)
        total += x;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Readout, SingleQubitFlipProbability)
{
    // Pure |0>: P(read 1) = e01.
    const auto q = applyReadoutToDistribution({1.0, 0.0}, 1, 0.07, 0.2);
    EXPECT_NEAR(q[0], 0.93, 1e-12);
    EXPECT_NEAR(q[1], 0.07, 1e-12);
}

TEST(Readout, DiagonalTransformMatchesDistributionTransform)
{
    // E_noisy computed from the smeared observable must equal the one
    // computed from the smeared distribution.
    const std::vector<double> table{1.0, -1.0, -1.0, 1.0}; // ZZ
    const std::vector<double> p{0.6, 0.1, 0.1, 0.2};

    const auto smeared_table = applyReadoutToDiagonal(table, 2, 0.05, 0.1);
    const auto smeared_p = applyReadoutToDistribution(p, 2, 0.05, 0.1);

    double e_table = 0.0, e_dist = 0.0;
    for (std::size_t z = 0; z < 4; ++z) {
        e_table += p[z] * smeared_table[z];
        e_dist += smeared_p[z] * table[z];
    }
    EXPECT_NEAR(e_table, e_dist, 1e-12);
}

} // namespace
} // namespace oscar

/**
 * @file
 * Tests for the density-matrix simulator and its agreement with the
 * state-vector backend.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/backend/density_backend.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/quantum/density_matrix.h"
#include "src/quantum/statevector.h"

namespace oscar {
namespace {

TEST(DensityMatrix, InitialStateIsPure)
{
    DensityMatrix rho(2);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_NEAR(rho.element(0, 0).real(), 1.0, 1e-12);
}

TEST(DensityMatrix, PureEvolutionMatchesStatevector)
{
    Circuit c(3, 0);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    c.append(Gate::ry(2, 0.9));
    c.append(Gate::rzz(1, 2, 1.1));
    c.append(Gate::rx(0, -0.4));

    Statevector sv(3);
    sv.run(c);
    DensityMatrix rho(3);
    rho.run(c, NoiseModel::idealModel());

    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t col = 0; col < 8; ++col) {
            const cplx expected = sv.amp(r) * std::conj(sv.amp(col));
            EXPECT_NEAR(std::abs(rho.element(r, col) - expected), 0.0,
                        1e-10);
        }
    }
    EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizingShrinksBlochVector)
{
    // |+> under 1-qubit depolarizing: <X> = 1 - 4p/3.
    DensityMatrix rho(1);
    rho.applyGate(Gate::h(0));
    const double p = 0.15;
    rho.applyDepolarizing1(0, p);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")),
                1.0 - 4.0 * p / 3.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixed)
{
    // p = 3/4 gives lambda = 1: the fully mixed single-qubit state.
    DensityMatrix rho(1);
    rho.applyGate(Gate::h(0));
    rho.applyDepolarizing1(0, 0.75);
    EXPECT_NEAR(rho.element(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(rho.element(1, 1).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, TwoQubitDepolarizingDampsZZ)
{
    // Bell state <ZZ> = 1; after 2q depolarizing <ZZ> = 1 - 16p/15.
    DensityMatrix rho(2);
    rho.applyGate(Gate::h(0));
    rho.applyGate(Gate::cx(0, 1));
    const double p = 0.12;
    rho.applyDepolarizing2(0, 1, p);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZZ")),
                1.0 - 16.0 * p / 15.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, TracePreservedUnderNoisyCircuit)
{
    Rng rng(2);
    const Graph g = random3RegularGraph(6, rng);
    Circuit c(6, 0);
    for (const Edge& e : g.edges())
        c.append(Gate::rzz(e.u, e.v, 0.7));
    for (int q = 0; q < 6; ++q)
        c.append(Gate::rx(q, 0.5));

    DensityMatrix rho(6);
    rho.run(c, NoiseModel::depolarizing(0.01, 0.03));
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
    EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, ProbabilitiesMatchStatevectorWhenIdeal)
{
    Circuit c(2, 0);
    c.append(Gate::ry(0, 0.8));
    c.append(Gate::cx(0, 1));

    Statevector sv(2);
    sv.run(c);
    DensityMatrix rho(2);
    rho.run(c, NoiseModel::idealModel());

    const auto p_sv = sv.probabilities();
    const auto p_dm = rho.probabilities();
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(p_sv[i], p_dm[i], 1e-12);
}

TEST(DensityBackend, MatchesStatevectorBackendWhenIdeal)
{
    Rng rng(7);
    const Graph g = random3RegularGraph(4, rng);
    const Circuit c = [&] {
        Circuit qc(4, 2);
        for (int q = 0; q < 4; ++q)
            qc.append(Gate::h(q));
        for (const Edge& e : g.edges())
            qc.append(Gate::rzzParam(e.u, e.v, 1, -1.0));
        for (int q = 0; q < 4; ++q)
            qc.append(Gate::rxParam(q, 0, 2.0));
        return qc;
    }();
    const PauliSum h = maxcutHamiltonian(g);

    StatevectorCost ideal(c, h);
    DensityCost density(c, h, NoiseModel::idealModel());
    for (double beta : {-0.3, 0.2}) {
        for (double gamma : {-0.8, 0.5}) {
            const std::vector<double> params{beta, gamma};
            EXPECT_NEAR(ideal.evaluate(params), density.evaluate(params),
                        1e-10);
        }
    }
}

TEST(DensityBackend, ReadoutErrorShiftsExpectation)
{
    // |0> measured with e01: <Z> = 1 - 2 e01.
    Circuit c(1, 0);
    c.append(Gate::rz(0, 0.0)); // no-op gate to have a circuit
    PauliSum h(1);
    h.add(1.0, "Z");
    NoiseModel noise;
    noise.readout01 = 0.1;
    DensityCost cost(c, h, noise);
    EXPECT_NEAR(cost.evaluate({}), 1.0 - 2.0 * 0.1, 1e-9);
}

} // namespace
} // namespace oscar

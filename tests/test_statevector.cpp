/**
 * @file
 * Tests for the state-vector simulator: known states, gate algebra
 * identities, and norm-preservation properties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <thread>
#include <vector>

#include "src/ansatz/qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/quantum/statevector.h"

namespace oscar {
namespace {

constexpr double kTol = 1e-12;

TEST(Statevector, InitialState)
{
    Statevector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_NEAR(std::abs(sv.amp(0) - cplx(1.0, 0.0)), 0.0, kTol);
    EXPECT_NEAR(sv.norm2(), 1.0, kTol);
}

TEST(Statevector, HadamardCreatesSuperposition)
{
    Statevector sv(1);
    sv.applyGate(Gate::h(0));
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(sv.amp(0).real(), inv_sqrt2, kTol);
    EXPECT_NEAR(sv.amp(1).real(), inv_sqrt2, kTol);
}

TEST(Statevector, BellState)
{
    Statevector sv(2);
    sv.applyGate(Gate::h(0));
    sv.applyGate(Gate::cx(0, 1));
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(sv.amp(0)), inv_sqrt2, kTol);
    EXPECT_NEAR(std::abs(sv.amp(3)), inv_sqrt2, kTol);
    EXPECT_NEAR(std::abs(sv.amp(1)), 0.0, kTol);
    EXPECT_NEAR(std::abs(sv.amp(2)), 0.0, kTol);
    // <Z0 Z1> = 1 for a Bell state.
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("ZZ")), 1.0, kTol);
    // <X0 X1> = 1 as well.
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("XX")), 1.0, kTol);
}

TEST(Statevector, XFlipsBit)
{
    Statevector sv(2);
    sv.applyGate(Gate::x(1));
    EXPECT_NEAR(std::abs(sv.amp(2)), 1.0, kTol); // |10> little-endian q1
}

TEST(Statevector, HZHEqualsX)
{
    // Gate identity HZH = X, checked on a random-ish state.
    Statevector a(1), b(1);
    a.applyGate(Gate::ry(0, 0.7));
    b.applyGate(Gate::ry(0, 0.7));

    a.applyGate(Gate::h(0));
    a.applyGate(Gate::z(0));
    a.applyGate(Gate::h(0));
    b.applyGate(Gate::x(0));
    EXPECT_NEAR(std::abs(a.innerProduct(b)), 1.0, kTol);
}

TEST(Statevector, SSdgIsIdentity)
{
    Statevector a(1);
    a.applyGate(Gate::h(0));
    a.applyGate(Gate::s(0));
    a.applyGate(Gate::sdg(0));
    Statevector b(1);
    b.applyGate(Gate::h(0));
    EXPECT_NEAR(std::abs(a.innerProduct(b)), 1.0, kTol);
}

TEST(Statevector, RzzDiagonalPhases)
{
    // RZZ(theta) on |11> applies exp(-i theta/2).
    Statevector sv(2);
    sv.applyGate(Gate::x(0));
    sv.applyGate(Gate::x(1));
    sv.applyGate(Gate::rzz(0, 1, 0.8));
    const cplx expected = std::exp(cplx(0.0, -0.4));
    EXPECT_NEAR(std::abs(sv.amp(3) - expected), 0.0, kTol);
}

TEST(Statevector, RzzEqualsCxRzCx)
{
    // RZZ(t) = CX(0,1) RZ_1(t) CX(0,1).
    Statevector a(2), b(2);
    a.applyGate(Gate::h(0));
    a.applyGate(Gate::h(1));
    b.applyGate(Gate::h(0));
    b.applyGate(Gate::h(1));

    a.applyGate(Gate::rzz(0, 1, 1.3));
    b.applyGate(Gate::cx(0, 1));
    b.applyGate(Gate::rz(1, 1.3));
    b.applyGate(Gate::cx(0, 1));
    EXPECT_NEAR(std::abs(a.innerProduct(b)), 1.0, kTol);
}

TEST(Statevector, SwapExchangesQubits)
{
    Statevector sv(2);
    sv.applyGate(Gate::x(0)); // |01> (q0 = 1)
    sv.applyGate(Gate::swap(0, 1));
    EXPECT_NEAR(std::abs(sv.amp(2)), 1.0, kTol); // q1 = 1
}

TEST(Statevector, CzPhase)
{
    Statevector sv(2);
    sv.applyGate(Gate::h(0));
    sv.applyGate(Gate::h(1));
    sv.applyGate(Gate::cz(0, 1));
    EXPECT_NEAR(sv.amp(3).real(), -0.5, kTol);
    EXPECT_NEAR(sv.amp(0).real(), 0.5, kTol);
}

TEST(Statevector, ExpectationXOnPlusState)
{
    Statevector sv(1);
    sv.applyGate(Gate::h(0));
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("X")), 1.0, kTol);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("Z")), 0.0, kTol);
}

TEST(Statevector, ExpectationYOnSHPlusState)
{
    // S H |0> = (|0> + i|1>)/sqrt(2), the +1 eigenstate of Y.
    Statevector sv(1);
    sv.applyGate(Gate::h(0));
    sv.applyGate(Gate::s(0));
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("Y")), 1.0, kTol);
}

TEST(Statevector, RotationExpectation)
{
    // RY(t)|0>: <Z> = cos t, <X> = sin t.
    for (double t : {0.3, 1.1, 2.5}) {
        Statevector sv(1);
        sv.applyGate(Gate::ry(0, t));
        EXPECT_NEAR(sv.expectation(PauliString::fromLabel("Z")),
                    std::cos(t), kTol);
        EXPECT_NEAR(sv.expectation(PauliString::fromLabel("X")),
                    std::sin(t), kTol);
    }
}

TEST(Statevector, ProbabilitiesSumToOne)
{
    Statevector sv(4);
    sv.applyGate(Gate::h(0));
    sv.applyGate(Gate::cx(0, 2));
    sv.applyGate(Gate::ry(3, 0.9));
    const auto p = sv.probabilities();
    double total = 0.0;
    for (double x : p)
        total += x;
    EXPECT_NEAR(total, 1.0, kTol);
}

/** Norm preservation across random circuits (property test). */
class StatevectorNormProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(StatevectorNormProperty, RandomCircuitPreservesNorm)
{
    const int seed = GetParam();
    Rng rng(seed);
    const int n = 2 + static_cast<int>(rng.uniformInt(4));
    Statevector sv(n);
    for (int g = 0; g < 40; ++g) {
        const int kind = static_cast<int>(rng.uniformInt(6));
        const int q = static_cast<int>(rng.uniformInt(n));
        int q2 = static_cast<int>(rng.uniformInt(n));
        if (q2 == q)
            q2 = (q + 1) % n;
        const double angle = rng.uniform(-3.0, 3.0);
        switch (kind) {
          case 0: sv.applyGate(Gate::h(q)); break;
          case 1: sv.applyGate(Gate::rx(q, angle)); break;
          case 2: sv.applyGate(Gate::ry(q, angle)); break;
          case 3: sv.applyGate(Gate::rz(q, angle)); break;
          case 4: sv.applyGate(Gate::cx(q, q2)); break;
          case 5: sv.applyGate(Gate::rzz(q, q2, angle)); break;
        }
    }
    EXPECT_NEAR(sv.norm2(), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatevectorNormProperty,
                         ::testing::Range(0, 12));

/** Circuit inverse property: C^dag C = identity. */
class CircuitInverseProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CircuitInverseProperty, InverseUndoesCircuit)
{
    Rng rng(GetParam() + 100);
    const int n = 3;
    Circuit c(n, 2);
    for (int g = 0; g < 15; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        int q2 = (q + 1) % n;
        switch (rng.uniformInt(5)) {
          case 0: c.append(Gate::h(q)); break;
          case 1: c.append(Gate::rxParam(q, 0, 1.5)); break;
          case 2: c.append(Gate::rzParam(q, 1, -0.5)); break;
          case 3: c.append(Gate::cx(q, q2)); break;
          case 4: c.append(Gate::rzz(q, q2, 0.7)); break;
        }
    }
    const std::vector<double> params{0.4, -1.2};
    Statevector sv(n);
    sv.run(c, params);
    sv.run(c.inverse(), params);
    EXPECT_NEAR(std::abs(sv.amp(0)), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitInverseProperty,
                         ::testing::Range(0, 8));

TEST(StatevectorCost, ConcurrentClonesShareOneEnergyTable)
{
    // The engine gives each worker its own clone; the clones must read
    // one immutable energy table and agree bitwise with serial
    // evaluation of the original.
    Rng rng(21);
    const Graph g = random3RegularGraph(10, rng);
    StatevectorCost cost(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    ASSERT_NE(cost.diagonal(), nullptr);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 24; ++i)
        points.push_back({rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)});
    std::vector<double> serial;
    for (const auto& p : points)
        serial.push_back(cost.evaluate(p));

    constexpr int kThreads = 4;
    std::vector<std::unique_ptr<CostFunction>> clones;
    for (int t = 0; t < kThreads; ++t)
        clones.push_back(cost.clone());
    std::vector<std::vector<double>> got(kThreads,
                                         std::vector<double>(points.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < points.size(); ++i)
                got[t][i] = clones[t]->evaluate(points[i]);
        });
    }
    for (std::thread& th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t) {
        const auto* clone = dynamic_cast<const StatevectorCost*>(
            clones[t].get());
        ASSERT_NE(clone, nullptr);
        EXPECT_EQ(clone->diagonal(), cost.diagonal()) << "clone " << t;
        EXPECT_EQ(std::memcmp(got[t].data(), serial.data(),
                              serial.size() * sizeof(double)),
                  0)
            << "clone " << t;
    }
}

} // namespace
} // namespace oscar

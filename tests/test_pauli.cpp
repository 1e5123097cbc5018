/**
 * @file
 * Tests for Pauli strings and Pauli sums.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/pauli.h"
#include "src/quantum/statevector.h"

namespace oscar {
namespace {

TEST(PauliString, LabelRoundTrip)
{
    const auto p = PauliString::fromLabel("IXYZ");
    EXPECT_EQ(p.numQubits(), 4);
    EXPECT_EQ(p.op(0), PauliOp::I);
    EXPECT_EQ(p.op(1), PauliOp::X);
    EXPECT_EQ(p.op(2), PauliOp::Y);
    EXPECT_EQ(p.op(3), PauliOp::Z);
    EXPECT_EQ(p.toLabel(), "IXYZ");
}

TEST(PauliString, BadLabelThrows)
{
    EXPECT_THROW(PauliString::fromLabel("IXQ"), std::invalid_argument);
}

TEST(PauliString, DiagonalDetection)
{
    EXPECT_TRUE(PauliString::fromLabel("IZZI").isDiagonal());
    EXPECT_FALSE(PauliString::fromLabel("IZXI").isDiagonal());
    EXPECT_FALSE(PauliString::fromLabel("YIII").isDiagonal());
}

TEST(PauliString, Weight)
{
    EXPECT_EQ(PauliString::fromLabel("IIII").weight(), 0);
    EXPECT_EQ(PauliString::fromLabel("XYZI").weight(), 3);
}

TEST(PauliString, DiagonalEigenvalue)
{
    const auto zz = PauliString::fromLabel("ZZ");
    EXPECT_EQ(zz.diagonalEigenvalue(0b00), 1);
    EXPECT_EQ(zz.diagonalEigenvalue(0b01), -1);
    EXPECT_EQ(zz.diagonalEigenvalue(0b10), -1);
    EXPECT_EQ(zz.diagonalEigenvalue(0b11), 1);
}

TEST(PauliString, ZStringFactory)
{
    const auto p = PauliString::zString(4, {1, 3});
    EXPECT_EQ(p.toLabel(), "IZIZ");
}

TEST(PauliSum, DiagonalTableMatchesEigenvalues)
{
    PauliSum h(2);
    h.add(0.5, "ZZ");
    h.add(-1.0, "IZ");
    h.add(0.25, "II");
    const auto table = h.diagonalTable();
    // basis state z: bit k = qubit k; label char k = qubit k.
    // |00>: 0.5 - 1.0 + 0.25
    EXPECT_DOUBLE_EQ(table[0], -0.25);
    // |q1=1, q0=0> = index 2: ZZ -> -1, IZ (Z on qubit 1) -> -1.
    EXPECT_DOUBLE_EQ(table[2], -0.5 + 1.0 + 0.25);
}

/** Reference table: sum_k c_k * P_k.diagonalEigenvalue(z), term order. */
std::vector<double>
perTermDiagonal(const PauliSum& h)
{
    std::vector<double> table(std::size_t{1} << h.numQubits(), 0.0);
    for (const PauliTerm& t : h.terms()) {
        for (std::size_t z = 0; z < table.size(); ++z)
            table[z] += t.coeff * t.pauli.diagonalEigenvalue(z);
    }
    return table;
}

TEST(PauliSum, DiagonalTableIsBitwiseThePerTermSum)
{
    // The table is built in 2^12-entry low blocks; these qubit counts
    // sit below, at, just above and well above that split.
    Rng rng(16);
    for (int n : {1, 11, 12, 13, 20}) {
        PauliSum h(n);
        h.add(-0.375, PauliString(n)); // identity term
        h.add(1.3, PauliString::zString(n, {0}));
        h.add(-2.71828, PauliString::zString(n, {n - 1}));
        if (n > 12) {
            // Sign bits on both sides of the split.
            h.add(0.1, PauliString::zString(n, {0, n - 1}));
            h.add(-1.7, PauliString::zString(n, {5, 11, 12}));
        }
        for (int k = 0; k < 5; ++k) {
            std::vector<int> qubits;
            for (int q = 0; q < n; ++q) {
                if (rng.bernoulli(0.4))
                    qubits.push_back(q);
            }
            h.add(rng.uniform(-3.0, 3.0), PauliString::zString(n, qubits));
        }
        const std::vector<double> got = h.diagonalTable();
        const std::vector<double> want = perTermDiagonal(h);
        ASSERT_EQ(got.size(), want.size()) << n << " qubits";
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << n << " qubits";
    }
}

TEST(PauliSum, DiagonalMinimum)
{
    PauliSum h(2);
    h.add(1.0, "ZZ");
    EXPECT_DOUBLE_EQ(h.diagonalMinimum(), -1.0);
}

TEST(PauliSum, ExpectationMixesDiagonalAndOffDiagonal)
{
    // H = X0 + Z0 on |+>: <X> = 1, <Z> = 0.
    PauliSum h(1);
    h.add(2.0, "X");
    h.add(5.0, "Z");
    Statevector sv(1);
    sv.applyGate(Gate::h(0));
    EXPECT_NEAR(h.expectation(sv), 2.0, 1e-12);
}

TEST(PauliSum, QubitMismatchThrows)
{
    PauliSum h(2);
    EXPECT_THROW(h.add(1.0, PauliString::fromLabel("ZZZ")),
                 std::invalid_argument);
}

TEST(PauliSum, NonDiagonalTableThrows)
{
    PauliSum h(1);
    h.add(1.0, "X");
    EXPECT_THROW(h.diagonalTable(), std::logic_error);
}

} // namespace
} // namespace oscar

#include "src/hamiltonian/pauli_sum.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "src/quantum/kernels.h"

namespace oscar {

namespace {

/**
 * Width of diagonalTable()'s low block: 2^12 doubles = 32 KiB, so the
 * block being accumulated stays in L1 while term tables stream from L2.
 */
constexpr int kDiagonalLowBits = 12;

} // namespace

PauliSum::PauliSum(int num_qubits)
    : numQubits_(num_qubits)
{
    if (num_qubits < 1)
        throw std::invalid_argument("PauliSum: need at least one qubit");
}

void
PauliSum::add(double coeff, PauliString pauli)
{
    if (pauli.numQubits() != numQubits_)
        throw std::invalid_argument("PauliSum::add: qubit count mismatch");
    terms_.push_back({coeff, std::move(pauli)});
}

void
PauliSum::add(double coeff, const std::string& label)
{
    add(coeff, PauliString::fromLabel(label));
}

bool
PauliSum::isDiagonal() const
{
    return std::all_of(terms_.begin(), terms_.end(), [](const PauliTerm& t) {
        return t.pauli.isDiagonal();
    });
}

double
PauliSum::expectation(const Statevector& state) const
{
    return expectation(state, kernels::defaultKernelTable());
}

double
PauliSum::expectation(const Statevector& state,
                      const kernels::KernelTable& table) const
{
    if (isDiagonal())
        return state.expectationDiagonal(diagonalTable());
    double acc = 0.0;
    for (const PauliTerm& t : terms_)
        acc += t.coeff * state.expectation(t.pauli, table);
    return acc;
}

void
PauliSum::expectationBatch(const cplx* const* states, std::size_t count,
                           std::size_t dim,
                           const kernels::KernelTable& table,
                           double* out) const
{
    static const cplx kPhases[4] = {{1.0, 0.0},
                                    {0.0, 1.0},
                                    {-1.0, 0.0},
                                    {0.0, -1.0}};
    std::fill(out, out + count, 0.0);
    std::vector<double> term(count);
    for (const PauliTerm& t : terms_) {
        const PauliMasks m = t.pauli.masks();
        table.expectationPauliBatch(states, count, dim, m.flip, m.sign,
                                    kPhases[m.numY & 3], term.data());
        for (std::size_t s = 0; s < count; ++s)
            out[s] += t.coeff * term[s];
    }
}

double
PauliSum::expectation(const DensityMatrix& rho) const
{
    double acc = 0.0;
    for (const PauliTerm& t : terms_)
        acc += t.coeff * rho.expectation(t.pauli);
    return acc;
}

std::vector<double>
PauliSum::diagonalTable() const
{
    return diagonalTable(std::size_t{1} << numQubits_);
}

std::vector<double>
PauliSum::diagonalTable(std::size_t states) const
{
    if (!isDiagonal())
        throw std::logic_error("PauliSum::diagonalTable: not diagonal");
    if (!std::has_single_bit(states) ||
        states > std::size_t{1} << numQubits_)
        throw std::invalid_argument(
            "PauliSum::diagonalTable: states must be a power of two in "
            "[1, 2^n]");
    // Split z = hi * 2^L + lo. Term k's value at z is
    //   coeff_k * (-1)^parity(lo & sign_lo) * (-1)^parity(hi & sign_hi),
    // so each term needs one signed low-block table, added to every
    // high block and negated where the high parity is odd. Adding the
    // terms in order into a zeroed block reproduces the per-entry sum
    // 0.0 + c_0 * e_0(z) + c_1 * e_1(z) + ... bit for bit: negation is
    // exact, and a - b is a + (-b) in IEEE arithmetic.
    const int low_bits =
        std::min(std::countr_zero(states), kDiagonalLowBits);
    const std::size_t block = std::size_t{1} << low_bits;
    const std::size_t dim = states;
    const std::size_t num_terms = terms_.size();

    std::vector<double> low(num_terms * block);
    std::vector<std::uint64_t> high_sign(num_terms);
    for (std::size_t k = 0; k < num_terms; ++k) {
        const std::uint64_t sign = terms_[k].pauli.masks().sign;
        double* t = &low[k * block];
        // Doubling over the low sign bits: entries [half, 2 * half)
        // repeat [0, half), negated when bit b is in the mask.
        t[0] = terms_[k].coeff;
        for (int b = 0; b < low_bits; ++b) {
            const std::size_t half = std::size_t{1} << b;
            const bool flip = (sign >> b) & 1;
            for (std::size_t j = 0; j < half; ++j)
                t[half + j] = flip ? -t[j] : t[j];
        }
        high_sign[k] = sign >> low_bits;
    }

    std::vector<double> table(dim, 0.0);
    for (std::size_t hi = 0; hi < dim / block; ++hi) {
        double* out = &table[hi * block];
        for (std::size_t k = 0; k < num_terms; ++k) {
            const double* t = &low[k * block];
            if (std::popcount(hi & high_sign[k]) & 1) {
                for (std::size_t j = 0; j < block; ++j)
                    out[j] -= t[j];
            } else {
                for (std::size_t j = 0; j < block; ++j)
                    out[j] += t[j];
            }
        }
    }
    return table;
}

double
PauliSum::diagonalMinimum() const
{
    const auto table = diagonalTable();
    return *std::min_element(table.begin(), table.end());
}

} // namespace oscar

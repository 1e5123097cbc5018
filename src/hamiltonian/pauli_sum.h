/**
 * @file
 * Weighted sums of Pauli strings (observables / cost Hamiltonians).
 *
 * Every problem in the library -- MaxCut, SK, molecular ground states --
 * is expressed as a PauliSum whose expectation value under the ansatz
 * state is the VQA cost function. Diagonal sums (all I/Z) additionally
 * expose a per-basis-state value table so executors can integrate the
 * cost directly against the output distribution.
 */

#ifndef OSCAR_HAMILTONIAN_PAULI_SUM_H
#define OSCAR_HAMILTONIAN_PAULI_SUM_H

#include <string>
#include <vector>

#include "src/quantum/density_matrix.h"
#include "src/quantum/pauli.h"
#include "src/quantum/statevector.h"

namespace oscar {

namespace kernels {
struct KernelTable;
}

/** One weighted Pauli string. */
struct PauliTerm
{
    double coeff;
    PauliString pauli;
};

/** A Hermitian observable H = sum_k c_k P_k. */
class PauliSum
{
  public:
    /** Zero observable on n qubits. */
    explicit PauliSum(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t numTerms() const { return terms_.size(); }
    const std::vector<PauliTerm>& terms() const { return terms_; }

    /** Add coeff * pauli. Qubit counts must match. */
    void add(double coeff, PauliString pauli);

    /** Add coeff * P where P is parsed from a label such as "ZZI". */
    void add(double coeff, const std::string& label);

    /** True when all terms are diagonal (I/Z only). */
    bool isDiagonal() const;

    /**
     * Exact expectation <psi|H|psi>. Diagonal sums integrate the
     * per-basis-state value table; general sums contract every term
     * through the SIMD-dispatched Pauli expectation kernel (the
     * process default table, or an explicit one for evaluators that
     * pin a kernel ISA).
     */
    double expectation(const Statevector& state) const;
    double expectation(const Statevector& state,
                       const kernels::KernelTable& table) const;

    /**
     * Term-by-term expectation of `count` states at once: for each
     * state s, out[s] = sum_k c_k <s|P_k|s>, contracted through the
     * batched Pauli kernel (one pass over all states per term).
     * Bit-identical per state to the term-by-term single-state path —
     * the batched kernel accumulates each state with the identical
     * operation sequence, and terms fold in the same order. Meant for
     * non-diagonal sums; diagonal sums should keep using the value
     * table (expectation() takes that shortcut, this does not).
     */
    void expectationBatch(const cplx* const* states, std::size_t count,
                          std::size_t dim,
                          const kernels::KernelTable& table,
                          double* out) const;

    /** Exact expectation Tr(rho H). */
    double expectation(const DensityMatrix& rho) const;

    /**
     * Per-basis-state values H(z) of a diagonal observable, indexed by
     * basis state. Requires isDiagonal() (else std::logic_error).
     *
     * Contract: entry z is bitwise equal to the per-term sum
     * 0.0 + c_0 * P_0.diagonalEigenvalue(z) + c_1 * ... taken in term
     * order. Cost: one cache-blocked pass, T * 2^n additions for T
     * terms on n qubits, plus T * 2^min(n, 12) doubles of scratch
     * (one signed low-block table of at most 32 KiB per term).
     */
    std::vector<double> diagonalTable() const;

    /**
     * The first `states` entries of diagonalTable(), bitwise equal to
     * them, at `states` / 2^n of the cost. `states` must be a power of
     * two in [1, 2^n] (else std::invalid_argument).
     */
    std::vector<double> diagonalTable(std::size_t states) const;

    /**
     * Minimum eigenvalue of a diagonal observable (brute force over
     * basis states). Requires isDiagonal().
     */
    double diagonalMinimum() const;

  private:
    int numQubits_;
    std::vector<PauliTerm> terms_;
};

} // namespace oscar

#endif // OSCAR_HAMILTONIAN_PAULI_SUM_H

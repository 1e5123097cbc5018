/**
 * @file
 * Dense state-vector simulator.
 *
 * This is the ideal-execution substrate used for every landscape grid
 * search and for the ground-truth baselines. The convention is qubit k
 * = bit k of the basis index (little endian); the initial state is
 * |0...0>.
 */

#ifndef OSCAR_QUANTUM_STATEVECTOR_H
#define OSCAR_QUANTUM_STATEVECTOR_H

#include <complex>
#include <cstdint>
#include <vector>

#include "src/common/aligned.h"
#include "src/quantum/circuit.h"
#include "src/quantum/pauli.h"

namespace oscar {

namespace kernels {
struct KernelTable;
}

/** A 2^n-amplitude quantum state with gate application kernels. */
class Statevector
{
  public:
    /** |0...0> on num_qubits qubits. */
    explicit Statevector(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }

    cplx& amp(std::size_t i) { return amps_[i]; }
    const cplx& amp(std::size_t i) const { return amps_[i]; }

    /** Amplitude storage; data() is 64-byte aligned for SIMD loads. */
    AlignedVector<cplx>& amps() { return amps_; }
    const AlignedVector<cplx>& amps() const { return amps_; }

    /** Apply a single gate (angle must already be resolved). */
    void applyGate(const Gate& gate);

    /** Apply a 2x2 matrix to one qubit. */
    void applyMatrix1q(int qubit, const std::array<cplx, 4>& m);

    /**
     * Run all gates of a parameter-free circuit. Lowers the circuit
     * through the compiled-circuit kernel schedule; backends that run
     * the same circuit repeatedly should compile once and use
     * CompiledCircuit::run instead.
     */
    void run(const Circuit& circuit);

    /**
     * Run a parameterized circuit bound against params. The angles are
     * bound once into a compiled kernel schedule (no per-gate Gate
     * copies).
     */
    void run(const Circuit& circuit, const std::vector<double>& params);

    /** Measurement probabilities |amp|^2 for every basis state. */
    std::vector<double> probabilities() const;

    /**
     * Exact expectation value of a Pauli string, evaluated through
     * the SIMD-dispatched kernel table (kernels::expectationPauli;
     * the process default table, or an explicit one for evaluators
     * that pin a kernel ISA).
     */
    double expectation(const PauliString& pauli) const;
    double expectation(const PauliString& pauli,
                       const kernels::KernelTable& table) const;

    /**
     * Expectation of a diagonal observable given as a per-basis-state
     * value table of length dim().
     */
    double expectationDiagonal(const std::vector<double>& diag) const;

    /** <this|other>. */
    cplx innerProduct(const Statevector& other) const;

    /** Sum |amp|^2 (should be 1 up to rounding). */
    double norm2() const;

  private:
    int numQubits_;
    AlignedVector<cplx> amps_;
};

} // namespace oscar

#endif // OSCAR_QUANTUM_STATEVECTOR_H

/**
 * @file
 * Exact density-matrix simulator with depolarizing channels.
 *
 * The density matrix of an n-qubit system is stored as a 4^n-amplitude
 * vector: element rho(r, c) lives at index r + (c << n), i.e. the row
 * index occupies the low n "qubits" and the column index the high n.
 * A unitary U on qubit q is applied as U on qubit q (row side) and
 * conj(U) on qubit q + n (column side), which lets us reuse the
 * state-vector kernels unchanged.
 *
 * Depolarizing channels are applied exactly:
 *   D_p(rho) = (1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_q rho)      [1-qubit]
 *   D_p(rho) = (1 - 16p/15) rho + (16p/15) (I/4 (x) Tr_qq rho) [2-qubit]
 *
 * This backend is the correctness oracle for the analytic light-cone
 * damping model; it is practical up to ~10 qubits on one core.
 */

#ifndef OSCAR_QUANTUM_DENSITY_MATRIX_H
#define OSCAR_QUANTUM_DENSITY_MATRIX_H

#include <complex>
#include <vector>

#include "src/common/aligned.h"
#include "src/quantum/circuit.h"
#include "src/quantum/compiled_circuit.h"
#include "src/quantum/noise_model.h"
#include "src/quantum/pauli.h"

namespace oscar {

/** Exact mixed-state simulator for small qubit counts. */
class DensityMatrix
{
  public:
    /** |0...0><0...0| on num_qubits qubits. */
    explicit DensityMatrix(int num_qubits);

    int numQubits() const { return numQubits_; }

    /** Hilbert space dimension 2^n (the matrix is dim x dim). */
    std::size_t dim() const { return std::size_t{1} << numQubits_; }

    /** Matrix element rho(row, col). */
    cplx element(std::size_t row, std::size_t col) const;

    /** Reset to |0...0><0...0|. */
    void reset();

    /** Apply a unitary gate (angle must be resolved). */
    void applyGate(const Gate& gate);

    /** Apply the 1-qubit depolarizing channel with probability p. */
    void applyDepolarizing1(int qubit, double p);

    /** Apply the 2-qubit depolarizing channel with probability p. */
    void applyDepolarizing2(int qubit_a, int qubit_b, double p);

    /**
     * Run a bound circuit, inserting a depolarizing channel after each
     * gate according to the noise model (on the gate's qubits).
     */
    void run(const Circuit& circuit, const NoiseModel& noise);

    /**
     * Run a parameterized circuit with noise. The angles are bound once
     * against a compiled (unfused) kernel schedule, without copying the
     * circuit per evaluation.
     */
    void run(const Circuit& circuit, const std::vector<double>& params,
             const NoiseModel& noise);

    /**
     * Run a pre-compiled schedule with noise. The schedule must have
     * been compiled with fuse1q off so each op maps onto one source
     * gate (noise channels are inserted per gate). Backends that
     * evaluate the same circuit at many parameter points should
     * compile once and call this.
     */
    void run(const CompiledCircuit& compiled,
             const std::vector<double>& params, const NoiseModel& noise);

    /** Tr(rho). Should be 1 up to rounding. */
    double trace() const;

    /** Tr(rho^2): purity, 1 for pure states. */
    double purity() const;

    /** Tr(rho P) for a Pauli string. */
    double expectation(const PauliString& pauli) const;

    /** Diagonal of rho: the measurement probability distribution. */
    std::vector<double> probabilities() const;

    /**
     * Force a kernel instruction set (Auto = re-resolve the process
     * default). The unitary halves of every channel application go
     * through the same ISA-dispatched kernel table the state-vector
     * path uses; depolarizing channels are exact averaging loops and
     * stay scalar.
     */
    void setKernelIsa(kernels::KernelIsa isa);

  private:
    void apply1qBoth(int qubit, const std::array<cplx, 4>& m);
    void applyOp(const CompiledOp& op, double resolved_angle);

    int numQubits_;
    const kernels::KernelTable* table_;
    AlignedVector<cplx> data_; // 4^n amplitudes, see file comment
};

} // namespace oscar

#endif // OSCAR_QUANTUM_DENSITY_MATRIX_H

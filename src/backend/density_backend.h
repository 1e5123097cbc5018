/**
 * @file
 * Exact noisy cost evaluation via density-matrix simulation.
 *
 * Models gate-level depolarizing noise exactly (channel after every
 * gate) plus optional readout errors for diagonal Hamiltonians. This
 * backend is the ground truth the analytic damping backend is
 * validated against; practical up to ~10 qubits.
 */

#ifndef OSCAR_BACKEND_DENSITY_BACKEND_H
#define OSCAR_BACKEND_DENSITY_BACKEND_H

#include <memory>
#include <vector>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"
#include "src/quantum/density_matrix.h"
#include "src/quantum/noise_model.h"

namespace oscar {

/** Tr(rho(theta) H) with exact depolarizing + readout noise. */
class DensityCost : public CostFunction
{
  public:
    DensityCost(Circuit circuit, PauliSum hamiltonian, NoiseModel noise);

    int numParams() const override { return circuit_.numParams(); }

    const NoiseModel& noise() const { return noise_; }

    /** Replicable: the density-matrix scratch is per-instance. */
    std::unique_ptr<CostFunction> clone() const override;

    /**
     * Forward the kernel ISA to the density-matrix simulator (the
     * cache/blocking knobs have no density-path equivalent: noise
     * channels interleave per gate, so there is nothing to checkpoint
     * or block across).
     */
    void
    configureKernel(const KernelOptions& options) override
    {
        rho_.setKernelIsa(options.isa);
    }

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

  private:
    Circuit circuit_;
    /** Unfused schedule: ops map 1:1 onto noisy source gates. */
    CompiledCircuit compiled_;
    PauliSum hamiltonian_;
    NoiseModel noise_;
    /**
     * Readout-smeared energy table, shared by clones; null iff the
     * Hamiltonian is not diagonal.
     */
    std::shared_ptr<const std::vector<double>> diagonal_;
    DensityMatrix rho_;
};

} // namespace oscar

#endif // OSCAR_BACKEND_DENSITY_BACKEND_H

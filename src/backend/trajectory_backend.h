/**
 * @file
 * Monte-Carlo (quantum trajectory) noisy cost evaluation.
 *
 * Depolarizing noise is unraveled into stochastic Pauli insertions:
 * after every 1-qubit gate, with probability p1 a uniformly random
 * X/Y/Z is applied to its qubit; after every 2-qubit gate, with
 * probability p2 a uniformly random non-identity 2-qubit Pauli is
 * applied. Averaging over trajectories converges to the exact
 * depolarizing channel (validated against DensityCost in tests).
 *
 * Memory scales like the state vector, so this is the noisy backend
 * for qubit counts beyond the density matrix's reach.
 */

#ifndef OSCAR_BACKEND_TRAJECTORY_BACKEND_H
#define OSCAR_BACKEND_TRAJECTORY_BACKEND_H

#include <memory>
#include <vector>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"
#include "src/quantum/noise_model.h"
#include "src/quantum/statevector.h"

namespace oscar {

/** Trajectory-averaged noisy expectation value. */
class TrajectoryCost : public CostFunction
{
  public:
    TrajectoryCost(Circuit circuit, PauliSum hamiltonian, NoiseModel noise,
                   std::size_t num_trajectories, std::uint64_t seed);

    int numParams() const override { return circuit_.numParams(); }

    /**
     * Replicable: trajectory randomness is keyed by evaluation ordinal
     * so replicas reproduce the parent's streams.
     */
    std::unique_ptr<CostFunction> clone() const override;

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

  private:
    /** Run one noisy trajectory and return its expectation value. */
    double runTrajectory(const std::vector<double>& params, Rng& rng);

    Circuit circuit_;
    PauliSum hamiltonian_;
    NoiseModel noise_;
    std::size_t numTrajectories_;
    /**
     * Readout-smeared energy table, shared by clones; null iff the
     * Hamiltonian is not diagonal.
     */
    std::shared_ptr<const std::vector<double>> diagonal_;
    Statevector state_;
    std::uint64_t seed_;
};

} // namespace oscar

#endif // OSCAR_BACKEND_TRAJECTORY_BACKEND_H

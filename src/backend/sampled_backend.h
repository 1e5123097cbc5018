/**
 * @file
 * Finite-shot cost evaluation with true multinomial sampling.
 *
 * ShotNoiseCost (executor.h) models shot noise as Gaussian around the
 * exact expectation; this backend performs the actual experiment the
 * paper describes ("for each point on the landscape, we derive it by
 * running the quantum circuit number-of-shots many times and
 * measuring"): run the state vector, draw `shots` basis-state samples,
 * optionally flip each measured bit through the readout-error channel,
 * and average the diagonal observable over the outcomes. Requires a
 * diagonal Hamiltonian (as for QAOA/SK; Pauli grouping for general
 * observables is out of scope).
 */

#ifndef OSCAR_BACKEND_SAMPLED_BACKEND_H
#define OSCAR_BACKEND_SAMPLED_BACKEND_H

#include <memory>
#include <vector>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"
#include "src/quantum/compiled_circuit.h"
#include "src/quantum/noise_model.h"
#include "src/quantum/statevector.h"

namespace oscar {

/** Empirical expectation from sampled measurement outcomes. */
class SampledCost : public CostFunction
{
  public:
    /**
     * @param circuit     ansatz circuit (ideal execution)
     * @param hamiltonian diagonal observable
     * @param shots       measurement shots per evaluation
     * @param noise       readout error rates (gate errors ignored here;
     *                    compose with noisy backends for those)
     * @param seed        sampling seed
     */
    SampledCost(Circuit circuit, PauliSum hamiltonian, std::size_t shots,
                NoiseModel noise, std::uint64_t seed);

    int numParams() const override { return circuit_.numParams(); }

    std::size_t shots() const { return shots_; }

    /**
     * Replicable: sampling randomness is keyed by evaluation ordinal
     * (Rng(mixSeed(seed, ordinal))), not by a rolling generator, so
     * replicas reproduce the parent's streams.
     */
    std::unique_ptr<CostFunction> clone() const override;

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

  private:
    Circuit circuit_;
    CompiledCircuit compiled_; ///< circuit lowered once, bound per point
    /** Energy table shared by clones; never null. */
    std::shared_ptr<const std::vector<double>> diagonal_;
    std::size_t shots_;
    NoiseModel noise_;
    Statevector state_;
    std::uint64_t seed_;
};

} // namespace oscar

#endif // OSCAR_BACKEND_SAMPLED_BACKEND_H

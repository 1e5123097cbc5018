/**
 * @file
 * Probabilistic Error Cancellation (PEC).
 *
 * PEC (Temme et al., PRL 119, 180509 (2017); paper Section 2.3)
 * inverts a known noise channel in expectation by sampling from the
 * quasi-probability decomposition of its inverse. For the single-qubit
 * depolarizing channel with rate p, Pauli observables contract by
 * f = 1 - 4p/3; the inverse map
 *     D^{-1}(rho) = alpha rho + (beta/3) sum_P P rho P,
 *     alpha = (3g + 1)/4,  beta = (3 - 3g)/4,  g = 1/f > 1,
 * has beta < 0, so it is simulated by sampling identity/Pauli
 * insertions with probabilities |alpha|/gamma, |beta/3|/gamma and
 * weighting each trajectory by its sign times gamma = |alpha| + |beta|
 * (similarly for the 2-qubit channel with f2 = 1 - 16p/15). The
 * estimator is unbiased; its cost is the gamma^2-per-gate sampling
 * overhead -- the textbook PEC tradeoff.
 *
 * This implementation simulates the noisy device and the PEC
 * insertions together in one trajectory sampler: per gate it applies
 * the device's stochastic Pauli noise AND the sampled inverse-channel
 * operation.
 */

#ifndef OSCAR_MITIGATION_PEC_H
#define OSCAR_MITIGATION_PEC_H

#include <memory>
#include <vector>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"
#include "src/quantum/noise_model.h"
#include "src/quantum/statevector.h"

namespace oscar {

/** The per-gate quasi-probability decomposition of an inverse channel. */
struct PecChannelInverse
{
    double alpha = 1.0;  ///< identity weight (>= 1)
    double beta = 0.0;   ///< total Pauli weight (<= 0)
    double gamma = 1.0;  ///< sampling overhead |alpha| + |beta|

    /** Inverse of the 1-qubit depolarizing channel with rate p. */
    static PecChannelInverse depolarizing1(double p);

    /** Inverse of the 2-qubit depolarizing channel with rate p. */
    static PecChannelInverse depolarizing2(double p);
};

/** PEC configuration. */
struct PecOptions
{
    /** Monte-Carlo trajectories per evaluation. */
    std::size_t numSamples = 2000;

    std::uint64_t seed = 1;
};

/** PEC-mitigated noisy expectation (trajectory Monte Carlo). */
class PecCost : public CostFunction
{
  public:
    PecCost(Circuit circuit, PauliSum hamiltonian, NoiseModel noise,
            PecOptions options = {});

    int numParams() const override { return circuit_.numParams(); }

    /** Total sampling overhead prod_gates gamma_g. */
    double totalGamma() const { return totalGamma_; }

    /** Replicable: Monte-Carlo streams are keyed by ordinal. */
    std::unique_ptr<CostFunction> clone() const override;

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

  private:
    double runTrajectory(const std::vector<double>& params, double& sign,
                         Rng& rng);

    Circuit circuit_;
    PauliSum hamiltonian_;
    NoiseModel noise_;
    PecOptions options_;
    PecChannelInverse inv1_;
    PecChannelInverse inv2_;
    double totalGamma_;
    /** Energy table shared by clones; null iff H is not diagonal. */
    std::shared_ptr<const std::vector<double>> diagonal_;
    Statevector state_;
};

} // namespace oscar

#endif // OSCAR_MITIGATION_PEC_H

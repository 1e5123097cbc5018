#include "src/mitigation/pec.h"

#include <cmath>
#include <stdexcept>

#include "src/mitigation/readout.h"

namespace oscar {

PecChannelInverse
PecChannelInverse::depolarizing1(double p)
{
    if (p < 0.0 || p >= 0.75)
        throw std::invalid_argument(
            "PecChannelInverse: 1q rate out of [0, 0.75)");
    PecChannelInverse inv;
    const double g = 1.0 / (1.0 - 4.0 * p / 3.0);
    inv.alpha = (3.0 * g + 1.0) / 4.0;
    inv.beta = 1.0 - inv.alpha;
    inv.gamma = std::abs(inv.alpha) + std::abs(inv.beta);
    return inv;
}

PecChannelInverse
PecChannelInverse::depolarizing2(double p)
{
    if (p < 0.0 || p >= 15.0 / 16.0)
        throw std::invalid_argument(
            "PecChannelInverse: 2q rate out of [0, 15/16)");
    PecChannelInverse inv;
    const double g = 1.0 / (1.0 - 16.0 * p / 15.0);
    inv.alpha = (15.0 * g + 1.0) / 16.0;
    inv.beta = 1.0 - inv.alpha;
    inv.gamma = std::abs(inv.alpha) + std::abs(inv.beta);
    return inv;
}

PecCost::PecCost(Circuit circuit, PauliSum hamiltonian, NoiseModel noise,
                 PecOptions options)
    : circuit_(std::move(circuit)), hamiltonian_(std::move(hamiltonian)),
      noise_(noise), options_(options),
      inv1_(PecChannelInverse::depolarizing1(noise.p1)),
      inv2_(PecChannelInverse::depolarizing2(noise.p2)),
      state_(circuit_.numQubits())
{
    if (hamiltonian_.numQubits() != circuit_.numQubits())
        throw std::invalid_argument(
            "PecCost: circuit/Hamiltonian qubit mismatch");
    if (options_.numSamples == 0)
        throw std::invalid_argument("PecCost: need >= 1 sample");
    if (hamiltonian_.isDiagonal())
        diagonal_ = std::make_shared<const std::vector<double>>(
            hamiltonian_.diagonalTable());

    totalGamma_ = 1.0;
    for (const Gate& g : circuit_.gates())
        totalGamma_ *= gateArity(g.kind) == 2 ? inv2_.gamma : inv1_.gamma;
}

std::unique_ptr<CostFunction>
PecCost::clone() const
{
    return std::make_unique<PecCost>(*this);
}

double
PecCost::runTrajectory(const std::vector<double>& params, double& sign,
                       Rng& rng)
{
    static const GateKind paulis[] = {GateKind::X, GateKind::Y,
                                      GateKind::Z};
    sign = 1.0;
    state_.reset();
    for (const Gate& g : circuit_.gates()) {
        Gate resolved = g;
        resolved.angle = g.resolvedAngle(params);
        resolved.paramIndex = -1;
        state_.applyGate(resolved);

        const bool two_qubit = gateArity(g.kind) == 2;

        // Device noise: stochastic Pauli unraveling of depolarizing.
        if (two_qubit) {
            if (noise_.p2 > 0.0 && rng.bernoulli(noise_.p2)) {
                const std::uint64_t pick = rng.uniformInt(15) + 1;
                const int pa = static_cast<int>(pick & 3);
                const int pb = static_cast<int>(pick >> 2);
                if (pa != 0) {
                    Gate e;
                    e.kind = paulis[pa - 1];
                    e.qubits = {g.qubits[0], -1};
                    state_.applyGate(e);
                }
                if (pb != 0) {
                    Gate e;
                    e.kind = paulis[pb - 1];
                    e.qubits = {g.qubits[1], -1};
                    state_.applyGate(e);
                }
            }
        } else if (noise_.p1 > 0.0 && rng.bernoulli(noise_.p1)) {
            Gate e;
            e.kind = paulis[rng.uniformInt(3)];
            e.qubits = {g.qubits[0], -1};
            state_.applyGate(e);
        }

        // PEC insertion: sample from the inverse channel's
        // quasi-probability decomposition.
        const PecChannelInverse& inv = two_qubit ? inv2_ : inv1_;
        if (!rng.bernoulli(inv.alpha / inv.gamma)) {
            sign = -sign; // every Pauli branch carries beta < 0
            if (two_qubit) {
                const std::uint64_t pick = rng.uniformInt(15) + 1;
                const int pa = static_cast<int>(pick & 3);
                const int pb = static_cast<int>(pick >> 2);
                if (pa != 0) {
                    Gate e;
                    e.kind = paulis[pa - 1];
                    e.qubits = {g.qubits[0], -1};
                    state_.applyGate(e);
                }
                if (pb != 0) {
                    Gate e;
                    e.kind = paulis[pb - 1];
                    e.qubits = {g.qubits[1], -1};
                    state_.applyGate(e);
                }
            } else {
                Gate e;
                e.kind = paulis[rng.uniformInt(3)];
                e.qubits = {g.qubits[0], -1};
                state_.applyGate(e);
            }
        }
    }
    if (diagonal_)
        return state_.expectationDiagonal(*diagonal_);
    return hamiltonian_.expectation(state_);
}

double
PecCost::evaluateImpl(const std::vector<double>& params,
                      std::uint64_t ordinal)
{
    Rng rng(mixSeed(options_.seed, ordinal));
    double acc = 0.0;
    for (std::size_t s = 0; s < options_.numSamples; ++s) {
        double sign = 1.0;
        const double value = runTrajectory(params, sign, rng);
        acc += sign * value;
    }
    return totalGamma_ * acc / static_cast<double>(options_.numSamples);
}

} // namespace oscar

#include "src/backend/trajectory_backend.h"

#include <stdexcept>

#include "src/mitigation/readout.h"

namespace oscar {

TrajectoryCost::TrajectoryCost(Circuit circuit, PauliSum hamiltonian,
                               NoiseModel noise,
                               std::size_t num_trajectories,
                               std::uint64_t seed)
    : circuit_(std::move(circuit)), hamiltonian_(std::move(hamiltonian)),
      noise_(noise), numTrajectories_(num_trajectories),
      state_(circuit_.numQubits()), seed_(seed)
{
    if (num_trajectories == 0)
        throw std::invalid_argument("TrajectoryCost: need >= 1 trajectory");
    if (hamiltonian_.numQubits() != circuit_.numQubits())
        throw std::invalid_argument(
            "TrajectoryCost: circuit/Hamiltonian qubit mismatch");
    if (hamiltonian_.isDiagonal()) {
        std::vector<double> diagonal = hamiltonian_.diagonalTable();
        if (noise_.readout01 > 0.0 || noise_.readout10 > 0.0) {
            diagonal = applyReadoutToDiagonal(std::move(diagonal),
                                              circuit_.numQubits(),
                                              noise_.readout01,
                                              noise_.readout10);
        }
        diagonal_ = std::make_shared<const std::vector<double>>(
            std::move(diagonal));
    } else if (noise_.readout01 > 0.0 || noise_.readout10 > 0.0) {
        throw std::invalid_argument(
            "TrajectoryCost: readout noise requires diagonal Hamiltonian");
    }
}

std::unique_ptr<CostFunction>
TrajectoryCost::clone() const
{
    return std::make_unique<TrajectoryCost>(*this);
}

double
TrajectoryCost::runTrajectory(const std::vector<double>& params, Rng& rng)
{
    state_.reset();
    for (const Gate& g : circuit_.gates()) {
        Gate resolved = g;
        resolved.angle = g.resolvedAngle(params);
        resolved.paramIndex = -1;
        state_.applyGate(resolved);

        if (gateArity(g.kind) == 2) {
            if (noise_.p2 > 0.0 && rng.bernoulli(noise_.p2)) {
                // Uniform over the 15 non-identity 2-qubit Paulis:
                // pick (pa, pb) != (I, I).
                const std::uint64_t pick = rng.uniformInt(15) + 1;
                const int pa = static_cast<int>(pick & 3);
                const int pb = static_cast<int>(pick >> 2);
                static const GateKind paulis[] = {GateKind::X, GateKind::X,
                                                  GateKind::Y, GateKind::Z};
                if (pa != 0) {
                    Gate e;
                    e.kind = paulis[pa];
                    e.qubits = {g.qubits[0], -1};
                    state_.applyGate(e);
                }
                if (pb != 0) {
                    Gate e;
                    e.kind = paulis[pb];
                    e.qubits = {g.qubits[1], -1};
                    state_.applyGate(e);
                }
            }
        } else if (noise_.p1 > 0.0 && rng.bernoulli(noise_.p1)) {
            static const GateKind paulis[] = {GateKind::X, GateKind::Y,
                                              GateKind::Z};
            Gate e;
            e.kind = paulis[rng.uniformInt(3)];
            e.qubits = {g.qubits[0], -1};
            state_.applyGate(e);
        }
    }
    if (diagonal_)
        return state_.expectationDiagonal(*diagonal_);
    return hamiltonian_.expectation(state_);
}

double
TrajectoryCost::evaluateImpl(const std::vector<double>& params,
                             std::uint64_t ordinal)
{
    Rng rng(mixSeed(seed_, ordinal));
    double acc = 0.0;
    for (std::size_t t = 0; t < numTrajectories_; ++t)
        acc += runTrajectory(params, rng);
    return acc / static_cast<double>(numTrajectories_);
}

} // namespace oscar

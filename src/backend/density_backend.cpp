#include "src/backend/density_backend.h"

#include <stdexcept>

#include "src/mitigation/readout.h"

namespace oscar {

DensityCost::DensityCost(Circuit circuit, PauliSum hamiltonian,
                         NoiseModel noise)
    : circuit_(std::move(circuit)),
      compiled_(circuit_, CompileOptions{.fuse1q = false}),
      hamiltonian_(std::move(hamiltonian)), noise_(noise),
      rho_(circuit_.numQubits())
{
    if (hamiltonian_.numQubits() != circuit_.numQubits())
        throw std::invalid_argument(
            "DensityCost: circuit/Hamiltonian qubit mismatch");
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
            "DensityCost: readout noise requires a diagonal Hamiltonian");
    }
}

std::unique_ptr<CostFunction>
DensityCost::clone() const
{
    return std::make_unique<DensityCost>(*this);
}

double
DensityCost::evaluateImpl(const std::vector<double>& params,
                          std::uint64_t /*ordinal*/)
{
    rho_.reset();
    rho_.run(compiled_, params, noise_);
    if (diagonal_) {
        const auto probs = rho_.probabilities();
        double acc = 0.0;
        for (std::size_t z = 0; z < probs.size(); ++z)
            acc += probs[z] * (*diagonal_)[z];
        return acc;
    }
    return hamiltonian_.expectation(rho_);
}

} // namespace oscar

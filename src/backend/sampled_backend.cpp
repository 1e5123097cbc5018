#include "src/backend/sampled_backend.h"

#include <stdexcept>

namespace oscar {

SampledCost::SampledCost(Circuit circuit, PauliSum hamiltonian,
                         std::size_t shots, NoiseModel noise,
                         std::uint64_t seed)
    : circuit_(std::move(circuit)), compiled_(circuit_), shots_(shots),
      noise_(noise), state_(circuit_.numQubits()), seed_(seed)
{
    if (hamiltonian.numQubits() != circuit_.numQubits())
        throw std::invalid_argument(
            "SampledCost: circuit/Hamiltonian qubit mismatch");
    if (!hamiltonian.isDiagonal())
        throw std::invalid_argument(
            "SampledCost: requires a diagonal Hamiltonian");
    if (shots_ == 0)
        throw std::invalid_argument("SampledCost: shots must be > 0");
    diagonal_ = std::make_shared<const std::vector<double>>(
        hamiltonian.diagonalTable());
}

std::unique_ptr<CostFunction>
SampledCost::clone() const
{
    return std::make_unique<SampledCost>(*this);
}

double
SampledCost::evaluateImpl(const std::vector<double>& params,
                          std::uint64_t ordinal)
{
    Rng rng(mixSeed(seed_, ordinal));
    state_.reset();
    compiled_.run(state_, params);
    const auto outcomes = state_.sample(shots_, rng);

    const bool readout =
        noise_.readout01 > 0.0 || noise_.readout10 > 0.0;
    double acc = 0.0;
    for (std::uint64_t z : outcomes) {
        if (readout) {
            for (int q = 0; q < circuit_.numQubits(); ++q) {
                const bool bit = (z >> q) & 1ULL;
                const double flip_prob =
                    bit ? noise_.readout10 : noise_.readout01;
                if (flip_prob > 0.0 && rng.bernoulli(flip_prob))
                    z ^= std::uint64_t{1} << q;
            }
        }
        acc += (*diagonal_)[z];
    }
    return acc / static_cast<double>(shots_);
}

} // namespace oscar

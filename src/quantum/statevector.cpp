#include "src/quantum/statevector.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/quantum/compiled_circuit.h"
#include "src/quantum/kernels.h"

namespace oscar {

Statevector::Statevector(int num_qubits)
    : numQubits_(num_qubits)
{
    if (num_qubits < 1 || num_qubits > 28)
        throw std::invalid_argument("Statevector: unsupported qubit count");
    amps_.assign(std::size_t{1} << num_qubits, cplx(0.0, 0.0));
    amps_[0] = 1.0;
}

void
Statevector::applyMatrix1q(int qubit, const std::array<cplx, 4>& m)
{
    assert(qubit >= 0 && qubit < numQubits_);
    kernels::defaultKernelTable().matrix1q(amps_.data(), amps_.size(),
                                           qubit, m);
}

void
Statevector::applyGate(const Gate& gate)
{
    assert(gate.paramIndex < 0 && "gate angle must be resolved");
    const kernels::KernelTable& t = kernels::defaultKernelTable();
    cplx* amps = amps_.data();
    const std::size_t dim = amps_.size();
    switch (gate.kind) {
      case GateKind::CX:
        t.cx(amps, dim, gate.qubits[0], gate.qubits[1]);
        return;
      case GateKind::CZ:
        t.negateMasked(amps, dim,
                       kernels::czMask(gate.qubits[0], gate.qubits[1]));
        return;
      case GateKind::SWAP:
        t.swapQubits(amps, dim, gate.qubits[0], gate.qubits[1]);
        return;
      case GateKind::RZZ:
        t.phaseZZ(amps, dim, gate.qubits[0], gate.qubits[1],
                  std::exp(cplx(0.0, -gate.angle / 2)),
                  std::exp(cplx(0.0, gate.angle / 2)));
        return;
      default:
        t.matrix1q(amps, dim, gate.qubits[0],
                   gate.matrix1q(gate.angle));
        return;
    }
}

void
Statevector::run(const Circuit& circuit)
{
    if (circuit.numParams() != 0)
        throw std::invalid_argument("Statevector::run: unbound parameters");
    CompiledCircuit(circuit).run(*this);
}

void
Statevector::run(const Circuit& circuit, const std::vector<double>& params)
{
    CompiledCircuit(circuit).run(*this, params);
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> p(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i)
        p[i] = std::norm(amps_[i]);
    return p;
}

double
Statevector::expectation(const PauliString& pauli) const
{
    return expectation(pauli, kernels::defaultKernelTable());
}

double
Statevector::expectation(const PauliString& pauli,
                         const kernels::KernelTable& table) const
{
    assert(pauli.numQubits() == numQubits_);
    // <psi|P|psi> in mask form: P permutes basis states (X/Y flip
    // bits) and multiplies by a sign (Y/Z bits) and a constant phase
    // (i per Y). The dispatched kernel streams the whole contraction.
    const PauliMasks m = pauli.masks();
    static const cplx kPhases[4] = {{1.0, 0.0},
                                    {0.0, 1.0},
                                    {-1.0, 0.0},
                                    {0.0, -1.0}};
    return table.expectationPauli(amps_.data(), amps_.size(), m.flip,
                                  m.sign, kPhases[m.numY & 3]);
}

double
Statevector::expectationDiagonal(const std::vector<double>& diag) const
{
    assert(diag.size() == amps_.size());
    return kernels::defaultKernelTable().expectationDiagonal(
        amps_.data(), diag.data(), amps_.size());
}

cplx
Statevector::innerProduct(const Statevector& other) const
{
    assert(other.dim() == dim());
    cplx acc(0.0, 0.0);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        acc += std::conj(amps_[i]) * other.amps_[i];
    return acc;
}

double
Statevector::norm2() const
{
    double acc = 0.0;
    for (const cplx& a : amps_)
        acc += std::norm(a);
    return acc;
}

} // namespace oscar

#include "src/quantum/density_matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/quantum/compiled_circuit.h"
#include "src/quantum/kernels.h"

namespace oscar {

namespace {

std::array<cplx, 4>
conjugate(const std::array<cplx, 4>& m)
{
    return {std::conj(m[0]), std::conj(m[1]), std::conj(m[2]),
            std::conj(m[3])};
}

} // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits), table_(&kernels::defaultKernelTable())
{
    if (num_qubits < 1 || num_qubits > 13)
        throw std::invalid_argument(
            "DensityMatrix: unsupported qubit count (max 13)");
    data_.assign(std::size_t{1} << (2 * num_qubits), cplx(0.0, 0.0));
    data_[0] = 1.0;
}

void
DensityMatrix::reset()
{
    std::fill(data_.begin(), data_.end(), cplx(0.0, 0.0));
    data_[0] = 1.0;
}

cplx
DensityMatrix::element(std::size_t row, std::size_t col) const
{
    assert(row < dim() && col < dim());
    return data_[row + (col << numQubits_)];
}

void
DensityMatrix::setKernelIsa(kernels::KernelIsa isa)
{
    table_ = &kernels::kernelTable(isa);
}

void
DensityMatrix::apply1qBoth(int qubit, const std::array<cplx, 4>& m)
{
    table_->matrix1q(data_.data(), data_.size(), qubit, m);
    table_->matrix1q(data_.data(), data_.size(), qubit + numQubits_,
                     conjugate(m));
}

void
DensityMatrix::applyGate(const Gate& gate)
{
    assert(gate.paramIndex < 0 && "gate angle must be resolved");
    const kernels::KernelTable& t = *table_;
    cplx* d = data_.data();
    const std::size_t dim = data_.size();
    const int n = numQubits_;
    switch (gate.kind) {
      case GateKind::CX:
        t.cx(d, dim, gate.qubits[0], gate.qubits[1]);
        t.cx(d, dim, gate.qubits[0] + n, gate.qubits[1] + n);
        return;
      case GateKind::CZ:
        t.negateMasked(d, dim,
                       kernels::czMask(gate.qubits[0], gate.qubits[1]));
        t.negateMasked(
            d, dim, kernels::czMask(gate.qubits[0] + n, gate.qubits[1] + n));
        return;
      case GateKind::SWAP:
        t.swapQubits(d, dim, gate.qubits[0], gate.qubits[1]);
        t.swapQubits(d, dim, gate.qubits[0] + n, gate.qubits[1] + n);
        return;
      case GateKind::RZZ: {
        const cplx same = std::exp(cplx(0.0, -gate.angle / 2));
        const cplx diff = std::exp(cplx(0.0, gate.angle / 2));
        t.phaseZZ(d, dim, gate.qubits[0], gate.qubits[1], same, diff);
        // conj(RZZ(theta)) = RZZ(-theta)
        t.phaseZZ(d, dim, gate.qubits[0] + n, gate.qubits[1] + n,
                  std::conj(same), std::conj(diff));
        return;
      }
      default:
        apply1qBoth(gate.qubits[0], gate.matrix1q(gate.angle));
        return;
    }
}

void
DensityMatrix::applyOp(const CompiledOp& op, double resolved_angle)
{
    const kernels::KernelTable& t = *table_;
    cplx* d = data_.data();
    const std::size_t dim = data_.size();
    const int n = numQubits_;
    switch (op.op) {
      case KernelOp::Matrix1q: {
        const std::array<cplx, 4> m =
            op.paramIndex < 0 ? op.matrix
                              : gateMatrix1q(op.kind, resolved_angle);
        apply1qBoth(op.q0, m);
        return;
      }
      case KernelOp::Diag1q: {
        cplx p0 = op.phase0, p1 = op.phase1;
        if (op.paramIndex >= 0) {
            p0 = std::exp(cplx(0.0, -resolved_angle / 2));
            p1 = std::exp(cplx(0.0, resolved_angle / 2));
        }
        t.diag1q(d, dim, op.q0, p0, p1);
        t.diag1q(d, dim, op.q0 + n, std::conj(p0), std::conj(p1));
        return;
      }
      case KernelOp::CX:
        t.cx(d, dim, op.q0, op.q1);
        t.cx(d, dim, op.q0 + n, op.q1 + n);
        return;
      case KernelOp::CZ:
        t.negateMasked(d, dim, kernels::czMask(op.q0, op.q1));
        t.negateMasked(d, dim, kernels::czMask(op.q0 + n, op.q1 + n));
        return;
      case KernelOp::Swap:
        t.swapQubits(d, dim, op.q0, op.q1);
        t.swapQubits(d, dim, op.q0 + n, op.q1 + n);
        return;
      case KernelOp::PhaseZZ: {
        cplx same = op.phase0, diff = op.phase1;
        if (op.paramIndex >= 0) {
            same = std::exp(cplx(0.0, -resolved_angle / 2));
            diff = std::exp(cplx(0.0, resolved_angle / 2));
        }
        t.phaseZZ(d, dim, op.q0, op.q1, same, diff);
        t.phaseZZ(d, dim, op.q0 + n, op.q1 + n, std::conj(same),
                  std::conj(diff));
        return;
      }
      case KernelOp::PhaseFill:
      case KernelOp::PhaseTable:
      case KernelOp::PairMask:
        break; // rejected by run(): phase ops address statevectors
    }
}

void
DensityMatrix::applyDepolarizing1(int qubit, double p)
{
    if (p <= 0.0)
        return;
    const double lambda = 4.0 * p / 3.0;
    const std::size_t rmask = std::size_t{1} << qubit;
    const std::size_t cmask = std::size_t{1} << (qubit + numQubits_);
    // Process each 2x2 block in the qubit subspace exactly once by
    // iterating over indices with both block bits clear.
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (i & (rmask | cmask))
            continue;
        const std::size_t i00 = i;
        const std::size_t i01 = i | cmask;
        const std::size_t i10 = i | rmask;
        const std::size_t i11 = i | rmask | cmask;
        const cplx d00 = data_[i00];
        const cplx d11 = data_[i11];
        const cplx avg = 0.5 * (d00 + d11);
        data_[i00] = (1.0 - lambda) * d00 + lambda * avg;
        data_[i11] = (1.0 - lambda) * d11 + lambda * avg;
        data_[i01] *= (1.0 - lambda);
        data_[i10] *= (1.0 - lambda);
    }
}

void
DensityMatrix::applyDepolarizing2(int qubit_a, int qubit_b, double p)
{
    if (p <= 0.0)
        return;
    const double lambda = 16.0 * p / 15.0;
    const int n = numQubits_;
    const std::size_t ra = std::size_t{1} << qubit_a;
    const std::size_t rb = std::size_t{1} << qubit_b;
    const std::size_t ca = std::size_t{1} << (qubit_a + n);
    const std::size_t cb = std::size_t{1} << (qubit_b + n);
    const std::size_t all = ra | rb | ca | cb;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (i & all)
            continue;
        // The 4x4 block in the (qubit_a, qubit_b) subspace. Row/col
        // sub-index s in {0..3}: bit0 -> qubit_a, bit1 -> qubit_b.
        auto idx = [&](int r, int c) {
            std::size_t j = i;
            if (r & 1) j |= ra;
            if (r & 2) j |= rb;
            if (c & 1) j |= ca;
            if (c & 2) j |= cb;
            return j;
        };
        cplx tr(0.0, 0.0);
        for (int s = 0; s < 4; ++s)
            tr += data_[idx(s, s)];
        const cplx avg = 0.25 * tr;
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                cplx& e = data_[idx(r, c)];
                e *= (1.0 - lambda);
                if (r == c)
                    e += lambda * avg;
            }
        }
    }
}

void
DensityMatrix::run(const Circuit& circuit, const NoiseModel& noise)
{
    if (circuit.numParams() != 0)
        throw std::invalid_argument("DensityMatrix::run: unbound params");
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("DensityMatrix::run: qubit mismatch");
    for (const Gate& g : circuit.gates()) {
        applyGate(g);
        if (gateArity(g.kind) == 2)
            applyDepolarizing2(g.qubits[0], g.qubits[1], noise.p2);
        else
            applyDepolarizing1(g.qubits[0], noise.p1);
    }
}

void
DensityMatrix::run(const Circuit& circuit, const std::vector<double>& params,
                   const NoiseModel& noise)
{
    CompileOptions options;
    options.fuse1q = false; // noise channels attach per source gate
    run(CompiledCircuit(circuit, options), params, noise);
}

void
DensityMatrix::run(const CompiledCircuit& compiled,
                   const std::vector<double>& params,
                   const NoiseModel& noise)
{
    if (compiled.numQubits() != numQubits_)
        throw std::invalid_argument("DensityMatrix::run: qubit mismatch");
    if (static_cast<int>(params.size()) != compiled.numParams())
        throw std::invalid_argument(
            "DensityMatrix::run: wrong parameter count");
    if (compiled.fusedGateCount() != 0)
        throw std::invalid_argument(
            "DensityMatrix::run: schedule must be compiled with "
            "fuse1q off (ops map 1:1 onto noisy gates)");
    if (compiled.numPhaseOps() != 0)
        throw std::invalid_argument(
            "DensityMatrix::run: schedule must be compiled without "
            "QAOA phase ops");
    for (const CompiledOp& op : compiled.ops()) {
        applyOp(op, op.resolvedAngle(params.data()));
        if (op.arity() == 2)
            applyDepolarizing2(op.q0, op.q1, noise.p2);
        else
            applyDepolarizing1(op.q0, noise.p1);
    }
}

double
DensityMatrix::trace() const
{
    double acc = 0.0;
    for (std::size_t r = 0; r < dim(); ++r)
        acc += element(r, r).real();
    return acc;
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_{r,c} rho(r,c) rho(c,r) = sum |rho(r,c)|^2 for
    // Hermitian rho.
    double acc = 0.0;
    for (const cplx& e : data_)
        acc += std::norm(e);
    return acc;
}

double
DensityMatrix::expectation(const PauliString& pauli) const
{
    assert(pauli.numQubits() == numQubits_);
    // Tr(rho P) = sum_r (rho P)(r, r) = sum_r rho(r, s) P(s, r) where
    // s = r ^ flip_mask and P(s, r) is a phase.
    std::uint64_t flip_mask = 0;
    for (int q = 0; q < numQubits_; ++q) {
        const PauliOp op = pauli.op(q);
        if (op == PauliOp::X || op == PauliOp::Y)
            flip_mask |= std::uint64_t{1} << q;
    }
    const cplx im(0.0, 1.0);
    cplx acc(0.0, 0.0);
    for (std::size_t r = 0; r < dim(); ++r) {
        const std::size_t s = r ^ flip_mask;
        cplx elem(1.0, 0.0); // P(s, r) = <s|P|r>
        for (int q = 0; q < numQubits_; ++q) {
            const bool bit_r = (r >> q) & 1ULL;
            switch (pauli.op(q)) {
              case PauliOp::I:
              case PauliOp::X:
                break;
              case PauliOp::Y:
                elem *= bit_r ? -im : im;
                break;
              case PauliOp::Z:
                if (bit_r)
                    elem = -elem;
                break;
            }
        }
        acc += element(r, s) * elem;
    }
    return acc.real();
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> p(dim());
    for (std::size_t r = 0; r < dim(); ++r)
        p[r] = element(r, r).real();
    return p;
}

} // namespace oscar

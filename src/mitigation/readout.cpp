#include "src/mitigation/readout.h"

#include <cassert>
#include <utility>

namespace oscar {

namespace {

/**
 * Apply the per-qubit 2x2 map M (row-major: m00 m01 / m10 m11) to a
 * length-2^n table along every qubit axis. For distributions M is the
 * column-stochastic confusion matrix; for observables we apply the
 * transpose (see callers).
 */
std::vector<double>
applyKronecker2(std::vector<double> v, int num_qubits, double m00,
                double m01, double m10, double m11)
{
    assert(v.size() == (std::size_t{1} << num_qubits));
    for (int q = 0; q < num_qubits; ++q) {
        const std::size_t stride = std::size_t{1} << q;
        for (std::size_t base = 0; base < v.size(); base += 2 * stride) {
            for (std::size_t off = 0; off < stride; ++off) {
                const std::size_t i0 = base + off;
                const std::size_t i1 = i0 + stride;
                const double a0 = v[i0];
                const double a1 = v[i1];
                v[i0] = m00 * a0 + m01 * a1;
                v[i1] = m10 * a0 + m11 * a1;
            }
        }
    }
    return v;
}

} // namespace

std::vector<double>
applyReadoutToDiagonal(std::vector<double> table, int num_qubits,
                       double e01, double e10)
{
    // Confusion matrix T(read|true), columns indexed by true value:
    //   T = [[1-e01, e10], [e01, 1-e10]].
    // C~(z) = sum_z' T(z'|z) C(z')  ==>  C~ = T^T C per qubit.
    return applyKronecker2(std::move(table), num_qubits,
                           1.0 - e01, e01, e10, 1.0 - e10);
}

std::vector<double>
applyReadoutToDistribution(std::vector<double> probs, int num_qubits,
                           double e01, double e10)
{
    // p' = T p per qubit.
    return applyKronecker2(std::move(probs), num_qubits,
                           1.0 - e01, e10, e01, 1.0 - e10);
}

} // namespace oscar

/**
 * @file
 * Readout (measurement) error model.
 *
 * Readout errors are classical bit flips applied to measurement
 * outcomes: a qubit in state 0 reads 1 with probability e01 and a
 * qubit in 1 reads 0 with probability e10. For expectation values of
 * diagonal observables this is equivalent to replacing the observable
 * value table C(z) by its confusion-smeared version
 *     C~(z) = sum_z' P(read z' | prepared z) C(z'),
 * a tensor product of per-qubit 2x2 stochastic maps, applied here with
 * an in-place butterfly in O(n 2^n).
 */

#ifndef OSCAR_MITIGATION_READOUT_H
#define OSCAR_MITIGATION_READOUT_H

#include <vector>

namespace oscar {

/**
 * Smear a diagonal observable table by readout errors: returns the
 * effective table C~ such that E_noisy[C] = sum_z p(z) C~(z).
 */
std::vector<double> applyReadoutToDiagonal(std::vector<double> table,
                                           int num_qubits, double e01,
                                           double e10);

/**
 * Apply readout errors to a probability distribution over basis
 * states: p'(z') = sum_z T(z'|z) p(z).
 */
std::vector<double> applyReadoutToDistribution(std::vector<double> probs,
                                               int num_qubits, double e01,
                                               double e10);

} // namespace oscar

#endif // OSCAR_MITIGATION_READOUT_H

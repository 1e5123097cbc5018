/**
 * @file
 * Molecular electronic-structure Hamiltonians (H2 and LiH).
 *
 * The paper's Table 3 reconstructs VQE landscapes for the hydrogen
 * molecule (2 qubits) and lithium hydride (4 qubits).
 *
 * H2: the standard 2-qubit reduced Hamiltonian at bond length 0.735 A
 * (STO-3G, parity mapping with symmetry reduction), with the widely
 * used coefficients from O'Malley et al., PRX 6, 031007 (2016).
 *
 * LiH: the authors used a qubit-reduced LiH Hamiltonian produced by a
 * chemistry package we do not ship. We substitute a fixed 4-qubit
 * Pauli sum with the same structure (dominant diagonal Z/ZZ terms plus
 * weaker XX/YY exchange terms, coefficient magnitudes matching
 * published 4-qubit LiH reductions). Landscape-reconstruction behaviour
 * depends only on this structure, not on chemical accuracy; see
 * README.md "Substitutions", #4.
 */

#ifndef OSCAR_HAMILTONIAN_MOLECULES_H
#define OSCAR_HAMILTONIAN_MOLECULES_H

#include "src/hamiltonian/pauli_sum.h"

namespace oscar {

/** 2-qubit H2 Hamiltonian at equilibrium bond length (Hartree). */
PauliSum h2Hamiltonian();

/** 4-qubit LiH-structured Hamiltonian (see file comment). */
PauliSum lihHamiltonian();

} // namespace oscar

#endif // OSCAR_HAMILTONIAN_MOLECULES_H

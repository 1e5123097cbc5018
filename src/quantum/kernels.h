/**
 * @file
 * ISA-dispatched gate-application kernels on raw amplitude arrays.
 *
 * These are the innermost loops of every dense simulation in the
 * library. They operate on a bare `cplx*` of length `dim` (a power of
 * two) with the little-endian qubit convention of Statevector, so the
 * same kernels serve the state-vector simulator (dim = 2^n), the
 * density-matrix simulator (dim = 4^n, row qubits low / column qubits
 * high), and the compiled-circuit schedule (compiled_circuit.h), which
 * dispatches straight into them without materializing per-gate `Gate`
 * copies.
 *
 * The kernels come in per-ISA variants collected into a KernelTable of
 * function pointers:
 *
 *  - the *scalar* table is the portable reference implementation (the
 *    free functions below, compiled for the baseline target),
 *  - the *AVX2* table (kernels_avx2.cpp, compiled with -mavx2 -mfma)
 *    vectorizes the complex arithmetic four doubles at a time, and
 *  - the *AVX-512* table (kernels_avx512.cpp, compiled with -mavx512f
 *    -mavx512dq) widens to eight doubles and uses masked loads/stores
 *    for arrays below the vector width instead of scalar remainder
 *    loops.
 *
 * Every build compiles all three tables (a compiler without a tier's
 * flags stubs that tier out). CPUID alone picks one, once, at startup
 * (defaultKernelTable: the widest tier the CPU runs), and a tier can be
 * pinned per evaluator through KernelOptions::isa or process-wide with
 * the OSCAR_KERNEL_ISA environment variable ("scalar" / "avx2" /
 * "avx512"). Explicitly requesting a tier the build or CPU lacks
 * throws (kernelTable below) — a pinned ISA must fail loudly, never
 * silently degrade — while "auto" only ever resolves to a supported
 * tier. Within a fixed ISA every code path
 * that applies the same operation to the same bits produces
 * bit-identical results — the property the engine's determinism
 * contract and prefix resume rest on. Different ISAs may round
 * differently (FMA contraction), so cross-ISA comparisons are
 * tolerance-based, never bitwise.
 */

#ifndef OSCAR_QUANTUM_KERNELS_H
#define OSCAR_QUANTUM_KERNELS_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/quantum/gate.h"

namespace oscar {
namespace kernels {

// ---------------------------------------------------------------------
// Scalar reference kernels. These are the bit-exact baseline every
// other ISA is tested against; they are also the entries of the scalar
// KernelTable below.
// ---------------------------------------------------------------------

/** Apply a 2x2 matrix {m00, m01, m10, m11} to one qubit. */
void matrix1q(cplx* amps, std::size_t dim, int qubit,
              const std::array<cplx, 4>& m);

/** Apply a diagonal 1-qubit gate diag(phase0, phase1). */
void diag1q(cplx* amps, std::size_t dim, int qubit, cplx phase0,
            cplx phase1);

/** Controlled-X with control/target bit positions. */
void cx(cplx* amps, std::size_t dim, int control, int target);

/** Swap two qubits. */
void swapQubits(cplx* amps, std::size_t dim, int a, int b);

/**
 * Two-qubit ZZ phase: multiply by `same` where the two bits agree and
 * by `diff` where they differ. RZZ(theta) is same = exp(-i theta/2),
 * diff = exp(+i theta/2).
 */
void phaseZZ(cplx* amps, std::size_t dim, int a, int b, cplx same,
             cplx diff);

/**
 * Multiply every amplitude by `factor`. The cache-blocked replay uses
 * this for diagonal ops whose qubits all lie above the current block
 * (the phase is constant across the block).
 */
void scale(cplx* amps, std::size_t dim, cplx factor);

/**
 * Negate amplitudes whose index has every bit of `mask` set (mask = 0
 * negates everything). CZ(a, b) is negateMasked with both bit masks;
 * the blocked replay uses partial masks when some CZ qubits resolve
 * against the block's base index. Negation is exact, so this is
 * bit-identical across every ISA and blocking layout.
 */
void negateMasked(cplx* amps, std::size_t dim, std::size_t mask);

/** The negateMasked mask of CZ(a, b). */
inline std::size_t
czMask(int a, int b)
{
    return (std::size_t{1} << a) | (std::size_t{1} << b);
}

/**
 * Apply X on `target` (unconditional bit flip). The blocked replay
 * uses this for a CX whose control bit lies above the block and is set
 * in the block's base index. Pure swaps: exact on every ISA.
 */
void flipBit(cplx* amps, std::size_t dim, int target);

/**
 * X-axis rotation RX(theta) with c = cos(theta/2), s = sin(theta/2):
 * the matrix [[c, -i s], [-i s, c]]. A super-kernel specialization of
 * matrix1q used by the fused replay plan (compiled_circuit.h): the
 * real diagonal and purely imaginary off-diagonal cut the complex
 * multiply count in half. Only dispatched when fusion is enabled —
 * its rounding differs from the generic matrix1q path on FMA ISAs, so
 * it is part of the (ISA, fusion plan) determinism key.
 */
void rotX(cplx* amps, std::size_t dim, int qubit, double c, double s);

/** Y-axis rotation RY(theta): the all-real matrix [[c, -s], [s, c]]. */
void rotY(cplx* amps, std::size_t dim, int qubit, double c, double s);

/**
 * Pair-fused rotations: apply rotX(qa, ca, sa) then rotX(qb, cb, sb)
 * in one pass over the amplitudes (qa != qb). Guaranteed bit-identical
 * per ISA to the two single-rotation calls in sequence: every
 * amplitude sees the exact same multiply/FMA sequence, the fused
 * kernel only keeps the intermediate values in registers instead of
 * storing and reloading them. That exactness is what lets the fused
 * replay pair adjacent lowered rotations opportunistically — at any
 * segment, chunk or checkpoint boundary the pairing may differ without
 * perturbing a single bit.
 */
void rotX2(cplx* amps, std::size_t dim, int qa, int qb, double ca,
           double sa, double cb, double sb);

/** Pair-fused RY rotations; same bit-identity contract as rotX2. */
void rotY2(cplx* amps, std::size_t dim, int qa, int qb, double ca,
           double sa, double cb, double sb);

/**
 * Fused diagonal super-kernel: amps[i] *= table[i]. The fused replay
 * collapses a run of diagonal ops into one precomputed phase table
 * per block (one pass over the amplitudes instead of one per op);
 * `table` has length `dim` and should be 64-byte aligned
 * (common/aligned.h) so the wide ISAs load it efficiently.
 */
void applyDiagTable(cplx* amps, std::size_t dim, const cplx* table);

/**
 * Expectation of a diagonal observable: sum_i |amps[i]|^2 * diag[i],
 * accumulated in index order.
 */
double expectationDiagonal(const cplx* amps, const double* diag,
                           std::size_t dim);

/**
 * Batched diagonal expectation: one pass over `diag` evaluating
 * `count` states against the same value table,
 * out[s] = sum_i |states[s][i]|^2 * diag[i]. For every ISA, out[s] is
 * bit-identical to expectationDiagonal(states[s], diag, dim) — the
 * per-state accumulation order is unchanged; batching only shares the
 * diag[i] traffic — so backends can group shared-prefix points without
 * perturbing values.
 */
void expectationDiagonalBatch(const cplx* const* states,
                              std::size_t count, const double* diag,
                              std::size_t dim, double* out);

/**
 * Expectation of a general (possibly non-diagonal) Pauli string in
 * mask form: <psi|P|psi> where P maps basis state j to
 * phase * (-1)^popcount(j & sign_mask) |j ^ flip_mask>. The masks of a
 * string come from PauliString::masks(): flip collects X/Y qubits,
 * sign collects Y/Z qubits, and phase = i^numY. Accumulates
 * conj(amps[i]) * s(j) * amps[j] in index order and applies the
 * constant phase once at the end. For a diagonal string (flip = 0,
 * phase = 1) this is bit-identical to the historical diagonal loop.
 */
double expectationPauli(const cplx* amps, std::size_t dim,
                        std::uint64_t flip_mask, std::uint64_t sign_mask,
                        cplx phase);

/**
 * Batched general Pauli expectation: evaluate `count` states against
 * the same mask-form string in one pass,
 * out[s] = expectationPauli(states[s], ...) bit for bit — the
 * per-state accumulation order is unchanged; batching only shares the
 * index arithmetic, partner-permutation and sign computation across
 * states. The non-diagonal analogue of expectationDiagonalBatch, so
 * backends can fuse prefix-grouped batch points of non-diagonal
 * Hamiltonians without perturbing values.
 */
void expectationPauliBatch(const cplx* const* states, std::size_t count,
                           std::size_t dim, std::uint64_t flip_mask,
                           std::uint64_t sign_mask, cplx phase,
                           double* out);

// ---------------------------------------------------------------------
// Table-free kernels: one plain scalar implementation serves every
// ISA, so they round the same whichever KernelTable a replay uses.
// ---------------------------------------------------------------------

/**
 * Pair-mask pass: for every pair (x, y = x ^ (dim - 1)),
 * amps'[x] = m00 amps[x] + m01 amps[y] and amps'[y] = m00 amps[y] +
 * m01 amps[x]. On the half state of an X^n-symmetric state
 * (compiled_circuit.h) this applies the 1-qubit gate
 * [[m00, m01], [m01, m00]] to the dropped top qubit; RX(theta) is
 * m00 = cos(theta/2), m01 = -i sin(theta/2). dim >= 2.
 */
void pairMask(cplx* amps, std::size_t dim, cplx m00, cplx m01);

// ---------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------

/**
 * Instruction-set variants of the kernel layer. Ordered by width:
 * stats aggregation reports the max, so the numeric order must match
 * the "wider is larger" convention.
 */
enum class KernelIsa : std::uint8_t
{
    Scalar = 0, ///< portable reference (baseline target)
    Avx2 = 1,   ///< AVX2 + FMA, runtime-checked via CPUID
    Avx512 = 2, ///< AVX-512 F+DQ, runtime-checked via CPUID
    Auto = 255, ///< resolve to the best supported ISA at startup
};

/** Short lowercase name ("scalar", "avx2", "avx512") for logs/stats. */
const char* isaName(KernelIsa isa);

/**
 * Parse an ISA name ("scalar", "avx2", "avx512", "auto") as accepted
 * by the OSCAR_KERNEL_ISA environment variable. Unknown strings throw
 * std::invalid_argument listing the valid names — a typo'd override
 * must fail loudly, never silently fall back to a different ISA than
 * the one the user pinned.
 */
KernelIsa parseIsaName(const char* name);

/**
 * One ISA's implementation of every kernel. All entries are non-null;
 * permutation/negation kernels (cx, swap, negateMasked, flipBit) may
 * share the scalar implementation — they move or sign-flip values
 * without rounding, so their results are ISA-independent anyway.
 */
struct KernelTable
{
    KernelIsa isa = KernelIsa::Scalar;

    void (*matrix1q)(cplx*, std::size_t, int,
                     const std::array<cplx, 4>&) = nullptr;
    void (*diag1q)(cplx*, std::size_t, int, cplx, cplx) = nullptr;
    void (*cx)(cplx*, std::size_t, int, int) = nullptr;
    void (*swapQubits)(cplx*, std::size_t, int, int) = nullptr;
    void (*phaseZZ)(cplx*, std::size_t, int, int, cplx, cplx) = nullptr;
    void (*scale)(cplx*, std::size_t, cplx) = nullptr;
    void (*negateMasked)(cplx*, std::size_t, std::size_t) = nullptr;
    void (*flipBit)(cplx*, std::size_t, int) = nullptr;
    void (*rotX)(cplx*, std::size_t, int, double, double) = nullptr;
    void (*rotY)(cplx*, std::size_t, int, double, double) = nullptr;
    void (*rotX2)(cplx*, std::size_t, int, int, double, double, double,
                  double) = nullptr;
    void (*rotY2)(cplx*, std::size_t, int, int, double, double, double,
                  double) = nullptr;
    void (*applyDiagTable)(cplx*, std::size_t, const cplx*) = nullptr;
    void (*expectationDiagonalBatch)(const cplx* const*, std::size_t,
                                     const double*, std::size_t,
                                     double*) = nullptr;
    double (*expectationPauli)(const cplx*, std::size_t, std::uint64_t,
                               std::uint64_t, cplx) = nullptr;
    void (*expectationPauliBatch)(const cplx* const*, std::size_t,
                                  std::size_t, std::uint64_t,
                                  std::uint64_t, cplx,
                                  double*) = nullptr;

    /** Single-state convenience over expectationDiagonalBatch. */
    double
    expectationDiagonal(const cplx* amps, const double* diag,
                        std::size_t dim) const
    {
        double out;
        expectationDiagonalBatch(&amps, 1, diag, dim, &out);
        return out;
    }
};

/** The portable reference table (always available). */
const KernelTable& scalarKernelTable();

/**
 * True when the AVX2 table exists (the compiler took -mavx2 -mfma)
 * and this CPU reports AVX2 + FMA.
 */
bool avx2Available();

/**
 * True when the AVX-512 table exists (the compiler took -mavx512f
 * -mavx512dq) and this CPU reports AVX-512 F + DQ.
 */
bool avx512Available();

/**
 * Table for a requested ISA. Auto resolves to the widest available
 * tier, honoring the OSCAR_KERNEL_ISA environment variable ("scalar",
 * "avx2", "avx512"). Explicitly requesting a tier the build or CPU
 * lacks throws std::runtime_error listing the available ISAs — the
 * strict-dispatch counterpart of parseIsaName's strict parse; a
 * pinned ISA silently degrading would change values by rounding while
 * the cost id and store key still name the pinned ISA.
 */
const KernelTable& kernelTable(KernelIsa isa);

/**
 * The process-wide default: kernelTable(Auto), resolved exactly once
 * (CPUID + environment) on first use.
 */
const KernelTable& defaultKernelTable();

} // namespace kernels
} // namespace oscar

#endif // OSCAR_QUANTUM_KERNELS_H

/**
 * @file
 * Ideal (noise-free) cost evaluation via dense state-vector simulation.
 *
 * The circuit is lowered once, at construction, into a compiled kernel
 * schedule with one fixed replay plan (StatevectorCost::kPlan, see
 * quantum/compiled_circuit.h); every evaluation replays that schedule
 * instead of re-resolving the gate list. Four layers of the kernel
 * architecture meet here:
 *
 *  - ISA dispatch: replay and expectation go through a KernelTable
 *    selected once at startup (CPUID) or forced via
 *    KernelOptions::isa;
 *  - cache blocking: the plan streams runs of compatible ops over
 *    L1-sized amplitude blocks;
 *  - super-kernel fusion: the plan folds runs of diagonal ops in each
 *    blocked run into one diagonal table applied once per block, and
 *    replays parameterized RX/RY through the rotation kernels, two
 *    at a time where adjacent;
 *  - QAOA phase ops: when the Hamiltonian is diagonal, made only of
 *    ZZ terms and a constant sharing one coefficient unit, with at
 *    most 256 levels, each matching RZZ layer compiles to a phase op
 *    over the shared level index (PhaseLevels, quantum/
 *    compiled_circuit.h): the Hadamard layer plus the first cost layer
 *    become one write-only PhaseFill, later cost layers PhaseTable
 *    multiplies. Any other circuit or Hamiltonian keeps the gates;
 *  - half state: when such a schedule also commutes with X^n (a fill,
 *    phase ops, ZZ phases and RX mixers, as in MaxCut QAOA), the plan
 *    replays only the 2^(n-1) amplitudes whose top qubit is 0
 *    (CompiledCircuit::halfState), and the state, every resume buffer,
 *    every group scratch, the energy table and the level index all
 *    hold 2^(n-1) entries. SK (no phase ops), a Z field term,
 *    two-local and UCCSD circuits keep the full state;
 *  - batched expectation: consecutive batch points that share the full
 *    simulation prefix up to the deepest frontier level are simulated
 *    into scratch states and folded with one fused pass over the
 *    observable (kernels::expectationDiagonalBatch for diagonal
 *    Hamiltonians, kernels::expectationPauliBatch per term otherwise).
 *
 * Consecutive points of a batch additionally share simulation work by
 * resuming from each other: the schedule's parameter frontier marks the
 * depths at which a statevector snapshot only depends on the
 * parameters bound so far. While simulating point i, the state at each
 * frontier level that point i+1 shares is kept in a per-instance
 * buffer (one per level), and point i+1 resumes from the deepest level
 * it shares with point i, replaying only the invalidated suffix.
 * Batches arrive in axis-major order (batchOrderHint), so a dense
 * sweep resumes almost every point, and a sparse sample set copies
 * only the states its next point reads. A level whose prefix is only
 * a PhaseFill is no frontier level (one write pass rebuilds it for
 * less than a resume costs), so a p=1 QAOA cost simulates each point
 * from scratch. evaluate() always replays from scratch.
 *
 * Determinism: a buffered state at depth L is the exact state a
 * from-scratch run of ops [0, L) produces under the prefix parameters
 * both points share bitwise, and replaying the suffix executes the
 * identical kernel sequence. Resuming, expectation batching, batch
 * order, and thread count can change performance but never values —
 * for a fixed kernel ISA the batched path is bit-identical to
 * evaluate(), which tests/test_engine.cpp and tests/test_kernels.cpp
 * assert.
 * Different ISAs round differently, and the fused plan, the phase ops
 * and the half state round differently from an unfused gate replay of
 * the same circuit (within 1e-12 on QAOA energies); pin
 * KernelOptions::isa, and replay compiled() as the reference, when
 * comparing bitwise against values computed outside this class.
 */

#ifndef OSCAR_BACKEND_STATEVECTOR_BACKEND_H
#define OSCAR_BACKEND_STATEVECTOR_BACKEND_H

#include <memory>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"
#include "src/quantum/compiled_circuit.h"
#include "src/quantum/statevector.h"

namespace oscar {

/**
 * Revision of StatevectorCost's replay plan. Values move by rounding
 * when the plan changes, so the landscape store folds it into its key
 * next to the CS revisions, and landscapes from an older plan miss.
 * Revision 1 (before the key held it) replayed every QAOA cost layer
 * as RZZ gates; 2 replays matching layers as phase ops; 3 drops the
 * dense matvec units, which formed on SK and UCCSD circuits; 4
 * replays spin-flip-symmetric schedules on the half state.
 */
inline constexpr std::uint64_t kStatevectorPlanRevision = 4;

/**
 * Exact expectation <psi(theta)|H|psi(theta)> where |psi(theta)> is
 * the ansatz circuit run on |0...0>. Diagonal Hamiltonians use a
 * precomputed per-basis-state value table.
 */
class StatevectorCost : public CostFunction
{
  public:
    /**
     * The one replay plan: cache blocking over kDefaultBlockWindow
     * qubits with super-kernel fusion on. The constructor compiles it
     * with the Hamiltonian's phase levels, so matching QAOA cost
     * layers replay as phase ops (compiled()); other diagonal runs
     * (SK cost layers, whose Gaussian couplings share no unit, and
     * two-local CZ entanglers) fold into per-block diagonal tables.
     */
    static constexpr CompileOptions kPlan{
        .blockWindow = kDefaultBlockWindow, .fuse = true};

    StatevectorCost(Circuit circuit, PauliSum hamiltonian);

    /**
     * Copies share the immutable energy table and phase level index;
     * the scratch states, resume buffers and counters (kernelStats)
     * start empty in the copy.
     */
    StatevectorCost(const StatevectorCost& other);
    StatevectorCost& operator=(const StatevectorCost& other);

    int numParams() const override { return compiled_.numParams(); }

    /** Replicable: the simulation scratch is per-instance. */
    std::unique_ptr<CostFunction> clone() const override;

    void configureKernel(const KernelOptions& options) override;

    /** Parameters ordered by first use in the compiled schedule. */
    std::vector<int> batchOrderHint() const override;

    /**
     * The Hamiltonian's per-basis-state energy table, or null when it
     * is not diagonal: its first compiled().stateDim() entries, so
     * only the top-qubit-0 half under a half-state plan. Built once at
     * construction; copies and clones read the same immutable table.
     */
    const std::vector<double>* diagonal() const { return diagonal_.get(); }

    /**
     * The compiled schedule this cost replays: kPlan, with the QAOA
     * phase ops when the Hamiltonian's levels allow them, on the half
     * state when the schedule commutes with X^n. A reference replay
     * sizes its state from compiled().stateDim().
     */
    const CompiledCircuit& compiled() const { return compiled_; }

    /** The kernel table this evaluator dispatches through. */
    const kernels::KernelTable& kernelTable() const { return *table_; }

    /**
     * Kernel-layer counters for BatchHandle::stats: batch points
     * resumed (cacheHits) out of batch points with a frontier level
     * (cacheLookups), the selected ISA, blocked-pass and super-kernel
     * activity, and the number of points folded into batched
     * expectation passes.
     */
    KernelStats kernelStats() const override;

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

    void evaluateBatchImpl(std::span<const std::vector<double>> points,
                           std::uint64_t base_ordinal,
                           double* out) override;

  private:
    /** Hard fan-in limit of one fused expectation pass. */
    static constexpr std::size_t kMaxExpectationGroup = 8;

    /**
     * Replay `params` into `amps`. With `resume` > 0 it starts from
     * checkpoints_[resume - 1], which must hold the state at that
     * frontier level under the same prefix parameters; otherwise from
     * |0...0>. The state at each crossed frontier level below `keep`
     * is stored into checkpoints_. The values written do not depend on
     * `resume`, `keep` or which buffer is used.
     */
    void simulate(const std::vector<double>& params,
                  AlignedVector<cplx>& amps, std::size_t resume,
                  std::size_t keep);

    /**
     * simulate() point i of a batch: resume from the deepest frontier
     * level it shares with point i-1, keep the levels point i+1
     * shares.
     */
    void simulateInBatch(std::span<const std::vector<double>> points,
                         std::size_t i, AlignedVector<cplx>& amps);

    /** Frontier levels that `a` and `b` share (a count, not a depth). */
    std::size_t sharedLevels(const std::vector<double>& a,
                             const std::vector<double>& b) const;

    /** <H> in state_ (diagonal table or term by term). */
    double stateEnergy() const;

    /**
     * Largest shared-prefix group folded into one fused expectation
     * pass (bounded by scratch-memory budget; < 2 disables grouping).
     */
    std::size_t maxExpectationGroup() const;

    Circuit circuit_;
    CompiledCircuit compiled_;
    PauliSum hamiltonian_;
    /** Energy table shared by copies; null iff H is not diagonal. */
    std::shared_ptr<const std::vector<double>> diagonal_;
    /** evaluate()'s state (stateDim() amplitudes once written). */
    AlignedVector<cplx> state_;
    KernelOptions kernel_;
    const kernels::KernelTable* table_;
    /**
     * The state at each frontier level, kept for the next batch point;
     * a buffer is allocated when first written.
     */
    std::vector<AlignedVector<cplx>> checkpoints_;

    std::size_t cacheHits_ = 0;
    std::size_t cacheLookups_ = 0;
    std::size_t batchedDiagonalPoints_ = 0;
    std::size_t batchedPauliPoints_ = 0;
    /** Per-point final states of a fused expectation group. */
    std::vector<AlignedVector<cplx>> groupScratch_;
};

} // namespace oscar

#endif // OSCAR_BACKEND_STATEVECTOR_BACKEND_H

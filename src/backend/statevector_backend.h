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
 *  - super-kernel fusion: the plan collapses eligible op runs of each
 *    blocked run into dense matvec / diagonal-table super-kernels
 *    replayed once per block;
 *  - QAOA phase ops: when the Hamiltonian is diagonal, made only of
 *    ZZ terms and a constant sharing one coefficient unit, with at
 *    most 256 levels, each matching RZZ layer compiles to a phase op
 *    over the shared level index (PhaseLevels, quantum/
 *    compiled_circuit.h): the Hadamard layer plus the first cost layer
 *    become one write-only PhaseFill, later cost layers PhaseTable
 *    multiplies. Any other circuit or Hamiltonian keeps the gates;
 *  - batched expectation: consecutive batch points that share the full
 *    simulation prefix up to the deepest checkpoint level are simulated
 *    into scratch states and folded with one fused pass over the
 *    observable (kernels::expectationDiagonalBatch for diagonal
 *    Hamiltonians, kernels::expectationPauliBatch per term otherwise).
 *
 * Batches of nearby grid points additionally share simulation work
 * through a prefix cache: the schedule's parameter frontier marks the
 * depths at which a statevector snapshot only depends on the
 * parameters bound so far, so a point whose leading parameters match a
 * cached checkpoint replays only the invalidated suffix. A level whose
 * prefix is only a PhaseFill is no checkpoint (one write pass rebuilds
 * it for less than a resume costs), so a p=1 QAOA cost never looks up
 * the cache and simulates each point from scratch.
 *
 * Determinism: a checkpoint at depth L keyed by the prefix parameter
 * bits is the exact state a from-scratch run of ops [0, L) produces
 * under those values, and replaying the suffix executes the identical
 * kernel sequence. Cache state, expectation batching, batch order,
 * and thread count can change performance but never values — for a
 * fixed kernel ISA the batched path is bit-identical to the scalar
 * path, which tests/test_engine.cpp and tests/test_kernels.cpp assert.
 * Different ISAs round differently, and the fused plan and the phase
 * ops round differently from an unfused gate replay of the same
 * circuit (within 1e-12 on QAOA energies); pin KernelOptions::isa, and
 * replay compiled() as the reference, when comparing bitwise against
 * values computed outside this class.
 */

#ifndef OSCAR_BACKEND_STATEVECTOR_BACKEND_H
#define OSCAR_BACKEND_STATEVECTOR_BACKEND_H

#include <memory>

#include "src/backend/executor.h"
#include "src/backend/prefix_cache.h"
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
 * as RZZ gates; 2 replays matching layers as phase ops.
 */
inline constexpr std::uint64_t kStatevectorPlanRevision = 2;

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
     * qubits with super-kernel fusion over 4. On QAOA circuits windows
     * 4, 5 and 6 collapse the same ops and time alike (window 3
     * collapses one op fewer); 4 keeps each dense unit at most 16x16.
     * The constructor compiles it with the Hamiltonian's phase levels,
     * so matching QAOA cost layers replay as phase ops (compiled()).
     */
    static constexpr CompileOptions kPlan{
        .blockWindow = kDefaultBlockWindow, .fuseWindow = 4};

    StatevectorCost(Circuit circuit, PauliSum hamiltonian);

    /**
     * Copies share the checkpoint cache: the lock-free PrefixCache
     * (prefix_cache.h) is safe under concurrent find/insert, and
     * checkpoints are bit-exact, so engine replicas cloned from one
     * evaluator pool their prefix work. Per-instance cache counters
     * (kernelStats) start at zero in the copy.
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
     * Checkpoint cache counters (benchmark instrumentation),
     * cumulative over every evaluator sharing this cache.
     */
    const PrefixCache& prefixCache() const { return *cache_; }

    /**
     * The Hamiltonian's per-basis-state energy table, or null when it
     * is not diagonal. Built once at construction; copies and clones
     * read the same immutable table.
     */
    const std::vector<double>* diagonal() const { return diagonal_.get(); }

    /**
     * The compiled schedule this cost replays: kPlan, with the QAOA
     * phase ops when the Hamiltonian's levels allow them.
     */
    const CompiledCircuit& compiled() const { return compiled_; }

    /** The kernel table this evaluator dispatches through. */
    const kernels::KernelTable& kernelTable() const { return *table_; }

    /**
     * Kernel-layer counters for BatchHandle::stats: prefix-cache
     * traffic, the selected ISA, blocked-pass and super-kernel
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
     * Prefix-cached replay of `params` into `amps` (reset + checkpoint
     * resume + suffix replay). The values written are independent of
     * cache state and of which buffer is used.
     */
    void simulate(const std::vector<double>& params,
                  AlignedVector<cplx>& amps);

    /** Shared scalar kernel: simulate + expectation on state_. */
    double evaluatePoint(const std::vector<double>& params);

    /**
     * Largest shared-prefix group folded into one fused expectation
     * pass (bounded by scratch-memory budget; < 2 disables grouping).
     */
    std::size_t maxExpectationGroup() const;

    /**
     * Cache key of frontier level `level_index` under `params`,
     * filled into the reusable scratch key (no allocation on the hot
     * path once its capacity settles).
     */
    const PrefixKey& keyFor(std::size_t level_index,
                            const std::vector<double>& params);

    /** Widest prefix-parameter set across frontier levels (in words). */
    std::size_t maxKeyWords() const;

    /** Size the shared cache for this evaluator's checkpoint shape. */
    void shapeCache();

    Circuit circuit_;
    CompiledCircuit compiled_;
    /** Params used before each frontier level (precomputed). */
    std::vector<std::vector<int>> levelParams_;
    PauliSum hamiltonian_;
    /** Energy table shared by copies; null iff H is not diagonal. */
    std::shared_ptr<const std::vector<double>> diagonal_;
    Statevector state_;
    KernelOptions kernel_;
    const kernels::KernelTable* table_;
    /** Shared with copies/clones; never null. */
    std::shared_ptr<PrefixCache> cache_;
    PrefixKey scratchKey_;

    ReplayCounters replay_;
    /**
     * This instance's own cache traffic (the shared cache's counters
     * aggregate every sharer, so per-replica stats deltas come from
     * these instead).
     */
    std::size_t cacheHits_ = 0;
    std::size_t cacheLookups_ = 0;
    std::size_t cacheEvictions_ = 0;
    std::size_t batchedDiagonalPoints_ = 0;
    std::size_t batchedPauliPoints_ = 0;
    /** Per-point final states of a fused expectation group. */
    std::vector<AlignedVector<cplx>> groupScratch_;
};

} // namespace oscar

#endif // OSCAR_BACKEND_STATEVECTOR_BACKEND_H

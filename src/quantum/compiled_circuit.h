/**
 * @file
 * Compiled-circuit kernel schedule.
 *
 * A CompiledCircuit lowers a Circuit once into a flat list of kernel
 * operations that can be replayed against raw amplitude arrays without
 * per-gate virtual dispatch or per-gate `Gate` copies:
 *
 *  - adjacent constant 1-qubit gates on the same qubit are fused into
 *    one 2x2 matrix (optional; disabled for per-gate noise insertion),
 *  - diagonal gates (Z, S, Sdg, RZ, RZZ, CZ) take phase-multiply fast
 *    paths instead of the generic 2x2 kernel,
 *  - constant gates carry their resolved payload (matrix / phases);
 *    parameterized gates resolve angle = angle + coeff * p[paramIndex]
 *    at replay time into locals, never mutating the schedule, so one
 *    compiled circuit serves a whole landscape sweep concurrently.
 *
 * The compile pass also records the *parameter frontier*: for every
 * parameter, the first op whose payload depends on it. Replaying ops
 * [0, firstUse(j)) is independent of parameter j, which is what lets
 * the backends checkpoint a shared statevector prefix once and replay
 * only the invalidated suffix per grid point (see
 * backend/statevector_backend.h). Because replaying a checkpointed
 * prefix executes exactly the same kernel sequence as a from-scratch
 * run, checkpointing is bit-exact, not approximate.
 *
 * The replay plan (cache blocking and super-kernel fusion) is built
 * once from CompileOptions and never changes afterwards, so one
 * compiled circuit always replays one plan.
 */

#ifndef OSCAR_QUANTUM_COMPILED_CIRCUIT_H
#define OSCAR_QUANTUM_COMPILED_CIRCUIT_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/aligned.h"
#include "src/quantum/circuit.h"
#include "src/quantum/gate.h"
#include "src/quantum/kernels.h"

namespace oscar {

class Statevector;

/**
 * Default cache-blocking window in qubits: 2^10 amplitudes = 16 KiB of
 * complex<double>, which leaves room in a 32-48 KiB L1d for the block
 * plus payloads while still amortizing the loop overhead.
 */
inline constexpr int kDefaultBlockWindow = 10;

/** Lowering options. */
struct CompileOptions
{
    /**
     * Fuse runs of constant 1-qubit gates on the same qubit into one
     * matrix. Must be off when ops need to map 1:1 onto source gates
     * (per-gate noise channels).
     */
    bool fuse1q = true;

    /**
     * Cache-blocking window in qubits (0 disables; clamped to the
     * circuit width). Runs of consecutive ops that are confined to the
     * low `blockWindow` qubits — or diagonal in every higher qubit
     * they touch — are replayed block-by-block over
     * 2^blockWindow-amplitude chunks, so a run streams the statevector
     * once instead of once per op. Value-neutral for a fixed kernel
     * ISA: per amplitude, the operation sequence is unchanged.
     */
    int blockWindow = kDefaultBlockWindow;

    /**
     * Super-kernel fusion window in qubits (0 disables). When > 0,
     * the compile pass collapses eligible op runs inside blocked
     * segments into fused super-kernels and lowers parameterized
     * RX/RY payloads onto the specialized rotation kernels:
     *
     *  - runs of >= 2 consecutive diagonal ops whose qubits all sit
     *    below the block window fold into one per-block diagonal
     *    table (kernels::applyDiagTable), with ops touching higher
     *    qubits kept as per-block context;
     *  - runs of >= 2 consecutive ops confined to the low
     *    min(fuseWindow, blockWindow, 6) qubits collapse into one
     *    dense 2^f x 2^f column-major matrix replayed as a single
     *    GEMM-like matvec per block (kernels::matvecDense).
     *
     * Both rewrites are compile-time decisions (recorded in the plan,
     * never dependent on runtime state) and carry profitability gates
     * so fusion never pessimizes. Unlike blocking, fusion reorders
     * and reassociates arithmetic: replay is bit-identical across
     * batching, checkpoint resume, and frontier-aligned segmentation
     * for a fixed (ISA, fusion plan), but fused and unfused replays
     * of the same circuit agree only to rounding. StatevectorCost
     * compiles its one fused plan (StatevectorCost::kPlan); the
     * default here stays unfused for the density path and for
     * reference replays.
     */
    int fuseWindow = 0;
};

/** Kernel selector for one compiled op (see quantum/kernels.h). */
enum class KernelOp : std::uint8_t
{
    Matrix1q, ///< generic 2x2 matrix
    Diag1q,   ///< diagonal 1q phases
    CX,
    CZ,
    Swap,
    PhaseZZ, ///< diagonal ZZ phases (RZZ)
};

/** One op of the compiled schedule. */
struct CompiledOp
{
    KernelOp op;
    GateKind kind;    ///< source gate kind (payload recipe when bound)
    std::int16_t q0 = -1;
    std::int16_t q1 = -1;
    std::int32_t paramIndex = -1; ///< -1: payload below is final
    double angle = 0.0;
    double coeff = 1.0;

    /** Constant payloads (valid when paramIndex < 0). */
    std::array<cplx, 4> matrix{}; ///< Matrix1q
    cplx phase0{};                ///< Diag1q: |0>, PhaseZZ: bits agree
    cplx phase1{};                ///< Diag1q: |1>, PhaseZZ: bits differ

    /** Qubits the op acts on (2 for CX/CZ/Swap/PhaseZZ). */
    int arity() const
    {
        return (op == KernelOp::Matrix1q || op == KernelOp::Diag1q) ? 1
                                                                    : 2;
    }

    /** Effective rotation angle under a parameter binding. */
    double resolvedAngle(const double* params) const
    {
        return paramIndex < 0 ? angle : angle + coeff * params[paramIndex];
    }
};

/**
 * Counters of one or more replay calls (blocked-pass activity).
 * Aggregated by the backends into CostFunction::kernelStats.
 */
struct ReplayCounters
{
    /** Blocked whole-run executions (one per fused pass). */
    std::size_t blockedGroupRuns = 0;

    /** Ops that executed inside a blocked pass. */
    std::size_t blockedOpsApplied = 0;

    /** Fused super-kernel executions (one per unit per replay). */
    std::size_t fusedSuperKernels = 0;

    /** Ops whose individual replay a super-kernel collapsed. */
    std::size_t fusedOpsCollapsed = 0;
};

/** A Circuit lowered to a flat kernel schedule. */
class CompiledCircuit
{
  public:
    CompiledCircuit() = default;

    explicit CompiledCircuit(const Circuit& circuit,
                             const CompileOptions& options = {});

    int numQubits() const { return numQubits_; }
    int numParams() const { return numParams_; }
    std::size_t numOps() const { return ops_.size(); }
    const std::vector<CompiledOp>& ops() const { return ops_; }

    /** Number of source gates merged away by 1q fusion. */
    std::size_t fusedGateCount() const { return fusedGates_; }

    /** Ops before the first parameterized op. */
    std::size_t constantPrefixLength() const { return constantPrefix_; }

    /**
     * First op whose payload depends on parameter j (== numOps() when
     * the circuit never uses j). Every op from that position on is
     * invalidated when p[j] changes.
     */
    std::size_t paramFirstUse(int j) const { return firstUse_[j]; }

    /**
     * The checkpointable depths of the schedule: the sorted distinct
     * first-use positions of all used parameters. A statevector
     * snapshot taken at depth L is fully determined by the parameters
     * with firstUse < L (see paramsUsedBefore).
     */
    const std::vector<std::size_t>& frontierLevels() const
    {
        return frontier_;
    }

    /** Parameter indices with firstUse < level, ascending. */
    std::vector<int> paramsUsedBefore(std::size_t level) const;

    /**
     * Parameter indices ordered by first use in the schedule (unused
     * parameters last). Batches sorted with the earliest-used
     * parameter varying slowest maximize shared prefixes.
     */
    std::vector<int> parameterOrder() const;

    /**
     * Length of the op prefix guaranteed identical under bindings `a`
     * and `b` (bitwise parameter comparison).
     */
    std::size_t sharedPrefixLength(const std::vector<double>& a,
                                   const std::vector<double>& b) const;

    /** Blocked runs in the plan (fused multi-op passes). */
    std::size_t numBlockedGroups() const { return blockedGroups_; }

    /** Fused super-kernel units in the plan. */
    std::size_t numFusedUnits() const { return units_.size(); }

    /** Ops collapsed into super-kernels (per full replay). */
    std::size_t fusedOpCount() const { return fusedOps_; }

    /**
     * Replay ops [begin, end) onto a raw amplitude array of length
     * `dim` (2^numQubits for a statevector). `params` may be null for
     * a parameter-free schedule. Thread-safe and const: parameterized
     * payloads are resolved into locals.
     *
     * Kernels dispatch through `table` (the process default when
     * omitted); `counters`, when given, accumulates blocked-pass
     * activity. For any fixed table, the values written are
     * independent of the blocking plan and — with fusion off — of how
     * [begin, end) is segmented across calls. With fusion on, fused
     * units never straddle frontier levels, so any segmentation whose
     * cut points are frontier levels (checkpoint resume, batched
     * suffix replay) executes the identical unit sequence and stays
     * bit-exact; a cut in the middle of a unit makes that unit fall
     * back to per-op replay for that call, which is deterministic but
     * differs from the fused result by rounding.
     */
    void runRange(cplx* amps, std::size_t dim, std::size_t begin,
                  std::size_t end, const double* params,
                  const kernels::KernelTable& table,
                  ReplayCounters* counters = nullptr) const;

    /** runRange through the process-default kernel table. */
    void runRange(cplx* amps, std::size_t dim, std::size_t begin,
                  std::size_t end, const double* params) const;

    /** Replay the full schedule onto a Statevector (qubits checked). */
    void run(Statevector& state, const std::vector<double>& params) const;

    /** Replay a parameter-free schedule onto a Statevector. */
    void run(Statevector& state) const;

  private:
    /**
     * One entry of the blocking plan: a contiguous op range replayed
     * either op-by-op (blocked = false) or block-by-block as a fused
     * pass (blocked = true; every op in the range is block-local or
     * diagonal above the window).
     */
    struct PlanSegment
    {
        std::uint32_t begin;
        std::uint32_t end;
        bool blocked;
        std::uint32_t unitBegin = 0; ///< into units_, empty when unfused
        std::uint32_t unitEnd = 0;
    };

    enum class FuseKind : std::uint8_t
    {
        DiagTable, ///< per-block diagonal table over blockWindow qubits
        Dense,     ///< dense 2^fbits x 2^fbits matvec per sub-block
    };

    /**
     * One compile-time super-kernel: ops [begin, end) of a blocked
     * segment collapse into a single payload (diagonal table or dense
     * column-major matrix). Constant payloads are prebuilt into
     * constPayload_ at plan time; parameterized payloads rebuild per
     * replay call into 64-byte-aligned scratch at the same offset.
     * Units never straddle frontier levels, so frontier-aligned
     * segmentation (checkpointing) replays the identical sequence.
     */
    struct FusedUnit
    {
        std::uint32_t begin;
        std::uint32_t end;
        FuseKind kind;
        std::uint8_t fbits;          ///< payload dimension = 2^fbits
        bool constant;               ///< payload prebuilt at plan time
        std::uint32_t payloadOffset; ///< into constPayload_ or scratch
        std::uint32_t foldCount;     ///< ops collapsed into the payload
    };

    void finalizeFrontier();

    /** True when `op` can join a blocked run under window `k`. */
    static bool blockable(const CompiledOp& op, int k);

    /** Build plan_ + units_ from blockBits_ / fuseBits_ (once). */
    void buildPlan();

    /** Form the fused units of one blocked segment. */
    void formUnits(PlanSegment& seg);

    /**
     * Build a unit's diagonal table through the given kernel table.
     * Constant prebuilds pass the scalar table (ISA-independent);
     * parameterized replays pass the active one (per-ISA, but fixed
     * for a fixed (ISA, plan) pair, so replays stay bit-identical).
     */
    void buildDiagTable(const FusedUnit& unit, const double* params,
                        const kernels::KernelTable& t,
                        cplx* table) const;

    /** Build a unit's dense matrix (scalar math, ISA-independent). */
    void buildDenseMatrix(const FusedUnit& unit, const double* params,
                          cplx* matrix) const;

    /** Execute ops [begin, end) of a blocked run block-by-block. */
    void runBlocked(cplx* amps, std::size_t dim, const PlanSegment& seg,
                    std::size_t begin, std::size_t end,
                    const double* params,
                    const kernels::KernelTable& table,
                    ReplayCounters* counters) const;

    int numQubits_ = 0;
    int numParams_ = 0;
    std::size_t fusedGates_ = 0;
    std::size_t constantPrefix_ = 0;
    std::vector<CompiledOp> ops_;
    std::vector<std::size_t> firstUse_; ///< per param, numOps() if unused
    std::vector<std::size_t> frontier_;

    int blockBits_ = 0; ///< effective window, 0 = blocking off
    std::size_t blockedGroups_ = 0;
    std::vector<PlanSegment> plan_;

    int fuseBits_ = 0; ///< effective fusion window, 0 = fusion off
    std::size_t fusedOps_ = 0;
    std::vector<FusedUnit> units_;
    AlignedVector<cplx> constPayload_; ///< prebuilt unit payloads
    std::size_t paramScratchSize_ = 0; ///< per-call scratch (complexes)
    std::size_t matvecScratchSize_ = 0;
};

} // namespace oscar

#endif // OSCAR_QUANTUM_COMPILED_CIRCUIT_H

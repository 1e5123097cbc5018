/**
 * @file
 * Compiled-circuit kernel schedule.
 *
 * A CompiledCircuit lowers a Circuit once into a flat list of kernel
 * operations that can be replayed against raw arrays of stateDim()
 * amplitudes (2^n, or 2^(n-1) on the half state below) without
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
 * compiled circuit always replays one plan, and the plan's counts
 * (numBlockedGroups, numFusedUnits, fusedOpCount) say what a full
 * replay executes. An unblocked segment replays as the blocked pass
 * over one block that spans the whole state, so every op dispatches
 * through one switch.
 *
 * QAOA phase ops. Given the PhaseLevels of a diagonal cost (the
 * statevector backend passes them; every other caller compiles plain
 * gates), the compiler rewrites each run of RZZ ops that shares one
 * parameter and reproduces exp(-i k gamma sum_e h_e Z_a Z_b) for one
 * common factor k into a single phase op over the cost's level index:
 *
 *  - PhaseFill, when the run directly follows a Hadamard layer at the
 *    start of the schedule: amps[z] = phase[level[z]] / sqrt(N). It
 *    replaces H^n on |0...0> plus the first cost layer and writes
 *    every amplitude without reading any, so a replay from op 0 needs
 *    no |0...0> written first (and always starts from |0...0>,
 *    whatever the buffer held);
 *  - PhaseTable for every later matching run: amps[z] *=
 *    phase[level[z]].
 *
 * The per-level phases are resolved per replay call from the bound
 * parameter; a phase op agrees with the gates it replaces to rounding.
 * A frontier level whose prefix is only a PhaseFill is not a
 * checkpoint level: rebuilding it is one write pass, cheaper than a
 * checkpoint resume's read plus write, so p=1 QAOA schedules have no
 * checkpoint levels at all.
 *
 * Half state. |+...+>, a cost made only of ZZ terms and a constant,
 * and the X mixer all commute with X^n, so amp[z] = amp[z ^ 1...1]
 * at every step of such a schedule (the Z2 symmetry of Shaydulin et
 * al., "Classical symmetries and the Quantum Approximate Optimization
 * Algorithm", QIP 20, 359, 2021), and the amplitudes whose top qubit
 * n-1 is 0 carry the whole state. The compiler decides this once: op
 * 0 is a PhaseFill and every later op is a PhaseTable, a PhaseZZ, or
 * a 1-qubit op that commutes with X (a parameterized RX, or a constant
 * matrix with m00 = m11 and m01 = m10). Then halfState() is true and
 * the schedule replays onto stateDim() = 2^(n-1) amplitudes x, whose
 * index is the full state's:
 *
 *  - the fill scales by 1/sqrt(2^(n-1)), so the half state has unit
 *    norm and <C> = sum_x |h[x]|^2 C(x) needs no factor of 2;
 *  - phase ops read the first half of the level index, and ops on
 *    qubits below n-1 run through the usual kernels;
 *  - a 1-qubit op on qubit n-1 becomes a PairMask pass
 *    (kernels::pairMask), which pairs x with x ^ (2^(n-1) - 1);
 *  - a PhaseZZ on (a, n-1) becomes a Diag1q on a (the top bit is 0);
 *  - the plan is built for n-1 qubits, so the block window clamps to
 *    n-1 and the PairMask is never blocked or paired.
 *
 * MaxCut QAOA qualifies. two_local, UCCSD, a cost with a Z field term,
 * SK (whose Gaussian couplings share no unit, so it has no phase ops)
 * and every plain compile keep the full state.
 */

#ifndef OSCAR_QUANTUM_COMPILED_CIRCUIT_H
#define OSCAR_QUANTUM_COMPILED_CIRCUIT_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/aligned.h"
#include "src/quantum/circuit.h"
#include "src/quantum/gate.h"
#include "src/quantum/kernels.h"

namespace oscar {

class Statevector;
struct PhaseArgs;

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
     * Super-kernel fusion. When on, the compile pass makes two
     * rewrites:
     *
     *  - runs of >= 2 consecutive diagonal ops inside a blocked
     *    segment, at least 2 of them with every qubit below the block
     *    window, fold into one per-block diagonal table
     *    (kernels::applyDiagTable); diagonal ops touching higher
     *    qubits stay as per-block context;
     *  - parameterized RX/RY lower onto the rotation kernels, and
     *    adjacent same-axis pairs on distinct qubits replay through
     *    rotX2/rotY2.
     *
     * Both are compile-time decisions (recorded in the plan, never
     * dependent on runtime state). Unlike blocking, fusion changes
     * the arithmetic: replay is bit-identical across batching,
     * checkpoint resume, and frontier-aligned segmentation for a
     * fixed (ISA, plan), but fused and unfused replays of the same
     * circuit agree only to rounding. StatevectorCost compiles its
     * one fused plan (StatevectorCost::kPlan); the default here
     * stays unfused for the density path and for reference replays.
     */
    bool fuse = false;
};

/**
 * The level structure of a diagonal cost C(z) = c + sum_e h_e Z_a Z_b
 * whose ZZ coefficients are integer multiples h_e = m_e * unit of one
 * unit. Each basis state has the level
 *
 *     level(z) = (sum_e m_e Z_a Z_b(z) + K) / 2,   K = sum_e |m_e|,
 *
 * an integer in [0, K], and C(z) = c + unit * (2 level(z) - K). So a
 * phase operator exp(-i t sum_e h_e Z_a Z_b) is a (K + 1)-entry phase
 * table indexed by one byte per basis state.
 *
 * The level index is derived from the cost's diagonal table on first
 * use (one pass, thread-safe) and then shared by every compiled
 * circuit holding this object, so copies and clones of a cost build
 * it once.
 */
class PhaseLevels
{
  public:
    /** One term h Z_a Z_b (a < b). */
    struct Term
    {
        int a;
        int b;
        double coeff;
    };

    /** Most levels a one-byte index can address. */
    static constexpr int kMaxLevels = 256;

    /**
     * Levels of the cost `constant + sum terms`, whose per-basis-state
     * values are `table`. Terms on the same pair merge. Null when there
     * is no ZZ term, the coefficients share no unit (every ratio to
     * the smallest an integer to 1e-12), or the cost has more than
     * kMaxLevels levels.
     */
    static std::shared_ptr<const PhaseLevels>
    make(std::vector<Term> terms, double constant,
         std::shared_ptr<const std::vector<double>> table);

    /** Merged terms, sorted by (a, b). */
    const std::vector<Term>& terms() const { return terms_; }

    /** The common unit of the coefficients. */
    double unit() const { return unit_; }

    /** K + 1. */
    int numLevels() const { return numLevels_; }

    /** Basis states covered: the table's length. */
    std::size_t size() const { return table_->size(); }

    /** level(z) for every basis state; built on the first call. */
    const std::uint8_t* index() const;

  private:
    PhaseLevels() = default;

    std::vector<Term> terms_;
    double constant_ = 0.0;
    double unit_ = 0.0;
    int numLevels_ = 0;
    std::shared_ptr<const std::vector<double>> table_;
    mutable std::once_flag built_;
    mutable std::vector<std::uint8_t> index_;
};

/** Kernel selector for one compiled op (see quantum/kernels.h). */
enum class KernelOp : std::uint8_t
{
    Matrix1q, ///< generic 2x2 matrix
    Diag1q,   ///< diagonal 1q phases
    CX,
    CZ,
    Swap,
    PhaseZZ,    ///< diagonal ZZ phases (RZZ)
    PhaseFill,  ///< amps[z] = phase[level[z]] / sqrt(N) (write-only)
    PhaseTable, ///< amps[z] *= phase[level[z]]
    PairMask,   ///< half state: a 1-qubit op on the top qubit
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

    /**
     * Phase ops: the source ops the op replaces, and its ordinal among
     * the schedule's phase ops. Its phase table is
     * exp(-i resolvedAngle (level - K/2)) per level.
     */
    std::uint32_t folded = 0;
    std::uint16_t phaseSlot = 0;

    /** Qubits the op acts on (2 for CX/CZ/Swap/PhaseZZ). */
    int arity() const
    {
        return (op == KernelOp::Matrix1q || op == KernelOp::Diag1q ||
                op == KernelOp::PairMask)
                   ? 1
                   : 2;
    }

    /** PhaseFill or PhaseTable (acts on every qubit, q0 = q1 = -1). */
    bool isPhaseOp() const
    {
        return op == KernelOp::PhaseFill || op == KernelOp::PhaseTable;
    }

    /** Effective rotation angle under a parameter binding. */
    double resolvedAngle(const double* params) const
    {
        return paramIndex < 0 ? angle : angle + coeff * params[paramIndex];
    }
};

/** A Circuit lowered to a flat kernel schedule. */
class CompiledCircuit
{
  public:
    CompiledCircuit() = default;

    explicit CompiledCircuit(const Circuit& circuit,
                             const CompileOptions& options = {});

    /**
     * Compile with the QAOA phase ops of the cost `levels` (see the
     * file comment); null compiles plain gates. By the first replay,
     * `levels` must cover the stateDim() basis states the schedule
     * replays onto (compiling reads only their terms).
     */
    CompiledCircuit(const Circuit& circuit, const CompileOptions& options,
                    std::shared_ptr<const PhaseLevels> levels);

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
     * first-use positions of all used parameters, less those whose
     * prefix is at most a PhaseFill. A statevector snapshot taken at
     * depth L is fully determined by the parameters with firstUse < L
     * (see sharedPrefixLength).
     */
    const std::vector<std::size_t>& frontierLevels() const
    {
        return frontier_;
    }

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

    /** Fused super-kernel units in the plan, phase ops included. */
    std::size_t numFusedUnits() const
    {
        return units_.size() + numPhaseOps_;
    }

    /** Ops collapsed into super-kernels (per full replay). */
    std::size_t fusedOpCount() const { return fusedOps_; }

    /** PhaseFill and PhaseTable ops in the schedule. */
    std::size_t numPhaseOps() const { return numPhaseOps_; }

    /** The levels the phase ops index (null without phase ops). */
    const std::shared_ptr<const PhaseLevels>& phaseLevels() const
    {
        return levels_;
    }

    /**
     * True when the schedule replays onto the half state (see the file
     * comment): decided at compile time, never for a plain compile.
     */
    bool halfState() const { return half_; }

    /** Amplitudes a replay covers: 2^(n-1) with halfState(), else 2^n. */
    std::size_t stateDim() const
    {
        return std::size_t{1} << stateQubits();
    }

    /** True when op 0 is a PhaseFill (replay writes the whole state). */
    bool startsWithFill() const
    {
        return !ops_.empty() && ops_[0].op == KernelOp::PhaseFill;
    }

    /**
     * Replay ops [begin, end) onto a raw amplitude array of length
     * `dim` == stateDim(): 2^numQubits, or 2^(numQubits - 1) under
     * halfState(). `params` may be null for a
     * parameter-free schedule. Thread-safe and const: parameterized
     * payloads are resolved into locals.
     *
     * Kernels dispatch through `table` (the process default when
     * omitted). Every op dispatches through one per-block switch:
     * blocked plan segments apply it block by block, the others on
     * one block spanning the whole state. For any fixed table, the
     * values written are independent of the blocking plan and — with
     * fusion off — of how [begin, end) is segmented across calls.
     * With fusion on, fused units never straddle frontier levels, so
     * any segmentation whose cut points are frontier levels
     * (checkpoint resume, batched suffix replay) executes the
     * identical unit sequence and stays bit-exact; a cut in the
     * middle of a unit makes that unit fall back to per-op replay for
     * that call, which is deterministic but differs from the fused
     * result by rounding. Phase ops are
     * element-wise, so any cut around them is bit-exact. A dim other
     * than stateDim(), or phase levels that cover another size,
     * throws std::invalid_argument.
     */
    void runRange(cplx* amps, std::size_t dim, std::size_t begin,
                  std::size_t end, const double* params,
                  const kernels::KernelTable& table) const;

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
     * either op by op over the whole state (blocked = false; a
     * blockWindow = 0 compile is one such segment) or block by block
     * as a fused pass (blocked = true; every op in the range is
     * block-local or diagonal above the window).
     */
    struct PlanSegment
    {
        std::uint32_t begin;
        std::uint32_t end;
        bool blocked;
        std::uint32_t unitBegin = 0; ///< into units_, empty when unfused
        std::uint32_t unitEnd = 0;
    };

    /**
     * One compile-time super-kernel: the diagonal ops [begin, end) of
     * a blocked segment collapse into one per-block diagonal table of
     * 2^blockBits_ complexes. Constant tables are prebuilt into
     * constPayload_ at plan time; parameterized tables rebuild per
     * replay call into 64-byte-aligned scratch at the same offset.
     * Units never straddle frontier levels, so frontier-aligned
     * segmentation (checkpointing) replays the identical sequence.
     */
    struct FusedUnit
    {
        std::uint32_t begin;
        std::uint32_t end;
        bool constant;               ///< table prebuilt at plan time
        std::uint32_t payloadOffset; ///< into constPayload_ or scratch
        std::uint32_t foldCount;     ///< ops collapsed into the table
    };

    void finalizeFrontier();

    /** Qubits the replayed state spans (n - 1 with halfState()). */
    int stateQubits() const { return numQubits_ - (half_ ? 1 : 0); }

    /**
     * Switch to the half state when the schedule commutes with X^n
     * (see the file comment), rewriting the ops on the top qubit.
     */
    void lowerHalfState();

    /** Rewrite matching RZZ runs into phase ops (see the file comment). */
    void lowerPhaseOps();

    /** One phase op's per-level phases under `params`. */
    void resolvePhases(const CompiledOp& op, const double* params,
                       cplx* phases) const;

    /** True when `op` can join a blocked run under window `k`. */
    static bool blockable(const CompiledOp& op, int k);

    /** Build plan_ + units_ from blockBits_ / fuse_ (once). */
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

    /** Execute ops [begin, end) of a blocked run block-by-block. */
    void runBlocked(cplx* amps, std::size_t dim, const PlanSegment& seg,
                    std::size_t begin, std::size_t end,
                    const double* params,
                    const kernels::KernelTable& table,
                    const PhaseArgs& phases) const;

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

    bool fuse_ = false; ///< CompileOptions::fuse
    std::size_t fusedOps_ = 0;
    std::vector<FusedUnit> units_;
    AlignedVector<cplx> constPayload_; ///< prebuilt unit tables
    std::size_t paramScratchSize_ = 0; ///< per-call scratch (complexes)

    std::shared_ptr<const PhaseLevels> levels_; ///< null: no phase ops
    std::size_t numPhaseOps_ = 0;
    bool half_ = false; ///< halfState()
};

} // namespace oscar

#endif // OSCAR_QUANTUM_COMPILED_CIRCUIT_H

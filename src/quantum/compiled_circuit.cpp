#include "src/quantum/compiled_circuit.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/quantum/kernels.h"
#include "src/quantum/statevector.h"

namespace oscar {

namespace {

/**
 * Diagonal rotation phases {exp(-i a/2), exp(+i a/2)}: the |0>/|1>
 * phases of RZ and equally the agree/differ phases of RZZ.
 */
inline void
rotationPhases(double angle, cplx& p0, cplx& p1)
{
    p0 = std::exp(cplx(0.0, -angle / 2));
    p1 = std::exp(cplx(0.0, angle / 2));
}

/** Matrix product a * b (apply b first, then a). */
std::array<cplx, 4>
matmul(const std::array<cplx, 4>& a, const std::array<cplx, 4>& b)
{
    return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

/** Lower one gate to a compiled op (no fusion). */
CompiledOp
lowerGate(const Gate& gate)
{
    CompiledOp op;
    op.kind = gate.kind;
    op.q0 = static_cast<std::int16_t>(gate.qubits[0]);
    op.q1 = static_cast<std::int16_t>(gate.qubits[1]);
    op.paramIndex = gate.paramIndex;
    op.angle = gate.angle;
    op.coeff = gate.coeff;

    switch (gate.kind) {
      case GateKind::CX:
        op.op = KernelOp::CX;
        return op;
      case GateKind::CZ:
        op.op = KernelOp::CZ;
        return op;
      case GateKind::SWAP:
        op.op = KernelOp::Swap;
        return op;
      case GateKind::RZZ:
        op.op = KernelOp::PhaseZZ;
        if (op.paramIndex < 0)
            rotationPhases(op.angle, op.phase0, op.phase1);
        return op;
      case GateKind::RZ:
        op.op = KernelOp::Diag1q;
        if (op.paramIndex < 0)
            rotationPhases(op.angle, op.phase0, op.phase1);
        return op;
      default:
        // H, X, Y, Z, S, Sdg, RX, RY. Constant payloads are resolved
        // now; a post-pass downgrades diagonal matrices to Diag1q.
        op.op = KernelOp::Matrix1q;
        if (op.paramIndex < 0)
            op.matrix = gateMatrix1q(gate.kind, gate.angle);
        return op;
    }
}

/** amps[i] = phase[level[i]]: the PhaseFill kernel. */
inline void
fillLevels(cplx* amps, std::size_t n, const std::uint8_t* level,
           const cplx* phase)
{
    for (std::size_t i = 0; i < n; ++i)
        amps[i] = phase[level[i]];
}

/**
 * amps[i] *= phase[level[i]]: the PhaseTable kernel. Plain scalar
 * arithmetic, so every kernel table and every blocking of a replay
 * computes the same bits.
 */
inline void
mulLevels(cplx* amps, std::size_t n, const std::uint8_t* level,
          const cplx* phase)
{
    for (std::size_t i = 0; i < n; ++i) {
        const cplx a = amps[i];
        const cplx p = phase[level[i]];
        amps[i] = cplx(a.real() * p.real() - a.imag() * p.imag(),
                       a.real() * p.imag() + a.imag() * p.real());
    }
}

} // namespace

/**
 * Per-call payloads of the phase ops in a replayed range: the resolved
 * tables, `stride` complexes per phase slot, and the level index.
 */
struct PhaseArgs
{
    const cplx* tables = nullptr;
    std::size_t stride = 0;
    const std::uint8_t* index = nullptr;
};

/** Parameter-resolved payload of one replayed op. */
struct ResolvedPayload
{
    const CompiledOp* op;
    std::array<cplx, 4> matrix;
    cplx p0, p1;
    int rot = 0; ///< 1 = rotX(c, s), 2 = rotY(c, s) (fusion plans only)
    double c = 0.0, s = 0.0;
    const cplx* phases = nullptr;         ///< phase ops: per-level table
    const std::uint8_t* levels = nullptr; ///< phase ops: level index
};

namespace {

/**
 * True when fusion plans lower this op onto the specialized rotation
 * kernels instead of the generic 2x2 matrix path. Constant RX/RY were
 * already merged by 1q fusion, so only parameterized ones remain.
 */
inline bool
rotLowerable(const CompiledOp& op)
{
    return op.op == KernelOp::Matrix1q && op.paramIndex >= 0 &&
           (op.kind == GateKind::RX || op.kind == GateKind::RY);
}

ResolvedPayload
resolvePayload(const CompiledOp& op, const double* params,
               bool rotLower = false, const PhaseArgs* phase = nullptr)
{
    ResolvedPayload r;
    r.op = &op;
    switch (op.op) {
      case KernelOp::Matrix1q:
      case KernelOp::PairMask:
        if (rotLower && rotLowerable(op)) {
            // RX = [[c, -i s], [-i s, c]], RY = [[c, -s], [s, c]] with
            // c = cos(a/2), s = sin(a/2): both run ~2x faster through
            // the dedicated kernels. Rounding differs from the generic
            // matrix path, so the lowering is keyed on the fusion plan.
            const double a = op.resolvedAngle(params);
            r.rot = op.kind == GateKind::RX ? 1 : 2;
            r.c = std::cos(a / 2);
            r.s = std::sin(a / 2);
            break;
        }
        r.matrix = op.paramIndex < 0
                       ? op.matrix
                       : gateMatrix1q(op.kind, op.resolvedAngle(params));
        break;
      case KernelOp::Diag1q:
      case KernelOp::PhaseZZ:
        if (op.paramIndex < 0) {
            r.p0 = op.phase0;
            r.p1 = op.phase1;
        } else {
            rotationPhases(op.resolvedAngle(params), r.p0, r.p1);
        }
        break;
      case KernelOp::PhaseFill:
      case KernelOp::PhaseTable:
        r.phases = phase->tables + op.phaseSlot * phase->stride;
        r.levels = phase->index;
        break;
      default:
        break; // CX / CZ / Swap carry no payload
    }
    return r;
}

/**
 * Apply one resolved op to the 2^k-amplitude block at amps[base]: the
 * one op dispatch of a replay. Blocked passes call it per block;
 * unblocked segments call it on one block spanning the whole state.
 * Qubits below k act inside the block (the kernel runs on the block
 * exactly as it would on the whole state); higher qubits are diagonal
 * by the blockable() contract and resolve against the block's base
 * index. Per amplitude this performs the identical operation the
 * whole-state call would, so blocking is value-neutral per ISA.
 */
void
applyToBlock(const kernels::KernelTable& t, cplx* blk, std::size_t bs,
             std::size_t base, const ResolvedPayload& r, int k)
{
    const CompiledOp& op = *r.op;
    switch (op.op) {
      case KernelOp::Matrix1q:
        if (r.rot == 1)
            t.rotX(blk, bs, op.q0, r.c, r.s);
        else if (r.rot == 2)
            t.rotY(blk, bs, op.q0, r.c, r.s);
        else
            t.matrix1q(blk, bs, op.q0, r.matrix);
        break;
      case KernelOp::Diag1q:
        if (op.q0 < k)
            t.diag1q(blk, bs, op.q0, r.p0, r.p1);
        else
            t.scale(blk, bs, (base >> op.q0) & 1 ? r.p1 : r.p0);
        break;
      case KernelOp::CX:
        if (op.q0 < k)
            t.cx(blk, bs, op.q0, op.q1);
        else if ((base >> op.q0) & 1)
            t.flipBit(blk, bs, op.q1);
        break;
      case KernelOp::CZ: {
        std::size_t lowmask = 0;
        bool high_set = true;
        for (const int q : {int(op.q0), int(op.q1)}) {
            if (q < k)
                lowmask |= std::size_t{1} << q;
            else
                high_set = high_set && ((base >> q) & 1);
        }
        if (high_set)
            t.negateMasked(blk, bs, lowmask);
        break;
      }
      case KernelOp::Swap:
        t.swapQubits(blk, bs, op.q0, op.q1);
        break;
      case KernelOp::PhaseZZ: {
        const bool a_in = op.q0 < k;
        const bool b_in = op.q1 < k;
        if (a_in && b_in) {
            t.phaseZZ(blk, bs, op.q0, op.q1, r.p0, r.p1);
        } else if (a_in || b_in) {
            const int low_q = a_in ? op.q0 : op.q1;
            const int high_q = a_in ? op.q1 : op.q0;
            const bool hb = (base >> high_q) & 1;
            // High bit set flips which low-bit value "agrees".
            t.diag1q(blk, bs, low_q, hb ? r.p1 : r.p0,
                     hb ? r.p0 : r.p1);
        } else {
            const bool ba = (base >> op.q0) & 1;
            const bool bb = (base >> op.q1) & 1;
            t.scale(blk, bs, ba == bb ? r.p0 : r.p1);
        }
        break;
      }
      case KernelOp::PhaseFill:
        fillLevels(blk, bs, r.levels + base, r.phases);
        break;
      case KernelOp::PhaseTable:
        mulLevels(blk, bs, r.levels + base, r.phases);
        break;
      case KernelOp::PairMask:
        // Never blockable: its pairs (x, x ^ (bs - 1)) span the
        // block, so only the whole-state pass reaches it.
        kernels::pairMask(blk, bs, r.matrix[0], r.matrix[1]);
        break;
    }
}

/**
 * Apply a run of resolved ops to one block, pair-fusing adjacent
 * lowered rotations of the same axis on distinct qubits through the
 * rotX2/rotY2 super-kernels. Those kernels are bit-identical to the
 * two single calls, so pairing is purely an execution-speed decision:
 * any chunk, segment or checkpoint boundary may split a would-be pair
 * without perturbing a single bit.
 */
void
applyRunToBlock(const kernels::KernelTable& t, cplx* blk,
                std::size_t bs, std::size_t base,
                const ResolvedPayload* r, std::size_t n, int k)
{
    std::size_t j = 0;
    while (j < n) {
        if (j + 1 < n && r[j].rot != 0 && r[j].rot == r[j + 1].rot &&
            r[j].op->q0 != r[j + 1].op->q0) {
            const auto pair = r[j].rot == 1 ? t.rotX2 : t.rotY2;
            pair(blk, bs, r[j].op->q0, r[j + 1].op->q0, r[j].c, r[j].s,
                 r[j + 1].c, r[j + 1].s);
            j += 2;
            continue;
        }
        applyToBlock(t, blk, bs, base, r[j], k);
        ++j;
    }
}

/**
 * Replay ops [lo, hi) of an unblocked plan segment as the plain
 * blocked pass over one block that spans the whole state (k = log2
 * dim, base = 0). Each op, or each rotation pair, resolves into a
 * two-entry window and streams the state once; pairs form greedily,
 * so a pair inside [lo, hi) is never split.
 */
void
applyToState(const std::vector<CompiledOp>& ops, std::size_t lo,
             std::size_t hi, cplx* amps, std::size_t dim,
             const double* params, const kernels::KernelTable& t,
             bool rotLower, const PhaseArgs& phases)
{
    const int k = static_cast<int>(std::bit_width(dim)) - 1;
    ResolvedPayload r[2];
    for (std::size_t m = lo; m < hi;) {
        // A pair: lowered rotations of one axis on distinct qubits.
        const bool pair = rotLower && m + 1 < hi && rotLowerable(ops[m]) &&
                          rotLowerable(ops[m + 1]) &&
                          ops[m].kind == ops[m + 1].kind &&
                          ops[m].q0 != ops[m + 1].q0;
        const std::size_t n = pair ? 2 : 1;
        for (std::size_t j = 0; j < n; ++j)
            r[j] = resolvePayload(ops[m + j], params, rotLower, &phases);
        applyRunToBlock(t, amps, dim, 0, r, n, k);
        m += n;
    }
}

} // namespace

CompiledCircuit::CompiledCircuit(const Circuit& circuit,
                                 const CompileOptions& options)
    : CompiledCircuit(circuit, options, nullptr)
{
}

CompiledCircuit::CompiledCircuit(const Circuit& circuit,
                                 const CompileOptions& options,
                                 std::shared_ptr<const PhaseLevels> levels)
    : numQubits_(circuit.numQubits()), numParams_(circuit.numParams()),
      levels_(std::move(levels))
{
    ops_.reserve(circuit.numGates());
    firstUse_.assign(static_cast<std::size_t>(numParams_), 0);

    // fusible[q]: index of the trailing constant Matrix1q op on qubit
    // q that later constant 1q gates on q may merge into; -1 when the
    // last op touching q is not such a candidate.
    std::vector<std::ptrdiff_t> fusible(
        static_cast<std::size_t>(numQubits_), -1);

    for (const Gate& gate : circuit.gates()) {
        CompiledOp op = lowerGate(gate);
        const bool constant_1q =
            op.arity() == 1 && op.paramIndex < 0;

        if (options.fuse1q && constant_1q) {
            // Diagonal constants were lowered to Diag1q payloads only
            // for RZ; rebuild the fusable matrix form uniformly.
            const std::array<cplx, 4> m =
                op.op == KernelOp::Diag1q
                    ? std::array<cplx, 4>{op.phase0, cplx(0.0, 0.0),
                                          cplx(0.0, 0.0), op.phase1}
                    : op.matrix;
            std::ptrdiff_t& slot = fusible[op.q0];
            if (slot >= 0) {
                ops_[slot].matrix = matmul(m, ops_[slot].matrix);
                ++fusedGates_;
                continue;
            }
            op.op = KernelOp::Matrix1q;
            op.matrix = m;
            slot = static_cast<std::ptrdiff_t>(ops_.size());
            ops_.push_back(op);
            continue;
        }

        // Any other op ends the fusion window of the qubits it touches.
        fusible[op.q0] = -1;
        if (op.arity() == 2)
            fusible[op.q1] = -1;
        ops_.push_back(op);
    }

    // Downgrade exactly-diagonal constant matrices (Z, S, Sdg, and
    // diagonal fusion products) to the phase-multiply fast path.
    for (CompiledOp& op : ops_) {
        if (op.op == KernelOp::Matrix1q && op.paramIndex < 0 &&
            op.matrix[1] == cplx(0.0, 0.0) &&
            op.matrix[2] == cplx(0.0, 0.0)) {
            op.op = KernelOp::Diag1q;
            op.phase0 = op.matrix[0];
            op.phase1 = op.matrix[3];
        }
    }

    if (levels_) {
        lowerPhaseOps();
        lowerHalfState();
    }
    finalizeFrontier();
    blockBits_ = options.blockWindow <= 0
                     ? 0
                     : std::min(options.blockWindow, stateQubits());
    fuse_ = options.fuse;
    buildPlan();
}

bool
CompiledCircuit::blockable(const CompiledOp& op, int k)
{
    switch (op.op) {
      case KernelOp::Diag1q:
      case KernelOp::CZ:
      case KernelOp::PhaseZZ:
        // Diagonal in every qubit: high qubits resolve against the
        // block base, low qubits act inside the block.
        return true;
      case KernelOp::Matrix1q:
        return op.q0 < k;
      case KernelOp::CX:
        // Diagonal in the control; the target must stay in-block.
        return op.q1 < k;
      case KernelOp::Swap:
        return op.q0 < k && op.q1 < k;
      case KernelOp::PhaseFill:
      case KernelOp::PhaseTable:
        // Element-wise over the basis index: a block reads its slice
        // of the level index.
        return true;
      case KernelOp::PairMask:
        // Pairs x with its reversed partner across the whole state.
        return false;
    }
    return false;
}

namespace {

/** True for the diagonal op kinds a fused unit may contain. */
inline bool
isDiagonalOp(const CompiledOp& op)
{
    return op.op == KernelOp::Diag1q || op.op == KernelOp::CZ ||
           op.op == KernelOp::PhaseZZ;
}

/**
 * True when a diagonal op folds into the per-block table (every qubit
 * below the block window); false keeps it as per-block context.
 */
inline bool
diagFoldable(const CompiledOp& op, int k)
{
    if (op.q0 >= k)
        return false;
    return op.arity() == 1 || op.q1 < k;
}

} // namespace

void
CompiledCircuit::buildPlan()
{
    if (ops_.empty())
        return;
    if (blockBits_ <= 0) {
        // Blocking off: one unblocked segment replays the schedule.
        blockBits_ = 0;
        plan_.push_back({0, static_cast<std::uint32_t>(ops_.size()), false});
        return;
    }
    const int k = blockBits_;
    // Greedy segmentation: maximal runs of >= 2 blockable ops become
    // fused passes; everything else collects into plain segments.
    std::size_t i = 0;
    while (i < ops_.size()) {
        std::size_t j = i;
        while (j < ops_.size() && blockable(ops_[j], k))
            ++j;
        if (j - i >= 2) {
            plan_.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j), true, 0, 0});
            ++blockedGroups_;
            i = j;
            continue;
        }
        std::size_t e = std::max(j, i + 1);
        while (e < ops_.size() &&
               !(blockable(ops_[e], k) && e + 1 < ops_.size() &&
                 blockable(ops_[e + 1], k)))
            ++e;
        plan_.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(e), false, 0, 0});
        i = e;
    }

    if (!fuse_)
        return;
    for (PlanSegment& seg : plan_) {
        if (seg.blocked)
            formUnits(seg);
    }

    // Lay out payload storage: constant tables pack into
    // constPayload_ once, parameterized ones get disjoint offsets in
    // the per-call scratch. Offsets round up to 8 complexes so every
    // table starts on a 128-byte boundary inside the 64-byte-aligned
    // backing store.
    constexpr std::size_t kPayloadAlign = 8;
    const std::size_t tdim = std::size_t{1} << blockBits_;
    std::size_t constSize = 0;
    std::size_t paramSize = 0;
    for (FusedUnit& u : units_) {
        std::size_t& acc = u.constant ? constSize : paramSize;
        acc = (acc + kPayloadAlign - 1) & ~(kPayloadAlign - 1);
        u.payloadOffset = static_cast<std::uint32_t>(acc);
        acc += tdim;
        fusedOps_ += u.foldCount;
    }
    paramScratchSize_ = paramSize;
    constPayload_.assign(constSize, cplx(0.0, 0.0));
    for (const FusedUnit& u : units_) {
        if (u.constant)
            buildDiagTable(u, nullptr, kernels::scalarKernelTable(),
                           constPayload_.data() + u.payloadOffset);
    }
}

void
CompiledCircuit::formUnits(PlanSegment& seg)
{
    seg.unitBegin = static_cast<std::uint32_t>(units_.size());
    const int k = blockBits_;
    // Units never straddle a frontier level: checkpoint resume and
    // batched suffix replay cut the schedule exactly there, and a unit
    // crossing a cut would replay differently fused vs split.
    std::size_t lo = seg.begin;
    while (lo < seg.end) {
        const auto cut = std::upper_bound(frontier_.begin(),
                                          frontier_.end(), lo);
        const std::size_t hi = std::min<std::size_t>(
            seg.end, cut == frontier_.end() ? ops_.size() : *cut);
        std::size_t i = lo;
        while (i < hi) {
            // Diagonal run: >= 2 consecutive diagonal ops, at least 2
            // of them folding into the per-block table.
            std::size_t j = i;
            while (j < hi && isDiagonalOp(ops_[j]))
                ++j;
            if (j - i >= 2) {
                std::uint32_t fold = 0;
                bool constant = true;
                for (std::size_t m = i; m < j; ++m) {
                    if (!diagFoldable(ops_[m], k))
                        continue;
                    ++fold;
                    constant = constant && ops_[m].paramIndex < 0;
                }
                // A parameterized table costs a rebuild of 2^blockBits
                // complexes per replay (through the active ISA's
                // kernels, so it is cheap); >= 4 blocks amortize it.
                // Constant tables are free.
                if (fold >= 2 && (constant || stateQubits() - k >= 2))
                    units_.push_back({static_cast<std::uint32_t>(i),
                                      static_cast<std::uint32_t>(j),
                                      constant, 0, fold});
            }
            i = std::max(j, i + 1);
        }
        lo = hi;
    }
    seg.unitEnd = static_cast<std::uint32_t>(units_.size());
}

void
CompiledCircuit::buildDiagTable(const FusedUnit& unit,
                                const double* params,
                                const kernels::KernelTable& t,
                                cplx* table) const
{
    // The unit's kernels applied to a ones vector. Constant tables are
    // prebuilt once through the scalar reference kernels and are thus
    // ISA-independent; parameterized tables are rebuilt per replay
    // through the active table, which is the same table every replay
    // of a fixed (ISA, plan) pair uses — exactly the determinism
    // contract the engine documents.
    const std::size_t tdim = std::size_t{1} << blockBits_;
    std::fill(table, table + tdim, cplx(1.0, 0.0));
    for (std::size_t m = unit.begin; m < unit.end; ++m) {
        const CompiledOp& op = ops_[m];
        if (!diagFoldable(op, blockBits_))
            continue; // per-block context, applied at replay time
        const ResolvedPayload r = resolvePayload(op, params);
        switch (op.op) {
          case KernelOp::Diag1q:
            t.diag1q(table, tdim, op.q0, r.p0, r.p1);
            break;
          case KernelOp::CZ:
            t.negateMasked(table, tdim, kernels::czMask(op.q0, op.q1));
            break;
          default: // PhaseZZ (the only other diagonal kind)
            t.phaseZZ(table, tdim, op.q0, op.q1, r.p0, r.p1);
            break;
        }
    }
}

namespace {

/** Order terms by qubit pair and add the coefficients of equal pairs. */
std::vector<PhaseLevels::Term>
mergeTerms(std::vector<PhaseLevels::Term> terms)
{
    for (PhaseLevels::Term& t : terms) {
        if (t.a > t.b)
            std::swap(t.a, t.b);
    }
    std::sort(terms.begin(), terms.end(),
              [](const PhaseLevels::Term& x, const PhaseLevels::Term& y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    std::vector<PhaseLevels::Term> merged;
    for (const PhaseLevels::Term& t : terms) {
        if (!merged.empty() && merged.back().a == t.a &&
            merged.back().b == t.b)
            merged.back().coeff += t.coeff;
        else
            merged.push_back(t);
    }
    std::erase_if(merged,
                  [](const PhaseLevels::Term& t) { return t.coeff == 0.0; });
    return merged;
}

} // namespace

std::shared_ptr<const PhaseLevels>
PhaseLevels::make(std::vector<Term> terms, double constant,
                  std::shared_ptr<const std::vector<double>> table)
{
    terms = mergeTerms(std::move(terms));
    if (!table || terms.empty())
        return nullptr;
    double unit = std::numeric_limits<double>::infinity();
    for (const Term& t : terms)
        unit = std::min(unit, std::abs(t.coeff));
    // K = sum_e |m_e|, each m_e = |h_e| / unit an integer.
    double k = 0.0;
    for (const Term& t : terms) {
        const double m = std::abs(t.coeff) / unit;
        const double whole = std::round(m);
        if (!std::isfinite(m) || std::abs(m - whole) > 1e-12 * whole)
            return nullptr;
        k += whole;
    }
    // The index rounds (C(z) - c) / unit to the nearest level, which
    // needs C(z)'s rounding error well below one unit.
    if (k + 1 > kMaxLevels || !(std::abs(constant) < 1e9 * unit))
        return nullptr;
    auto levels = std::shared_ptr<PhaseLevels>(new PhaseLevels());
    levels->terms_ = std::move(terms);
    levels->constant_ = constant;
    levels->unit_ = unit;
    levels->numLevels_ = static_cast<int>(k) + 1;
    levels->table_ = std::move(table);
    return levels;
}

const std::uint8_t*
PhaseLevels::index() const
{
    std::call_once(built_, [this] {
        // level = ((C(z) - c) / unit + K) / 2, rounded to nearest: one
        // pass over the table, no search.
        const std::vector<double>& values = *table_;
        const double scale = 0.5 / unit_;
        const double shift = 0.5 * (numLevels_ - 1) + 0.5;
        index_.resize(values.size());
        for (std::size_t z = 0; z < values.size(); ++z)
            index_[z] = static_cast<std::uint8_t>(
                (values[z] - constant_) * scale + shift);
    });
    return index_.data();
}

void
CompiledCircuit::lowerPhaseOps()
{
    const std::vector<PhaseLevels::Term>& terms = levels_->terms();
    const std::array<cplx, 4> hadamard = gateMatrix1q(GateKind::H, 0.0);

    // True when ops [i, j), RZZ ops on one parameter gamma, apply
    // exp(-i factor gamma sum_e h_e Z_a Z_b / 2): per qubit pair their
    // coefficients are one multiple of the cost's ZZ terms.
    auto matches = [&](std::size_t i, std::size_t j, double& factor) {
        std::vector<PhaseLevels::Term> run;
        for (std::size_t m = i; m < j; ++m)
            run.push_back({ops_[m].q0, ops_[m].q1, ops_[m].coeff});
        run = mergeTerms(std::move(run));
        if (run.size() != terms.size())
            return false;
        factor = run[0].coeff / terms[0].coeff;
        for (std::size_t e = 0; e < terms.size(); ++e) {
            if (run[e].a != terms[e].a || run[e].b != terms[e].b ||
                std::abs(run[e].coeff - factor * terms[e].coeff) >
                    1e-12 * std::abs(run[e].coeff))
                return false;
        }
        return true;
    };
    // True when `ops` is H on every qubit once: |+...+> from |0...0>.
    auto hadamardLayer = [&](const std::vector<CompiledOp>& ops) {
        if (ops.size() != static_cast<std::size_t>(numQubits_))
            return false;
        std::vector<bool> seen(ops.size());
        for (const CompiledOp& op : ops) {
            if (op.op != KernelOp::Matrix1q || op.paramIndex >= 0 ||
                op.matrix != hadamard || seen[op.q0])
                return false;
            seen[op.q0] = true;
        }
        return true;
    };

    std::vector<CompiledOp> lowered;
    lowered.reserve(ops_.size());
    std::size_t i = 0;
    while (i < ops_.size()) {
        const CompiledOp& first = ops_[i];
        std::size_t j = i;
        if (first.op == KernelOp::PhaseZZ && first.paramIndex >= 0) {
            while (j < ops_.size() && ops_[j].op == KernelOp::PhaseZZ &&
                   ops_[j].paramIndex == first.paramIndex &&
                   ops_[j].angle == 0.0)
                ++j;
        }
        double factor = 0.0;
        if (j == i || !matches(i, j, factor)) {
            const std::size_t stop = std::max(j, i + 1);
            lowered.insert(lowered.end(), ops_.begin() + i,
                           ops_.begin() + stop);
            i = stop;
            continue;
        }
        CompiledOp op;
        op.kind = GateKind::RZZ;
        op.paramIndex = first.paramIndex;
        op.coeff = factor * levels_->unit();
        op.phaseSlot = static_cast<std::uint16_t>(numPhaseOps_++);
        if (hadamardLayer(lowered)) {
            op.op = KernelOp::PhaseFill;
            op.folded = static_cast<std::uint32_t>(lowered.size() + j - i);
            lowered.clear();
        } else {
            op.op = KernelOp::PhaseTable;
            op.folded = static_cast<std::uint32_t>(j - i);
        }
        fusedOps_ += op.folded;
        lowered.push_back(op);
        i = j;
    }
    ops_ = std::move(lowered);
    if (numPhaseOps_ == 0)
        levels_.reset();
}

void
CompiledCircuit::lowerHalfState()
{
    // The fill starts from |+...+>; every later op must commute with
    // X^n. The cost's levels allow only ZZ terms and a constant.
    const auto commutesWithX = [](const CompiledOp& op) {
        switch (op.op) {
          case KernelOp::PhaseTable:
          case KernelOp::PhaseZZ:
            return true;
          case KernelOp::Matrix1q:
            return op.paramIndex >= 0 ? op.kind == GateKind::RX
                                      : op.matrix[0] == op.matrix[3] &&
                                            op.matrix[1] == op.matrix[2];
          default:
            return false;
        }
    };
    if (!startsWithFill() ||
        !std::all_of(ops_.begin() + 1, ops_.end(), commutesWithX))
        return;
    half_ = true;
    const int top = numQubits_ - 1;
    for (CompiledOp& op : ops_) {
        if (op.op == KernelOp::Matrix1q && op.q0 == top) {
            op.op = KernelOp::PairMask;
        } else if (op.op == KernelOp::PhaseZZ &&
                   (op.q0 == top || op.q1 == top)) {
            // The top bit is 0 on the half state: ZZ(a, top) acts as
            // Z_a, with the same agree/differ phases.
            op.op = KernelOp::Diag1q;
            op.q0 = op.q0 == top ? op.q1 : op.q0;
            op.q1 = -1;
        }
    }
}

void
CompiledCircuit::resolvePhases(const CompiledOp& op, const double* params,
                               cplx* phases) const
{
    // The run applies exp(-i a sum_e m_e Z_a Z_b / 2), a the resolved
    // angle (factor * unit * gamma), and sum_e m_e Z_a Z_b = 2 level -
    // K, so level l takes exp(-i a (l - K/2)). A fill also carries the
    // 1/sqrt(N) amplitude of |+...+>, N = stateDim(): the half state
    // has unit norm on its own.
    const int num_levels = levels_->numLevels();
    const double half_k = 0.5 * (num_levels - 1);
    const double a = op.resolvedAngle(params);
    const double scale =
        op.op == KernelOp::PhaseFill
            ? 1.0 / std::sqrt(static_cast<double>(stateDim()))
            : 1.0;
    for (int l = 0; l < num_levels; ++l) {
        const double x = -a * (l - half_k);
        phases[l] = cplx(scale * std::cos(x), scale * std::sin(x));
    }
}

void
CompiledCircuit::finalizeFrontier()
{
    std::fill(firstUse_.begin(), firstUse_.end(), ops_.size());
    for (std::size_t k = 0; k < ops_.size(); ++k) {
        const std::int32_t j = ops_[k].paramIndex;
        if (j >= 0 && firstUse_[j] == ops_.size())
            firstUse_[j] = k;
    }

    constantPrefix_ = ops_.size();
    for (std::size_t k = 0; k < ops_.size(); ++k) {
        if (ops_[k].paramIndex >= 0) {
            constantPrefix_ = k;
            break;
        }
    }

    frontier_ = firstUse_;
    std::sort(frontier_.begin(), frontier_.end());
    frontier_.erase(std::unique(frontier_.begin(), frontier_.end()),
                    frontier_.end());
    // Unused parameters contribute a bogus level at numOps().
    while (!frontier_.empty() && frontier_.back() >= ops_.size())
        frontier_.pop_back();
    // Rebuilding a PhaseFill-only prefix is one write pass; resuming a
    // checkpoint of it would read and write the state. No checkpoint.
    if (startsWithFill())
        std::erase_if(frontier_, [](std::size_t l) { return l <= 1; });
}

std::vector<int>
CompiledCircuit::parameterOrder() const
{
    std::vector<int> order(static_cast<std::size_t>(numParams_));
    for (int j = 0; j < numParams_; ++j)
        order[j] = j;
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
        return firstUse_[a] < firstUse_[b];
    });
    return order;
}

std::size_t
CompiledCircuit::sharedPrefixLength(const std::vector<double>& a,
                                    const std::vector<double>& b) const
{
    std::size_t prefix = ops_.size();
    for (int j = 0; j < numParams_; ++j) {
        if (std::bit_cast<std::uint64_t>(a[j]) !=
            std::bit_cast<std::uint64_t>(b[j]))
            prefix = std::min(prefix, firstUse_[j]);
    }
    return prefix;
}

void
CompiledCircuit::runBlocked(cplx* amps, std::size_t dim,
                            const PlanSegment& seg, std::size_t begin,
                            std::size_t end, const double* params,
                            const kernels::KernelTable& table,
                            const PhaseArgs& phases) const
{
    const int k = blockBits_;
    const std::size_t bs = std::size_t{1} << k;
    const bool rotLower = fuse_;

    // Fused units wholly inside [begin, end); a unit cut by the range
    // (possible only for non-frontier-aligned cuts) falls back to
    // per-op replay below.
    struct ActiveUnit
    {
        const FusedUnit* unit;
        const cplx* payload;
    };
    std::vector<ActiveUnit> active;
    for (std::uint32_t ui = seg.unitBegin; ui < seg.unitEnd; ++ui) {
        const FusedUnit& u = units_[ui];
        if (u.begin >= begin && u.end <= end)
            active.push_back({&u, nullptr});
    }

    if (active.empty()) {
        // Plain blocked pass: resolve payloads in bounded chunks
        // (stack-local, keeps runRange thread-safe), then stream the
        // statevector once per chunk, applying every op of the chunk
        // while each block is cache-hot.
        constexpr std::size_t kOpChunk = 24;
        ResolvedPayload resolved[kOpChunk];
        for (std::size_t cb = begin; cb < end; cb += kOpChunk) {
            const std::size_t n = std::min(kOpChunk, end - cb);
            for (std::size_t j = 0; j < n; ++j)
                resolved[j] = resolvePayload(ops_[cb + j], params,
                                             rotLower, &phases);
            for (std::size_t base = 0; base < dim; base += bs) {
                cplx* blk = amps + base;
                applyRunToBlock(table, blk, bs, base, resolved, n, k);
            }
        }
        return;
    }

    // Parameterized unit tables rebuild into call-local aligned
    // scratch (disjoint offsets laid out at plan time); constant ones
    // were prebuilt into constPayload_.
    AlignedVector<cplx> scratch;
    bool needScratch = false;
    for (const ActiveUnit& a : active)
        needScratch = needScratch || !a.unit->constant;
    if (needScratch)
        scratch.resize(paramScratchSize_);
    for (ActiveUnit& a : active) {
        const FusedUnit& u = *a.unit;
        if (u.constant) {
            a.payload = constPayload_.data() + u.payloadOffset;
            continue;
        }
        cplx* payload = scratch.data() + u.payloadOffset;
        buildDiagTable(u, params, table, payload);
        a.payload = payload;
    }

    // Ops outside units (and diagonal context ops inside units) still
    // replay per block through their resolved payloads.
    std::vector<ResolvedPayload> resolved(end - begin);
    for (std::size_t m = begin; m < end; ++m)
        resolved[m - begin] =
            resolvePayload(ops_[m], params, rotLower, &phases);

    for (std::size_t base = 0; base < dim; base += bs) {
        cplx* blk = amps + base;
        std::size_t i = begin;
        std::size_t ai = 0;
        while (i < end) {
            if (ai < active.size() && active[ai].unit->begin == i) {
                const FusedUnit& u = *active[ai].unit;
                table.applyDiagTable(blk, bs, active[ai].payload);
                for (std::size_t m = u.begin; m < u.end; ++m) {
                    if (!diagFoldable(ops_[m], k))
                        applyToBlock(table, blk, bs, base,
                                     resolved[m - begin], k);
                }
                i = u.end;
                ++ai;
                continue;
            }
            // Stretch of non-unit ops up to the next unit: replay it
            // as one run so adjacent lowered rotations pair up.
            const std::size_t stop = ai < active.size()
                                         ? active[ai].unit->begin
                                         : end;
            applyRunToBlock(table, blk, bs, base,
                            resolved.data() + (i - begin), stop - i, k);
            i = stop;
        }
    }
}

void
CompiledCircuit::runRange(cplx* amps, std::size_t dim, std::size_t begin,
                          std::size_t end, const double* params,
                          const kernels::KernelTable& table) const
{
    // The plan's blocks and the phase levels cover stateDim().
    if (dim != stateDim() || (levels_ && dim != levels_->size()))
        throw std::invalid_argument(
            "CompiledCircuit::runRange: dim must be stateDim() and the "
            "phase levels' size");
    if (begin >= end)
        return;

    // Resolve the phase tables of the phase ops in range.
    PhaseArgs phases;
    std::vector<cplx> tables;
    if (numPhaseOps_ > 0) {
        phases.stride = static_cast<std::size_t>(levels_->numLevels());
        for (std::size_t m = begin; m < end; ++m) {
            const CompiledOp& op = ops_[m];
            if (!op.isPhaseOp())
                continue;
            if (tables.empty()) {
                tables.resize(numPhaseOps_ * phases.stride);
                phases.index = levels_->index();
            }
            resolvePhases(op, params,
                          tables.data() + op.phaseSlot * phases.stride);
        }
        phases.tables = tables.data();
    }

    for (const PlanSegment& seg : plan_) {
        if (seg.end <= begin)
            continue;
        if (seg.begin >= end)
            break;
        const std::size_t lo = std::max<std::size_t>(seg.begin, begin);
        const std::size_t hi = std::min<std::size_t>(seg.end, end);
        if (seg.blocked && hi - lo >= 2)
            runBlocked(amps, dim, seg, lo, hi, params, table, phases);
        else
            applyToState(ops_, lo, hi, amps, dim, params, table, fuse_,
                         phases);
    }
}

void
CompiledCircuit::runRange(cplx* amps, std::size_t dim, std::size_t begin,
                          std::size_t end, const double* params) const
{
    runRange(amps, dim, begin, end, params,
             kernels::defaultKernelTable());
}

void
CompiledCircuit::run(Statevector& state,
                     const std::vector<double>& params) const
{
    if (state.numQubits() != numQubits_)
        throw std::invalid_argument("CompiledCircuit::run: qubit mismatch");
    if (static_cast<int>(params.size()) != numParams_)
        throw std::invalid_argument(
            "CompiledCircuit::run: wrong parameter count");
    runRange(state.amps().data(), state.dim(), 0, ops_.size(),
             params.data());
}

void
CompiledCircuit::run(Statevector& state) const
{
    if (numParams_ != 0)
        throw std::invalid_argument(
            "CompiledCircuit::run: unbound parameters");
    if (state.numQubits() != numQubits_)
        throw std::invalid_argument("CompiledCircuit::run: qubit mismatch");
    runRange(state.amps().data(), state.dim(), 0, ops_.size(), nullptr);
}

} // namespace oscar

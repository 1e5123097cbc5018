#include "src/backend/statevector_backend.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/obs/trace.h"

namespace oscar {

namespace {

/**
 * The phase levels of a diagonal Hamiltonian made of ZZ terms and a
 * constant (null for any other term: the QAOA phase ops then stay
 * off).
 */
std::shared_ptr<const PhaseLevels>
phaseLevelsOf(const PauliSum& hamiltonian,
              std::shared_ptr<const std::vector<double>> diagonal)
{
    std::vector<PhaseLevels::Term> terms;
    double constant = 0.0;
    for (const PauliTerm& t : hamiltonian.terms()) {
        const PauliMasks m = t.pauli.masks();
        if (m.flip != 0)
            return nullptr;
        if (m.sign == 0) {
            constant += t.coeff;
        } else if (std::popcount(m.sign) == 2) {
            terms.push_back({std::countr_zero(m.sign),
                             63 - std::countl_zero(m.sign), t.coeff});
        } else {
            return nullptr;
        }
    }
    return PhaseLevels::make(std::move(terms), constant,
                             std::move(diagonal));
}

} // namespace

StatevectorCost::StatevectorCost(Circuit circuit, PauliSum hamiltonian)
    : circuit_(std::move(circuit)), hamiltonian_(std::move(hamiltonian)),
      table_(&kernels::kernelTable(kernel_.isa))
{
    if (hamiltonian_.numQubits() != circuit_.numQubits())
        throw std::invalid_argument(
            "StatevectorCost: circuit/Hamiltonian qubit mismatch");
    if (!hamiltonian_.isDiagonal()) {
        compiled_ = CompiledCircuit(circuit_, kPlan);
        return;
    }
    // The table is filled once the plan is known: a half-state plan
    // reads only its first 2^(n-1) entries. Nothing reads it before.
    auto table = std::make_shared<std::vector<double>>();
    compiled_ = CompiledCircuit(circuit_, kPlan,
                                phaseLevelsOf(hamiltonian_, table));
    *table = hamiltonian_.diagonalTable(compiled_.stateDim());
    diagonal_ = std::move(table);
}

StatevectorCost::StatevectorCost(const StatevectorCost& other)
    : CostFunction(other), circuit_(other.circuit_),
      compiled_(other.compiled_), hamiltonian_(other.hamiltonian_),
      diagonal_(other.diagonal_), kernel_(other.kernel_),
      table_(&kernels::kernelTable(other.kernel_.isa))
{
}

StatevectorCost&
StatevectorCost::operator=(const StatevectorCost& other)
{
    CostFunction::operator=(other);
    circuit_ = other.circuit_;
    compiled_ = other.compiled_;
    hamiltonian_ = other.hamiltonian_;
    diagonal_ = other.diagonal_;
    state_.clear();
    kernel_ = other.kernel_;
    table_ = &kernels::kernelTable(other.kernel_.isa);
    checkpoints_.clear();
    cacheHits_ = 0;
    cacheLookups_ = 0;
    batchedDiagonalPoints_ = 0;
    batchedPauliPoints_ = 0;
    groupScratch_.clear();
    return *this;
}

std::unique_ptr<CostFunction>
StatevectorCost::clone() const
{
    return std::make_unique<StatevectorCost>(*this);
}

void
StatevectorCost::configureKernel(const KernelOptions& options)
{
    kernel_ = options;
    table_ = &kernels::kernelTable(options.isa);
}

std::vector<int>
StatevectorCost::batchOrderHint() const
{
    return compiled_.parameterOrder();
}

KernelStats
StatevectorCost::kernelStats() const
{
    KernelStats stats;
    stats.cacheHits = cacheHits_;
    stats.cacheLookups = cacheLookups_;
    stats.isa = table_->isa;
    stats.batchedDiagonalPoints = batchedDiagonalPoints_;
    stats.batchedPauliPoints = batchedPauliPoints_;
    return stats;
}

void
StatevectorCost::simulate(const std::vector<double>& params,
                          AlignedVector<cplx>& amps, std::size_t resume,
                          std::size_t keep)
{
    const std::size_t dim = compiled_.stateDim();
    const auto& levels = compiled_.frontierLevels();
    std::size_t pos = 0;
    if (resume > 0) {
        amps = checkpoints_[resume - 1];
        pos = levels[resume - 1];
    } else if (compiled_.startsWithFill()) {
        // A PhaseFill writes every amplitude itself, so |0...0> need
        // not be written first.
        amps.resize(dim);
    } else {
        amps.assign(dim, cplx(0.0, 0.0));
        amps[0] = 1.0;
    }
    // Cut the replay only at the levels worth keeping: a cut at a
    // frontier level never splits a fused unit, so it moves no bit.
    if (checkpoints_.size() < keep)
        checkpoints_.resize(levels.size());
    for (std::size_t l = resume; l < keep; ++l) {
        {
            obs::ScopedSpan span(obs::SpanCategory::Replay, "segment",
                                 pos, levels[l]);
            compiled_.runRange(amps.data(), dim, pos, levels[l],
                               params.data(), *table_);
        }
        pos = levels[l];
        checkpoints_[l] = amps;
    }
    obs::ScopedSpan span(obs::SpanCategory::Replay,
                         pos == 0 ? "replay" : "tail", pos,
                         compiled_.numOps());
    compiled_.runRange(amps.data(), dim, pos, compiled_.numOps(),
                       params.data(), *table_);
}

std::size_t
StatevectorCost::sharedLevels(const std::vector<double>& a,
                              const std::vector<double>& b) const
{
    const auto& levels = compiled_.frontierLevels();
    return static_cast<std::size_t>(
        std::upper_bound(levels.begin(), levels.end(),
                         compiled_.sharedPrefixLength(a, b)) -
        levels.begin());
}

void
StatevectorCost::simulateInBatch(
    std::span<const std::vector<double>> points, std::size_t i,
    AlignedVector<cplx>& amps)
{
    if (compiled_.frontierLevels().empty()) {
        simulate(points[i], amps, 0, 0);
        return;
    }
    // checkpoints_[l] holds point i-1's state at every level l it
    // shares with point i: point i-1 kept the levels it crossed, and
    // the shallower ones were kept by an earlier point of the run
    // that shares them and left alone since.
    const std::size_t resume =
        i > 0 ? sharedLevels(points[i - 1], points[i]) : 0;
    const std::size_t keep =
        i + 1 < points.size() ? sharedLevels(points[i], points[i + 1]) : 0;
    ++cacheLookups_;
    if (resume > 0)
        ++cacheHits_;
    if (obs::tracingEnabled()) {
        const std::uint64_t now = obs::Tracer::nowNs();
        obs::Tracer::global().record(obs::SpanCategory::Cache,
                                     resume > 0 ? "hit" : "miss", now,
                                     now, resume, compiled_.stateDim());
    }
    simulate(points[i], amps, resume, keep);
}

double
StatevectorCost::stateEnergy() const
{
    const cplx* amps = state_.data();
    if (diagonal_)
        return table_->expectationDiagonal(amps, diagonal_->data(),
                                           state_.size());
    // Non-diagonal Hamiltonians contract term by term through the
    // same pinned kernel table as the simulation itself.
    double energy;
    hamiltonian_.expectationBatch(&amps, 1, state_.size(), *table_,
                                  &energy);
    return energy;
}

std::size_t
StatevectorCost::maxExpectationGroup() const
{
    // A group holds one scratch statevector per point; cap the
    // footprint at 64 MiB per replica on top of the hard fan-in limit
    // of the fused kernel pass.
    constexpr std::size_t kScratchBudget = std::size_t{64} << 20;
    const std::size_t per_state = compiled_.stateDim() * sizeof(cplx);
    return std::min(kMaxExpectationGroup,
                    std::max<std::size_t>(std::size_t{1},
                                          kScratchBudget / per_state));
}

double
StatevectorCost::evaluateImpl(const std::vector<double>& params,
                              std::uint64_t /*ordinal*/)
{
    simulate(params, state_, 0, 0);
    return stateEnergy();
}

void
StatevectorCost::evaluateBatchImpl(
    std::span<const std::vector<double>> points,
    std::uint64_t /*base_ordinal*/, double* out)
{
    // Deterministic backend: ordinals are irrelevant, and a resumed
    // point replays the same kernels as a fresh one, so the batch is
    // bit-identical to evaluate(). Runs of points that differ only
    // past the deepest frontier level are additionally folded into one
    // fused expectation pass — the diagonal-table kernel for diagonal
    // Hamiltonians, the batched Pauli kernel per term otherwise (both
    // value-neutral: the per-point accumulation is unchanged).
    const std::size_t max_group = maxExpectationGroup();
    const auto& levels = compiled_.frontierLevels();
    const std::size_t suffix_level =
        levels.empty() ? compiled_.numOps() : levels.back();
    const cplx* group[kMaxExpectationGroup];
    std::size_t i = 0;
    while (i < points.size()) {
        std::size_t j = i + 1;
        while (j < points.size() && j - i < max_group &&
               compiled_.sharedPrefixLength(points[i], points[j]) >=
                   suffix_level)
            ++j;
        if (j - i < 2) {
            simulateInBatch(points, i, state_);
            out[i] = stateEnergy();
            i = j;
            continue;
        }
        if (groupScratch_.size() < j - i)
            groupScratch_.resize(j - i);
        for (std::size_t m = i; m < j; ++m) {
            simulateInBatch(points, m, groupScratch_[m - i]);
            group[m - i] = groupScratch_[m - i].data();
        }
        if (diagonal_) {
            table_->expectationDiagonalBatch(
                group, j - i, diagonal_->data(), compiled_.stateDim(),
                out + i);
            batchedDiagonalPoints_ += j - i;
        } else {
            hamiltonian_.expectationBatch(group, j - i, compiled_.stateDim(),
                                          *table_, out + i);
            batchedPauliPoints_ += j - i;
        }
        i = j;
    }
}

} // namespace oscar

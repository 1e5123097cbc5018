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
      state_(circuit_.numQubits()),
      table_(&kernels::kernelTable(kernel_.isa)),
      cache_(std::make_shared<PrefixCache>(kernel_.prefixCacheBudgetBytes))
{
    if (hamiltonian_.numQubits() != circuit_.numQubits())
        throw std::invalid_argument(
            "StatevectorCost: circuit/Hamiltonian qubit mismatch");
    if (hamiltonian_.isDiagonal())
        diagonal_ = std::make_shared<const std::vector<double>>(
            hamiltonian_.diagonalTable());
    compiled_ = CompiledCircuit(
        circuit_, kPlan,
        diagonal_ ? phaseLevelsOf(hamiltonian_, diagonal_) : nullptr);
    for (std::size_t level : compiled_.frontierLevels())
        levelParams_.push_back(compiled_.paramsUsedBefore(level));
    shapeCache();
}

StatevectorCost::StatevectorCost(const StatevectorCost& other)
    : CostFunction(other), circuit_(other.circuit_),
      compiled_(other.compiled_), levelParams_(other.levelParams_),
      hamiltonian_(other.hamiltonian_), diagonal_(other.diagonal_),
      state_(other.circuit_.numQubits()), kernel_(other.kernel_),
      table_(&kernels::kernelTable(other.kernel_.isa)),
      cache_(other.cache_)
{
}

StatevectorCost&
StatevectorCost::operator=(const StatevectorCost& other)
{
    CostFunction::operator=(other);
    circuit_ = other.circuit_;
    compiled_ = other.compiled_;
    levelParams_ = other.levelParams_;
    hamiltonian_ = other.hamiltonian_;
    diagonal_ = other.diagonal_;
    state_ = Statevector(other.circuit_.numQubits());
    kernel_ = other.kernel_;
    table_ = &kernels::kernelTable(other.kernel_.isa);
    cache_ = other.cache_;
    replay_ = {};
    cacheHits_ = 0;
    cacheLookups_ = 0;
    cacheEvictions_ = 0;
    batchedDiagonalPoints_ = 0;
    batchedPauliPoints_ = 0;
    groupScratch_.clear();
    return *this;
}

std::size_t
StatevectorCost::maxKeyWords() const
{
    std::size_t words = 0;
    for (const auto& level : levelParams_)
        words = std::max(words, level.size());
    return words;
}

void
StatevectorCost::shapeCache()
{
    cache_->configure(state_.dim(), maxKeyWords());
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
    // The cache is shared with clones, so only a genuine budget change
    // drops it (setBudget clears); reconfiguring replicas with the
    // same options must not wipe each other's checkpoints.
    if (cache_->budgetBytes() != options.prefixCacheBudgetBytes)
        cache_->setBudget(options.prefixCacheBudgetBytes);
    shapeCache();
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
    stats.cacheEvictions = cacheEvictions_;
    stats.isa = table_->isa;
    stats.blockedGroupRuns = replay_.blockedGroupRuns;
    stats.blockedOpsApplied = replay_.blockedOpsApplied;
    stats.batchedDiagonalPoints = batchedDiagonalPoints_;
    stats.fusedSuperKernels = replay_.fusedSuperKernels;
    stats.fusedOpsCollapsed = replay_.fusedOpsCollapsed;
    stats.batchedPauliPoints = batchedPauliPoints_;
    return stats;
}

const PrefixKey&
StatevectorCost::keyFor(std::size_t level_index,
                        const std::vector<double>& params)
{
    scratchKey_.depth = compiled_.frontierLevels()[level_index];
    scratchKey_.paramBits.clear();
    for (int j : levelParams_[level_index])
        scratchKey_.paramBits.push_back(
            std::bit_cast<std::uint64_t>(params[j]));
    return scratchKey_;
}

void
StatevectorCost::simulate(const std::vector<double>& params,
                          AlignedVector<cplx>& amps)
{
    const std::size_t dim = state_.dim();
    const auto& levels = compiled_.frontierLevels();
    std::size_t pos = 0;

    // A schedule that starts with a PhaseFill writes every amplitude
    // itself, so |0...0> need not be written first.
    auto reset = [&] {
        if (compiled_.startsWithFill()) {
            amps.resize(dim);
            return;
        }
        amps.assign(dim, cplx(0.0, 0.0));
        amps[0] = 1.0;
    };

    if (!kernel_.prefixCache || levels.empty()) {
        reset();
        obs::ScopedSpan span(obs::SpanCategory::Replay, "replay", 0,
                             compiled_.numOps());
        compiled_.runRange(amps.data(), dim, 0, compiled_.numOps(),
                           params.data(), *table_, &replay_);
        return;
    }
    // Resume from the deepest cached checkpoint whose prefix
    // parameters match this point bitwise; find() copies the
    // checkpoint straight into `amps` (seqlock-validated, so a copy
    // torn by a concurrent reclaim reads as a miss, never as values).
    std::size_t start_level = static_cast<std::size_t>(-1);
    bool resumed = false;
    for (std::size_t l = levels.size(); l-- > 0;) {
        ++cacheLookups_;
        if (cache_->find(keyFor(l, params), amps)) {
            ++cacheHits_;
            start_level = l;
            resumed = true;
            break;
        }
    }
    if (obs::tracingEnabled()) {
        const std::uint64_t now = obs::Tracer::nowNs();
        obs::Tracer::global().record(
            obs::SpanCategory::Cache, resumed ? "hit" : "miss", now,
            now, resumed ? start_level : levels.size(), dim);
    }
    if (resumed)
        pos = levels[start_level];
    else
        reset();
    // Replay the remaining frontier segments, dropping a checkpoint
    // at each crossed level so later points (and later batches of
    // the same sweep) can resume there.
    for (std::size_t l = start_level + 1; l < levels.size(); ++l) {
        {
            obs::ScopedSpan span(obs::SpanCategory::Replay, "segment",
                                 pos, levels[l]);
            compiled_.runRange(amps.data(), dim, pos, levels[l],
                               params.data(), *table_, &replay_);
        }
        pos = levels[l];
        if (cache_->insert(keyFor(l, params), amps).reclaimed)
            ++cacheEvictions_;
    }
    obs::ScopedSpan span(obs::SpanCategory::Replay, "tail", pos,
                         compiled_.numOps());
    compiled_.runRange(amps.data(), dim, pos, compiled_.numOps(),
                       params.data(), *table_, &replay_);
}

double
StatevectorCost::evaluatePoint(const std::vector<double>& params)
{
    simulate(params, state_.amps());
    if (diagonal_)
        return table_->expectationDiagonal(
            state_.amps().data(), diagonal_->data(), state_.dim());
    // Non-diagonal Hamiltonians contract term by term through the
    // same pinned kernel table as the simulation itself.
    return hamiltonian_.expectation(state_, *table_);
}

std::size_t
StatevectorCost::maxExpectationGroup() const
{
    // A group holds one scratch statevector per point; cap the
    // footprint at 64 MiB per replica on top of the hard fan-in limit
    // of the fused kernel pass.
    constexpr std::size_t kScratchBudget = std::size_t{64} << 20;
    const std::size_t per_state = state_.dim() * sizeof(cplx);
    return std::min(kMaxExpectationGroup,
                    std::max<std::size_t>(std::size_t{1},
                                          kScratchBudget / per_state));
}

double
StatevectorCost::evaluateImpl(const std::vector<double>& params,
                              std::uint64_t /*ordinal*/)
{
    return evaluatePoint(params);
}

void
StatevectorCost::evaluateBatchImpl(
    std::span<const std::vector<double>> points,
    std::uint64_t /*base_ordinal*/, double* out)
{
    // Deterministic backend: ordinals are irrelevant, and simulation
    // is cache-state-independent in value, so the batch is trivially
    // bit-identical to the scalar path. Consecutive points of an
    // axis-major batch resume from each other's checkpoints; runs of
    // points that differ only past the deepest checkpoint level are
    // additionally folded into one fused expectation pass — the
    // diagonal-table kernel for diagonal Hamiltonians, the batched
    // Pauli kernel per term otherwise (both value-neutral: the
    // per-point accumulation is unchanged).
    const std::size_t max_group = maxExpectationGroup();
    if (max_group < 2) {
        for (std::size_t i = 0; i < points.size(); ++i)
            out[i] = evaluatePoint(points[i]);
        return;
    }
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
            out[i] = evaluatePoint(points[i]);
            i = j;
            continue;
        }
        if (groupScratch_.size() < j - i)
            groupScratch_.resize(j - i);
        for (std::size_t m = i; m < j; ++m) {
            simulate(points[m], groupScratch_[m - i]);
            group[m - i] = groupScratch_[m - i].data();
        }
        if (diagonal_) {
            table_->expectationDiagonalBatch(
                group, j - i, diagonal_->data(), state_.dim(), out + i);
            batchedDiagonalPoints_ += j - i;
        } else {
            hamiltonian_.expectationBatch(group, j - i, state_.dim(),
                                          *table_, out + i);
            batchedPauliPoints_ += j - i;
        }
        i = j;
    }
}

} // namespace oscar

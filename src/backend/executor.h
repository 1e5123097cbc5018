/**
 * @file
 * The cost-function abstraction shared by every execution substrate.
 *
 * In the paper's workflow a "circuit execution" turns circuit
 * parameters into an expected cost value; everything downstream
 * (grid search, OSCAR sampling, optimizers) only consumes this
 * interface. Each evaluation is counted, because query counts are
 * themselves a headline metric (Table 6).
 *
 * Evaluations are submitted either one point at a time (`evaluate`) or
 * as a batch (`evaluateBatch`); the ExecutionEngine (engine.h) fans
 * batches out across worker threads. Two invariants make that safe and
 * reproducible:
 *
 *  - Query counting is atomic and batch-aware: a batch of n points
 *    counts n queries with a single atomic add.
 *  - Every evaluation carries an *ordinal*: its 0-based position in
 *    submission order. Stochastic backends derive all randomness from
 *    (seed, ordinal) via mixSeed, so a batch produces bit-identical
 *    values no matter how many threads execute it, and matches the
 *    scalar path point for point.
 */

#ifndef OSCAR_BACKEND_EXECUTOR_H
#define OSCAR_BACKEND_EXECUTOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/quantum/kernels.h"

namespace oscar {

class ExecutionEngine;
struct EngineBatch;

/**
 * Runtime settings of the kernel layer of the statevector backend
 * (statevector_backend.h): the kernel ISA, nothing else. Plumbed
 * through the Oscar pipelines via OscarOptions::kernel. The replay plan
 * (blocking and super-kernel fusion) is not among them: the backend
 * compiles its one plan at construction; nor is prefix reuse, which a
 * batch always does and which never changes values.
 */
struct KernelOptions
{
    /**
     * Kernel instruction set. Auto resolves once at startup via CPUID
     * to the widest tier the CPU runs (AVX-512, then AVX2+FMA, then
     * scalar); force Scalar in determinism-sensitive
     * comparisons against reference values computed with the portable
     * kernels. Results are bit-identical across batching/threading for
     * any fixed ISA, but differ between ISAs by rounding.
     */
    kernels::KernelIsa isa = kernels::KernelIsa::Auto;
};

/**
 * Kernel-layer effectiveness counters of one evaluator. Aggregated per
 * batch by the ExecutionEngine (BatchHandle::stats) and per pipeline
 * run in OscarResult, so prefix reuse is observable without a
 * debugger. Only what is decided at run time is counted here; what a
 * replay plan executes (blocked runs, fused units) is fixed when it is
 * compiled and read from the plan (StatevectorCost::compiled()).
 */
struct KernelStats
{
    /**
     * Prefix reuse: for StatevectorCost, batch points resumed from the
     * previous point's state (hits) out of batch points with a
     * frontier level (lookups); for AnalyticQaoaCost, gamma-memo hits
     * out of evaluations.
     */
    std::size_t cacheHits = 0;
    std::size_t cacheLookups = 0;

    /**
     * Widest kernel ISA that executed (Scalar for backends without a
     * kernel layer). Aggregation keeps the maximum, so a mix of
     * evaluators reports the widest ISA that participated.
     */
    kernels::KernelIsa isa = kernels::KernelIsa::Scalar;

    /**
     * Points whose diagonal (or closed-form) expectation came from a
     * fused batched pass.
     */
    std::size_t batchedDiagonalPoints = 0;

    /** Points whose non-diagonal (Pauli) expectation was batched. */
    std::size_t batchedPauliPoints = 0;

    KernelStats&
    operator+=(const KernelStats& other)
    {
        cacheHits += other.cacheHits;
        cacheLookups += other.cacheLookups;
        isa = std::max(isa, other.isa);
        batchedDiagonalPoints += other.batchedDiagonalPoints;
        batchedPauliPoints += other.batchedPauliPoints;
        return *this;
    }

    /** Counter delta (used to attribute one batch's traffic). */
    friend KernelStats
    operator-(KernelStats a, const KernelStats& b)
    {
        a.cacheHits -= b.cacheHits;
        a.cacheLookups -= b.cacheLookups;
        a.batchedDiagonalPoints -= b.batchedDiagonalPoints;
        a.batchedPauliPoints -= b.batchedPauliPoints;
        return a;
    }
};

/** Abstract VQA cost evaluator: circuit parameters -> expected cost. */
class CostFunction
{
  public:
    virtual ~CostFunction() = default;

    /** Dimension of the parameter vector. */
    virtual int numParams() const = 0;

    /** Evaluate the expected cost; increments the query counter. */
    double evaluate(const std::vector<double>& params);

    /**
     * Evaluate a batch of points; counts points.size() queries.
     *
     * The default implementation loops over evaluateImpl with
     * consecutive ordinals; backends may override evaluateBatchImpl
     * with backend-specific batching. Results are positional:
     * result[i] corresponds to points[i].
     */
    std::vector<double>
    evaluateBatch(const std::vector<std::vector<double>>& points);

    /**
     * Independent copy for a worker thread, or nullptr if this
     * evaluator cannot be replicated (the engine then falls back to
     * serial batch execution). Clones share no mutable state; the
     * engine drives them with explicit ordinals so stochastic clones
     * reproduce the parent's streams.
     */
    virtual std::unique_ptr<CostFunction>
    clone() const
    {
        return nullptr;
    }

    /**
     * Apply kernel-layer settings (the kernel ISA). Backends without a
     * kernel layer ignore it; wrappers should forward to their inner
     * evaluator.
     */
    virtual void
    configureKernel(const KernelOptions& /*options*/)
    {
    }

    /**
     * Cumulative kernel-layer counters since construction. Backends
     * without a kernel layer report zeros; the engine
     * publishes per-batch deltas through BatchHandle::stats().
     */
    virtual KernelStats
    kernelStats() const
    {
        return {};
    }

    /**
     * Preferred batch ordering: parameter indices from slowest- to
     * fastest-varying, or empty for no preference. Backends that
     * resume a batch point from the previous one's circuit prefix
     * return their parameters ordered by first use in the schedule;
     * samplers sort grid batches accordingly (axis-major) so nearby
     * points share the longest possible simulation prefix.
     */
    virtual std::vector<int>
    batchOrderHint() const
    {
        return {};
    }

    /** Number of evaluations since construction / reset. */
    std::size_t
    numQueries() const
    {
        return queries_.load(std::memory_order_relaxed);
    }

    /** Reset the query counter and the ordinal stream. */
    void
    resetQueries()
    {
        queries_.store(0, std::memory_order_relaxed);
        ordinal_.store(0, std::memory_order_relaxed);
    }

  protected:
    CostFunction() = default;

    /** Copies counter snapshots; clones get independent counters. */
    CostFunction(const CostFunction& other)
        : queries_(other.numQueries()),
          ordinal_(other.ordinal_.load(std::memory_order_relaxed))
    {
    }

    CostFunction&
    operator=(const CostFunction& other)
    {
        queries_.store(other.numQueries(), std::memory_order_relaxed);
        ordinal_.store(other.ordinal_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
        return *this;
    }

    /**
     * Scalar evaluation. `ordinal` is the deterministic stream key of
     * this evaluation (0-based submission order). Deterministic
     * backends ignore it; stochastic backends must derive all their
     * randomness from it (typically `Rng(mixSeed(seed, ordinal))`) so
     * that results do not depend on threading or batching.
     */
    virtual double evaluateImpl(const std::vector<double>& params,
                                std::uint64_t ordinal) = 0;

    /**
     * Batch hook: evaluate points[i] with ordinal base_ordinal + i and
     * write to out[i]. Default loops over evaluateImpl; backends with a
     * cheaper batched path override this. Parameter sizes are already
     * validated. Taking a span lets the engine hand replicas
     * zero-copy slices of one materialized batch.
     */
    virtual void
    evaluateBatchImpl(std::span<const std::vector<double>> points,
                      std::uint64_t base_ordinal, double* out);

    /**
     * Keyed evaluation of *another* cost function, for wrappers (ZNE,
     * shot noise, damping, ...): validates, counts one query on `f`,
     * and runs f.evaluateImpl with the given ordinal. Wrappers must
     * route inner calls through this (with an ordinal derived from
     * their own) instead of f.evaluate(), otherwise inner streams
     * would depend on execution order.
     */
    static double invokeAt(CostFunction& f,
                           const std::vector<double>& params,
                           std::uint64_t ordinal);

    /** Throw unless params.size() == numParams(). */
    void checkParams(const std::vector<double>& params) const;

  private:
    friend class ExecutionEngine;
    friend struct EngineBatch;

    /** Count n queries and reserve n consecutive ordinals. */
    std::uint64_t
    reserve(std::size_t n)
    {
        queries_.fetch_add(n, std::memory_order_relaxed);
        return ordinal_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Un-count queries for reserved points that were cancelled before
     * execution. Ordinals are deliberately NOT returned: the cancelled
     * points' stream keys stay consumed, so every later evaluation's
     * randomness is independent of when (or whether) a cancel landed.
     */
    void
    refundQueries(std::size_t n)
    {
        queries_.fetch_sub(n, std::memory_order_relaxed);
    }

    std::atomic<std::size_t> queries_{0};
    std::atomic<std::uint64_t> ordinal_{0};
};

/** Wrap a plain callable as a CostFunction (used by tests/optimizers). */
class LambdaCost : public CostFunction
{
  public:
    using Fn = std::function<double(const std::vector<double>&)>;

    /**
     * @param thread_safe pass true when `fn` is pure / re-entrant;
     *        enables clone() and therefore engine parallelism.
     */
    LambdaCost(int num_params, Fn fn, bool thread_safe = false)
        : numParams_(num_params), fn_(std::move(fn)),
          threadSafe_(thread_safe)
    {
    }

    int numParams() const override { return numParams_; }

    std::unique_ptr<CostFunction>
    clone() const override
    {
        if (!threadSafe_)
            return nullptr;
        return std::make_unique<LambdaCost>(*this);
    }

  protected:
    double
    evaluateImpl(const std::vector<double>& params, std::uint64_t) override
    {
        return fn_(params);
    }

  private:
    int numParams_;
    Fn fn_;
    bool threadSafe_;
};

/**
 * Decorator adding finite-shot sampling noise to an exact evaluator.
 *
 * The estimator of an expected cost from S shots is unbiased with
 * standard deviation sigma_1 / sqrt(S), where sigma_1 is the
 * single-shot cost standard deviation. We model the estimator as
 * exact + Gaussian(0, sigma_1/sqrt(S)); sigma_1 is configurable (the
 * true value depends on the observable's spectral range). The noise
 * draw is keyed by evaluation ordinal, so batched and threaded runs
 * reproduce the scalar stream.
 */
class ShotNoiseCost : public CostFunction
{
  public:
    ShotNoiseCost(std::shared_ptr<CostFunction> inner, std::size_t shots,
                  double sigma_single_shot, std::uint64_t seed);

    int numParams() const override { return inner_->numParams(); }

    std::unique_ptr<CostFunction> clone() const override;

    /**
     * Forward kernel tuning to the wrapped evaluator. The batch order
     * hint is deliberately NOT forwarded: reordering would re-key the
     * ordinal-derived noise stream, so the wrapper keeps the caller's
     * submission order stable instead.
     */
    void
    configureKernel(const KernelOptions& options) override
    {
        inner_->configureKernel(options);
    }

    /** Cache observability passes through to the wrapped evaluator. */
    KernelStats
    kernelStats() const override
    {
        return inner_->kernelStats();
    }

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

  private:
    std::shared_ptr<CostFunction> inner_;
    std::size_t shots_;
    double sigma1_;
    std::uint64_t seed_;
};

} // namespace oscar

#endif // OSCAR_BACKEND_EXECUTOR_H

/**
 * @file
 * Asynchronous, thread-parallel execution of cost-function batches.
 *
 * OSCAR's samples are independent by construction (paper Fig. 7A), so
 * the hottest path of the whole system -- turning a list of parameter
 * points into a list of cost values -- is embarrassingly parallel.
 * The ExecutionEngine owns a pool of worker threads and a FIFO task
 * queue of submitted batches; workers fan each batch out in contiguous
 * chunks.
 *
 * The submission API is asynchronous: submit() returns a BatchHandle
 * immediately, so callers can keep several batches in flight and do
 * other work (NCM fitting, scheduling) while circuits execute. The
 * synchronous evaluate() is submit(...).get(); map() runs plain
 * per-index work, such as the FISTA solve's row and lane blocks.
 *
 * Determinism contract (unchanged from the synchronous engine):
 * evaluation i of a batch always runs with ordinal base + i, where
 * base is reserved at *submission* time in submission order (see
 * executor.h). Which worker executes a chunk, when it executes, and
 * how many batches are in flight can therefore never change a value:
 * results are bit-identical for 1 or N threads and for any completion
 * order. Cancellation skips not-yet-started work but never returns
 * ordinals, so later evaluations are also independent of cancel
 * timing.
 *
 * Parallel execution requires the cost function to be replicable
 * (CostFunction::clone() != nullptr); otherwise the batch degrades
 * gracefully to deferred inline execution on the waiting thread. The
 * inline path still goes through CostFunction::evaluateBatchImpl, so
 * backend-specific batch overrides apply either way.
 */

#ifndef OSCAR_BACKEND_ENGINE_H
#define OSCAR_BACKEND_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/backend/executor.h"

namespace oscar {

/**
 * A cost function returned a NaN or infinite value. The engine fails
 * the batch with this error (BatchHandle::get rethrows it), streams
 * none of the failing chunk's values to onComplete, and counts each
 * such point under the registry's `engine.points.nonfinite`. So a
 * non-finite sample never reaches a solve, a reply or the store.
 */
class NonFiniteValueError : public std::runtime_error
{
  public:
    NonFiniteValueError(std::size_t index, double value);

    /** Batch index of the first non-finite value of its chunk. */
    std::size_t index() const { return index_; }

    double value() const { return value_; }

  private:
    std::size_t index_;
    double value_;
};

struct EngineBatch; // shared state of one submitted batch (engine.cpp)

/**
 * Fewest points per chunk: a batch or map is cut into at most
 * count / kMinPointsPerThread chunks, and one with fewer than two
 * chunks' worth runs inline on the waiting thread (thread hand-off
 * costs more than it saves).
 */
inline constexpr std::size_t kMinPointsPerThread = 4;

/**
 * Progress / effectiveness counters of one submitted batch. When the
 * batch finishes (completed or cancelled), these totals are added
 * once to the process-wide obs::Registry
 * (`engine.points.completed` / `.cancelled`, `engine.cache.*`).
 */
struct BatchStats
{
    /** Points in the batch as submitted. */
    std::size_t pointsTotal = 0;

    /** Points whose values were produced. */
    std::size_t pointsCompleted = 0;

    /** Points skipped by cancel() (queries refunded). */
    std::size_t pointsCancelled = 0;

    /** Kernel-layer counters (prefix reuse) attributed to this batch. */
    KernelStats kernel;

    BatchStats&
    operator+=(const BatchStats& other)
    {
        pointsTotal += other.pointsTotal;
        pointsCompleted += other.pointsCompleted;
        pointsCancelled += other.pointsCancelled;
        kernel += other.kernel;
        return *this;
    }
};

/** Per-submission options. */
struct SubmitOptions
{
    /**
     * Streaming completion callback: invoked once per completed point
     * with (index within the batch, value), as each worker chunk
     * finishes. Calls are serialized (never concurrent) but may come
     * from any worker thread and in any chunk order; within a chunk,
     * points are reported in submission order. The callback must not
     * block on the batch's own handle. A throwing callback fails the
     * batch -- get() rethrows the exception -- but never takes down a
     * worker or leaves the handle unfinished; the chunk's values are
     * still computed and charged.
     */
    std::function<void(std::size_t index, double value)> onComplete;

    /**
     * Hand even small batches to the worker pool instead of deferring
     * them to the waiting thread. Used by speculative submitters (the
     * optimizer's reflection/expansion/contraction probes): the batch
     * starts executing before anyone waits on it, at the price of a
     * replica clone and a thread hand-off. Requires a replicable cost;
     * ignored on serial engines.
     */
    bool eager = false;
};

class ExecutionEngine;

/**
 * Future-like handle to a submitted batch.
 *
 * Handles share state with the engine and stay valid after the engine
 * is destroyed (destruction cancels still-queued work first). The cost
 * function, by contrast, must outlive the batch: it is evaluated from
 * worker threads until wait()/get() returns or the engine dies.
 * Every method is safe to call from any thread, get() may be called
 * repeatedly, and after wait() returns all streaming callbacks have
 * completed.
 */
class BatchHandle
{
  public:
    /** Invalid handle; every accessor below requires valid(). */
    BatchHandle() = default;

    bool valid() const { return state_ != nullptr; }

    /** True once every point is either completed or cancelled. */
    bool done() const;

    /**
     * Block until done(). The waiting thread helps: it executes
     * not-yet-claimed chunks of this batch itself (this is also how
     * serial engines and non-replicable cost functions execute at
     * all). Never throws batch errors -- see get().
     */
    void wait();

    /**
     * wait(), then return the values (result[i] corresponds to
     * points[i]). Rethrows the first worker exception if any chunk
     * failed; throws std::runtime_error if points were cancelled.
     * May be called repeatedly.
     */
    std::vector<double> get();

    /**
     * Best-effort cancel: chunks not yet claimed by a worker are
     * skipped and their queries refunded to the cost function
     * (ordinals stay consumed -- see CostFunction::refundQueries).
     * In-flight chunks still complete and are charged. Returns true
     * if any point was skipped.
     */
    bool cancel();

    /** Progress and kernel-cache counters (safe to poll anytime). */
    BatchStats stats() const;

  private:
    friend class ExecutionEngine;

    explicit BatchHandle(std::shared_ptr<EngineBatch> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<EngineBatch> state_;
};

/** Thread-pooled asynchronous batch evaluator for CostFunctions. */
class ExecutionEngine
{
  public:
    /**
     * Engine with `num_threads` threads. Thread-count convention
     * (shared with OscarOptions::numThreads): 0 = hardware
     * concurrency, 1 = serial, k > 1 = exactly k threads (the
     * submitting thread counts as one and participates in waits).
     * The default everywhere is 0 -- use what the hardware offers; ask
     * for 1 explicitly when serial execution is wanted. Results are
     * bit-identical for every value by the determinism contract above.
     */
    explicit ExecutionEngine(int num_threads = 0);

    /**
     * Cancels still-queued batches (refunding their queries), lets
     * in-flight chunks finish, and joins the workers. Outstanding
     * handles remain valid: wait() returns, get() reports the
     * cancellation. Never blocks on external waiters.
     */
    ~ExecutionEngine();

    ExecutionEngine(const ExecutionEngine&) = delete;
    ExecutionEngine& operator=(const ExecutionEngine&) = delete;

    /** Worker threads available (1 when serial). */
    int numThreads() const;

    /** The thread count `requested` resolves to (0 -> hardware). */
    static int resolveThreads(int requested);

    /**
     * Submit a batch for asynchronous execution; result[i] of
     * BatchHandle::get() corresponds to points[i]. Queries and
     * ordinals are reserved here, in submission order, which is what
     * keeps concurrent batches deterministic. Throws on malformed
     * points before anything is counted.
     */
    BatchHandle submit(CostFunction& cost,
                       std::vector<std::vector<double>> points,
                       SubmitOptions options = {});

    /** Produces the i-th parameter point of a generated batch. */
    using PointFn = std::function<std::vector<double>(std::size_t)>;

    /** submit() over points materialized from `point_at(i)`. */
    BatchHandle submitGenerated(CostFunction& cost, std::size_t count,
                                const PointFn& point_at,
                                SubmitOptions options = {});

    /**
     * Evaluate a batch of parameter points synchronously:
     * submit(...).get(). Queries are credited to `cost` exactly once
     * per point.
     */
    std::vector<double>
    evaluate(CostFunction& cost,
             const std::vector<std::vector<double>>& points);

    /** Synchronous submitGenerated. */
    std::vector<double> evaluateGenerated(CostFunction& cost,
                                          std::size_t count,
                                          const PointFn& point_at);

    /**
     * Parallel map without a cost function: out[i] = fn(i). Used for
     * batched landscape lookups (dataset replay) and other per-index
     * work. `fn` must be safe to call concurrently.
     */
    std::vector<double>
    map(std::size_t count,
        const std::function<double(std::size_t)>& fn);

    /**
     * A process-wide serial engine, for call sites that accept an
     * optional engine: `engineOr(ptr)` never returns null.
     */
    static ExecutionEngine& serial();

    static ExecutionEngine&
    engineOr(ExecutionEngine* engine)
    {
        return engine ? *engine : serial();
    }

  private:
    friend class BatchHandle;
    friend struct EngineBatch; ///< chunk layout + worker bridges

    struct Chunk
    {
        std::size_t lo;
        std::size_t hi;
    };

    /** Split [0, count) into per-worker chunks; empty = run inline. */
    std::vector<Chunk> planChunks(std::size_t count) const;

    /** Build the shared batch state; enqueue unless inline-only. */
    BatchHandle submitBatch(CostFunction* cost,
                            std::vector<std::vector<double>> points,
                            std::function<double(std::size_t)> map_fn,
                            std::size_t count, SubmitOptions options);

    // -- worker pool -------------------------------------------------
    void workerLoop();

    std::vector<std::thread> workers_;

    std::mutex mutex_; ///< guards queue_ and stop_
    std::condition_variable wake_;
    std::deque<std::shared_ptr<EngineBatch>> queue_;
    bool stop_ = false;
};

} // namespace oscar

#endif // OSCAR_BACKEND_ENGINE_H

#include "src/backend/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oscar {

NonFiniteValueError::NonFiniteValueError(std::size_t index, double value)
    : std::runtime_error("ExecutionEngine: cost function returned " +
                         std::to_string(value) + " at batch index " +
                         std::to_string(index)),
      index_(index), value_(value)
{
}

namespace {

/**
 * Throw NonFiniteValueError for the first non-finite value of
 * out[lo, hi), after counting every such value once.
 */
void
rejectNonFinite(const std::vector<double>& out, std::size_t lo,
                std::size_t hi)
{
    std::size_t bad = 0;
    std::size_t first = hi;
    for (std::size_t i = lo; i < hi; ++i) {
        if (!std::isfinite(out[i])) {
            first = std::min(first, i);
            ++bad;
        }
    }
    if (bad == 0)
        return;
    static obs::Counter& nonfinite =
        obs::Registry::global().counter("engine.points.nonfinite");
    nonfinite.add(bad);
    throw NonFiniteValueError(first, out[first]);
}

} // namespace

/**
 * Shared state of one submitted batch. Handles, queued workers, and
 * waiting threads all hold shared_ptrs, so the state outlives the
 * engine and any of its consumers individually.
 *
 * Chunk claiming linearizes on the atomic `nextChunk`: workers and
 * waiting threads fetch_add to claim, cancel() exchanges the counter
 * to the end to claim (and skip) everything unstarted. Claimed chunk
 * indices are therefore disjoint across all participants, which is
 * what makes results, query counts, and callbacks race-free.
 */
struct EngineBatch
{
    // -- immutable after submit -------------------------------------
    std::vector<std::vector<double>> points;
    std::function<double(std::size_t)> mapFn; ///< map mode when set
    CostFunction* cost = nullptr;             ///< null in map mode
    /** Per-chunk replicas; empty = evaluate `cost` itself. */
    std::vector<std::unique_ptr<CostFunction>> replicas;
    std::vector<ExecutionEngine::Chunk> chunks;
    std::uint64_t baseOrdinal = 0;
    SubmitOptions options;
    /** Submission timestamp; feeds the batch-latency histogram. */
    std::uint64_t submittedNs = 0;

    /** Next chunk index to claim (may overshoot chunks.size()). */
    std::atomic<std::size_t> nextChunk{0};

    mutable std::mutex m; ///< guards the progress state below
    std::condition_variable cv;
    std::size_t chunksAccounted = 0; ///< executed or skipped
    bool finished = false;
    std::exception_ptr error;
    std::vector<double> out;
    BatchStats progress;

    /** Serializes onComplete invocations (never held with `m`). */
    std::mutex callbackMutex;

    // -- handle operations --------------------------------------------

    bool
    done() const
    {
        std::lock_guard<std::mutex> lock(m);
        return finished;
    }

    void
    wait()
    {
        // Help: claim and execute chunks this thread can take. This
        // is also the only execution path for inline batches (serial
        // engine, non-replicable cost), which are never enqueued.
        const std::size_t total = chunks.size();
        for (;;) {
            const std::size_t c = nextChunk.fetch_add(1);
            if (c >= total)
                break;
            runChunk(c);
        }
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return finished; });
    }

    std::vector<double>
    get()
    {
        wait();
        std::lock_guard<std::mutex> lock(m);
        if (error)
            std::rethrow_exception(error);
        if (progress.pointsCancelled > 0)
            throw std::runtime_error(
                "BatchHandle::get: batch was cancelled");
        return out;
    }

    bool
    cancel()
    {
        const std::size_t total = chunks.size();
        // Claim everything unstarted in one shot; claims already
        // handed to workers (indices < claimed) still run to
        // completion.
        std::size_t claimed = nextChunk.exchange(total);
        claimed = std::min(claimed, total);
        if (claimed >= total)
            return false;
        std::size_t skipped = 0;
        for (std::size_t c = claimed; c < total; ++c)
            skipped += chunks[c].hi - chunks[c].lo;
        if (cost)
            cost->refundQueries(skipped);
        std::lock_guard<std::mutex> lock(m);
        progress.pointsCancelled += skipped;
        chunksAccounted += total - claimed;
        if (chunksAccounted == total)
            finish();
        return true;
    }

    /**
     * Retire the batch; the caller holds `m`. Every batch ends here
     * exactly once (its last chunk, cancel(), or an empty submit), so
     * the engine's registry totals are the sum of every batch's
     * stats() by construction.
     */
    void
    finish()
    {
        static obs::Registry& registry = obs::Registry::global();
        static obs::Counter& completed =
            registry.counter("engine.points.completed");
        static obs::Counter& cancelled =
            registry.counter("engine.points.cancelled");
        static obs::Counter& cache_hits =
            registry.counter("engine.cache.hits");
        static obs::Counter& cache_lookups =
            registry.counter("engine.cache.lookups");
        static obs::Histogram& latency =
            registry.histogram("engine.batch.latency.ns");
        completed.add(progress.pointsCompleted);
        cancelled.add(progress.pointsCancelled);
        cache_hits.add(progress.kernel.cacheHits);
        cache_lookups.add(progress.kernel.cacheLookups);
        latency.observe(obs::Tracer::nowNs() - submittedNs);
        finished = true;
        cv.notify_all();
    }

    BatchStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(m);
        return progress;
    }

    /** Execute chunk c (worker or waiting thread). */
    void
    runChunk(std::size_t c)
    {
        const ExecutionEngine::Chunk chunk = chunks[c];
        const std::size_t n = chunk.hi - chunk.lo;
        obs::ScopedSpan span(obs::SpanCategory::Engine, "chunk", c, n);
        std::exception_ptr failure;
        KernelStats delta;
        try {
            if (mapFn) {
                for (std::size_t i = chunk.lo; i < chunk.hi; ++i)
                    out[i] = mapFn(i);
            } else {
                CostFunction* evaluator =
                    replicas.empty() ? cost : replicas[c].get();
                const KernelStats before = evaluator->kernelStats();
                evaluator->evaluateBatchImpl(
                    std::span<const std::vector<double>>(points).subspan(
                        chunk.lo, n),
                    baseOrdinal + chunk.lo, out.data() + chunk.lo);
                delta = evaluator->kernelStats() - before;
                rejectNonFinite(out, chunk.lo, chunk.hi);
            }
        } catch (...) {
            failure = std::current_exception();
        }

        // Stream completions before accounting, so that once done()
        // flips every callback has already returned. A throwing
        // callback must not escape (it would terminate a worker
        // thread, or leave the batch unfinished on the waiter-help
        // path); it fails the batch like an evaluation error, though
        // the values themselves stand.
        std::exception_ptr callback_failure;
        if (!failure && options.onComplete) {
            std::lock_guard<std::mutex> lock(callbackMutex);
            try {
                for (std::size_t i = chunk.lo; i < chunk.hi; ++i)
                    options.onComplete(i, out[i]);
            } catch (...) {
                callback_failure = std::current_exception();
            }
        }

        std::lock_guard<std::mutex> lock(m);
        if (failure) {
            if (!error)
                error = failure;
        } else {
            progress.pointsCompleted += n;
            progress.kernel += delta;
            if (callback_failure && !error)
                error = callback_failure;
        }
        if (++chunksAccounted == chunks.size())
            finish();
    }
};

// ------------------------------------------------------------ handle

bool
BatchHandle::done() const
{
    return state_->done();
}

void
BatchHandle::wait()
{
    state_->wait();
}

std::vector<double>
BatchHandle::get()
{
    return state_->get();
}

bool
BatchHandle::cancel()
{
    return state_->cancel();
}

BatchStats
BatchHandle::stats() const
{
    return state_->stats();
}

// ------------------------------------------------------------ engine

int
ExecutionEngine::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ExecutionEngine::ExecutionEngine(int num_threads)
{
    // Resolve OSCAR_TRACE / OSCAR_TRACE_BUFFER_KB once, fail-fast (a
    // malformed toggle throws here, not on the first recorded span).
    obs::applyEnv();

    // Threads spawn last: everything above may throw, and unwinding
    // with joinable workers would terminate. The submitting thread
    // participates in every wait, so spawn one fewer worker than the
    // requested parallelism.
    const int threads = resolveThreads(num_threads);
    for (int t = 1; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ExecutionEngine::~ExecutionEngine()
{
    std::deque<std::shared_ptr<EngineBatch>> leftover;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        leftover.swap(queue_);
    }
    wake_.notify_all();
    for (std::thread& w : workers_)
        w.join();
    // Retire whatever the workers had not claimed: outstanding handles
    // see a finished (cancelled) batch instead of hanging forever.
    for (const auto& batch : leftover)
        batch->cancel();
}

int
ExecutionEngine::numThreads() const
{
    return static_cast<int>(workers_.size()) + 1;
}

ExecutionEngine&
ExecutionEngine::serial()
{
    static ExecutionEngine engine(1);
    return engine;
}

std::vector<ExecutionEngine::Chunk>
ExecutionEngine::planChunks(std::size_t count) const
{
    const std::size_t threads = workers_.size() + 1;
    if (threads <= 1 || count < 2 * kMinPointsPerThread)
        return {};
    const std::size_t n = std::min(threads, count / kMinPointsPerThread);
    std::vector<Chunk> chunks;
    chunks.reserve(n);
    const std::size_t base = count / n;
    const std::size_t rem = count % n;
    std::size_t lo = 0;
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t size = base + (c < rem ? 1 : 0);
        chunks.push_back({lo, lo + size});
        lo += size;
    }
    return chunks;
}

void
ExecutionEngine::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_)
            return;
        std::shared_ptr<EngineBatch> batch = queue_.front();
        const std::size_t total = batch->chunks.size();
        const std::size_t c = batch->nextChunk.fetch_add(1);
        if (c >= total) {
            // Fully claimed (possibly by a helping waiter or cancel):
            // retire it from the queue and look at the next batch.
            queue_.pop_front();
            continue;
        }
        if (c + 1 == total)
            queue_.pop_front(); // nothing left for anyone else to claim
        lock.unlock();
        batch->runChunk(c);
        batch.reset();
        lock.lock();
    }
}

BatchHandle
ExecutionEngine::submitBatch(CostFunction* cost,
                             std::vector<std::vector<double>> points,
                             std::function<double(std::size_t)> map_fn,
                             std::size_t count, SubmitOptions options)
{
    // Validate every point before counting anything, exactly like the
    // scalar path, so query/ordinal accounting cannot diverge by
    // thread count or batch outcome.
    if (cost) {
        for (const auto& p : points)
            cost->checkParams(p);
    }

    auto batch = std::make_shared<EngineBatch>();
    batch->points = std::move(points);
    batch->mapFn = std::move(map_fn);
    batch->cost = cost;
    batch->options = std::move(options);
    batch->submittedNs = obs::Tracer::nowNs();
    batch->out.resize(count);
    batch->progress.pointsTotal = count;

    if (count == 0) {
        std::lock_guard<std::mutex> lock(batch->m);
        batch->finish();
        return BatchHandle(std::move(batch));
    }

    std::vector<Chunk> chunks = planChunks(count);
    if (chunks.empty() && batch->options.eager && !workers_.empty())
        chunks = {Chunk{0, count}};
    bool enqueue = !workers_.empty() && !chunks.empty();
    if (cost) {
        if (enqueue) {
            // One replica per chunk; a non-replicable cost degrades to
            // deferred inline execution on the waiting thread.
            std::unique_ptr<CostFunction> proto = cost->clone();
            if (!proto) {
                enqueue = false;
            } else {
                batch->replicas.reserve(chunks.size());
                batch->replicas.push_back(std::move(proto));
                for (std::size_t c = 1; c < chunks.size(); ++c) {
                    auto replica = cost->clone();
                    if (!replica)
                        throw std::runtime_error(
                            "ExecutionEngine: clone() became unavailable "
                            "mid-batch");
                    batch->replicas.push_back(std::move(replica));
                }
            }
        }
        batch->baseOrdinal = cost->reserve(count);
    }

    if (enqueue)
        batch->chunks = std::move(chunks);
    else
        batch->chunks = {Chunk{0, count}};

    BatchHandle handle(batch);
    if (enqueue) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(batch));
        }
        wake_.notify_all();
    }
    return handle;
}

BatchHandle
ExecutionEngine::submit(CostFunction& cost,
                        std::vector<std::vector<double>> points,
                        SubmitOptions options)
{
    const std::size_t count = points.size();
    return submitBatch(&cost, std::move(points), nullptr, count,
                       std::move(options));
}

BatchHandle
ExecutionEngine::submitGenerated(CostFunction& cost, std::size_t count,
                                 const PointFn& point_at,
                                 SubmitOptions options)
{
    std::vector<std::vector<double>> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        points.push_back(point_at(i));
    return submit(cost, std::move(points), std::move(options));
}

std::vector<double>
ExecutionEngine::evaluate(CostFunction& cost,
                          const std::vector<std::vector<double>>& points)
{
    if (points.empty())
        return {};
    return submit(cost, points).get();
}

std::vector<double>
ExecutionEngine::evaluateGenerated(CostFunction& cost, std::size_t count,
                                   const PointFn& point_at)
{
    return submitGenerated(cost, count, point_at).get();
}

std::vector<double>
ExecutionEngine::map(std::size_t count,
                     const std::function<double(std::size_t)>& fn)
{
    if (count == 0)
        return {};
    return submitBatch(nullptr, {}, fn, count, {}).get();
}

} // namespace oscar

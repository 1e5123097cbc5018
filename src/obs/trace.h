/**
 * @file
 * Lock-free span tracing: the tracing half of the observability
 * subsystem (src/obs/).
 *
 * Every instrumented site records *spans* -- named, categorized
 * [begin, end) intervals with up to two integer arguments -- into a
 * fixed-slot ring buffer owned by the recording thread. The hot path
 * takes no mutex and performs no allocation: one relaxed head
 * increment plus a per-slot seqlock publication (odd while a write is
 * in progress, even when stable), so a concurrent collector can
 * snapshot the buffers without ever observing a torn record and
 * without stopping writers. When the ring wraps, the oldest spans are
 * overwritten first (drop-oldest); nothing blocks.
 *
 * Tracing is off by default. When disabled, an instrumented site costs
 * one relaxed atomic load and nothing else -- no clock read, no
 * buffer, no allocation. Enable it programmatically (setTracing) or
 * with OSCAR_TRACE=1 (applied by applyEnv(), which the execution
 * engine and the daemons call at startup; malformed values throw
 * instead of silently not tracing).
 *
 * exportChromeTrace() emits the collected spans as one
 * chrome://tracing JSON, each recording thread on its own tid.
 * Timestamps are raw CLOCK_MONOTONIC nanoseconds.
 *
 * This header depends only on the standard library (no project
 * headers), so every layer -- wire codec included -- can instrument
 * itself without include cycles.
 */

#ifndef OSCAR_OBS_TRACE_H
#define OSCAR_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oscar {
namespace obs {

/** Span categories (the "cat" field of the Chrome trace). */
enum class SpanCategory : std::uint8_t
{
    Engine = 0, ///< engine batches and chunks
    Replay = 1, ///< compiled-circuit replay segments
    Cache = 2,  ///< batch points resumed (hit) or replayed fresh (miss)
    Wire = 4,   ///< frame encode / decode
    Store = 5,  ///< landscape-store get / put
    Serve = 6,  ///< serve job lifecycle
};

/** Printable name of a category ("engine", "wire", ...). */
const char* spanCategoryName(SpanCategory cat);

/** Max chars of a span name stored in a slot (excluding the NUL). */
constexpr std::size_t kSpanNameChars = 15;

/** One collected span. */
struct SpanRecord
{
    std::uint64_t t0Ns = 0;  ///< CLOCK_MONOTONIC begin, nanoseconds
    std::uint64_t durNs = 0; ///< duration, nanoseconds
    SpanCategory category = SpanCategory::Engine;
    char name[kSpanNameChars + 1] = {0};
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    /** Recording process (getpid of the recorder). */
    std::int32_t pid = 0;
    /** Recording thread, unique within its process. */
    std::uint32_t tid = 0;
};

// ---------------------------------------------------------------------
// Enable flag
// ---------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_tracingEnabled;
} // namespace detail

/** Is span recording on? One relaxed load: safe on any hot path. */
inline bool
tracingEnabled()
{
    return detail::g_tracingEnabled.load(std::memory_order_relaxed);
}

void setTracing(bool enabled);

/**
 * Resolve OSCAR_TRACE: unset -> `fallback`, "0" -> false, "1" -> true.
 * Anything else throws std::runtime_error naming the valid form
 * (the strict-resolver convention of OSCAR_KERNEL_ISA et al.).
 */
bool resolveTraceEnabled(bool fallback = false);

/**
 * Resolve OSCAR_TRACE_BUFFER_KB: per-thread span ring capacity in
 * KiB. Unset -> 256. Valid range 16..65536; malformed or out-of-range
 * values throw std::runtime_error naming the valid form.
 */
std::size_t resolveTraceBufferKb();

/**
 * Apply the environment once per process: OSCAR_TRACE and
 * OSCAR_TRACE_BUFFER_KB via the strict resolvers
 * above, and OSCAR_TRACE_FILE (when set, an atexit hook exports the
 * full Chrome trace there on clean process exit, so ordinary test and
 * tool binaries produce traces under OSCAR_TRACE=1 without code
 * changes). Subsequent calls are no-ops; malformed values throw on
 * the first call.
 */
void applyEnv();

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/**
 * The process-wide span sink. Thread buffers register themselves on
 * first use (the only mutex acquisition on the recording side, once
 * per thread); record() is lock-free thereafter.
 */
class Tracer
{
  public:
    static Tracer& global();

    /** Raw CLOCK_MONOTONIC nanoseconds. */
    static std::uint64_t nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /**
     * Record one completed span into the calling thread's ring. No-op
     * when tracing is disabled. `name` is truncated to kSpanNameChars.
     */
    void record(SpanCategory cat, const char* name, std::uint64_t t0_ns,
                std::uint64_t t1_ns, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0);

    /**
     * Snapshot every local thread buffer without disturbing writers
     * (records mid-write are skipped, never torn). Does not consume:
     * a later collect() sees the same spans again (minus any the ring
     * dropped).
     */
    std::vector<SpanRecord> collect() const;

    /**
     * Collect-and-consume: like collect(), but advances each buffer's
     * consumed cursor so the next drain only returns newer spans, each
     * span exactly once.
     */
    std::vector<SpanRecord> drain();

    /** Mark every recorded span consumed (the next drain is empty). */
    void clear();

    /** Spans dropped by ring wraparound since start. */
    std::uint64_t droppedSpans() const;

  private:
    Tracer() = default;

    struct ThreadBuffer;
    ThreadBuffer& localBuffer();

    mutable std::mutex registryMutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    std::uint32_t nextTid_ = 1;
};

/**
 * RAII span: stamps the begin time at construction (when tracing is
 * on) and records on destruction. Stack-only, allocation-free; when
 * tracing is off the whole object is one bool and two dead loads.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanCategory cat, const char* name, std::uint64_t arg0 = 0,
               std::uint64_t arg1 = 0)
        : active_(tracingEnabled()), cat_(cat), name_(name), arg0_(arg0),
          arg1_(arg1)
    {
        if (active_)
            t0_ = Tracer::nowNs();
    }

    ~ScopedSpan()
    {
        if (active_)
            Tracer::global().record(cat_, name_, t0_, Tracer::nowNs(),
                                    arg0_, arg1_);
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Update the args before the span closes (e.g. bytes produced). */
    void setArgs(std::uint64_t arg0, std::uint64_t arg1 = 0)
    {
        arg0_ = arg0;
        arg1_ = arg1;
    }

  private:
    bool active_;
    SpanCategory cat_;
    const char* name_;
    std::uint64_t arg0_;
    std::uint64_t arg1_;
    std::uint64_t t0_ = 0;
};

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

/**
 * Render spans as chrome://tracing "Trace Event Format" JSON: one
 * balanced B/E event pair per span plus process_name metadata, pids
 * and tids taken from the records. `process_names` labels pids in the
 * viewer (e.g. {getpid(): "oscar"}); unlabeled pids get
 * "process <pid>".
 */
std::string exportChromeTrace(
    const std::vector<SpanRecord>& spans,
    const std::map<std::int32_t, std::string>& process_names = {});

/**
 * Export Tracer::global().collect() to `path`. Returns false (and
 * warns on stderr) when the file cannot be written.
 */
bool exportChromeTraceFile(const std::string& path);

} // namespace obs
} // namespace oscar

#endif // OSCAR_OBS_TRACE_H

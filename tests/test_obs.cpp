/**
 * @file
 * Observability subsystem tests (src/obs/):
 *
 *  - strict OSCAR_TRACE / OSCAR_TRACE_BUFFER_KB resolvers: unset
 *    falls back, "0"/"1" parse, anything else throws;
 *  - log2-bucket histogram boundaries, quantiles, and snapshot
 *    arithmetic;
 *  - Prometheus text exposition shape;
 *  - tracer semantics: exact drain-once shipping, ring wraparound
 *    dropping oldest spans only;
 *  - concurrent recorder/collector stress (the TSan leg runs this
 *    binary to prove the seqlock and relaxed-atomic contracts);
 *  - hot-path cost: an instrumented site performs zero heap
 *    allocations with tracing off while its counter still counts
 *    (verified with a counting global operator new in this TU).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

// ---------------------------------------------------------------------
// Counting allocator: every global new/delete in this binary bumps a
// counter, so a test can assert a code region allocates nothing.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

/**
 * The one allocate/release pair behind every global new and delete
 * below. `release` stays out of line, so an inlined delete hands its
 * pointer back to the pair's own function rather than straight to
 * std::free, which GCC reports as a mismatch with operator new
 * (-Wmismatched-new-delete).
 */
void*
allocate(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
release(void* p) noexcept
{
    std::free(p);
}
} // namespace

void*
operator new(std::size_t size)
{
    return allocate(size);
}

void*
operator new[](std::size_t size)
{
    return allocate(size);
}

void
operator delete(void* p) noexcept
{
    release(p);
}

void
operator delete[](void* p) noexcept
{
    release(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    release(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    release(p);
}

namespace oscar {
namespace {

/** RAII: set or clear one environment variable, restore on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        const char* old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

/** RAII tracing toggle so a test cannot leak an enabled state. */
class ScopedTracing
{
  public:
    explicit ScopedTracing(bool on) { obs::setTracing(on); }
    ~ScopedTracing() { obs::setTracing(false); }
};

// ---------------------------------------------------------------------
// Satellite: strict environment resolvers
// ---------------------------------------------------------------------

TEST(ObsEnvTest, TraceToggleResolvesStrictly)
{
    {
        ScopedEnv env("OSCAR_TRACE", nullptr);
        EXPECT_FALSE(obs::resolveTraceEnabled());
        EXPECT_TRUE(obs::resolveTraceEnabled(true));
    }
    {
        ScopedEnv env("OSCAR_TRACE", "0");
        EXPECT_FALSE(obs::resolveTraceEnabled(true));
    }
    {
        ScopedEnv env("OSCAR_TRACE", "1");
        EXPECT_TRUE(obs::resolveTraceEnabled());
    }
    for (const char* bad : {"", "2", "yes", "true", "01", " 1"}) {
        ScopedEnv env("OSCAR_TRACE", bad);
        EXPECT_THROW(obs::resolveTraceEnabled(), std::runtime_error)
            << "OSCAR_TRACE=\"" << bad << "\"";
    }
}

TEST(ObsEnvTest, TraceBufferKbResolvesStrictly)
{
    {
        ScopedEnv env("OSCAR_TRACE_BUFFER_KB", nullptr);
        EXPECT_EQ(obs::resolveTraceBufferKb(), 256u);
    }
    {
        ScopedEnv env("OSCAR_TRACE_BUFFER_KB", "16");
        EXPECT_EQ(obs::resolveTraceBufferKb(), 16u);
    }
    {
        ScopedEnv env("OSCAR_TRACE_BUFFER_KB", "65536");
        EXPECT_EQ(obs::resolveTraceBufferKb(), 65536u);
    }
    for (const char* bad : {"", "15", "65537", "-1", "1e3", "256k", "abc"}) {
        ScopedEnv env("OSCAR_TRACE_BUFFER_KB", bad);
        EXPECT_THROW(obs::resolveTraceBufferKb(), std::runtime_error)
            << "OSCAR_TRACE_BUFFER_KB=\"" << bad << "\"";
    }
}

// ---------------------------------------------------------------------
// Histogram boundaries and arithmetic
// ---------------------------------------------------------------------

TEST(ObsHistogramTest, BucketBoundariesArePowerOfTwoClasses)
{
    EXPECT_EQ(obs::histogramBucketOf(0), 0u);
    EXPECT_EQ(obs::histogramBucketOf(1), 1u);
    EXPECT_EQ(obs::histogramBucketOf(2), 2u);
    EXPECT_EQ(obs::histogramBucketOf(3), 2u);
    EXPECT_EQ(obs::histogramBucketOf(4), 3u);
    EXPECT_EQ(obs::histogramBucketOf(255), 8u);
    EXPECT_EQ(obs::histogramBucketOf(256), 9u);
    EXPECT_EQ(obs::histogramBucketOf(~std::uint64_t{0}), 64u);

    EXPECT_EQ(obs::histogramBucketBound(0), 0u);
    EXPECT_EQ(obs::histogramBucketBound(1), 1u);
    EXPECT_EQ(obs::histogramBucketBound(2), 3u);
    EXPECT_EQ(obs::histogramBucketBound(9), 511u);
    EXPECT_EQ(obs::histogramBucketBound(64), ~std::uint64_t{0});

    // Every value lands in the bucket whose bound covers it and the
    // previous bucket's bound does not.
    for (std::uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 1000ull,
                            (1ull << 40) - 1, 1ull << 40}) {
        const std::size_t b = obs::histogramBucketOf(v);
        EXPECT_LE(v, obs::histogramBucketBound(b)) << v;
        if (b > 0) {
            EXPECT_GT(v, obs::histogramBucketBound(b - 1)) << v;
        }
    }
}

TEST(ObsHistogramTest, SnapshotCountsSumsAndQuantiles)
{
    obs::Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.observe(v);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1000u);
    EXPECT_EQ(snap.sum, 500500u);
    EXPECT_DOUBLE_EQ(snap.mean(), 500.5);
    // Log-bucket quantiles are exact only at bucket boundaries; the
    // p50 of 1..1000 (500) lives in bucket (256, 512], so the
    // interpolated estimate must land inside that bucket.
    const double p50 = snap.quantile(0.5);
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 512.0);
    const double p99 = snap.quantile(0.99);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1024.0);
    EXPECT_LE(snap.quantile(0.0), snap.quantile(1.0));
}

TEST(ObsHistogramTest, SnapshotDifferenceIsolatesAnInterval)
{
    obs::Histogram h;
    for (int i = 0; i < 10; ++i)
        h.observe(100);
    const obs::HistogramSnapshot before = h.snapshot();
    for (int i = 0; i < 5; ++i)
        h.observe(1000);
    const obs::HistogramSnapshot delta = h.snapshot() - before;
    EXPECT_EQ(delta.count, 5u);
    EXPECT_EQ(delta.sum, 5000u);
    EXPECT_EQ(delta.buckets[obs::histogramBucketOf(1000)], 5u);
    EXPECT_EQ(delta.buckets[obs::histogramBucketOf(100)], 0u);
}

// ---------------------------------------------------------------------
// Registry exposition
// ---------------------------------------------------------------------

TEST(ObsRegistryTest, PrometheusExpositionShape)
{
    obs::MetricsSnapshot s;
    s.counters["serve.requests"] = 7;
    s.gauges["serve.jobs.active"] = 3;
    obs::Histogram h;
    h.observe(100);
    h.observe(1000);
    s.histograms["batch.latency.ns"] = h.snapshot();

    const std::string text = obs::renderPrometheus(s);
    EXPECT_NE(text.find("# TYPE oscar_serve_requests_total counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("oscar_serve_requests_total 7"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE oscar_serve_jobs_active gauge"),
              std::string::npos);
    EXPECT_NE(text.find("oscar_serve_jobs_active 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE oscar_batch_latency_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("oscar_batch_latency_ns_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("oscar_batch_latency_ns_sum 1100"),
              std::string::npos);
    EXPECT_NE(text.find("oscar_batch_latency_ns_count 2"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer semantics
// ---------------------------------------------------------------------

std::size_t
countNamed(const std::vector<obs::SpanRecord>& spans, const char* name)
{
    std::size_t n = 0;
    for (const obs::SpanRecord& s : spans)
        if (std::string(s.name) == name)
            ++n;
    return n;
}

TEST(ObsTracerTest, DrainShipsEachSpanExactlyOnce)
{
    ScopedTracing tracing(true);
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    (void)tracer.drain(); // consume anything older tests recorded

    const std::uint64_t t = obs::Tracer::nowNs();
    for (int i = 0; i < 10; ++i)
        tracer.record(obs::SpanCategory::Wire, "drainonce", t, t + 1,
                      static_cast<std::uint64_t>(i));
    EXPECT_EQ(countNamed(tracer.drain(), "drainonce"), 10u);
    EXPECT_EQ(countNamed(tracer.drain(), "drainonce"), 0u);
    tracer.record(obs::SpanCategory::Wire, "drainonce", t, t + 1, 99);
    EXPECT_EQ(countNamed(tracer.drain(), "drainonce"), 1u);
}

TEST(ObsTracerTest, RingWraparoundDropsOldestSpansOnly)
{
    ScopedTracing tracing(true);
    obs::Tracer& tracer = obs::Tracer::global();
    const std::uint64_t dropped_before = tracer.droppedSpans();

    // A fresh thread gets a fresh ring; overfill it by recording far
    // more spans than any configured capacity (default 256 KiB / 64 B
    // = 4096 slots).
    constexpr std::uint64_t kSpans = 20000;
    std::thread recorder([&tracer] {
        const std::uint64_t t = obs::Tracer::nowNs();
        for (std::uint64_t i = 0; i < kSpans; ++i)
            tracer.record(obs::SpanCategory::Engine, "wrap", t, t + 1, i);
    });
    recorder.join();

    std::uint64_t seen = 0;
    std::uint64_t min_arg = ~std::uint64_t{0};
    std::uint64_t max_arg = 0;
    for (const obs::SpanRecord& s : tracer.collect()) {
        if (std::string(s.name) != "wrap")
            continue;
        ++seen;
        min_arg = std::min(min_arg, s.arg0);
        max_arg = std::max(max_arg, s.arg0);
    }
    ASSERT_GT(seen, 0u);
    EXPECT_LT(seen, kSpans); // the ring is smaller than the burst
    EXPECT_GT(tracer.droppedSpans(), dropped_before);
    // Drop-oldest: what survives is exactly the newest window.
    EXPECT_EQ(max_arg, kSpans - 1);
    EXPECT_EQ(min_arg, kSpans - seen);
}

// ---------------------------------------------------------------------
// Concurrency stress (run under TSan in CI)
// ---------------------------------------------------------------------

TEST(ObsStressTest, ConcurrentRecordersAndCollectorsStayCoherent)
{
    ScopedTracing tracing(true);
    obs::Tracer& tracer = obs::Tracer::global();
    obs::Registry registry;
    obs::Counter& hits = registry.counter("stress.hits");
    obs::Histogram& lat = registry.histogram("stress.latency");

    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 5000;
    std::atomic<bool> stop{false};

    std::thread collector([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const obs::MetricsSnapshot snap = registry.snapshot();
            // Per-metric consistency: a histogram's bucket total can
            // trail count (count bumps after buckets), never exceed
            // the number started.
            std::uint64_t bucket_total = 0;
            for (std::uint64_t b :
                 snap.histograms.at("stress.latency").buckets)
                bucket_total += b;
            EXPECT_LE(snap.histograms.at("stress.latency").count,
                      kThreads * kIters);
            EXPECT_LE(bucket_total, kThreads * kIters);
            for (const obs::SpanRecord& s : tracer.collect()) {
                EXPECT_GT(s.tid, 0u); // never a torn/blank record
                EXPECT_LE(s.t0Ns, s.t0Ns + s.durNs);
            }
        }
    });

    std::vector<std::thread> recorders;
    for (int t = 0; t < kThreads; ++t) {
        recorders.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                obs::ScopedSpan span(obs::SpanCategory::Engine, "stress",
                                     static_cast<std::uint64_t>(t), i);
                hits.add();
                lat.observe(i);
            }
        });
    }
    for (std::thread& th : recorders)
        th.join();
    stop.store(true, std::memory_order_relaxed);
    collector.join();

    EXPECT_EQ(hits.value(), kThreads * kIters);
    const obs::HistogramSnapshot snap = lat.snapshot();
    EXPECT_EQ(snap.count, kThreads * kIters);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : snap.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, kThreads * kIters);
}

// ---------------------------------------------------------------------
// Hot-path cost with tracing off
// ---------------------------------------------------------------------

TEST(ObsDisabledTest, InstrumentedSitesAllocateNothingWhenOff)
{
    obs::setTracing(false);
    // The one-time costs a call site pays regardless: registry
    // lookup (allocates) and thread-buffer registration happen
    // before the measured region, exactly like a static local at a
    // hot site.
    obs::Counter& hits =
        obs::Registry::global().counter("disabled.hits");
    obs::Tracer::global().record(obs::SpanCategory::Engine, "warm", 0, 0);

    const std::uint64_t counted = hits.value();
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        obs::ScopedSpan span(obs::SpanCategory::Engine, "off",
                             static_cast<std::uint64_t>(i));
        hits.add();
    }
    const std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
    // Metrics have no switch: every add counts.
    EXPECT_EQ(hits.value() - counted, 10000u);
}

} // namespace
} // namespace oscar

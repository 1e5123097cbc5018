/**
 * @file
 * Process-wide metrics: the second half of the observability
 * subsystem (src/obs/).
 *
 * A Registry maps stable names to three metric kinds:
 *
 *   Counter    monotonic u64, relaxed add
 *   Gauge      last-written u64 (plus a max() combinator)
 *   Histogram  fixed log2-bucket u64 distribution (65 buckets:
 *              bucket 0 counts zeros, bucket i counts values with
 *              bit_width i, i.e. [2^(i-1), 2^i)), relaxed adds,
 *              with count and sum for averages
 *
 * Updates are single relaxed atomic RMWs -- safe from any thread, on
 * any hot path -- so metrics always record; there is no switch.
 * Lookup by name takes the registry mutex, so call sites cache the
 * returned reference (metrics are never removed; references stay
 * valid for the registry's lifetime):
 *
 *   static obs::Counter& hits =
 *       obs::Registry::global().counter("engine.cache.hits");
 *   hits.add(batch.kernel.cacheHits);
 *
 * Each event has one home. Process-wide events (engine batches, wire
 * frames, request latency) live here; per-instance tallies (one
 * store's StoreStats, one daemon's ServeCounters) live in their
 * instance, because one process may run several.
 *
 * snapshot() reads every metric without stopping writers (each value
 * is independently atomic; a snapshot is a consistent *per-metric*
 * view, the standard contract for monitoring counters).
 *
 * renderPrometheus() emits the text exposition format
 * (`# TYPE`-annotated, cumulative `_bucket{le="..."}` histograms)
 * that `oscar-serve` answers MetricsRequest frames with.
 *
 * Standard library only -- no project headers -- for the same reason
 * as trace.h.
 */

#ifndef OSCAR_OBS_METRICS_H
#define OSCAR_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oscar {
namespace obs {

/** Monotonic counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-written value. */
class Gauge
{
  public:
    void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

    /** Raise to `v` when larger (e.g. high-water marks). */
    void max(std::uint64_t v)
    {
        std::uint64_t cur = v_.load(std::memory_order_relaxed);
        while (cur < v &&
               !v_.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed))
            ;
    }

    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Log2-bucket histogram bucket count: {0} + 64 bit_width classes. */
constexpr std::size_t kHistogramBuckets = 65;

/** Bucket index of a value: 0 for 0, else std::bit_width(v). */
inline std::size_t
histogramBucketOf(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

/**
 * Inclusive upper bound of bucket `i` (the Prometheus `le` label):
 * bucket 0 holds only 0; bucket i holds (2^(i-1), 2^i], expressed via
 * bit_width as [2^(i-1), 2^i - 1] -- the bound is 2^i - 1.
 */
inline std::uint64_t
histogramBucketBound(std::size_t i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

/** Point-in-time copy of one histogram. */
struct HistogramSnapshot
{
    std::uint64_t buckets[kHistogramBuckets] = {0};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /**
     * Quantile estimate (q in [0,1]) by linear interpolation inside
     * the bucket containing the q-th observation. Exact for bucket
     * boundaries; within one bucket's width otherwise. 0 when empty.
     */
    double quantile(double q) const;

    double mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Per-bucket difference, for interval measurements over a
     * cumulative histogram (bench percentile columns). Requires
     * `other` to be an earlier snapshot of the same histogram.
     */
    HistogramSnapshot operator-(const HistogramSnapshot& other) const;
};

/** Fixed-bucket log-scale histogram. */
class Histogram
{
  public:
    void observe(std::uint64_t v)
    {
        buckets_[histogramBucketOf(v)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * Point-in-time copy of a whole registry. std::map keys make every
 * traversal (render) deterministic by construction.
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::uint64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    bool empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }
};

/**
 * Named-metric registry. global() is the process-wide instance every
 * instrumented site uses; separate instances exist for tests.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    static Registry& global();

    /** Find-or-create; the reference stays valid for the registry. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Snapshot every metric without stopping writers. */
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Prometheus text exposition of a snapshot: every metric name is
 * sanitized (non-[a-zA-Z0-9_] -> '_') and prefixed "oscar_";
 * counters render as `<name>_total`, histograms as cumulative
 * `_bucket{le="..."}` series plus `_sum` and `_count`.
 */
std::string renderPrometheus(const MetricsSnapshot& snapshot);

} // namespace obs
} // namespace oscar

#endif // OSCAR_OBS_METRICS_H

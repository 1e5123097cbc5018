#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace oscar {
namespace obs {

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target observation, 1-based.
    const double rank = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        const std::uint64_t next = seen + buckets[i];
        if (static_cast<double>(next) >= rank) {
            // Interpolate inside bucket i, which spans
            // [lower, histogramBucketBound(i)].
            const double lower =
                i == 0 ? 0.0
                       : static_cast<double>(histogramBucketBound(i - 1)) +
                             1.0;
            const double upper =
                static_cast<double>(histogramBucketBound(i));
            const double into =
                buckets[i] == 0
                    ? 0.0
                    : (rank - static_cast<double>(seen)) /
                          static_cast<double>(buckets[i]);
            return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
        }
        seen = next;
    }
    return static_cast<double>(histogramBucketBound(kHistogramBuckets - 1));
}

HistogramSnapshot
HistogramSnapshot::operator-(const HistogramSnapshot& other) const
{
    HistogramSnapshot delta;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        delta.buckets[i] =
            buckets[i] >= other.buckets[i] ? buckets[i] - other.buckets[i]
                                           : 0;
    delta.count = count >= other.count ? count - other.count : 0;
    delta.sum = sum >= other.sum ? sum - other.sum : 0;
    return delta;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    return snap;
}

Registry&
Registry::global()
{
    static Registry* instance = new Registry(); // never destroyed, like
                                                // Tracer::global()
    return *instance;
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(m_);
    std::unique_ptr<Counter>& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(m_);
    std::unique_ptr<Gauge>& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
Registry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(m_);
    std::unique_ptr<Histogram>& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(m_);
    for (const auto& [name, counter] : counters_)
        snap.counters[name] = counter->value();
    for (const auto& [name, gauge] : gauges_)
        snap.gauges[name] = gauge->value();
    for (const auto& [name, histogram] : histograms_)
        snap.histograms[name] = histogram->snapshot();
    return snap;
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

namespace {

std::string
promName(const std::string& name)
{
    std::string out = "oscar_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

std::string
renderPrometheus(const MetricsSnapshot& snapshot)
{
    std::string out;
    char buf[128];
    for (const auto& [name, value] : snapshot.counters) {
        const std::string prom = promName(name) + "_total";
        out += "# TYPE " + prom + " counter\n";
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
        out += prom + buf;
    }
    for (const auto& [name, value] : snapshot.gauges) {
        const std::string prom = promName(name);
        out += "# TYPE " + prom + " gauge\n";
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
        out += prom + buf;
    }
    for (const auto& [name, hist] : snapshot.histograms) {
        const std::string prom = promName(name);
        out += "# TYPE " + prom + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            if (hist.buckets[i] == 0)
                continue; // sparse: 65 log2 buckets, few occupied
            cumulative += hist.buckets[i];
            std::snprintf(buf, sizeof(buf),
                          "{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                          histogramBucketBound(i), cumulative);
            out += prom + "_bucket" + buf;
        }
        std::snprintf(buf, sizeof(buf), "{le=\"+Inf\"} %" PRIu64 "\n",
                      hist.count);
        out += prom + "_bucket" + buf;
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", hist.sum);
        out += prom + "_sum" + buf;
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", hist.count);
        out += prom + "_count" + buf;
    }
    return out;
}

} // namespace obs
} // namespace oscar
